"""Stochastic conductance-noise models for ReRAM cells.

Four sources are modeled, all in conductance units (siemens):

* thermal noise   -- Gaussian, sigma = sqrt(4*G*Freq*k_B*T) / V
* shot noise      -- Gaussian, sigma = sqrt(2*G*Freq*q*V) / V
* RTN             -- a trap is occupied at read time with probability p;
                     when occupied the conductance jumps by G*rel_amp(G)
                     with rel_amp(G) = a/(G/G_min) + b
* programming     -- Gaussian write error, sigma = sigma_prog * G

Thermal, shot and RTN perturb every read; programming noise is frozen at
write time and persists until the cell is reprogrammed. A read
(``sample_read``) draws thermal and shot noise together as one Gaussian:
both are independent, zero-mean and have variances linear in G, so their
sum is Gaussian with the summed variance c*G. ``reramopt noise-hist``
reports every source on its own and keeps separate per-source draws.

A deployment that is read exactly once (ReSNA's training redeploys the
weights on every batch) needs no stored programming error. Its read
(``sample_read(..., fresh=True)``) folds the write error into the same
Gaussian, taken at the target G, with variance

    sigma^2 = sigma_prog^2 * G^2 + c * G.

That is the total variance of writing and then reading the cell:
Var(G_prog) + E[c * G_prog] = sigma_prog^2 * G^2 + c * G. The law differs
from the two-draw path in two places only: the read sigma is taken at the
target instead of the programmed G, and the caller clips once instead of
after each draw.

Every read and write Gaussian comes from one source,
``standard_normal``: float32 Box-Muller normals, drawn as 2*ceil(n/2)
float32 uniforms u1, u2 and returned as r*cos(2*pi*u2) and r*sin(2*pi*u2)
with r = sqrt(-2*log1p(-u1)), all in float32. On a 2-core AVX-512 Xeon it
takes 4.2 ns per value, against 13 ns for NumPy's float64 ziggurat. Its
law differs from N(0, 1) in two stated ways:

* the tail is cut at sqrt(48*ln 2) ~ 5.77 sigma, because u1 is a multiple
  of 2**-24 below 1; that drops 8.0e-9 of the mass;
* the bytes depend on the NumPy build's float32 ``log1p``, ``sin`` and
  ``cos`` kernels, as ``mesmo``'s front sampler already depends on its
  float32 ``cos`` (``_COS_ERR``).

RTN occupancy at the default p = 1/2 is read from packed random bits, one
bit per cell, which is exact Bernoulli(1/2); any other p compares one
float64 uniform per cell with p.

Every function takes the conductances ``g`` (a scalar or an ndarray) and
the ``ReramDesign`` that sets V = v_r, Freq, T, sigma_prog and
G_min = 1/r_off. The RTN functions and the samplers also take a
``NoiseSpec``: the config's ``noise:`` section, with the source switches
and the RTN law (its coefficients are calibration placeholders). Samplers
take a generator last; the same seed reproduces the same sequence, so
Monte-Carlo sweeps can be parallelized with per-worker substreams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design_space import ReramDesign

K_BOLTZMANN = 1.380649e-23  # J/K
Q_ELECTRON = 1.602176634e-19  # C
_TWO_PI = np.float32(2.0 * np.pi)


@dataclass(frozen=True)
class NoiseSpec:
    """Which stochastic sources are active, plus the RTN amplitude law and occupancy."""

    thermal: bool = True
    shot: bool = True
    rtn: bool = True
    prog: bool = True
    rtn_amp_a: float = 4e-4
    rtn_amp_b: float = 2e-3
    rtn_p_occupancy: float = 0.5

    def __post_init__(self):
        if not (0.0 <= self.rtn_p_occupancy <= 1.0):
            raise ValueError("rtn_p_occupancy must lie in [0,1]")
        amps = (self.rtn_amp_a, self.rtn_amp_b)
        if not all(math.isfinite(a) and a >= 0.0 for a in amps):
            raise ValueError(f"RTN amplitude coefficients must be finite and >= 0, got {list(amps)}")

    @classmethod
    def disabled(cls) -> "NoiseSpec":
        return cls(thermal=False, shot=False, rtn=False, prog=False)

    @property
    def noisy_reads(self) -> bool:
        """Whether any read-time source (thermal, shot or RTN) is on."""
        return self.thermal or self.shot or self.rtn


def standard_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Float32 standard normals of the given shape, by Box-Muller (see the module docstring).

    Draws 2*ceil(n/2) float32 uniforms for n values: the first half sets the
    radii and the second the angles. The cosines fill the first half of the
    result and the sines the second, so the values depend on n alone, and
    an odd n gives the first n of the n + 1 values of the same seed.
    """
    n = math.prod(shape)
    m = (n + 1) // 2
    u = rng.random(2 * m, dtype=np.float32)
    r, theta = u[:m], u[m:]
    np.negative(r, out=r)
    np.log1p(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta *= _TWO_PI
    cos = np.cos(theta)
    np.sin(theta, out=theta)
    theta *= r
    np.multiply(cos, r, out=r)
    return u[:n].reshape(shape)


def thermal_sigma(g, design: ReramDesign):
    """Std of the thermal conductance noise; 0 where g = 0."""
    g = np.asarray(g, dtype=float)
    return np.sqrt(4.0 * g * design.freq_hz * K_BOLTZMANN * design.temperature_k) / design.v_r


def shot_sigma(g, design: ReramDesign):
    """Std of the shot conductance noise; 0 where g = 0."""
    g = np.asarray(g, dtype=float)
    return np.sqrt(2.0 * g * design.freq_hz * Q_ELECTRON * design.v_r) / design.v_r


def prog_sigma(g, design: ReramDesign):
    """Std of the programming (write) noise: sigma_prog * g."""
    return design.sigma_prog * np.asarray(g, dtype=float)


def rtn_amplitude(g, design: ReramDesign, spec: NoiseSpec):
    """Conductance jump when the trap is occupied: g * (a/(g/g_min) + b).

    Algebraically a*g_min + b*g; defined as 0 at g = 0 (no current path).
    Masked by multiplying with g > 0 in place, which gives the bytes of
    ``np.where(g > 0, amp, 0)`` for every g >= 0, the range all read paths
    clip to, in a fifth of its time on 32,768 cells.
    """
    g = np.asarray(g, dtype=float)
    amp = _rtn_jump(g, design, spec)
    amp *= g > 0.0
    return amp


def _rtn_jump(g: np.ndarray, design: ReramDesign, spec: NoiseSpec) -> np.ndarray:
    """a*g_min + b*g: the RTN amplitude wherever g > 0."""
    amp = spec.rtn_amp_b * g
    amp += spec.rtn_amp_a * design.g_min
    return amp


def rtn_sample(
    g, design: ReramDesign, spec: NoiseSpec, rng: np.random.Generator, fresh: bool = False
):
    """One RTN draw: the trap amplitude with probability rtn_p_occupancy, else 0.

    At p = 1/2 each cell takes one bit of uint8 draws, unpacked in order;
    any other p compares one float64 uniform per cell with p. With
    ``fresh``, g holds deployment targets, all at least g_min > 0, so the
    g = 0 case of ``rtn_amplitude`` cannot arise and is not masked.
    """
    g = np.asarray(g, dtype=float)
    if spec.rtn_p_occupancy == 0.5:
        bits = rng.integers(0, 256, (g.size + 7) // 8, dtype=np.uint8)
        occupied = np.unpackbits(bits, count=g.size).view(bool).reshape(g.shape)
    else:
        occupied = rng.random(g.shape) < spec.rtn_p_occupancy
    amp = _rtn_jump(g, design, spec) if fresh else rtn_amplitude(g, design, spec)
    amp *= occupied
    return amp


def sample_read(
    g, design: ReramDesign, spec: NoiseSpec, rng: np.random.Generator, fresh: bool = False
):
    """Conductances seen by one read: g plus fresh thermal, shot and RTN noise.

    Thermal and shot noise are independent zero-mean Gaussians whose
    variances are both linear in g, so the enabled ones are drawn as a single
    Gaussian with std sqrt(sigma_th^2 + sigma_sh^2); RTN is drawn after it.
    With ``fresh``, g holds the targets of a deployment that this read alone
    sees, and the programming error (if enabled) joins the same Gaussian, as
    the module docstring derives. Reproducible reads depend on that order of
    the draws. Disabled sources draw nothing, and with none enabled g itself
    is returned; otherwise the result is a new array.
    """
    g = np.asarray(g, dtype=float)
    out = g
    write = fresh and spec.prog and design.sigma_prog > 0.0
    if spec.thermal or spec.shot or write:
        out = _read_std(g, design, spec, write)
        out *= standard_normal(rng, g.shape)
        out += g
    if spec.rtn:
        rtn = rtn_sample(g, design, spec, rng, fresh)
        rtn += out
        out = rtn
    return out


def _read_std(g: np.ndarray, design: ReramDesign, spec: NoiseSpec, write: bool) -> np.ndarray:
    """Std of a read's one Gaussian: enabled thermal and shot, plus the write error if ``write``."""
    var_per_siemens = (design.thermal_var if spec.thermal else 0.0) + (
        design.shot_var if spec.shot else 0.0
    )
    var = np.asarray(var_per_siemens * g)  # 0-d for a scalar g, so it updates in place
    if write:
        prog_var = prog_sigma(g, design)
        prog_var *= prog_var
        var += prog_var
    return np.sqrt(var, out=var)


def sample_write_noise(g, design: ReramDesign, spec: NoiseSpec, rng: np.random.Generator):
    """One per-deployment programming error, Gaussian with std sigma_prog*g (0 if off)."""
    g = np.asarray(g, dtype=float)
    if not spec.prog:
        return np.zeros(g.shape)
    err = prog_sigma(g, design)
    err *= standard_normal(rng, g.shape)
    return err
