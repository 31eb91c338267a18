"""Stochastic conductance-noise models for ReRAM cells.

Four sources are modeled, all in conductance units (siemens):

* thermal noise   -- Gaussian, sigma = sqrt(4*G*Freq*k_B*T) / V
* shot noise      -- Gaussian, sigma = sqrt(2*G*Freq*q*V) / V
* RTN             -- a trap is occupied at read time with probability p;
                     when occupied the conductance jumps by G*rel_amp(G)
                     with rel_amp(G) = a/(G/G_min) + b
* programming     -- Gaussian write error, sigma = sigma_prog * G

Thermal, shot and RTN perturb every read; programming noise is frozen at
write time and persists until the cell is reprogrammed. A layer's one
``CellNoise`` decides what its cells hold, in three operations that each
return conductances clipped to [0, g_max]:

* ``write`` programs cells from their digits: the target plus one
  Gaussian write error per cell and copy;
* ``read`` reads programmed conductances: thermal and shot noise together
  as one Gaussian, then RTN. Both are independent, zero-mean and have
  variances linear in G, so their sum is Gaussian with the summed
  variance c*G;
* ``fresh`` reads a deployment that is read exactly once (ReSNA's
  training redeploys the weights on every batch), which needs no stored
  programming error. It folds the write error into the same Gaussian,
  taken at the target G: sigma^2 = sigma_prog^2 * G^2 + c * G, the total
  variance Var(G_prog) + E[c * G_prog] of writing and then reading the
  cell. It differs from a write and a read only in taking the read sigma
  at the target and in clipping once.

``sources`` draws each source's own unclipped perturbation for ``reramopt
noise-hist``. A deployment is held as digit planes (see ``crossbar``), so
a cell's target, fresh-read std and RTN jump depend on its digit
alone: ``fresh`` evaluates each per-cell expression once per level of
``ReramDesign.levels`` and gathers the results by digit. The rest,
std*N + target, jump*occupied + that and one clip, is elementwise and
correctly rounded, so the read has the per-cell formula's bytes.

Every Gaussian comes from ``standard_normal``: float32 Box-Muller normals
r*cos(2*pi*u2), r*sin(2*pi*u2) with r = sqrt(-2*log1p(-u1)), from the
float32 uniforms of ``Generator.random``. Reading the generator's 32-bit
draws 64 bits at a time (``_uint32_draws``), it takes 3.4 ns per value on
a 2-core AVX-512 Xeon, against 4.3 ns through ``Generator.random`` and 13
ns for NumPy's float64 ziggurat. Its law differs from N(0, 1) in that the
tail is cut at sqrt(48*ln 2) ~ 5.77 sigma (u1 is a multiple of 2**-24
below 1; 8.0e-9 of the mass), and its bytes depend on the NumPy build's
float32 ``log1p``, ``sin`` and ``cos``, as ``mesmo``'s front sampler
depends on its float32 ``cos`` (``_COS_ERR``). RTN occupancy at the
default p = 1/2 is one bit of those draws per cell, exact Bernoulli(1/2);
any other p compares one float64 uniform per cell with p.

The sigma functions take the conductances ``g`` (a scalar or an ndarray)
and the ``ReramDesign`` that sets V = v_r, Freq, T, sigma_prog and
G_min = 1/r_off. ``rtn_amplitude`` and ``CellNoise`` also take a
``NoiseSpec``, the config's ``noise:`` section (its RTN coefficients are
calibration placeholders), and ``CellNoise``'s operations a
generator: the same seed reproduces the same sequence, so Monte-Carlo
sweeps can use per-worker substreams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .design_space import ReramDesign

K_BOLTZMANN = 1.380649e-23  # J/K
Q_ELECTRON = 1.602176634e-19  # C
_TWO_PI = np.float32(2.0 * np.pi)
_UNIFORM_STEP = np.float32(2.0**-24)


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


def _uint32_draws(rng: np.random.Generator, k: int) -> np.ndarray:
    """The next k 32-bit draws of ``rng``: the values and state of ``rng.integers(0, 2**32, k, np.uint32)``.

    PCG64, NumPy's default, serves them as the low, then the high half of
    each 64-bit output and keeps an unserved half in its state. This takes
    whole outputs from ``random_raw``: a kept half is served first, and
    when the rest is odd the last high half is kept in its place.
    """
    bg = rng.bit_generator
    if type(bg) is not np.random.PCG64 or not np.little_endian:
        return rng.integers(0, 1 << 32, k, dtype=np.uint32)
    # Whole outputs to take: an odd k takes one fewer when a kept half is served first.
    m = (k + 1 - (k % 2 and bg.state["has_uint32"])) // 2
    halves = bg.random_raw(m).view(np.uint32)  # low half first
    state = bg.state
    served, kept = min(state["has_uint32"], k), state["uinteger"]
    state["has_uint32"] += 2 * m - k
    if m:
        state["uinteger"] = int(halves[-1])
    bg.state = state
    return np.concatenate((np.array([kept], np.uint32), halves[: k - 1])) if served else halves[:k]


def standard_normal(rng: np.random.Generator | None, shape: tuple[int, ...], draws=None, out=None) -> np.ndarray:
    """Float32 standard normals of the given shape, by Box-Muller (see the module docstring).

    Takes 2*ceil(n/2) 32-bit draws of ``rng``, or overwrites ``draws``, and
    makes each the uniform ``Generator.random`` makes of it, its top 24 bits
    times 2**-24. The first half set the radii and the second the angles;
    the cosines fill the first half of the result and the sines the second,
    so the values depend on n alone, and an odd n gives the first n of the
    n + 1 values. Works in ``out``, at least 3*ceil(n/2) float32, or a new
    array; the result is a view of it.
    """
    n = math.prod(shape)
    m = (n + 1) // 2
    draws = _uint32_draws(rng, 2 * m) if draws is None else draws
    u = np.empty(3 * m, dtype=np.float32) if out is None else out[: 3 * m]
    r, theta, cos = u[:m], u[m : 2 * m], u[2 * m :]
    draws >>= 8
    np.multiply(draws, _UNIFORM_STEP, out=u[: 2 * m], dtype=np.float32)
    np.negative(r, out=r)
    np.log1p(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta *= _TWO_PI
    np.cos(theta, out=cos)
    np.sin(theta, out=theta)
    theta *= r
    np.multiply(cos, r, out=r)
    return u[:n].reshape(shape)


def _read_draws(
    spec: NoiseSpec, rng: np.random.Generator | None, shape: tuple[int, ...], gauss: bool, rtn: bool, out=None
):
    """(normals if ``gauss``, RTN occupancy if ``rtn``) of one read of cells of ``shape``, drawn in that order.

    At p = 1/2 the occupancy is one bit per cell of the little-endian bytes
    of 32-bit draws, taken together with the normals'. ``out`` is
    ``standard_normal``'s. A None ``rng`` raises ValueError.
    """
    if rng is None:
        raise ValueError("a noisy read requires a generator")
    n = math.prod(shape)
    words = 2 * ((n + 1) // 2) if gauss else 0
    packed = rtn and spec.rtn_p_occupancy == 0.5
    draws = _uint32_draws(rng, words + (n + 31) // 32 * packed)
    normals = standard_normal(None, shape, draws[:words], out) if gauss else None
    if packed:
        bits = draws[words:].astype("<u4", copy=False).view(np.uint8)
        return normals, np.unpackbits(bits, count=n).view(bool).reshape(shape)
    return normals, rng.random(shape) < spec.rtn_p_occupancy if rtn else None


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
    """Conductance jump when the trap is occupied: g * (a/(g/g_min) + b) = a*g_min + b*g, 0 at g = 0.

    The mask multiplies by g > 0, the bytes of ``np.where(g > 0, amp, 0)``
    for every g >= 0, in a fifth of its time.
    """
    g = np.asarray(g, dtype=float)
    amp = spec.rtn_amp_b * g
    amp += spec.rtn_amp_a * design.g_min
    amp *= g > 0.0
    return amp


class CellNoise:
    """The noise of one layer's cells: one design under one ``NoiseSpec``.

    ``write``, ``read`` and ``fresh`` (see the module docstring) decide what
    a cell holds, and ``sources`` draws each source on its own. It builds
    its read variance and per-level tables at first use and keeps the fresh
    read's buffers across reads, so it serves one thread at a time.
    """

    def __init__(self, design: ReramDesign, spec: NoiseSpec):
        self.design, self.spec, self._work = design, spec, ()

    @cached_property
    def var_per_siemens(self) -> float:
        """Variance of the enabled thermal and shot read noise per siemens of conductance."""
        d, spec = self.design, self.spec
        return (thermal_sigma(1.0, d) ** 2 if spec.thermal else 0.0) + (shot_sigma(1.0, d) ** 2 if spec.shot else 0.0)

    @cached_property
    def _writes(self) -> bool:
        """Whether a write draws an error: programming noise on and sigma_prog > 0."""
        return self.spec.prog and self.design.sigma_prog > 0.0

    @cached_property
    def _tables(self) -> tuple[np.ndarray | None, np.ndarray | None]:
        d, spec, write = self.design, self.spec, self._writes
        std = self._std(d.levels, write) if spec.thermal or spec.shot or write else None
        return std, rtn_amplitude(d.levels, d, spec) if spec.rtn else None  # levels > 0: no mask

    def _std(self, g: np.ndarray, write: bool) -> np.ndarray:
        """Std of a read's one Gaussian: enabled thermal and shot, plus the write error if ``write``."""
        var = self.var_per_siemens * g
        if write:
            prog_var = prog_sigma(g, self.design)
            prog_var *= prog_var
            var += prog_var
        return np.sqrt(var, out=var)

    def _write_error(self, g, shape: tuple[int, ...], rng: np.random.Generator | None) -> np.ndarray:
        """One write error per cell of ``shape``, Gaussian with std sigma_prog*g; g broadcasts to ``shape``.

        Zeros, drawn without ``rng``, when a write draws nothing; else a None ``rng`` raises ValueError.
        """
        if not self._writes:
            return np.zeros(shape)
        if rng is None:
            raise ValueError("a noisy write requires a generator")
        return np.multiply(prog_sigma(g, self.design), standard_normal(rng, shape))

    def write(self, digits: np.ndarray, copies: tuple[int, ...], rng: np.random.Generator | None) -> np.ndarray:
        """Programmed conductances of cells holding ``digits``, broadcast to ``copies``, each with its own error.

        Takes the write std once per cell of ``digits``; ``rng`` may be None
        only when a write draws nothing.
        """
        target = self.design.levels.take(digits)
        g = self._write_error(target, copies, rng)
        g += target
        return g.clip(0.0, self.design.g_max, out=g)

    def read(self, g: np.ndarray, rng: np.random.Generator | None) -> np.ndarray:
        """One read of programmed conductances g: one thermal-plus-shot Gaussian, then RTN, then the clip.

        Reproducible reads depend on that order. With no source on, g itself,
        which ``write`` clipped, comes back and ``rng`` may be None;
        otherwise the result is a new array.
        """
        spec = self.spec
        gauss = spec.thermal or spec.shot
        if not (gauss or spec.rtn):
            return g
        normals, occupied = _read_draws(spec, rng, g.shape, gauss, spec.rtn)
        out = g
        if gauss:
            out = self._std(g, write=False)
            out *= normals
            out += g
        if spec.rtn:
            rtn = rtn_amplitude(g, self.design, spec)
            rtn *= occupied
            rtn += out
            out = rtn
        return out.clip(0.0, self.design.g_max, out=out)

    def fresh(self, digits: np.ndarray, rng: np.random.Generator | None) -> np.ndarray:
        """One read of a fresh deployment of ``digits``: one Gaussian per cell at its target, then RTN, then the clip.

        With no source on the targets come back and ``rng`` may be None;
        otherwise the result is a buffer that the next fresh read overwrites.
        """
        levels, (std, jump) = self.design.levels, self._tables
        if std is None and jump is None:
            return levels.take(digits)
        if not self._work or self._work[0].shape != digits.shape:
            m = (digits.size + 1) // 2
            self._work = (*(np.empty(digits.shape, t) for t in (np.intp, float, float)), np.empty(3 * m, np.float32))
        idx, out, tmp, work = self._work
        normals, occupied = _read_draws(self.spec, rng, digits.shape, std is not None, jump is not None, work)
        np.copyto(idx, digits)  # take() gathers fastest by intp
        if std is not None:
            out = np.multiply(std.take(idx, out=out, mode="clip"), normals, out=out)
            out += levels.take(idx, out=tmp, mode="clip")
        else:
            levels.take(idx, out=out, mode="clip")
        if jump is not None:
            jump.take(idx, out=tmp, mode="clip")
            tmp *= occupied
            out += tmp
        return out.clip(0.0, self.design.g_max, out=out)

    def sources(self, g: np.ndarray, rng: np.random.Generator) -> dict[str, np.ndarray]:
        """Each source's own unclipped perturbation of cells g, drawn and keyed in the order thermal, shot, rtn, prog.

        A source that is off is zeros and draws nothing.
        """
        d, spec, shape = self.design, self.spec, g.shape
        thermal = standard_normal(rng, shape) * thermal_sigma(g, d) if spec.thermal else np.zeros(shape)
        shot = standard_normal(rng, shape) * shot_sigma(g, d) if spec.shot else np.zeros(shape)
        occupied = _read_draws(spec, rng, shape, False, True)[1] if spec.rtn else False
        rtn = rtn_amplitude(g, d, spec) * occupied
        return {"thermal": thermal, "shot": shot, "rtn": rtn, "prog": self._write_error(g, shape, rng)}
