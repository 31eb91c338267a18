"""Stochastic conductance-noise models for ReRAM cells.

Four sources are modeled, all in conductance units (siemens):

* thermal noise   -- Gaussian, sigma = sqrt(4*G*Freq*k_B*T) / V
* shot noise      -- Gaussian, sigma = sqrt(2*G*Freq*q*V) / V
* RTN             -- a trap is occupied at read time with probability p;
                     when occupied the conductance jumps by G*rel_amp(G)
                     with rel_amp(G) = a/(G/G_min) + b
* programming     -- Gaussian write error, sigma = sigma_prog * G

Thermal, shot and RTN perturb every read; programming noise is frozen at
write time and persists until the cell is reprogrammed. All samplers are
pure functions of (context, generator): the same seed reproduces the same
sequence, so Monte-Carlo sweeps can be parallelized with per-worker
substreams.

The RTN amplitude coefficients are calibration placeholders (the reference
measurements live in external experimental work); they are exposed through
the campaign config rather than hard-coded into callers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

K_BOLTZMANN = 1.380649e-23  # J/K
Q_ELECTRON = 1.602176634e-19  # C


@dataclass(frozen=True)
class RtnParams:
    """Relative-amplitude law and occupancy of the random-telegraph trap."""

    amp_coeff_a: float = 4e-4
    amp_coeff_b: float = 2e-3
    p_occupancy: float = 0.5

    def __post_init__(self):
        if not (0.0 <= self.p_occupancy <= 1.0):
            raise ValueError("p_occupancy must lie in [0,1]")
        if self.amp_coeff_a < 0.0 or self.amp_coeff_b < 0.0:
            raise ValueError("RTN amplitude coefficients must be >= 0")


@dataclass(frozen=True)
class NoiseContext:
    """Physical operating point of one read/write.

    ``g`` may be a scalar or an ndarray of cell conductances; all samplers
    broadcast over it. ``g_min`` anchors the RTN relative-amplitude law
    (lowest programmable conductance, 1/r_off).
    """

    g: float | np.ndarray
    v: float
    freq_hz: float
    temperature_k: float
    sigma_prog: float = 0.0658
    g_min: float = 1.0 / 3.03e6
    rtn: RtnParams = field(default_factory=RtnParams)

    def __post_init__(self):
        if np.any(np.asarray(self.g) < 0.0):
            raise ValueError("conductance must be >= 0")
        if self.v <= 0.0:
            raise ValueError("terminal voltage must be > 0")
        if self.freq_hz <= 0.0 or self.temperature_k <= 0.0:
            raise ValueError("frequency and temperature must be > 0")


def thermal_sigma(ctx: NoiseContext):
    """Std of the thermal conductance noise; 0 where g = 0."""
    g = np.asarray(ctx.g, dtype=float)
    out = np.sqrt(4.0 * g * ctx.freq_hz * K_BOLTZMANN * ctx.temperature_k) / ctx.v
    return out if out.ndim else float(out)


def shot_sigma(ctx: NoiseContext):
    """Std of the shot conductance noise; 0 where g = 0."""
    g = np.asarray(ctx.g, dtype=float)
    out = np.sqrt(2.0 * g * ctx.freq_hz * Q_ELECTRON * ctx.v) / ctx.v
    return out if out.ndim else float(out)


def prog_sigma(ctx: NoiseContext):
    """Std of the programming (write) noise: sigma_prog * g."""
    g = np.asarray(ctx.g, dtype=float)
    out = ctx.sigma_prog * g
    return out if out.ndim else float(out)


def rtn_amplitude(ctx: NoiseContext):
    """Conductance jump when the trap is occupied: g * (a/(g/g_min) + b).

    Algebraically a*g_min + b*g; defined as 0 at g = 0 (no current path).
    """
    g = np.asarray(ctx.g, dtype=float)
    amp = ctx.rtn.amp_coeff_a * ctx.g_min + ctx.rtn.amp_coeff_b * g
    out = np.where(g > 0.0, amp, 0.0)
    return out if out.ndim else float(out)


def rtn_sample(ctx: NoiseContext, rng: np.random.Generator):
    """One RTN draw: the trap amplitude with probability p_occupancy, else 0."""
    g = np.asarray(ctx.g, dtype=float)
    occupied = rng.random(g.shape) < ctx.rtn.p_occupancy
    out = np.where(occupied, rtn_amplitude(ctx), 0.0)
    return out if out.ndim else float(out)


def sample_read(
    ctx: NoiseContext,
    rng: np.random.Generator,
    *,
    thermal: bool = True,
    shot: bool = True,
    rtn: bool = True,
):
    """Conductances seen by one read: g plus fresh thermal, shot and RTN noise.

    The sources are drawn independently, in that order, and each is added
    onto the running sum in turn; reproducible reads depend on that order
    of the draws and of the additions. Disabled sources draw nothing.
    """
    g = np.asarray(ctx.g, dtype=float)
    out = g
    if thermal:
        out = out + rng.standard_normal(g.shape) * thermal_sigma(ctx)
    if shot:
        out = out + rng.standard_normal(g.shape) * shot_sigma(ctx)
    if rtn:
        out = out + rtn_sample(ctx, rng)
    return out if out.ndim else float(out)


def sample_write_noise(ctx: NoiseContext, rng: np.random.Generator, *, prog: bool = True):
    """One per-deployment programming error, Gaussian with std sigma_prog*g."""
    g = np.asarray(ctx.g, dtype=float)
    if not prog:
        out = np.zeros(g.shape)
        return out if out.ndim else 0.0
    out = rng.standard_normal(g.shape) * prog_sigma(ctx)
    return out if out.ndim else float(out)
