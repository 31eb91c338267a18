"""ReRAM design configuration space and its unit-cube encoding.

A design point fixes four free variables (cell resolution, operating
frequency, temperature, crossbar side length); everything else about the
device is a constant (``Device``). Optimizers work on a normalized [0,1]^4 vector;
ordinal variables are snapped back to their nearest admissible level on
decode, continuous variables map affinely.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import ClassVar

import numpy as np

RES_CELL_LEVELS = (1, 2, 3, 4, 8)
XBAR_SIZES = (32, 64, 128)
FREQ_BOUNDS_HZ = (1.0e7, 1.0e9)
TEMPERATURE_BOUNDS_K = (300.0, 400.0)


@dataclass(frozen=True, kw_only=True)
class Device:
    """The config's ``device:`` section: the fixed device of every design.

    The constants default to the reference device and are overridable for
    what-if studies. Building one runs the checks that need no design variable.
    """

    bit_quan: int = 8
    r_on: float = 3.03e3
    r_off: float = 3.03e6
    res_dac: int = 8
    res_adc: int | None = 8  # None means an ideal (infinite-resolution) ADC
    v_r: float = 1.65
    sigma_prog: float = 0.0658

    def __post_init__(self):
        if not (0.0 < self.r_on < self.r_off):
            raise ValueError("need 0 < r_on < r_off")
        if not (math.isfinite(self.v_r) and self.v_r > 0.0):
            raise ValueError(f"v_r must be positive and finite, got {self.v_r}")
        if not (math.isfinite(self.sigma_prog) and self.sigma_prog >= 0.0):
            raise ValueError(f"sigma_prog must be finite and >= 0, got {self.sigma_prog}")
        adc_ok = self.res_adc is None or self.res_adc >= 1
        if not (1 <= self.bit_quan <= 8 and self.res_dac >= 1 and adc_ok):
            raise ValueError("need 1 <= bit_quan <= 8, res_dac >= 1 and res_adc >= 1")
        if self.res_dac < self.bit_quan:
            # Activations are quantized to bit_quan bits; a narrower DAC
            # would clip their codes without an error.
            raise ValueError(f"res_dac ({self.res_dac}) is narrower than bit_quan ({self.bit_quan})")


@dataclass(frozen=True)
class ReramDesign(Device):
    """One point of the crossbar design space on a ``Device``.

    Free variables: ``res_cell`` (bits per cell), ``freq_hz``,
    ``temperature_k``, ``xbar_size``; the device fields are keyword-only.
    """

    res_cell: int
    freq_hz: float
    temperature_k: float
    xbar_size: int

    def __post_init__(self):
        if self.res_cell not in RES_CELL_LEVELS:
            raise ValueError(f"res_cell must be one of {RES_CELL_LEVELS}, got {self.res_cell}")
        if self.res_cell > self.bit_quan:
            raise ValueError(f"res_cell ({self.res_cell}) exceeds bit_quan ({self.bit_quan})")
        if self.xbar_size not in XBAR_SIZES:
            raise ValueError(f"xbar_size must be one of {XBAR_SIZES}, got {self.xbar_size}")
        if not (FREQ_BOUNDS_HZ[0] <= self.freq_hz <= FREQ_BOUNDS_HZ[1]):
            raise ValueError(f"freq_hz {self.freq_hz} outside {FREQ_BOUNDS_HZ}")
        if not (TEMPERATURE_BOUNDS_K[0] <= self.temperature_k <= TEMPERATURE_BOUNDS_K[1]):
            raise ValueError(f"temperature_k {self.temperature_k} outside {TEMPERATURE_BOUNDS_K}")
        super().__post_init__()

    # Constants of the crossbar's mapping, tiling and digitization, computed
    # once per design; a design made by ``with_context`` or ``replace``
    # computes its own. Each layer's ``noise.CellNoise`` keeps its noise's.

    @cached_property
    def g_min(self) -> float:
        return 1.0 / self.r_off

    @cached_property
    def g_max(self) -> float:
        return 1.0 / self.r_on

    @cached_property
    def g_step(self) -> float:
        """Conductance between adjacent cell levels."""
        return (self.g_max - self.g_min) / ((1 << self.res_cell) - 1)

    @cached_property
    def levels(self) -> np.ndarray:
        """Target conductance of each cell digit d, g_min + d*g_step."""
        return _frozen(np.arange(1 << self.res_cell) * self.g_step + self.g_min)

    @property
    def slices_per_weight(self) -> int:
        return math.ceil(self.bit_quan / self.res_cell)

    @cached_property
    def slice_shifts(self) -> np.ndarray:
        """Right shift of each weight digit, most significant first (uint8)."""
        return _frozen(self.res_cell * np.arange(self.slices_per_weight - 1, -1, -1, dtype=np.uint8))

    @cached_property
    def slice_weights(self) -> np.ndarray:
        """Digital shift-add weight of each slice, most significant first."""
        return _frozen((1 << self.slice_shifts.astype(np.int64)).astype(float))

    @cached_property
    def dac_levels(self) -> int:
        return (1 << self.res_dac) - 1

    @cached_property
    def v_step(self) -> float:
        """Read voltage of one DAC input code."""
        return self.v_r / self.dac_levels

    @cached_property
    def adc_levels(self) -> int | None:
        return None if self.res_adc is None else (1 << self.res_adc) - 1

    def with_context(self, freq_hz: float, temperature_k: float) -> "ReramDesign":
        """Same device, different operating point (used for reduced-noise layers)."""
        return replace(self, freq_hz=freq_hz, temperature_k=temperature_k)


@dataclass(frozen=True)
class SpaceBounds:
    """The config's ``space:`` section: level sets and bounds of the variables.

    Defaults to the module constants. Building one checks that each level
    set is non-empty and distinct and each bound interval is non-empty.
    """

    res_cell_levels: tuple[int, ...] = RES_CELL_LEVELS
    xbar_sizes: tuple[int, ...] = XBAR_SIZES
    freq_bounds_hz: tuple[float, float] = FREQ_BOUNDS_HZ
    temperature_bounds_k: tuple[float, float] = TEMPERATURE_BOUNDS_K

    def __post_init__(self):
        for name in ("res_cell_levels", "xbar_sizes"):
            levels = getattr(self, name)
            if not levels or len(set(levels)) < len(levels):
                raise ValueError(f"{name} must be non-empty and distinct, got {list(levels)}")
        for name in ("freq_bounds_hz", "temperature_bounds_k"):
            bounds = getattr(self, name)
            if len(bounds) != 2 or not bounds[0] < bounds[1]:
                raise ValueError(f"{name} must be a (lo, hi) pair with lo < hi, got {list(bounds)}")


@dataclass(frozen=True)
class DesignSpace(SpaceBounds):
    """``SpaceBounds`` plus ``constants``, the ``Device`` fields of every
    design it builds; ``{}`` means the reference device.

    ``encode`` maps a design to [0,1]^4 in the order (res_cell, freq,
    temperature, xbar_size). Ordinals are placed on an evenly spaced grid
    index/(levels-1) regardless of their numeric values, which keeps GP
    lengthscales comparable across the non-uniform {1,2,3,4,8} ladder.
    """

    constants: dict = field(default_factory=dict)

    dim: ClassVar[int] = 4

    def encode(self, design: ReramDesign) -> np.ndarray:
        """Map a valid design to its normalized coordinate vector."""
        if design.res_cell not in self.res_cell_levels:
            raise ValueError(f"res_cell {design.res_cell} not in space {self.res_cell_levels}")
        if design.xbar_size not in self.xbar_sizes:
            raise ValueError(f"xbar_size {design.xbar_size} not in space {self.xbar_sizes}")
        f_lo, f_hi = self.freq_bounds_hz
        t_lo, t_hi = self.temperature_bounds_k
        if not (f_lo <= design.freq_hz <= f_hi):
            raise ValueError(f"freq_hz {design.freq_hz} outside {self.freq_bounds_hz}")
        if not (t_lo <= design.temperature_k <= t_hi):
            raise ValueError(f"temperature_k {design.temperature_k} outside bounds")
        res_cell = _ordinal_to_unit(self.res_cell_levels.index(design.res_cell), len(self.res_cell_levels))
        xbar = _ordinal_to_unit(self.xbar_sizes.index(design.xbar_size), len(self.xbar_sizes))
        freq, temp = (design.freq_hz - f_lo) / (f_hi - f_lo), (design.temperature_k - t_lo) / (t_hi - t_lo)
        return np.array([res_cell, freq, temp, xbar])

    def decode(self, coords: np.ndarray) -> ReramDesign:
        """Map any point of [0,1]^4 (clamped) to the nearest valid design."""
        v = np.clip(np.asarray(coords, dtype=float).reshape(self.dim), 0.0, 1.0)
        f_lo, f_hi = self.freq_bounds_hz
        t_lo, t_hi = self.temperature_bounds_k
        return ReramDesign(
            res_cell=self.res_cell_levels[_unit_to_ordinal(v[0], len(self.res_cell_levels))],
            freq_hz=f_lo + v[1] * (f_hi - f_lo),
            temperature_k=t_lo + v[2] * (t_hi - t_lo),
            xbar_size=self.xbar_sizes[_unit_to_ordinal(v[3], len(self.xbar_sizes))],
            **self.constants,
        )

    def corners(self) -> list[ReramDesign]:
        """Every ordinal level at every continuous bound; building them validates the space."""
        return [
            ReramDesign(res_cell=rc, freq_hz=f, temperature_k=t, xbar_size=xb, **self.constants)
            for rc, xb, f, t in itertools.product(
                self.res_cell_levels, self.xbar_sizes, self.freq_bounds_hz, self.temperature_bounds_k
            )
        ]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _ordinal_to_unit(index: int, levels: int) -> float:
    return 0.0 if levels == 1 else index / (levels - 1)


def _unit_to_ordinal(value: float, levels: int) -> int:
    # Nearest grid point of {0, 1/(L-1), ..., 1}; .5 rounds half-up via floor.
    if levels == 1:
        return 0
    return int(min(levels - 1, math.floor(value * (levels - 1) + 0.5)))


def fidelity_grid(n_levels: int) -> np.ndarray:
    """Evenly spaced fidelity levels in [0,1]; the top level is exactly 1.0.

    An evaluation's fidelity is one of these levels, a plain float shared
    by the fidelity-bearing objectives (``MooProblem.fidelity_vector``);
    z = 1 is the highest fidelity.
    """
    if n_levels < 1:
        raise ValueError("need at least one fidelity level")
    if n_levels == 1:
        return np.array([1.0])
    return np.linspace(0.0, 1.0, n_levels)
