"""Objective surfaces for the design campaigns.

The ReRAM problem evaluates four objectives over (design, fidelity):
noisy-inference accuracy from the crossbar trainer (fidelity = training
epochs) and three analytic hardware metrics (area, latency, energy).
An evaluation has one fidelity level z in [0,1]: the fidelity-bearing
objectives, here the accuracy, run at z and the others at 1.
Everything is oriented for maximization, so the hardware metrics enter
the objective vector negated; the hw_* functions themselves return raw
positive quantities.

The hardware constants are an invented parametric cost model (full
circuit-level estimation is out of scope); all of them are config-exposed
and the acceptance suite pins the defaults. Synthetic two-objective
problems with an analytic fidelity term are included for validating the
optimizer: g_j(x, z) = f_j(x) - (1-z) * b_j(x) with b_j >= 0, which makes
low-fidelity values undershoot and converge to f_j as z -> 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .crossbar import NoiseSpec
from .design_space import DEFAULT_SPACE, DesignSpace, ReramDesign
from .resna import MlpSpec, accuracy_objective, make_dataset


@dataclass(frozen=True)
class LayerShape:
    rows: int  # inputs
    cols: int  # outputs
    copies: int = 1  # voting copies, each of which reads every input

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1 or self.copies < 1:
            raise ValueError("layer dimensions and copies must be >= 1")


@dataclass(frozen=True)
class NetworkSpec:
    """Layer shapes plus the inferencing batch the hardware is sized for.

    Hidden layers have one copy; the classifier has ``vote_copies``.
    """

    layers: tuple[LayerShape, ...]
    n_inputs: int = 1000

    @classmethod
    def from_mlp(cls, mlp: MlpSpec, n_inputs: int = 1000) -> "NetworkSpec":
        shapes = [LayerShape(r, c) for r, c in zip(mlp.widths[:-2], mlp.widths[1:-1])]
        shapes.append(LayerShape(mlp.widths[-2], mlp.widths[-1], mlp.vote_copies))
        return cls(tuple(shapes), n_inputs)


@dataclass(frozen=True)
class HwCostParams:
    """The config's ``hw:`` section: invented per-component constants for the
    parametric cost model, and the inference batch the hardware is sized for."""

    area_per_cell_mm2: float = 5.0e-8
    area_per_dac_mm2: float = 2.0e-6
    area_per_adc_mm2: float = 1.5e-4  # at 8-bit; scales with 2^(res_adc-8)
    energy_per_dac_j: float = 2.0e-13
    energy_per_adc_j: float = 2.0e-12  # at 8-bit; scales with 2^(res_adc-8)
    dac_cycles: int = 1
    columns_per_adc: int = 8
    n_inputs: int = 1000

    def __post_init__(self):
        for name in (
            "area_per_cell_mm2",
            "area_per_dac_mm2",
            "area_per_adc_mm2",
            "energy_per_dac_j",
            "energy_per_adc_j",
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.columns_per_adc < 1:
            raise ValueError("columns_per_adc must be >= 1")
        if self.dac_cycles < 0:
            raise ValueError("dac_cycles must be >= 0")
        if self.n_inputs < 1:
            raise ValueError("n_inputs must be >= 1")

    def adc_scale(self, res_adc: int | None) -> float:
        bits = 8 if res_adc is None else res_adc
        return 2.0 ** (bits - 8)


def _crossbar_count(design: ReramDesign, layer: LayerShape) -> int:
    xb = design.xbar_size
    tiles = math.ceil(layer.rows / xb) * math.ceil(layer.cols / xb)
    return layer.copies * design.slices_per_weight * tiles * 2  # differential pair


def hw_area(design: ReramDesign, network: NetworkSpec, params: HwCostParams = HwCostParams()) -> float:
    """Total silicon area in mm^2 (cells plus per-crossbar converters)."""
    xb = design.xbar_size
    tile_area = xb * xb * params.area_per_cell_mm2
    conv_area = xb * params.area_per_dac_mm2 + (
        xb / params.columns_per_adc
    ) * params.area_per_adc_mm2 * params.adc_scale(design.res_adc)
    n_xb = sum(_crossbar_count(design, layer) for layer in network.layers)
    return n_xb * (tile_area + conv_area)


def hw_latency(design: ReramDesign, network: NetworkSpec, params: HwCostParams = HwCostParams()) -> float:
    """Inference latency in seconds for the network's input batch.

    Every input takes one pass per layer, read by all of the layer's copies
    at once; row blocks of a layer are processed serially, slices and
    column tiles in parallel.
    """
    cycles_per_pass = params.dac_cycles + params.columns_per_adc
    cycles = 0
    for layer in network.layers:
        cycles += network.n_inputs * math.ceil(layer.rows / design.xbar_size) * cycles_per_pass
    return cycles / design.freq_hz


def hw_energy(design: ReramDesign, network: NetworkSpec, params: HwCostParams = HwCostParams()) -> float:
    """Inference energy in joules for the network's input batch."""
    g_mid = 0.5 * (design.g_min + design.g_max)
    t_read = 1.0 / design.freq_hz
    adc_scale = params.adc_scale(design.res_adc)
    total = 0.0
    for layer in network.layers:
        sliced = design.slices_per_weight * 2 * layer.copies * network.n_inputs
        cell_reads = sliced * layer.rows * layer.cols
        dac_convs = sliced * layer.rows
        adc_convs = sliced * layer.cols * math.ceil(layer.rows / design.xbar_size)
        total += (
            cell_reads * design.v_r**2 * g_mid * t_read
            + dac_convs * params.energy_per_dac_j
            + adc_convs * params.energy_per_adc_j * adc_scale
        )
    return total


@dataclass(frozen=True)
class MooProblem:
    """A maximization problem over designs in [0,1]^dim and one fidelity
    level z in [0,1] per evaluation.

    An evaluation runs the fidelity-bearing objectives (``fidelity_mask``)
    at level z and every other objective at its only fidelity, 1;
    ``fidelity_vector(z)`` spells that out per objective, the form
    ``evaluate(x, z_vector, rng)`` takes. ``fidelity_cost(z)`` is
    C_j(z)/C_j(1) of a fidelity-bearing objective (our cost models do not
    depend on x), and ``cost(z)`` is the normalized evaluation cost: the
    sum over objectives of their cost ratios, n_obj at z=1.
    """

    name: str
    dim: int
    fidelity_mask: tuple[bool, ...]
    hv_ref: np.ndarray
    evaluate: Callable[[np.ndarray, np.ndarray, np.random.Generator], np.ndarray]
    fidelity_cost: Callable[[float], float]

    @property
    def n_obj(self) -> int:
        return len(self.fidelity_mask)

    def fidelity_vector(self, z) -> np.ndarray:
        """Per-objective fidelities of an evaluation at level z: z for the
        fidelity-bearing objectives, 1 for the others. A column of n levels
        gives an (n, n_obj) array."""
        return np.where(self.fidelity_mask, z, 1.0)

    def cost(self, z: float) -> float:
        """Normalized cost of an evaluation at level z, summed in objective order."""
        ratio = self.fidelity_cost(z)
        return float(sum(ratio if bearing else 1.0 for bearing in self.fidelity_mask))


def reram_problem(
    space: DesignSpace = DEFAULT_SPACE,
    mlp: MlpSpec = MlpSpec(),
    noise: NoiseSpec = NoiseSpec(),
    hw_params: HwCostParams = HwCostParams(),
) -> MooProblem:
    """The four-objective crossbar design problem.

    Objective 1 is the mean noisy-inference accuracy over ``mlp.infer_runs``
    (fidelity-bearing: epochs run from min_epochs at z=0 to max_epochs at
    z=1, so its cost ratio is epochs/max_epochs). Objectives 2-4 are the
    negated analytic hardware metrics, which have one fidelity and cost
    ratio 1. The dataset is built once per problem so
    every design trains on the same task.
    """
    dataset = make_dataset(mlp)
    network = NetworkSpec.from_mlp(mlp, n_inputs=hw_params.n_inputs)

    def _hw_vector(design: ReramDesign) -> np.ndarray:
        return np.array(
            [
                -hw_area(design, network, hw_params),
                -hw_latency(design, network, hw_params),
                -hw_energy(design, network, hw_params),
            ]
        )

    def evaluate(x: np.ndarray, z: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        design = space.decode(x)
        accs, _seconds = accuracy_objective(
            design, float(np.asarray(z, dtype=float)[0]), spec=mlp, dataset=dataset, rng=rng, noise=noise
        )
        return np.concatenate([[float(np.mean(accs))], _hw_vector(design)])

    def fidelity_cost(z: float) -> float:
        return mlp.epochs(float(z)) / mlp.max_epochs

    # Reference point: strictly dominated by any reachable evaluation
    # (accuracy >= 0; hardware metrics bounded by the worst corner, and
    # they do not depend on temperature).
    worst = np.full(3, -np.inf)
    for d in space.corners():
        worst = np.maximum(worst, -_hw_vector(d))
    hv_ref = np.concatenate([[-1e-3], -1.05 * worst])

    return MooProblem(
        name="reram",
        dim=space.dim,
        fidelity_mask=(True, False, False, False),
        hv_ref=hv_ref,
        evaluate=evaluate,
        fidelity_cost=fidelity_cost,
    )


def _branin_raw(u: np.ndarray) -> np.ndarray:
    x1 = 15.0 * u[:, 0] - 5.0
    x2 = 15.0 * u[:, 1]
    b = 5.1 / (4.0 * np.pi**2)
    c = 5.0 / np.pi
    t = 1.0 / (8.0 * np.pi)
    return (x2 - b * x1**2 + c * x1 - 6.0) ** 2 + 10.0 * (1.0 - t) * np.cos(x1) + 10.0


def _currin_raw(u: np.ndarray) -> np.ndarray:
    u1, u2 = u[:, 0], u[:, 1]
    with np.errstate(divide="ignore"):
        factor = np.where(u2 > 0.0, 1.0 - np.exp(-1.0 / (2.0 * np.maximum(u2, 1e-300))), 1.0)
    num = 2300.0 * u1**3 + 1900.0 * u1**2 + 2092.0 * u1 + 60.0
    den = 100.0 * u1**3 + 500.0 * u1**2 + 4.0 * u1 + 20.0
    return factor * num / den


# Cheap approximations mirror the short-training regime: a z=0 evaluation
# costs 10% of a full one and undershoots by a learnable x-dependent bias.
_SYNTH_COST_C0 = 0.1
_SYNTH_COST_C1 = 0.9


def synthetic_cf_problem(name: str) -> MooProblem:
    """Two-objective continuous-fidelity benchmarks: branin-currin-cf, zdt1."""
    if name == "branin-currin-cf":
        return _branin_currin_cf()
    if name == "zdt1":
        return _zdt1_cf()
    raise ValueError(f"unknown synthetic problem {name!r}")


def _synth_fidelity_cost(z: float) -> float:
    return (_SYNTH_COST_C0 + _SYNTH_COST_C1 * z) / (_SYNTH_COST_C0 + _SYNTH_COST_C1)


def _cf_problem(name: str, dim: int, f_true, bias, hv_ref) -> MooProblem:
    """g(x, z) = f_true(x) - (1 - z) * bias(x) over [0,1]^dim, both objectives fidelity-bearing."""

    def evaluate(x, z, rng=None) -> np.ndarray:
        u = np.atleast_2d(np.asarray(x, dtype=float))
        z = np.asarray(z, dtype=float)
        y = f_true(u) - (1.0 - z)[None, :] * bias(u)
        return y[0]

    return MooProblem(
        name=name,
        dim=dim,
        fidelity_mask=(True, True),
        hv_ref=hv_ref,
        evaluate=evaluate,
        fidelity_cost=_synth_fidelity_cost,
    )


def _branin_currin_cf() -> MooProblem:
    def f_true(u: np.ndarray) -> np.ndarray:
        return np.stack([-_branin_raw(u), -_currin_raw(u)], axis=1)

    def bias(u: np.ndarray) -> np.ndarray:
        b1 = 15.0 + 25.0 * u[:, 0] * u[:, 1]
        b2 = 0.8 + 1.2 * (1.0 - u[:, 0])
        return np.stack([b1, b2], axis=1)

    # Reference sits ~25% beyond the true-front nadir (about (-17.5, -5.7)),
    # so hypervolume differences reflect front quality rather than the
    # volume of an oversized bounding box.
    return _cf_problem("branin-currin-cf", 2, f_true, bias, np.array([-22.0, -7.0]))


def _zdt1_cf(n_var: int = 6) -> MooProblem:
    def f_true(u: np.ndarray) -> np.ndarray:
        f1 = u[:, 0]
        g = 1.0 + 9.0 * u[:, 1:].mean(axis=1)
        f2 = g * (1.0 - np.sqrt(f1 / g))
        return np.stack([-f1, -f2], axis=1)

    def bias(u: np.ndarray) -> np.ndarray:
        b1 = 0.05 + 0.05 * u[:, 0]
        b2 = 0.1 + 0.1 * (1.0 - u[:, 0])
        return np.stack([b1, b2], axis=1)

    return _cf_problem("zdt1", n_var, f_true, bias, np.array([-1.1, -1.1]))
