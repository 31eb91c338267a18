import numpy as np
import pytest

from reramopt.design_space import ReramDesign, fidelity_grid
from reramopt.objectives import (
    LayerShape,
    NetworkSpec,
    hw_area,
    hw_energy,
    hw_latency,
    reram_problem,
    synthetic_cf_problem,
)
from reramopt.resna import MlpSpec

# res_cell=2 -> 4 slices per 8-bit weight; a 64x10 layer on 32x32 crossbars
# is 2 row tiles x 1 column tile; three voting copies, 100 inputs.
DESIGN = ReramDesign(res_cell=2, freq_hz=1e8, temperature_k=300.0, xbar_size=32)
NET = NetworkSpec((LayerShape(rows=64, cols=10, copies=3),), n_inputs=100)


def test_area_counts_every_crossbar_of_every_copy():
    crossbars = 3 * 4 * 2 * 2  # copies x slices x tiles x differential pair
    per_crossbar = 32 * 32 * 5.0e-8 + 32 * 2.0e-6 + (32 / 8) * 1.5e-4
    assert hw_area(DESIGN, NET) == pytest.approx(crossbars * per_crossbar, rel=1e-12)


def test_latency_serialises_row_blocks_and_voting_copies_see_every_input():
    cycles = 100 * 2 * (1 + 8)  # inputs x row blocks x (dac cycles + columns per adc)
    assert hw_latency(DESIGN, NET) == pytest.approx(cycles / 1e8, rel=1e-12)


def test_energy_sums_cell_reads_and_conversions():
    sliced = 4 * 2 * 3 * 100  # slices x pair x voting copies x inputs
    g_mid = 0.5 * (1 / 3.03e6 + 1 / 3.03e3)
    expected = (
        sliced * 64 * 10 * 1.65**2 * g_mid * 1e-8  # cell reads at v_r for one cycle
        + sliced * 64 * 2.0e-13  # one DAC conversion per row
        + sliced * 10 * 2 * 2.0e-12  # one ADC conversion per column and row block
    )
    assert hw_energy(DESIGN, NET) == pytest.approx(expected, rel=1e-12)


def test_reram_cost_is_the_epoch_share_plus_three_hardware_objectives():
    problem = reram_problem()
    assert problem.cost(0.0) == pytest.approx(3.1)
    assert problem.cost(1.0) == pytest.approx(4.0)


def _per_objective_cost(name: str, z: float) -> float:
    """The cost as a sum of one ratio C_j(z_j)/C_j(1) per objective, added
    in objective order from 0; the hardware objectives run at z_j = 1."""
    if name == "reram":
        mlp = MlpSpec()
        ratios = [mlp.epochs(z) / mlp.max_epochs, 1.0, 1.0, 1.0]
    else:
        ratios = [(0.1 + 0.9 * z) / (0.1 + 0.9)] * 2
    total = 0
    for ratio in ratios:
        total += ratio
    return float(total)


@pytest.mark.parametrize("name", ["reram", "branin-currin-cf", "zdt1"])
def test_cost_of_a_level_is_the_per_objective_sum_bit_for_bit(name):
    problem = reram_problem() if name == "reram" else synthetic_cf_problem(name)
    for z in fidelity_grid(10):
        assert problem.cost(z).hex() == _per_objective_cost(name, float(z)).hex(), z
