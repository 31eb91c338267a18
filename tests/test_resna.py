import numpy as np
import pytest

from reramopt.crossbar import NoiseSpec
from reramopt.design_space import ReramDesign
from reramopt.resna import MlpSpec, epochs_for_fidelity, infer, majority_vote, make_dataset, train

SPEC = MlpSpec(widths=(8, 6, 3), n_classes=3, n_train=40, n_test=30, data_seed=3)
DESIGN = ReramDesign(res_cell=2, freq_hz=5e8, temperature_k=350.0, xbar_size=32)


@pytest.fixture(scope="module")
def data():
    return make_dataset(SPEC)


@pytest.fixture(scope="module")
def state(data):
    # One noisy epoch: every forward pass programs and reads through the samplers.
    return train(SPEC, DESIGN, data, 1, np.random.default_rng(0))


def test_epochs_for_fidelity_spans_min_to_max():
    assert epochs_for_fidelity(0.0) == 10
    assert epochs_for_fidelity(1.0) == 100
    assert epochs_for_fidelity(0.0, min_epochs=2, max_epochs=5) == 2


@pytest.mark.parametrize("z", [-0.01, 1.01])
def test_epochs_for_fidelity_rejects_z_outside_the_unit_interval(z):
    with pytest.raises(ValueError, match="fidelity"):
        epochs_for_fidelity(z)


def test_majority_vote_breaks_ties_by_summed_logit():
    per_sample = np.array(
        [
            # copies vote 0, 1, 2: a three-way tie that the summed logit gives to 0
            [[3.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.5, 2.0]],
            # the same tie, given to 1
            [[1.0, 0.0, 0.0], [0.0, 5.0, 0.0], [0.0, 0.0, 2.0]],
            # a 2-1 majority for class 2, although class 0 sums higher
            [[0.0, 0.0, 1.0], [0.0, 0.0, 2.0], [9.0, 0.0, 0.0]],
        ]
    )
    logits = np.swapaxes(per_sample, 0, 1)  # (copies, batch, classes)
    np.testing.assert_array_equal(majority_vote(logits), [0, 1, 2])


def test_training_is_reproducible_for_a_seed(data, state):
    again = train(SPEC, DESIGN, data, 1, np.random.default_rng(0))
    for w, w2 in zip(state.weights, again.weights):
        np.testing.assert_array_equal(w, w2)
    assert again.losses == state.losses and np.isfinite(state.losses[0])


def test_noiseless_inference_does_not_depend_on_the_generator(data, state):
    quiet = NoiseSpec.disabled()
    accs = [
        infer(state, DESIGN, data, runs=2, rng=rng, noise=quiet)
        for rng in (None, np.random.default_rng(1), np.random.default_rng(2))
    ]
    assert accs[0] == accs[1] == accs[2]
