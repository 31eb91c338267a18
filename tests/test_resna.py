import hashlib
from dataclasses import replace

import numpy as np
import pytest

from reramopt import resna
from reramopt.design_space import ReramDesign
from reramopt.noise import NoiseSpec, shot_sigma, thermal_sigma
from reramopt.resna import (
    MlpSpec,
    TrainingDivergedError,
    _quantize_unsigned,
    infer,
    majority_vote,
    make_dataset,
    train,
)

SPEC = MlpSpec(widths=(8, 6, 3), n_train=40, n_test=30, data_seed=3)
DESIGN = ReramDesign(res_cell=2, freq_hz=5e8, temperature_k=350.0, xbar_size=32)
NOISE = NoiseSpec()


@pytest.fixture(scope="module")
def data():
    return make_dataset(SPEC)


@pytest.fixture(scope="module")
def state(data):
    # One noisy epoch: every forward pass reads a fresh deployment through the samplers.
    return train(SPEC, DESIGN, data, 1, np.random.default_rng(0), noise=NOISE)


def _write_csv(path, bad_row=None, bad_value=None):
    rng = np.random.default_rng(0)
    lines = []
    for i in range(12):
        feats = [f"{v:.3f}" for v in rng.random(SPEC.widths[0])]
        if i == bad_row:
            feats[2] = bad_value
        lines.append(",".join(feats + [str(i % SPEC.n_classes)]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return replace(SPEC, csv_path=str(path), n_train=8, n_test=4)


def test_csv_dataset_loads_rows_in_order(tmp_path):
    data = make_dataset(_write_csv(tmp_path / "data.csv"))
    assert data.x_train.shape == (8, 8) and data.x_test.shape == (4, 8)
    np.testing.assert_array_equal(data.y_test, [2, 0, 1, 2])


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_csv_dataset_rejects_non_finite_features(tmp_path, value):
    spec = _write_csv(tmp_path / "data.csv", bad_row=3, bad_value=value)
    with pytest.raises(resna.DatasetFormatError, match=r"data\.csv: line 4: non-finite feature"):
        make_dataset(spec)


def test_csv_dataset_rejects_negative_features(tmp_path):
    # The crossbar reads inputs as unsigned codes, so a negative feature would train as 0.
    spec = _write_csv(tmp_path / "data.csv", bad_row=5, bad_value="-0.5")
    with pytest.raises(resna.DatasetFormatError, match=r"data\.csv: line 6: negative feature"):
        make_dataset(spec)


def test_epochs_for_fidelity_spans_min_to_max():
    assert MlpSpec().epochs(0.0) == 10
    assert MlpSpec().epochs(1.0) == 100
    assert MlpSpec(min_epochs=2, max_epochs=5).epochs(0.0) == 2


@pytest.mark.parametrize("z", [-0.01, 1.01])
def test_epochs_for_fidelity_rejects_z_outside_the_unit_interval(z):
    with pytest.raises(ValueError, match="fidelity"):
        MlpSpec().epochs(z)


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


def test_majority_vote_of_one_copy_is_its_argmax():
    logits = np.random.default_rng(4).standard_normal((1, 50, 10))
    np.testing.assert_array_equal(majority_vote(logits), logits[0].argmax(axis=1))


def test_classifier_design_has_its_own_read_variance():
    for sigma, noise in ((thermal_sigma, NoiseSpec(shot=False)), (shot_sigma, NoiseSpec(thermal=False))):
        hidden, classifier = resna._layer_noise(SPEC, DESIGN, noise)
        assert hidden.design is DESIGN and (classifier.design.freq_hz, classifier.design.temperature_k) == (1e8, 300.0)
        assert hidden.var_per_siemens > 0.0  # fills the hidden layer's cache
        assert classifier.var_per_siemens == sigma(1.0, classifier.design) ** 2 < hidden.var_per_siemens


def test_training_is_reproducible_for_a_seed(data, state):
    again = train(SPEC, DESIGN, data, 1, np.random.default_rng(0), noise=NOISE)
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


def test_training_programs_no_layer_and_inference_each_layer_once_per_run(data, monkeypatch):
    copies = []
    real_program = resna.program

    def counting_program(layer, rng=None):
        copies.append(layer.dup)
        return real_program(layer, rng)

    monkeypatch.setattr(resna, "program", counting_program)
    state = train(SPEC, DESIGN, data, 1, np.random.default_rng(0), noise=NOISE)
    assert copies == []
    infer(state, DESIGN, data, runs=3, rng=np.random.default_rng(1), noise=NOISE)
    assert copies == [1, SPEC.vote_copies] * 3


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_activation_quantizer_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="non-finite"):
        _quantize_unsigned(np.array([[bad, 1.0]]), 8)


def test_overflowing_step_is_reported_as_divergence(data):
    # At this rate an SGD step overflows the weights while its loss is still
    # finite; the next deployment must not reach the quantizer with them.
    spec = replace(SPEC, lr=1e155)
    with pytest.raises(TrainingDivergedError), np.errstate(over="ignore", invalid="ignore"):
        train(spec, DESIGN, data, 4, np.random.default_rng(0), noise=NOISE)


# Byte pins of 2 training epochs and 2 inference runs with every noise source
# on, per (res_cell, xbar_size): a digest of the weights, biases and losses,
# and one of the accuracies. The first layer's 40 rows span two row blocks at
# xbar 32 and one at 128. Any reordered, resized or dropped draw, or any
# change to the arithmetic of a batch, moves them.
PIN_SPEC = MlpSpec(widths=(40, 12, 3), n_train=32, n_test=60, lr=0.03, center_spread=1.0, data_seed=5)
TRAIN_INFER_PINS = {
    (1, 32): ("0aef6704c3ee06c7", "8660a43ce395253a"),
    (1, 128): ("bec5e608c527159d", "7753ab2b0e8d0023"),
    (2, 32): ("6d6634c9b606bd7e", "85551ff566eb62ce"),
    (2, 128): ("173c34a8a666d041", "7153a03a06db4790"),
    (3, 32): ("0609b6ae9f6a4703", "5dc928b8bae61c63"),
    (3, 128): ("2e650db31bac2495", "60fbff0410edf3f8"),
    (4, 32): ("e75a20469b784e90", "69b33448e2a9b1ab"),
    (4, 128): ("76f530575acaebcc", "9234fb710176ef15"),
    (8, 32): ("e5f26be313442add", "12f9a4675d48d39c"),
    (8, 128): ("196f803a112e03d4", "6090af570413829f"),
}


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.asarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("res_cell,xbar", sorted(TRAIN_INFER_PINS))
def test_training_and_inference_bytes_are_pinned(res_cell, xbar):
    data = make_dataset(PIN_SPEC)
    design = ReramDesign(res_cell=res_cell, freq_hz=5e8, temperature_k=350.0, xbar_size=xbar)
    rng = np.random.default_rng([res_cell, xbar])
    state = train(PIN_SPEC, design, data, 2, rng, noise=NOISE)
    accs = infer(state, design, data, runs=2, rng=rng, noise=NOISE)
    trained = _digest(state.weights + state.biases + [state.losses])
    assert (trained, _digest([accs])) == TRAIN_INFER_PINS[res_cell, xbar]
