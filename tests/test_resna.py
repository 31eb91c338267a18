import contextlib
import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from reramopt import noise, resna
from reramopt.design_space import ReramDesign
from reramopt.noise import CellNoise, NoiseSpec, shot_sigma, thermal_sigma
from reramopt.resna import (
    Dataset,
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


class _ReadByRead:
    """A stand-in for ``CellNoise.block_reads`` under which every training read draws alone, batch by batch."""

    def __init__(self, layers, shapes, rng):
        pass

    def epoch(self, batches):
        return contextlib.nullcontext()


def _train_and_infer(spec, design, data, spec_noise, rng, monkeypatch, by_read):
    """Train 3 epochs and infer 2 runs on one generator.

    Also counts each layer's training reads of an all-zero input and the
    ``noise._uint32_draws`` calls of the training.
    """
    zero_inputs, draw_calls = [0] * spec.n_layers, [0]
    real_mvm, real_draws = resna.mvm, noise._uint32_draws

    def counting_mvm(layer, inputs, rng=None):
        if not layer.programmed and not inputs.any():
            zero_inputs[spec.widths.index(layer.rows)] += 1
        return real_mvm(layer, inputs, rng)

    def counting_draws(rng, k):
        draw_calls[0] += 1
        return real_draws(rng, k)

    with monkeypatch.context() as m:
        m.setattr(resna, "mvm", counting_mvm)
        m.setattr(noise, "_uint32_draws", counting_draws)
        if by_read:
            m.setattr(CellNoise, "block_reads", _ReadByRead)
        state = train(spec, design, data, 3, rng, noise=spec_noise)
        calls = draw_calls[0]
        accs = infer(state, design, data, runs=2, rng=rng, noise=spec_noise)
    return state, accs, repr(rng.bit_generator.state), zero_inputs, calls


def _with_zero_rows(data, every):
    """The data set with every ``every``-th training row set to zeros, so a batch of them gives the first layer an all-zero input."""
    x = data.x_train.copy()
    x[::every] = 0.0
    return Dataset(x, data.y_train, data.x_test, data.y_test)


SMALL = MlpSpec(widths=(6, 1, 3), batch_size=2, n_train=27, n_test=20, lr=0.03, center_spread=1.0, data_seed=4)
BLOCK_CASES = {
    # Bench widths at res_cell 8: blocks of 13 of the 15 batches, so one ends inside each epoch.
    "bench-shape": (MlpSpec(n_train=120, n_test=50, lr=0.03, center_spread=1.0), 8, NoiseSpec(), None, None),
    # One hidden unit: its ReLU is often all zero, and zero rows give the first layer all-zero
    # inputs too. Those read like any other input, and the oracle checks that blocks and read
    # by read draws agree on them. Blocks of 2 to 7 batches; at res_cell 8 each layer's read
    # takes an odd number of 32-bit draws (12 + 1 and 6 + 1), at res_cell 2 the second (24 + 1).
    "skips-res8": (SMALL, 8, NoiseSpec(), 128, 3),
    "skips-res2": (SMALL, 2, NoiseSpec(), 256, 3),
    "skips-no-rtn": (SMALL, 3, NoiseSpec(rtn=False), 256, 4),
    "skips-rtn-only": (SMALL, 4, NoiseSpec(thermal=False, shot=False, prog=False), 96, 4),
    # Occupancy drawn as uniforms: every read draws alone.
    "rtn-p-0.37": (SMALL, 2, NoiseSpec(rtn_p_occupancy=0.37), 256, 3),
}


@pytest.mark.parametrize("generator", ["pcg64", "philox"])
@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_block_reads_give_the_bytes_of_reads_batch_by_batch(case, generator, monkeypatch):
    spec, res_cell, spec_noise, block_cells, zero_every = BLOCK_CASES[case]
    if block_cells is not None:
        monkeypatch.setattr(noise, "_BLOCK_CELLS", block_cells)
    data = make_dataset(spec)
    if zero_every is not None:
        data = _with_zero_rows(data, zero_every)
    design = ReramDesign(res_cell=res_cell, freq_hz=1e9, temperature_k=300.0, xbar_size=64)
    bit_generator = {"pcg64": np.random.PCG64, "philox": np.random.Philox}[generator]
    runs = []
    for by_read in (False, True):
        # A spare 32-bit half in the generator at the start, as a 32-bit draw leaves one.
        rng = np.random.Generator(bit_generator(11))
        rng.integers(0, 1 << 32, 1, dtype=np.uint32)
        runs.append(_train_and_infer(spec, design, data, spec_noise, rng, monkeypatch, by_read))
    (state, accs, final, zeros, calls), (ref_state, ref_accs, ref_final, ref_zeros, ref_calls) = runs
    np.testing.assert_array_equal(state.params, ref_state.params)
    assert (state.losses, accs, final, zeros) == (ref_state.losses, ref_accs, ref_final, ref_zeros)
    if zero_every is not None:
        assert min(zeros) > 0, "both layers must read all-zero inputs for the case to test them"
    # Any generator draws in blocks: one draw per block of K batches, against one per read.
    batches = math.ceil(spec.n_train / spec.batch_size)
    reads = 3 * batches * spec.n_layers
    cells = 2 * design.slices_per_weight * sum(i * o for i, o in zip(spec.widths, spec.widths[1:]))
    blocks = 3 * math.ceil(batches / (noise._BLOCK_CELLS // cells)) if spec_noise.rtn_p_occupancy == 0.5 else reads
    assert (calls, ref_calls) == (blocks, reads)


class _CountingPCG64(np.random.PCG64):
    """PCG64 that counts its ``random_raw`` calls and the outputs they take."""

    def random_raw(self, size=None, output=True):
        self.calls += 1
        self.outputs += 1 if size is None else size
        return super().random_raw(size, output)


@pytest.mark.parametrize("res_cell", [8, 1])
def test_an_epoch_draws_its_reads_in_blocks(res_cell):
    # The bench's ReRAM shape: 40 batches of 8 rows, 4,736 cells a batch per slice. Blocks of
    # 13 batches at res_cell 8, and at res_cell 1 (8 slices) of one batch, one draw for both layers.
    spec = MlpSpec(n_train=320, n_test=250, lr=0.03, center_spread=1.0, data_seed=3)
    design = ReramDesign(res_cell=res_cell, freq_hz=1e9, temperature_k=300.0, xbar_size=64)
    bg = _CountingPCG64(5)
    bg.calls = bg.outputs = 0
    train(spec, design, make_dataset(spec), 1, np.random.Generator(bg), noise=NoiseSpec())
    cells = 2 * design.slices_per_weight * (64 * 32 + 32 * 10)
    k = max(1, (1 << 16) // cells)
    words = cells + cells // 32  # the normals' draws and the RTN bits', both layers even
    assert bg.calls == math.ceil(40 / k) == {8: 4, 1: 40}[res_cell]
    assert bg.outputs == 40 * words // 2


def test_an_epoch_refuses_reads_out_of_turn():
    design = ReramDesign(res_cell=2, freq_hz=1e9, temperature_k=300.0, xbar_size=64)
    cells = [CellNoise(design, NOISE), CellNoise(design, NOISE)]
    codes = [np.ones((4, 3), np.intp), np.ones((3, 2), np.intp)]
    rng = np.random.default_rng(0)
    reads = CellNoise.block_reads(cells, [c.shape for c in codes], rng)

    def batch():
        for c, x in zip(cells, codes):
            c.fresh(x, 1, rng)

    with pytest.raises(ValueError, match="in turn"), reads.epoch(2):
        cells[1].fresh(codes[1], 1, rng)
    with pytest.raises(ValueError, match="in turn"), reads.epoch(2):
        cells[0].fresh(codes[0], 1, np.random.default_rng(0))
    with pytest.raises(ValueError, match="in turn"), reads.epoch(1):
        batch()
        batch()
    with pytest.raises(ValueError, match="unread"), reads.epoch(2):
        batch()
    with reads.epoch(2):
        batch()
        batch()
    cells[1].fresh(codes[1], 1, np.random.default_rng(0))  # outside an epoch any read draws alone
