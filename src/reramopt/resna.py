"""Noise-aware MLP training with the forward pass on emulated crossbars.

The trainer keeps a noise-free master copy of the weights in full
precision. Every forward pass quantizes the master weights, deploys them
on crossbar tiles with fresh programming noise, and computes activations
through the noisy analog pipeline; gradients flow back to the master copy
with a straight-through estimator. A training deployment is read by one
batch only, so it is never programmed: it is the layer's weight codes,
and ``mvm`` reads the unprogrammed layer and draws each cell's
programming and read noise as one Gaussian. Every batch reads every
layer once, in turn, an all-zero activation too, so the layers'
``CellNoise``s draw those reads for blocks of batches at once
(``CellNoise.block_reads``), with the bytes of batch by batch draws.
Inference deployments serve many batches and copies, so ``infer``
programs them and every read adds its own read noise. Hidden layers run
at the candidate design's operating point, the classification layer at a
reduced one (100 MHz / 300 K by default), and at inference time the
classifier is duplicated so a majority vote over the copies picks the
prediction. Hidden layers always run on a single copy. ``MlpSpec`` is
the config's ``resna:`` section: the network, its training
hyperparameters, the data set it learns, the voting inference and the
epoch range that the optimizer's fidelity spans.

Conventions: ReLU activations are quantized unsigned (codes 0..2^b - 1,
using the full DAC range), so ``mvm`` reads each batch in one pass;
weights use the symmetric signed quantizer.
Biases stay in the digital domain and see no analog noise.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .crossbar import MappedLayer, map_weights, mvm, program, quantize
from .design_space import ReramDesign
from .noise import CellNoise, NoiseSpec

_EVAL_BATCH = 250  # test rows read per inference batch
_TINY = np.finfo(float).tiny  # the smallest normal float


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; carries the epoch index where it happened."""

    def __init__(self, epoch: int):
        super().__init__(f"training loss diverged (non-finite) at epoch {epoch}")
        self.epoch = epoch


class DatasetFormatError(ValueError):
    pass


@dataclass(frozen=True)
class MlpSpec:
    """The crossbar MLP and how it is trained, fed and scored.

    The architecture and SGD hyperparameters come first. The data set is
    ``n_train``/``n_test`` Gaussian blobs in R^widths[0], one per class of
    the ``widths[-1]`` outputs, drawn from ``data_seed``, or the rows of
    ``csv_path`` (features >= 0). Accuracy is the mean over ``infer_runs``
    deployments, each by majority vote of the ``vote_copies`` classifier
    copies. Fidelity z maps to training epochs affinely, by ``epochs(z)``,
    from ``min_epochs`` at z=0 to ``max_epochs`` at z=1.
    """

    widths: tuple[int, ...] = (64, 32, 10)
    vote_copies: int = 3
    classifier_freq_hz: float = 1.0e8
    classifier_temperature_k: float = 300.0
    lr: float = 0.001
    momentum: float = 0.9
    batch_size: int = 8
    n_train: int = 2000
    n_test: int = 1000
    center_spread: float = 0.5
    csv_path: str | None = None
    data_seed: int = 7
    infer_runs: int = 10
    min_epochs: int = 10
    max_epochs: int = 100

    def __post_init__(self):
        if len(self.widths) < 2:
            raise ValueError("need at least an input and an output layer")
        if min(self.widths) < 1:
            raise ValueError(f"widths must all be >= 1, got {list(self.widths)}")
        for name in ("batch_size", "n_train", "n_test", "infer_runs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not math.isfinite(self.center_spread):
            raise ValueError(f"center_spread must be finite, got {self.center_spread}")
        if self.vote_copies < 1 or self.vote_copies % 2 == 0:
            raise ValueError("vote_copies must be odd and >= 1")
        if not 1 <= self.min_epochs <= self.max_epochs:
            raise ValueError(
                f"need 1 <= min_epochs ({self.min_epochs}) <= max_epochs ({self.max_epochs})"
            )

    def epochs(self, z: float) -> int:
        """Training epochs at fidelity z: min_epochs at z=0, max_epochs at z=1."""
        if not (0.0 <= z <= 1.0):
            raise ValueError(f"fidelity must lie in [0,1], got {z}")
        return int(round(self.min_epochs + z * (self.max_epochs - self.min_epochs)))

    @property
    def n_layers(self) -> int:
        return len(self.widths) - 1

    @property
    def n_classes(self) -> int:
        return self.widths[-1]


@dataclass
class Dataset:
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray


@dataclass
class TrainState:
    """Noise-free master weights plus SGD-momentum state.

    Each layer's ``weights`` and ``biases``, set at construction, are views
    of the flat ``params``, so one SGD step moves them all with ``velocity``.
    """

    spec: MlpSpec
    params: np.ndarray
    velocity: np.ndarray
    losses: list[float] = field(default_factory=list)  # mean loss per completed epoch

    def __post_init__(self):
        self.weights, self.biases = _layer_views(self.params, self.spec)

    @property
    def epoch(self) -> int:
        return len(self.losses)


def make_dataset(spec: MlpSpec) -> Dataset:
    """Build the train/test splits; deterministic for a fixed ``data_seed``.

    The default source is a balanced 10-class Gaussian-blob problem in
    R^64 whose spread is calibrated so a one-shot least-squares classifier
    clears 90% test accuracy. Features are min-max scaled to [0,1] using
    train statistics. If ``csv_path`` is set, rows of
    ``f1,...,fD,label`` with D = widths[0] are read instead (first n_train
    rows train, next n_test rows test); their features must be >= 0.
    """
    if spec.csv_path is not None:
        return _load_csv_dataset(spec)
    rng = np.random.default_rng(spec.data_seed)
    n_features = spec.widths[0]
    centers = rng.standard_normal((spec.n_classes, n_features)) * spec.center_spread

    def _blobs(n: int):
        per_class = _balanced_counts(n, spec.n_classes)
        xs, ys = [], []
        for c, cnt in enumerate(per_class):
            xs.append(centers[c] + rng.standard_normal((cnt, n_features)))
            ys.append(np.full(cnt, c, dtype=np.int64))
        x = np.concatenate(xs)
        y = np.concatenate(ys)
        order = rng.permutation(len(y))
        return x[order], y[order]

    x_train, y_train = _blobs(spec.n_train)
    x_test, y_test = _blobs(spec.n_test)
    lo = x_train.min(axis=0)
    hi = x_train.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    x_train = (x_train - lo) / span
    x_test = np.clip((x_test - lo) / span, 0.0, 1.0)
    return Dataset(x_train, y_train, x_test, y_test)


def _balanced_counts(n: int, classes: int) -> list[int]:
    base = n // classes
    counts = [base] * classes
    for i in range(n - base * classes):
        counts[i] += 1
    return counts


def _load_csv_dataset(spec: MlpSpec) -> Dataset:
    rows = []
    with open(spec.csv_path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            try:
                feats = [float(v) for v in row[:-1]]
                label = int(row[-1])
            except ValueError as exc:
                raise DatasetFormatError(f"{spec.csv_path}: line {lineno}: {exc}") from exc
            if len(feats) != spec.widths[0]:
                raise DatasetFormatError(
                    f"{spec.csv_path}: line {lineno}: expected {spec.widths[0]} features, "
                    f"got {len(feats)}"
                )
            if not all(map(math.isfinite, feats)):
                raise DatasetFormatError(f"{spec.csv_path}: line {lineno}: non-finite feature")
            if min(feats) < 0.0:
                raise DatasetFormatError(f"{spec.csv_path}: line {lineno}: negative feature")
            if not (0 <= label < spec.n_classes):
                raise DatasetFormatError(f"{spec.csv_path}: line {lineno}: label {label} out of range")
            rows.append((feats, label))
    need = spec.n_train + spec.n_test
    if len(rows) < need:
        raise DatasetFormatError(f"{spec.csv_path}: need {need} rows, found {len(rows)}")
    x = np.array([r[0] for r in rows[:need]])
    y = np.array([r[1] for r in rows[:need]], dtype=np.int64)
    return Dataset(x[: spec.n_train], y[: spec.n_train], x[spec.n_train :], y[spec.n_train :])


def _quantize_unsigned(values: np.ndarray, bits: int) -> tuple[np.ndarray, float]:
    """Activation quantizer: non-negative uint8 codes over the full DAC range, and their scale."""
    values = np.asarray(values, dtype=float)
    vmax = float(np.maximum.reduce(values, axis=None, initial=0.0))
    vmin = float(np.minimum.reduce(values, axis=None, initial=0.0))
    if not (math.isfinite(vmax) and math.isfinite(vmin)):
        raise ValueError("cannot quantize non-finite activations")
    qmax = (1 << bits) - 1
    scale = vmax / qmax if vmax > 0.0 else 1.0
    codes = values / scale
    np.rint(codes, out=codes)
    if vmin < 0.0 or scale < _TINY:
        # Values in [0, vmax] round into [0, qmax] unless a subnormal scale rounds coarsely.
        codes.clip(0, qmax, out=codes)
    return codes.astype(np.uint8), scale


def _keep_freed_heap() -> None:
    """Keep the heap that a training batch or an inference run frees mapped, so that the next one does not fault it in again.

    glibc returns free heap to the OS once more of it than the trim
    threshold is free, and the threshold is twice the largest block it has
    unmapped so far. So an inference run, whose temporaries at res_cell 1
    reach a few megabytes, faulted its pages in anew every run. Freeing one
    untouched 4 MB block raises the threshold to 8 MB for the process; it
    touches no page, and other allocators ignore it.
    """
    np.empty(1 << 19)


def _layer_noise(spec: MlpSpec, design: ReramDesign, noise: NoiseSpec) -> list[CellNoise]:
    """Each layer's design and noise, as the one noise object of its deployments."""
    reduced = design.with_context(spec.classifier_freq_hz, spec.classifier_temperature_k)
    return [CellNoise(dsg, noise) for dsg in [design] * (spec.n_layers - 1) + [reduced]]


def _deploy(weights: list[np.ndarray], cells: list[CellNoise], classifier_copies: int) -> list[MappedLayer]:
    """Quantize and map every layer, unprogrammed; only the classifier is duplicated."""
    dups = [1] * (len(weights) - 1) + [classifier_copies]
    return [map_weights(*quantize(w, c.design.bit_quan), c, dup) for w, c, dup in zip(weights, cells, dups)]


def _forward(
    deployed: list[MappedLayer],
    biases: list[np.ndarray],
    x: np.ndarray,
    rng: np.random.Generator | None,
):
    """Run the noisy pipeline.

    Returns the classifier's logits per copy, (copies, B, classes), and the
    per-layer inputs of copy 0.
    """
    a = x
    acts = []
    for layer, b in zip(deployed, biases):
        acts.append(a)
        codes, scale = _quantize_unsigned(a, layer.design.bit_quan)
        pre = mvm(layer, codes, rng) * (scale * layer.scale)
        pre += b
        a = np.maximum(pre[0], 0.0)
    return pre, acts


def _softmax_ce(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy of the labels and its gradient in the logits."""
    rows = np.arange(len(labels))
    logp = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    logp -= np.log(np.add.reduce(np.exp(logp), axis=1, keepdims=True))
    loss = -(np.add.reduce(logp[rows, labels]) / len(labels))  # the mean, without its wrapper
    grad = np.exp(logp, out=logp)
    grad[rows, labels] -= 1.0
    grad /= len(labels)
    return loss, grad


def train(
    spec: MlpSpec,
    design: ReramDesign,
    dataset: Dataset,
    epochs: int,
    rng: np.random.Generator,
    noise: NoiseSpec,
) -> TrainState:
    """SGD with momentum through the noisy crossbar forward pass.

    Every batch deploys the current master weights on a single classifier
    copy and reads that deployment once, so each cell's programming and
    read noise are drawn together as one Gaussian at its target (see
    ``crossbar.mvm``) by the layer's one ``CellNoise``, whose tables and
    buffers serve every batch and which draws an epoch's reads in blocks
    of batches; no layer is programmed. Gradients are straight-through:
    the noisy activations are used, the analog pipeline is treated as the
    identity linear map of the master weights.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if dataset.x_train.shape[1] != spec.widths[0]:
        raise ValueError("dataset feature width does not match the input layer")

    _keep_freed_heap()
    cells = _layer_noise(spec, design, noise)
    state = _init_state(spec, rng)
    grad = np.empty_like(state.params)
    grad_views = _layer_views(grad, spec)

    n, size = len(dataset.x_train), spec.batch_size
    reads = CellNoise.block_reads(cells, [w.shape for w in state.weights], rng)
    for epoch in range(epochs):
        order = rng.permutation(n)
        x_epoch, y_epoch = dataset.x_train[order], dataset.y_train[order]  # each batch a view
        epoch_loss = 0.0
        with reads.epoch(-(-n // size)):
            for start in range(0, n, size):
                xb, yb = x_epoch[start : start + size], y_epoch[start : start + size]
                deployed = _deploy(state.weights, cells, 1)
                logits, acts = _forward(deployed, state.biases, xb, rng)
                loss, dz = _softmax_ce(logits[0], yb)
                if not math.isfinite(loss):
                    raise TrainingDivergedError(epoch)
                epoch_loss += loss * len(yb)
                _sgd_step(state, acts, dz, grad, grad_views)
                # The quantizers reject non-finite weights: an overflowing step
                # diverges here rather than failing the next deployment.
                if not np.isfinite(state.params).all():
                    raise TrainingDivergedError(epoch)
        state.losses.append(epoch_loss / n)
    return state


def _layer_views(flat: np.ndarray, spec: MlpSpec) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Each layer's weight matrix and bias vector as views of a flat array of (fan_in + 1, fan_out) blocks."""
    blocks = np.split(flat, np.cumsum([(i + 1) * o for i, o in zip(spec.widths[:-1], spec.widths[1:])])[:-1])
    blocks = [b.reshape(-1, fan_out) for b, fan_out in zip(blocks, spec.widths[1:])]
    return [b[:-1] for b in blocks], [b[-1] for b in blocks]


def _init_state(spec: MlpSpec, rng: np.random.Generator) -> TrainState:
    size = sum((i + 1) * o for i, o in zip(spec.widths[:-1], spec.widths[1:]))
    state = TrainState(spec=spec, params=np.zeros(size), velocity=np.zeros(size))
    for w in state.weights:
        w[...] = rng.standard_normal(w.shape) * np.sqrt(2.0 / w.shape[0])
    return state


def _sgd_step(state: TrainState, acts, dz, grad: np.ndarray, grad_views):
    """Backpropagate into the flat ``grad``, whose ``_layer_views`` are ``grad_views``, then step."""
    spec, (grad_w, grad_b) = state.spec, grad_views
    for l in range(spec.n_layers - 1, -1, -1):
        np.matmul(acts[l].T, dz, out=grad_w[l])
        np.add.reduce(dz, axis=0, out=grad_b[l])
        if l > 0:
            dz = dz @ state.weights[l].T
            dz *= acts[l] > 0.0
    state.velocity *= spec.momentum
    grad *= spec.lr
    state.velocity -= grad
    state.params += state.velocity


def majority_vote(per_copy_logits: np.ndarray) -> np.ndarray:
    """Predicted class per sample from (copies, batch, classes) logits.

    Majority over the per-copy argmax; ties are broken by the highest
    summed logit among the tied classes.
    """
    preds = per_copy_logits.argmax(axis=2)  # (k, B)
    k, n_b = preds.shape
    n_cls = per_copy_logits.shape[2]
    counts = np.zeros((n_b, n_cls), dtype=np.int64)
    for c in range(k):
        counts[np.arange(n_b), preds[c]] += 1
    top = counts.max(axis=1, keepdims=True)
    tied = counts == top
    summed = per_copy_logits.sum(axis=0)
    masked = np.where(tied, summed, -np.inf)
    return masked.argmax(axis=1)


def infer(
    state: TrainState,
    design: ReramDesign,
    dataset: Dataset,
    runs: int,
    rng: np.random.Generator | None = None,
    *,
    noise: NoiseSpec,
) -> list[float]:
    """Test accuracy of each of ``runs`` independent deployments, which
    ``accuracy_objective`` takes from ``MlpSpec.infer_runs``.

    The weights are quantized and mapped once; every run programs that
    mapping afresh (fresh write noise) and reads the test set through it.
    Each of the classifier's ``spec.vote_copies`` copies produces logits
    and the majority prediction wins.
    """
    _keep_freed_heap()
    spec = state.spec
    layers = _deploy(state.weights, _layer_noise(spec, design, noise), spec.vote_copies)
    accs = []
    for _ in range(runs):
        deployed = [program(layer, rng) for layer in layers]
        correct = 0
        for start in range(0, len(dataset.x_test), _EVAL_BATCH):
            xb = dataset.x_test[start : start + _EVAL_BATCH]
            yb = dataset.y_test[start : start + _EVAL_BATCH]
            per_copy, _ = _forward(deployed, state.biases, xb, rng)
            pred = majority_vote(per_copy)
            correct += int((pred == yb).sum())
        accs.append(correct / len(dataset.x_test))
    return accs


def accuracy_objective(
    design: ReramDesign,
    z: float,
    *,
    spec: MlpSpec,
    dataset: Dataset,
    rng: np.random.Generator,
    noise: NoiseSpec,
) -> tuple[list[float], float]:
    """Train at the requested fidelity; return (per-run accuracies, cpu_seconds).

    Cost is measured as per-process CPU time so that parallel campaign
    workers do not distort each other's readings.
    """
    epochs = spec.epochs(z)
    t0 = time.process_time()
    state = train(spec, design, dataset, epochs, rng, noise=noise)
    accs = infer(state, design, dataset, runs=spec.infer_runs, rng=rng, noise=noise)
    return accs, time.process_time() - t0
