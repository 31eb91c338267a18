"""Noise-aware MLP training with the forward pass on emulated crossbars.

The trainer keeps a noise-free master copy of the weights in full
precision. Every forward pass quantizes the master weights, deploys them
on crossbar tiles with fresh programming noise, and computes activations
through the noisy analog pipeline; gradients flow back to the master copy
with a straight-through estimator. Hidden layers run at the candidate
design's operating point, the classification layer at a reduced one
(100 MHz / 300 K by default), and at inference time the classifier is
duplicated so a majority vote over the copies picks the prediction.
``MlpSpec`` is the config's ``resna:`` section: the network, its training
hyperparameters, the data set it learns, the voting inference and the
epoch range that the optimizer's fidelity spans.

Conventions: ReLU activations are quantized unsigned (codes 0..2^b - 1,
using the full DAC range); weights use the symmetric signed quantizer.
Biases stay in the digital domain and see no analog noise.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from .crossbar import MappedLayer, NoiseSpec, QuantizedMatrix, map_weights, mvm, program, quantize
from .design_space import ReramDesign


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
    ``n_train``/``n_test`` Gaussian blobs in R^widths[0] drawn from
    ``data_seed``, or the rows of ``csv_path``. Accuracy is the mean over
    ``infer_runs`` deployments, by majority vote of the classifier copies
    when ``voting`` is on. Fidelity z maps to training epochs affinely
    from ``min_epochs`` to ``max_epochs``.
    """

    widths: tuple[int, ...] = (64, 32, 10)
    vote_copies: int = 3
    hidden_copies: int = 1  # unrolled-kernel style duplication, off by default
    classifier_freq_hz: float = 1.0e8
    classifier_temperature_k: float = 300.0
    lr: float = 0.001
    momentum: float = 0.9
    batch_size: int = 8
    noise_resample: str = "per_batch"  # or "per_epoch"
    n_train: int = 2000
    n_test: int = 1000
    n_classes: int = 10
    center_spread: float = 0.5
    csv_path: str | None = None
    data_seed: int = 7
    infer_runs: int = 10
    voting: bool = True
    min_epochs: int = 10
    max_epochs: int = 100

    def __post_init__(self):
        if len(self.widths) < 2:
            raise ValueError("need at least an input and an output layer")
        if self.n_classes != self.widths[-1]:
            raise ValueError(f"n_classes ({self.n_classes}) must equal widths[-1] ({self.widths[-1]})")
        if self.vote_copies < 1 or self.vote_copies % 2 == 0:
            raise ValueError("vote_copies must be odd and >= 1")
        if self.hidden_copies < 1:
            raise ValueError("hidden_copies must be >= 1")
        if self.noise_resample not in ("per_batch", "per_epoch"):
            raise ValueError("noise_resample must be 'per_batch' or 'per_epoch'")
        if not 1 <= self.min_epochs <= self.max_epochs:
            raise ValueError(
                f"need 1 <= min_epochs ({self.min_epochs}) <= max_epochs ({self.max_epochs})"
            )

    @property
    def n_layers(self) -> int:
        return len(self.widths) - 1


@dataclass
class Dataset:
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    n_classes: int


@dataclass
class TrainState:
    """Noise-free master weights plus SGD-momentum state."""

    spec: MlpSpec
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    velocities_w: list[np.ndarray]
    velocities_b: list[np.ndarray]
    epoch: int = 0
    losses: list[float] = field(default_factory=list)


def make_dataset(spec: MlpSpec) -> Dataset:
    """Build the train/test splits; deterministic for a fixed ``data_seed``.

    The default source is a balanced 10-class Gaussian-blob problem in
    R^64 whose spread is calibrated so a one-shot least-squares classifier
    clears 90% test accuracy. Features are min-max scaled to [0,1] using
    train statistics. If ``csv_path`` is set, rows of
    ``f1,...,fD,label`` with D = widths[0] are read instead (first n_train
    rows train, next n_test rows test).
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
    return Dataset(x_train, y_train, x_test, y_test, spec.n_classes)


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
            if not (0 <= label < spec.n_classes):
                raise DatasetFormatError(f"{spec.csv_path}: line {lineno}: label {label} out of range")
            rows.append((feats, label))
    need = spec.n_train + spec.n_test
    if len(rows) < need:
        raise DatasetFormatError(f"{spec.csv_path}: need {need} rows, found {len(rows)}")
    x = np.array([r[0] for r in rows[:need]])
    y = np.array([r[1] for r in rows[:need]], dtype=np.int64)
    return Dataset(
        x[: spec.n_train], y[: spec.n_train], x[spec.n_train :], y[spec.n_train :], spec.n_classes
    )


def _quantize_unsigned(values: np.ndarray, bits: int) -> QuantizedMatrix:
    """Activation quantizer: non-negative codes over the full DAC range."""
    values = np.asarray(values, dtype=float)
    qmax = (1 << bits) - 1
    vmax = float(values.max()) if values.size else 0.0
    scale = vmax / qmax if vmax > 0.0 else 1.0
    codes = np.clip(np.rint(values / scale), 0, qmax).astype(np.int64)
    return QuantizedMatrix(codes=codes, scale=scale, bits=bits)


def _layer_designs(spec: MlpSpec, design: ReramDesign) -> list[ReramDesign]:
    reduced = design.with_context(spec.classifier_freq_hz, spec.classifier_temperature_k)
    return [design] * (spec.n_layers - 1) + [reduced]


def _deploy(
    weights: list[np.ndarray],
    designs: list[ReramDesign],
    dups: list[int],
    noise: NoiseSpec,
    rng: np.random.Generator | None,
) -> list[tuple[MappedLayer, float]]:
    deployed = []
    for w, dsg, dup in zip(weights, designs, dups):
        qw = quantize(w, dsg.bit_quan)
        layer = program(map_weights(qw, dsg, dup=dup, noise=noise), rng)
        deployed.append((layer, qw.scale))
    return deployed


def _forward(
    deployed: list[tuple[MappedLayer, float]],
    biases: list[np.ndarray],
    x: np.ndarray,
    rng: np.random.Generator | None,
    classifier_mode: str = "roundrobin",
):
    """Run the noisy pipeline; returns (logits, per-layer input/preact caches)."""
    a = x
    acts, pres = [], []
    last = len(deployed) - 1
    logits_per_copy = None
    for idx, ((layer, w_scale), b) in enumerate(zip(deployed, biases)):
        acts.append(a)
        q_in = _quantize_unsigned(a, layer.design.bit_quan)
        mode = classifier_mode if idx == last else "roundrobin"
        y_int = mvm(layer, q_in, rng=rng, mode=mode)
        pre = y_int * (q_in.scale * w_scale) + b
        pres.append(pre)
        if idx == last:
            if mode == "per_copy":
                logits_per_copy = pre
                pre = pre.mean(axis=0)
            return pre, acts, pres, logits_per_copy
        a = np.maximum(pre, 0.0)
    raise AssertionError("unreachable")


def _softmax_ce(logits: np.ndarray, labels: np.ndarray):
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    loss = -logp[np.arange(len(labels)), labels].mean()
    probs = np.exp(logp)
    grad = probs
    grad[np.arange(len(labels)), labels] -= 1.0
    return loss, grad / len(labels)


def train(
    spec: MlpSpec,
    design: ReramDesign,
    dataset: Dataset,
    epochs: int,
    rng: np.random.Generator,
    noise: NoiseSpec = NoiseSpec(),
) -> TrainState:
    """SGD with momentum through the noisy crossbar forward pass.

    Each deployment draws a fresh set of programming noise (per batch by
    default, per epoch with ``noise_resample='per_epoch'``); read noise is
    fresh on every forward call. Gradients are straight-through: the noisy
    activations are used, the analog pipeline is treated as the identity
    linear map of the master weights.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if dataset.x_train.shape[1] != spec.widths[0]:
        raise ValueError("dataset feature width does not match the input layer")

    designs = _layer_designs(spec, design)
    dups = [spec.hidden_copies] * (spec.n_layers - 1) + [1]
    state = _init_state(spec, rng)

    n = len(dataset.x_train)
    for epoch in range(epochs):
        order = rng.permutation(n)
        deployed = None
        if spec.noise_resample == "per_epoch":
            deployed = _deploy(state.weights, designs, dups, noise, rng)
        epoch_loss = 0.0
        for start in range(0, n, spec.batch_size):
            idx = order[start : start + spec.batch_size]
            xb, yb = dataset.x_train[idx], dataset.y_train[idx]
            if spec.noise_resample == "per_batch":
                deployed = _deploy(state.weights, designs, dups, noise, rng)
            logits, acts, pres, _ = _forward(deployed, state.biases, xb, rng)
            loss, dz = _softmax_ce(logits, yb)
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch)
            epoch_loss += loss * len(idx)
            _sgd_step(state, acts, pres, dz)
        state.epoch = epoch + 1
        state.losses.append(epoch_loss / n)
    return state


def _init_state(spec: MlpSpec, rng: np.random.Generator) -> TrainState:
    weights, biases, vw, vb = [], [], [], []
    for fan_in, fan_out in zip(spec.widths[:-1], spec.widths[1:]):
        weights.append(rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in))
        biases.append(np.zeros(fan_out))
        vw.append(np.zeros((fan_in, fan_out)))
        vb.append(np.zeros(fan_out))
    return TrainState(spec=spec, weights=weights, biases=biases, velocities_w=vw, velocities_b=vb)


def _sgd_step(state: TrainState, acts, pres, dz):
    spec = state.spec
    grads_w = [None] * spec.n_layers
    grads_b = [None] * spec.n_layers
    for l in range(spec.n_layers - 1, -1, -1):
        grads_w[l] = acts[l].T @ dz
        grads_b[l] = dz.sum(axis=0)
        if l > 0:
            da = dz @ state.weights[l].T
            dz = da * (pres[l - 1] > 0.0)
    for l in range(spec.n_layers):
        state.velocities_w[l] = spec.momentum * state.velocities_w[l] - spec.lr * grads_w[l]
        state.velocities_b[l] = spec.momentum * state.velocities_b[l] - spec.lr * grads_b[l]
        state.weights[l] += state.velocities_w[l]
        state.biases[l] += state.velocities_b[l]


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
    runs: int = 10,
    rng: np.random.Generator | None = None,
    noise: NoiseSpec = NoiseSpec(),
    eval_batch: int = 250,
) -> list[float]:
    """Test accuracy of each of ``runs`` independent deployments.

    Every run reprograms all layers (fresh write noise) and reads the test
    set through them. With ``spec.voting``, the classifier's duplicate
    copies each produce logits and the majority prediction wins; without
    it the first copy alone decides.
    """
    spec = state.spec
    designs = _layer_designs(spec, design)
    dups = [spec.hidden_copies] * (spec.n_layers - 1) + [spec.vote_copies]
    accs = []
    for _ in range(runs):
        deployed = _deploy(state.weights, designs, dups, noise, rng)
        correct = 0
        for start in range(0, len(dataset.x_test), eval_batch):
            xb = dataset.x_test[start : start + eval_batch]
            yb = dataset.y_test[start : start + eval_batch]
            _, _, _, per_copy = _forward(deployed, state.biases, xb, rng, classifier_mode="per_copy")
            if spec.voting:
                pred = majority_vote(per_copy)
            else:
                pred = per_copy[0].argmax(axis=1)
            correct += int((pred == yb).sum())
        accs.append(correct / len(dataset.x_test))
    return accs


def epochs_for_fidelity(z: float, min_epochs: int = 10, max_epochs: int = 100) -> int:
    """Affine fidelity-to-epochs map; z=0 -> min_epochs, z=1 -> max_epochs."""
    if not (0.0 <= z <= 1.0):
        raise ValueError(f"fidelity must lie in [0,1], got {z}")
    return int(round(min_epochs + z * (max_epochs - min_epochs)))


def accuracy_objective(
    design: ReramDesign,
    z: float,
    *,
    spec: MlpSpec,
    dataset: Dataset,
    rng: np.random.Generator,
    noise: NoiseSpec = NoiseSpec(),
) -> tuple[list[float], float]:
    """Train at the requested fidelity; return (per-run accuracies, cpu_seconds).

    Cost is measured as per-process CPU time so that parallel campaign
    workers do not distort each other's readings.
    """
    epochs = epochs_for_fidelity(z, spec.min_epochs, spec.max_epochs)
    t0 = time.process_time()
    state = train(spec, design, dataset, epochs, rng, noise=noise)
    accs = infer(state, design, dataset, runs=spec.infer_runs, rng=rng, noise=noise)
    return accs, time.process_time() - t0
