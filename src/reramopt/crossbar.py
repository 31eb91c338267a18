"""Bit-sliced differential ReRAM crossbar emulation.

Pipeline conventions (fixed; an independent oracle in the test suite
reproduces them bit-for-bit):

* Weights are symmetric signed integers. |code| is split big-endian into
  ceil(bit_quan/res_cell) digits of res_cell bits; slice s carries weight
  2**(res_cell*(n_slices-1-s)) in the digital recombination.
* Digit d maps to conductance g_min + d*(g_max-g_min)/(2**res_cell - 1).
  Signs are differential: a positive code programs its digits on the
  positive tile and leaves the negative tile at g_min, and vice versa, so
  code 0 is exactly representable.
* Matrices larger than xbar_size x xbar_size are tiled; every tile pair
  (positive/negative) is a physical crossbar.
* DACs are full-parallel voltage mode: input code q >= 0 drives
  v_r * q / (2**res_dac - 1). Signed inputs are handled as two read passes
  (positive and negative parts) subtracted digitally.
* ADCs digitize each tile column current to res_adc bits over the fixed
  full scale [0, v_r * g_max * rows_in_tile]; res_adc=None is an ideal
  converter. Each slice is quantized before the digital shift-add.
* Programming noise is sampled at program() time, independently per cell
  and per duplicate copy, and persists until reprogramming. Read noise is
  resampled per cell per mvm call. Stored and effective conductances are
  clamped to [0, g_max].
* The samplers of ``noise.py`` read each layer's ``ReramDesign`` and
  ``NoiseSpec``; the spec alone decides which sources are drawn.

A programmed layer is immutable during reads; concurrent mvm calls need
independent generators. program() replaces the noisy arrays wholesale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .design_space import ReramDesign
from .noise import NoiseSpec, sample_read, sample_write_noise


@dataclass(frozen=True)
class QuantizedMatrix:
    """Signed integer codes plus the code->value scale factor."""

    codes: np.ndarray
    scale: float
    bits: int

    @property
    def rows(self) -> int:
        return self.codes.shape[0]

    @property
    def cols(self) -> int:
        return self.codes.shape[1]

    def dequantize(self) -> np.ndarray:
        return self.codes.astype(float) * self.scale


def quantize(values: np.ndarray, bits: int) -> QuantizedMatrix:
    """Symmetric uniform quantization: max |value| maps to 2**(bits-1)-1.

    An all-zero input keeps scale 1 by convention. Round-tripping via
    dequantize() is within one quantization step of the input.
    """
    if not (1 <= bits <= 8):
        raise ValueError(f"bits must be in [1,8], got {bits}")
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values.reshape(1, -1)
    if values.size == 0:
        raise ValueError("cannot quantize an empty matrix")
    # bits=1 degenerates under the signed two's-complement range; use the
    # standard ternary {-1, 0, 1} convention so symmetry survives.
    qmax = max((1 << (bits - 1)) - 1, 1)
    vmax = float(np.max(np.abs(values)))
    scale = vmax / qmax if vmax > 0.0 else 1.0
    codes = np.clip(np.rint(values / scale), -qmax, qmax).astype(np.int64)
    return QuantizedMatrix(codes=codes, scale=scale, bits=bits)


@dataclass(frozen=True)
class ConductanceMatrix:
    """Ideal target conductances and, once programmed, the noisy copies."""

    target: np.ndarray  # (n_slices, rows, cols)
    noisy: np.ndarray | None = None  # (dup, n_slices, rows, cols)


@dataclass(frozen=True)
class _Tile:
    row0: int
    row1: int
    col0: int
    col1: int
    pos: ConductanceMatrix
    neg: ConductanceMatrix


@dataclass(frozen=True)
class MappedLayer:
    """A quantized weight matrix deployed as differential crossbar tiles."""

    design: ReramDesign
    noise: NoiseSpec
    rows: int
    cols: int
    scale: float
    bits: int
    dup: int
    slice_weights: np.ndarray  # digital shift-add weights, most significant first
    tiles: tuple[_Tile, ...]

    @property
    def n_slices(self) -> int:
        return len(self.slice_weights)

    @property
    def programmed(self) -> bool:
        return all(t.pos.noisy is not None for t in self.tiles)


def _digit_planes(abs_codes: np.ndarray, bit_quan: int, res_cell: int) -> np.ndarray:
    n_slices = math.ceil(bit_quan / res_cell)
    mask = (1 << res_cell) - 1
    planes = [
        (abs_codes >> (res_cell * (n_slices - 1 - s))) & mask for s in range(n_slices)
    ]
    return np.stack(planes, axis=0)


def map_weights(
    w: QuantizedMatrix,
    design: ReramDesign,
    dup: int = 1,
    noise: NoiseSpec = NoiseSpec(),
) -> MappedLayer:
    """Deploy quantized weights onto bit-sliced differential tiles.

    ``dup`` physical copies share the same targets but are programmed with
    independent noise. The layer is returned unprogrammed.
    """
    if w.rows < 1 or w.cols < 1:
        raise ValueError("weight matrix must be non-empty")
    if dup < 1:
        raise ValueError("duplication factor must be >= 1")

    g_min, g_max = design.g_min, design.g_max
    step = (g_max - g_min) / ((1 << design.res_cell) - 1)
    n_slices = design.slices_per_weight
    slice_weights = np.array(
        [1 << (design.res_cell * (n_slices - 1 - s)) for s in range(n_slices)], dtype=float
    )

    digits = _digit_planes(np.abs(w.codes), design.bit_quan, design.res_cell)
    pos_digits = np.where(w.codes[None, :, :] > 0, digits, 0)
    neg_digits = np.where(w.codes[None, :, :] < 0, digits, 0)

    xb = design.xbar_size
    tiles = []
    for r0 in range(0, w.rows, xb):
        r1 = min(r0 + xb, w.rows)
        for c0 in range(0, w.cols, xb):
            c1 = min(c0 + xb, w.cols)
            pos = g_min + pos_digits[:, r0:r1, c0:c1] * step
            neg = g_min + neg_digits[:, r0:r1, c0:c1] * step
            tiles.append(
                _Tile(r0, r1, c0, c1, ConductanceMatrix(pos), ConductanceMatrix(neg))
            )

    return MappedLayer(
        design=design,
        noise=noise,
        rows=w.rows,
        cols=w.cols,
        scale=w.scale,
        bits=w.bits,
        dup=dup,
        slice_weights=slice_weights,
        tiles=tuple(tiles),
    )


def program(layer: MappedLayer, rng: np.random.Generator | None = None) -> MappedLayer:
    """Write the target conductances with fresh per-cell programming noise.

    Every duplicate copy gets an independent error sample; calling again
    models an independent redeployment of the same weights.
    """
    d = layer.design
    if layer.noise.prog and rng is None:
        raise ValueError("programming with noise enabled requires a generator")

    def _program_side(cm: ConductanceMatrix) -> ConductanceMatrix:
        target = np.broadcast_to(cm.target, (layer.dup,) + cm.target.shape)
        if layer.noise.prog and d.sigma_prog > 0.0:
            noisy = target + sample_write_noise(target, d, layer.noise, rng)
        else:
            noisy = target.copy()
        return ConductanceMatrix(cm.target, np.clip(noisy, 0.0, d.g_max))

    tiles = tuple(
        replace(t, pos=_program_side(t.pos), neg=_program_side(t.neg)) for t in layer.tiles
    )
    return replace(layer, tiles=tiles)


def _read_perturbed(g: np.ndarray, layer: MappedLayer, rng: np.random.Generator) -> np.ndarray:
    """Effective conductances for one read pass (fresh thermal/shot/RTN)."""
    if not layer.noise.noisy_reads:
        return g
    return np.clip(sample_read(g, layer.design, layer.noise, rng), 0.0, layer.design.g_max)


def _adc(currents: np.ndarray, full_scale: float, res_adc: int | None) -> np.ndarray:
    if res_adc is None:
        return currents
    levels = (1 << res_adc) - 1
    codes = np.clip(np.rint(currents / full_scale * levels), 0, levels)
    return codes * (full_scale / levels)


def mvm(
    layer: MappedLayer,
    inputs: QuantizedMatrix | np.ndarray,
    rng: np.random.Generator | None = None,
    mode: str = "roundrobin",
):
    """Noisy integer matrix-vector product through the crossbar pipeline.

    ``inputs`` holds integer activation codes, one row per analog read pass
    (a QuantizedMatrix or a raw code array of shape (rows,) or (B, rows)).
    Read noise is drawn once per cell per call, independently per duplicate
    copy and per sign pass, from the sources the layer's NoiseSpec enables;
    ``rng`` may be None only when none of them is.

    mode selects how the ``dup`` copies are used:
      * "roundrobin": input row b is served by copy b % dup (throughput
        duplication); output shape (B, cols) of integers.
      * "average": every row goes through all copies and the integer
        outputs are averaged; output shape (B, cols) of floats.
      * "per_copy": outputs of all copies, shape (dup, B, cols), integers.

    With noise off and res_adc=None the result equals the exact integer
    matmul codes @ weight_codes.
    """
    if not layer.programmed:
        raise RuntimeError("layer must be programmed before mvm")
    if mode not in ("roundrobin", "average", "per_copy"):
        raise ValueError(f"unknown mvm mode {mode!r}")

    codes = inputs.codes if isinstance(inputs, QuantizedMatrix) else np.asarray(inputs)
    squeeze = codes.ndim == 1
    codes = np.atleast_2d(codes).astype(np.int64)
    if codes.shape[1] != layer.rows:
        raise ValueError(f"input length {codes.shape[1]} != layer rows {layer.rows}")

    d = layer.design
    if rng is None and layer.noise.noisy_reads:
        raise ValueError("mvm with read noise enabled requires a generator")

    dac_levels = (1 << d.res_dac) - 1
    v_step = d.v_r / dac_levels
    g_step = (d.g_max - d.g_min) / ((1 << d.res_cell) - 1)
    n_b = codes.shape[0]
    acc = np.zeros((layer.dup, n_b, layer.cols))

    for sign in (1, -1):
        part = np.clip(sign * codes, 0, dac_levels)
        if not part.any():
            continue
        volts = part.astype(float) * v_step
        for t in layer.tiles:
            vt = volts[:, t.row0 : t.row1]
            rows_in_tile = t.row1 - t.row0
            fs = d.v_r * d.g_max * rows_in_tile
            g_pos = _read_perturbed(t.pos.noisy, layer, rng)
            g_neg = _read_perturbed(t.neg.noisy, layer, rng)
            # currents: (B, r) x (dup, S, r, c) -> (B, dup, S, c)
            i_pos = np.tensordot(vt, g_pos, axes=([1], [2]))
            i_neg = np.tensordot(vt, g_neg, axes=([1], [2]))
            i_pos = _adc(i_pos, fs, d.res_adc)
            i_neg = _adc(i_neg, fs, d.res_adc)
            diff = np.tensordot(i_pos - i_neg, layer.slice_weights, axes=([2], [0]))
            acc[:, :, t.col0 : t.col1] += sign * np.swapaxes(diff, 0, 1)

    out = np.rint(acc / (g_step * v_step)).astype(np.int64)
    if mode == "per_copy":
        return out[:, 0, :] if squeeze else out
    if mode == "average":
        avg = out.mean(axis=0)
        return avg[0] if squeeze else avg
    picked = out[np.arange(n_b) % layer.dup, np.arange(n_b), :]
    return picked[0] if squeeze else picked

