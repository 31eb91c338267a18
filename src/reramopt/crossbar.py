"""Bit-sliced differential ReRAM crossbar emulation.

Pipeline conventions (fixed; an independent oracle in the test suite
reproduces them bit-for-bit):

* Weights are symmetric signed integers. |code| is split big-endian into
  ceil(bit_quan/res_cell) digits of res_cell bits; slice s carries weight
  2**(res_cell*(n_slices-1-s)) in the digital recombination.
* Digit d maps to conductance g_min + d*(g_max-g_min)/(2**res_cell - 1).
  Signs are differential: a positive code programs its digits on the
  positive side and leaves the negative side at g_min, and vice versa, so
  code 0 is exactly representable.
* A layer is held as whole-layer arrays, not per tile: its signed weight
  codes, which stand for the digits of every cell (``noise.CellNoise``
  maps a code to its cells), and once programmed its conductances (see
  MappedLayer). Physically it is tiled into xbar_size x xbar_size
  crossbars, one per side, slice, copy and tile
  (``objectives._crossbar_count`` counts them).
* DACs are full-parallel voltage mode: input code q >= 0 drives
  v_r * q / (2**res_dac - 1).
* ADCs digitize each tile column current to res_adc bits over the fixed
  full scale [0, v_r * g_max * rows_in_tile]; res_adc=None is an ideal
  converter. Each slice is quantized before the digital shift-add. Every
  tile column has its own ADC whose full scale depends only on the rows in
  the tile, so mvm digitizes one row block of xbar_size rows at a time and
  never splits the columns.
* Every duplicate copy of a layer reads every input; mvm returns the
  outputs of all copies and leaves combining them to the caller (resna
  votes over the classifier's copies).
* What a cell holds is its layer's ``noise.CellNoise``'s to decide:
  program() writes every cell of every copy through it in one draw per
  layer, and the error persists until reprogramming; every mvm call reads
  the programmed conductances, or an unprogrammed layer's codes as a fresh
  deployment that is read once (the way training redeploys on every
  batch), through it in one draw per layer and call, or from a block of
  training batches' draws (see ``noise``), whatever its inputs.

A layer is immutable during reads; concurrent mvm calls need independent
generators, and on unprogrammed layers their own ``CellNoise``s.
program() replaces the noisy arrays wholesale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .design_space import ReramDesign
from .noise import CellNoise

_TINY = np.finfo(float).tiny  # the smallest normal float


def quantize(values: np.ndarray, bits: int) -> tuple[np.ndarray, float]:
    """Symmetric uniform quantization of a matrix: max |value| maps to 2**(bits-1)-1.

    Returns the int64 codes and their scale. An all-zero input keeps scale
    1 by convention. codes * scale is within half a quantization step of
    the input.
    """
    if not (1 <= bits <= 8):
        raise ValueError(f"bits must be in [1,8], got {bits}")
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.size == 0:
        raise ValueError(f"can only quantize a non-empty matrix, got shape {values.shape}")
    # bits=1 degenerates under the signed two's-complement range; use the
    # standard ternary {-1, 0, 1} convention so symmetry survives.
    qmax = max((1 << (bits - 1)) - 1, 1)
    vmax = float(np.maximum.reduce(np.abs(values), axis=None))
    if not math.isfinite(vmax):
        raise ValueError("cannot quantize non-finite values")
    scale = vmax / qmax if vmax > 0.0 else 1.0
    codes = values / scale
    np.rint(codes, out=codes)
    if scale < _TINY:
        # |values| <= vmax rounds every code into +-qmax unless a subnormal scale rounds coarsely.
        codes.clip(-qmax, qmax, out=codes)
    return codes.astype(np.int64), scale


@dataclass(frozen=True)
class MappedLayer:
    """A quantized weight matrix deployed on bit-sliced differential crossbars.

    ``codes`` holds the signed weight codes, (rows, cols), which stand for
    the cells of the whole layer (see ``noise.CellNoise``). ``noisy`` holds
    the programmed conductances of all ``dup`` copies, (rows, dup, 2,
    n_slices, cols) with side 0 positive and side 1 negative, or None until
    program() runs. ``noise`` carries the design and writes and reads every
    cell. Keeping the rows outermost makes the currents of one row block a
    single matmul.
    """

    noise: CellNoise
    rows: int
    cols: int
    scale: float
    dup: int
    codes: np.ndarray
    noisy: np.ndarray | None = None

    @property
    def design(self) -> ReramDesign:
        return self.noise.design

    @property
    def n_slices(self) -> int:
        return self.design.slices_per_weight

    @property
    def programmed(self) -> bool:
        return self.noisy is not None


def map_weights(codes: np.ndarray, scale: float, noise: CellNoise, dup: int = 1) -> MappedLayer:
    """Deploy signed integer weight codes, worth ``scale`` each, onto crossbars.

    ``noise``, a ``noise.CellNoise``, sets the design and noise; a caller
    that deploys many times passes the same one, as training does. ``dup``
    physical copies share the same targets but are programmed with
    independent noise. The layer is returned unprogrammed. Codes whose
    magnitude needs more than ``design.bit_quan`` bits are rejected rather
    than sliced without their high digits.
    """
    if codes.ndim != 2 or codes.size == 0:
        raise ValueError(f"weight codes must be a non-empty matrix, got shape {codes.shape}")
    if dup < 1:
        raise ValueError("duplication factor must be >= 1")
    need = max(int(np.maximum.reduce(codes, axis=None)), -int(np.minimum.reduce(codes, axis=None))).bit_length()
    if need > noise.design.bit_quan:
        raise ValueError(f"codes need {need} bits but the design's bit_quan is {noise.design.bit_quan}")
    rows, cols = codes.shape
    return MappedLayer(noise, rows, cols, scale, dup, codes.astype(np.intp, copy=False))


def program(layer: MappedLayer, rng: np.random.Generator | None = None) -> MappedLayer:
    """Write the target conductances with fresh per-cell programming noise.

    Every duplicate copy gets an independent error sample, all drawn in one
    call per layer from one write std per cell; calling again models an
    independent redeployment of the same weights. ``rng`` may be None only
    when the write draws nothing.
    """
    return replace(layer, noisy=layer.noise.write(layer.codes, layer.dup, rng))


def _adc(currents: np.ndarray, full_scale: float, levels: int) -> None:
    """Digitize the currents, all >= 0, in place to ``levels`` steps of [0, full_scale]."""
    currents /= full_scale
    currents *= levels
    np.rint(currents, out=currents)
    np.minimum(currents, levels, out=currents)
    currents *= full_scale / levels


def mvm(
    layer: MappedLayer,
    inputs: np.ndarray,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Noisy integer matrix product through the crossbar pipeline.

    ``inputs`` holds non-negative integer activation codes of shape
    (B, rows), all read in one analog pass; a negative code raises
    ValueError (unsigned codes are not scanned). Every row is read through
    all ``dup`` copies; the result holds the integer outputs of each copy
    as (dup, B, cols). ``layer.noise`` draws the read noise once per cell
    per call, independently per copy, and a batch of all zeros reads like
    any other; ``rng`` may be None only when that read draws nothing. An
    unprogrammed layer is read as a fresh deployment that this call alone
    sees (see the module docstring).

    With noise off and res_adc=None every copy equals the exact integer
    matmul codes @ weight_codes.
    """
    codes = np.asarray(inputs)
    if codes.dtype.kind not in "iu":
        raise ValueError(f"input codes must have an integer dtype, got {codes.dtype}")
    if codes.ndim != 2 or codes.shape[1] != layer.rows:
        raise ValueError(f"inputs must have shape (B, {layer.rows}), got {codes.shape}")
    if codes.dtype.kind == "i" and np.minimum.reduce(codes, axis=None, initial=0) < 0:
        raise ValueError("input codes must be non-negative")

    d = layer.design
    n_b = codes.shape[0]
    if np.maximum.reduce(codes, axis=None, initial=0) > d.dac_levels:
        volts = np.minimum(codes, d.dac_levels, dtype=float)
        volts *= d.v_step
    else:
        volts = np.multiply(codes, d.v_step)  # the same float(code) * v_step, without the saturation
    g = layer.noise.read(layer.noisy, rng) if layer.programmed else layer.noise.fresh(layer.codes, layer.dup, rng)
    flat = g.reshape(layer.rows, -1)
    acc = None
    for r0 in range(0, layer.rows, d.xbar_size):
        r1 = min(r0 + d.xbar_size, layer.rows)
        # (B, r) @ (r, dup*2*S*cols) -> currents (B, dup, 2, S, cols)
        cur = volts[:, r0:r1] @ flat[r0:r1]
        if d.adc_levels is not None:
            _adc(cur, d.v_r * d.g_max * (r1 - r0), d.adc_levels)
        cur = cur.reshape((n_b,) + g.shape[1:])
        tile = d.slice_weights @ (cur[:, :, 0] - cur[:, :, 1])
        if acc is None:
            acc = tile
        else:
            acc += tile
    acc /= d.g_step * d.v_step
    np.rint(acc, out=acc)
    return acc.astype(np.int64).swapaxes(0, 1)  # the cast also makes a rounded -0.0 a 0
