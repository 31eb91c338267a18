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
* A layer is held as whole-layer arrays, not per tile (see MappedLayer).
  Physically it is tiled into xbar_size x xbar_size crossbars, one per
  side, slice, copy and tile (``objectives._crossbar_count`` counts them).
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
* A programmed layer holds its programming noise, sampled at program()
  time independently per cell and per duplicate copy in one draw per
  layer; it persists until reprogramming. Read noise is resampled per cell
  in one draw per layer and mvm call. Stored and effective conductances
  are clamped to [0, g_max].
* mvm reads an unprogrammed layer as a fresh deployment that is read
  once, the way training redeploys on every batch: one Gaussian per cell
  at the target carries the programming and the thermal-plus-shot
  variance together, then RTN, then one clip to [0, g_max]
  (``noise.sample_read``).
* The samplers of ``noise.py`` read each layer's ``ReramDesign`` and
  ``NoiseSpec``, alone decide what is drawn and need a generator only then.
  Every programming and read Gaussian comes from ``noise.standard_normal``
  (float32 Box-Muller, cut at about 5.77 sigma), and RTN occupancy at
  the default p = 1/2 from packed random bits.

A layer is immutable during reads; concurrent mvm calls need independent
generators. program() replaces the noisy arrays wholesale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .design_space import ReramDesign
from .noise import NoiseSpec, sample_read, sample_write_noise


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
    vmax = float(np.abs(values).max())
    if not math.isfinite(vmax):
        raise ValueError("cannot quantize non-finite values")
    scale = vmax / qmax if vmax > 0.0 else 1.0
    codes = values / scale
    np.rint(codes, out=codes)
    codes.clip(-qmax, qmax, out=codes)
    return codes.astype(np.int64), scale


@dataclass(frozen=True)
class MappedLayer:
    """A quantized weight matrix deployed on bit-sliced differential crossbars.

    ``target`` holds the ideal conductances of the whole layer as
    (rows, 2, n_slices, cols), side 0 positive and side 1 negative.
    ``noisy`` holds the programmed conductances of all ``dup`` copies as
    (rows, dup, 2, n_slices, cols), or None until program() runs. Keeping
    the rows outermost makes the currents of one row block a single matmul.
    """

    design: ReramDesign
    noise: NoiseSpec
    rows: int
    cols: int
    scale: float
    dup: int
    target: np.ndarray
    noisy: np.ndarray | None = None

    @property
    def n_slices(self) -> int:
        return self.design.slices_per_weight

    @property
    def programmed(self) -> bool:
        return self.noisy is not None


def map_weights(
    codes: np.ndarray,
    scale: float,
    design: ReramDesign,
    dup: int = 1,
    noise: NoiseSpec = NoiseSpec(),
) -> MappedLayer:
    """Deploy signed integer weight codes, worth ``scale`` each, onto crossbars.

    ``dup`` physical copies share the same targets but are programmed with
    independent noise. The layer is returned unprogrammed. Codes whose
    magnitude needs more than ``design.bit_quan`` bits are rejected rather
    than sliced without their high digits.
    """
    if codes.ndim != 2 or codes.size == 0:
        raise ValueError(f"weight codes must be a non-empty matrix, got shape {codes.shape}")
    if dup < 1:
        raise ValueError("duplication factor must be >= 1")

    rows, cols = codes.shape
    need = max(int(codes.max()), -int(codes.min()), 0).bit_length()
    if need > design.bit_quan:
        raise ValueError(f"codes need {need} bits but the design's bit_quan is {design.bit_quan}")
    # |code| on the side of its sign, 0 on the other: (rows, 2, cols). At
    # most bit_quan <= 8 bits, so the digits are sliced in uint8.
    side_codes = np.empty((rows, 2, cols), dtype=np.uint8)
    np.maximum(codes, 0, out=side_codes[:, 0], casting="unsafe")
    np.maximum(-codes, 0, out=side_codes[:, 1], casting="unsafe")
    digits = side_codes[:, :, None, :] >> design.slice_shifts[:, None]
    digits &= (1 << design.res_cell) - 1
    target = digits * design.g_step
    target += design.g_min
    return MappedLayer(
        design=design, noise=noise, rows=rows, cols=cols, scale=scale, dup=dup, target=target
    )


def program(layer: MappedLayer, rng: np.random.Generator | None = None) -> MappedLayer:
    """Write the target conductances with fresh per-cell programming noise.

    Every duplicate copy gets an independent error sample, all drawn in one
    call per layer; calling again models an independent redeployment of the
    same weights. ``rng`` may be None only when ``noise.sample_write_noise``
    draws nothing.
    """
    d = layer.design
    targets = _copies(layer)
    noisy = sample_write_noise(targets, d, layer.noise, rng)
    noisy += targets
    noisy.clip(0.0, d.g_max, out=noisy)
    return replace(layer, noisy=noisy)


def _copies(layer: MappedLayer) -> np.ndarray:
    """The targets as seen by every copy, (rows, dup, 2, n_slices, cols), as a view."""
    one = layer.target[:, None]
    return one if layer.dup == 1 else np.broadcast_to(one, (layer.rows, layer.dup) + one.shape[2:])


def _adc(currents: np.ndarray, full_scale: float, levels: int) -> None:
    """Digitize the currents in place to ``levels`` steps of [0, full_scale]."""
    currents /= full_scale
    currents *= levels
    np.rint(currents, out=currents)
    currents.clip(0, levels, out=currents)
    currents *= full_scale / levels


def mvm(
    layer: MappedLayer,
    inputs: np.ndarray,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Noisy integer matrix product through the crossbar pipeline.

    ``inputs`` holds non-negative integer activation codes of shape
    (B, rows), all read in one analog pass; a negative code raises
    ValueError. Every row is read through all ``dup`` copies; the result
    holds the integer outputs of each copy as (dup, B, cols). Read noise is
    drawn by ``noise.sample_read`` once per cell per call, independently
    per copy; ``rng`` may be None only when that read draws nothing. A
    batch of all zeros reads nothing and draws nothing.

    An unprogrammed layer is read as a fresh deployment that this call
    alone sees: its programming error is drawn with the read noise, in one
    Gaussian per cell at the target (see the module docstring).

    With noise off and res_adc=None every copy equals the exact integer
    matmul codes @ weight_codes.
    """
    codes = np.asarray(inputs)
    if codes.dtype.kind not in "iu":
        raise ValueError(f"input codes must have an integer dtype, got {codes.dtype}")
    if codes.ndim != 2 or codes.shape[1] != layer.rows:
        raise ValueError(f"inputs must have shape (B, {layer.rows}), got {codes.shape}")
    if codes.min(initial=0) < 0:
        raise ValueError("input codes must be non-negative")

    d = layer.design
    fresh = not layer.programmed
    n_b = codes.shape[0]
    acc = np.zeros((n_b, layer.dup, layer.cols))
    if codes.max(initial=0) > 0:
        cells = _copies(layer) if fresh else layer.noisy
        volts = np.minimum(codes, d.dac_levels, dtype=float)
        volts *= d.v_step
        g = sample_read(cells, d, layer.noise, rng, fresh)
        if g is not cells:  # something was drawn: clip that sample in place
            g.clip(0.0, d.g_max, out=g)
        flat = g.reshape(layer.rows, -1)
        for r0 in range(0, layer.rows, d.xbar_size):
            r1 = min(r0 + d.xbar_size, layer.rows)
            # (B, r) @ (r, dup*2*S*cols) -> currents (B, dup, 2, S, cols)
            cur = volts[:, r0:r1] @ flat[r0:r1]
            if d.adc_levels is not None:
                _adc(cur, d.v_r * d.g_max * (r1 - r0), d.adc_levels)
            cur = cur.reshape((n_b,) + g.shape[1:])
            acc += d.slice_weights @ (cur[:, :, 0] - cur[:, :, 1])

    acc /= d.g_step * d.v_step
    np.rint(acc, out=acc)
    return acc.astype(np.int64).swapaxes(0, 1)
