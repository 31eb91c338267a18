"""Stochastic conductance-noise models for ReRAM cells.

Four sources are modeled, all in conductance units (siemens):

* thermal noise   -- Gaussian, sigma = sqrt(4*G*Freq*k_B*T) / V
* shot noise      -- Gaussian, sigma = sqrt(2*G*Freq*q*V) / V
* RTN             -- a trap is occupied at read time with probability p;
                     when occupied the conductance jumps by G*rel_amp(G)
                     with rel_amp(G) = a/(G/G_min) + b
* programming     -- Gaussian write error, sigma = sigma_prog * G

Thermal, shot and RTN perturb every read; programming noise is frozen at
write time and persists until the cell is reprogrammed. A layer's one
``CellNoise`` decides what its cells hold, in three operations that each
return conductances clipped to [0, g_max]:

* ``write`` programs the cells of weight codes: the target plus one
  Gaussian write error per cell and copy;
* ``read`` reads programmed conductances: thermal and shot noise together
  as one Gaussian, then RTN. Both are independent, zero-mean and have
  variances linear in G, so their sum is Gaussian with the summed
  variance c*G;
* ``fresh`` reads a deployment that is read exactly once (ReSNA's
  training redeploys the weights on every batch), which needs no stored
  programming error. It folds the write error into the same Gaussian,
  taken at the target G: sigma^2 = sigma_prog^2 * G^2 + c * G, the total
  variance Var(G_prog) + E[c * G_prog] of writing and then reading the
  cell. It differs from a write and a read only in taking the read sigma
  at the target and in clipping once.

``sources`` draws each source's own unclipped perturbation for ``reramopt
noise-hist``. A deployment is held as its signed weight codes (see
``crossbar``), and a cell's target, fresh-read std and RTN jump depend
on its code, side and slice alone: ``CellNoise`` evaluates each per-cell
expression once per level of ``ReramDesign.levels``, gathers the results
into one table per (side, slice, code), and ``fresh`` gathers a layer's
cells from those tables by code. The rest, std*N + target, jump*occupied
+ that and one clip, is elementwise and correctly rounded, so the read
has the per-cell formula's bytes.

Training reads every batch's fresh deployment once, and nothing else
draws between the reads of an epoch's batches. So ``CellNoise.block_reads``
draws the reads of K batches at once and runs Box-Muller over each
layer's K reads together, which gives every value the bytes of a read by
read draw in a few NumPy calls. A read that does not happen (an all-zero
input reads nothing) and the end of an epoch set the generator back to the
draws the reads took, so the shuffles and the inference after training
see the generator that read by read draws leave.

Every Gaussian comes from ``standard_normal``: float32 Box-Muller normals
r*cos(2*pi*u2), r*sin(2*pi*u2) with r = sqrt(-2*log1p(-u1)), from the
float32 uniforms of ``Generator.random``. Reading the generator's 32-bit
draws 64 bits at a time (``_uint32_draws``), it takes 3.4 ns per value on
a 2-core AVX-512 Xeon, against 4.3 ns through ``Generator.random`` and 13
ns for NumPy's float64 ziggurat. Its law differs from N(0, 1) in that the
tail is cut at sqrt(48*ln 2) ~ 5.77 sigma (u1 is a multiple of 2**-24
below 1; 8.0e-9 of the mass), and its bytes depend on the NumPy build's
float32 ``log1p``, ``sin`` and ``cos``, as ``mesmo``'s front sampler
depends on its float32 ``cos`` (``_COS_ERR``). RTN occupancy at the
default p = 1/2 is one bit of those draws per cell, exact Bernoulli(1/2);
any other p compares one float64 uniform per cell with p.

The sigma functions take the conductances ``g`` (a scalar or an ndarray)
and the ``ReramDesign`` that sets V = v_r, Freq, T, sigma_prog and
G_min = 1/r_off. ``rtn_amplitude`` and ``CellNoise`` also take a
``NoiseSpec``, the config's ``noise:`` section (its RTN coefficients are
calibration placeholders), and ``CellNoise``'s operations a
generator: the same seed reproduces the same sequence, so Monte-Carlo
sweeps can use per-worker substreams.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .design_space import ReramDesign

K_BOLTZMANN = 1.380649e-23  # J/K
Q_ELECTRON = 1.602176634e-19  # C
_TWO_PI = np.float32(2.0 * np.pi)
_UNIFORM_STEP = np.float32(2.0**-24)


@dataclass(frozen=True)
class NoiseSpec:
    """Which stochastic sources are active, plus the RTN amplitude law and occupancy."""

    thermal: bool = True
    shot: bool = True
    rtn: bool = True
    prog: bool = True
    rtn_amp_a: float = 4e-4
    rtn_amp_b: float = 2e-3
    rtn_p_occupancy: float = 0.5

    def __post_init__(self):
        if not (0.0 <= self.rtn_p_occupancy <= 1.0):
            raise ValueError("rtn_p_occupancy must lie in [0,1]")
        amps = (self.rtn_amp_a, self.rtn_amp_b)
        if not all(math.isfinite(a) and a >= 0.0 for a in amps):
            raise ValueError(f"RTN amplitude coefficients must be finite and >= 0, got {list(amps)}")

    @classmethod
    def disabled(cls) -> "NoiseSpec":
        return cls(thermal=False, shot=False, rtn=False, prog=False)


def _uint32_draws(rng: np.random.Generator, k: int) -> np.ndarray:
    """The next k 32-bit draws of ``rng``: the values and state of ``rng.integers(0, 2**32, k, np.uint32)``.

    PCG64, NumPy's default, serves them as the low, then the high half of
    each 64-bit output and keeps an unserved half in its state. This takes
    whole outputs from ``random_raw``: a kept half is served first, and
    when the rest is odd the last high half is kept in its place.
    """
    bg = rng.bit_generator
    if not isinstance(bg, np.random.PCG64) or not np.little_endian:
        return rng.integers(0, 1 << 32, k, dtype=np.uint32)
    # Whole outputs to take: an odd k takes one fewer when a kept half is served first.
    m = (k + 1 - (k % 2 and bg.state["has_uint32"])) // 2
    halves = bg.random_raw(m).view(np.uint32)  # low half first
    state = bg.state
    served, kept = min(state["has_uint32"], k), state["uinteger"]
    state["has_uint32"] += 2 * m - k
    if m:
        state["uinteger"] = int(halves[-1])
    bg.state = state
    return np.concatenate((np.array([kept], np.uint32), halves[: k - 1])) if served else halves[:k]


def _box_muller(r: np.ndarray, theta: np.ndarray, cos: np.ndarray) -> None:
    """Box-Muller in place on float32 uniforms: r becomes the radii times the cosines of the angles theta, and theta the sines.

    r = sqrt(-2*log1p(-u1)) and the angle 2*pi*u2, elementwise on arrays of
    one shape; ``cos`` is scratch of that shape.
    """
    np.negative(r, out=r)
    np.log1p(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta *= _TWO_PI
    np.cos(theta, out=cos)
    np.sin(theta, out=theta)
    theta *= r
    np.multiply(cos, r, out=r)


def standard_normal(rng: np.random.Generator | None, shape: tuple[int, ...], draws=None, out=None) -> np.ndarray:
    """Float32 standard normals of the given shape, by Box-Muller (see the module docstring).

    Takes 2*ceil(n/2) 32-bit draws of ``rng``, or overwrites ``draws``, and
    makes each the uniform ``Generator.random`` makes of it, its top 24 bits
    times 2**-24. The first half set the radii and the second the angles;
    the cosines fill the first half of the result and the sines the second,
    so the values depend on n alone, and an odd n gives the first n of the
    n + 1 values. Works in ``out``, at least 3*ceil(n/2) float32, or a new
    array; the result is a view of it.
    """
    n = math.prod(shape)
    m = (n + 1) // 2
    draws = _uint32_draws(rng, 2 * m) if draws is None else draws
    u = np.empty(3 * m, dtype=np.float32) if out is None else out[: 3 * m]
    draws >>= 8
    np.multiply(draws, _UNIFORM_STEP, out=u[: 2 * m], dtype=np.float32)
    _box_muller(u[:m], u[m : 2 * m], u[2 * m :])
    return u[:n].reshape(shape)


def _read_words(n: int, gauss: bool, packed: bool) -> tuple[int, int]:
    """The 32-bit draws of one read of n cells: (the normals', the packed RTN occupancy's)."""
    return 2 * ((n + 1) // 2) * gauss, (n + 31) // 32 * packed


def _read_draws(
    spec: NoiseSpec, rng: np.random.Generator | None, shape: tuple[int, ...], gauss: bool, rtn: bool, out=None
):
    """(normals if ``gauss``, RTN occupancy if ``rtn``) of one read of cells of ``shape``, drawn in that order.

    At p = 1/2 the occupancy is one bit per cell of the little-endian bytes
    of 32-bit draws, taken together with the normals'. ``out`` is
    ``standard_normal``'s. A None ``rng`` raises ValueError.
    """
    if rng is None:
        raise ValueError("a noisy read requires a generator")
    n = math.prod(shape)
    packed = rtn and spec.rtn_p_occupancy == 0.5
    words, rtn_words = _read_words(n, gauss, packed)
    draws = _uint32_draws(rng, words + rtn_words)
    normals = standard_normal(None, shape, draws[:words], out) if gauss else None
    if packed:
        bits = draws[words:].astype("<u4", copy=False).view(np.uint8)
        return normals, np.unpackbits(bits, count=n).view(bool).reshape(shape)
    return normals, rng.random(shape) < spec.rtn_p_occupancy if rtn else None


def thermal_sigma(g, design: ReramDesign):
    """Std of the thermal conductance noise; 0 where g = 0."""
    g = np.asarray(g, dtype=float)
    return np.sqrt(4.0 * g * design.freq_hz * K_BOLTZMANN * design.temperature_k) / design.v_r


def shot_sigma(g, design: ReramDesign):
    """Std of the shot conductance noise; 0 where g = 0."""
    g = np.asarray(g, dtype=float)
    return np.sqrt(2.0 * g * design.freq_hz * Q_ELECTRON * design.v_r) / design.v_r


def prog_sigma(g, design: ReramDesign):
    """Std of the programming (write) noise: sigma_prog * g."""
    return design.sigma_prog * np.asarray(g, dtype=float)


def rtn_amplitude(g, design: ReramDesign, spec: NoiseSpec):
    """Conductance jump when the trap is occupied: g * (a/(g/g_min) + b) = a*g_min + b*g, 0 at g = 0.

    The mask multiplies by g > 0, the bytes of ``np.where(g > 0, amp, 0)``
    for every g >= 0, in a fifth of its time.
    """
    g = np.asarray(g, dtype=float)
    amp = spec.rtn_amp_b * g
    amp += spec.rtn_amp_a * design.g_min
    amp *= g > 0.0
    return amp


class CellNoise:
    """The noise of one layer's cells: one design under one ``NoiseSpec``.

    ``write``, ``read`` and ``fresh`` (see the module docstring) decide what
    a cell holds, and ``sources`` draws each source on its own. A layer's
    weight codes (rows, cols) stand for its cells (rows, copies, 2, n_slices,
    cols): side 0 positive and side 1 negative, as ``crossbar`` lays them
    out. It builds its read variance and per-code tables at first use and
    keeps the fresh read's buffers across reads, so it serves one thread at
    a time.
    """

    def __init__(self, design: ReramDesign, spec: NoiseSpec):
        self.design, self.spec, self._work, self._block = design, spec, (), None

    @cached_property
    def var_per_siemens(self) -> float:
        """Variance of the enabled thermal and shot read noise per siemens of conductance."""
        d, spec = self.design, self.spec
        return (thermal_sigma(1.0, d) ** 2 if spec.thermal else 0.0) + (shot_sigma(1.0, d) ** 2 if spec.shot else 0.0)

    @cached_property
    def _writes(self) -> bool:
        """Whether a write draws an error: programming noise on and sigma_prog > 0."""
        return self.spec.prog and self.design.sigma_prog > 0.0

    @cached_property
    def _planes(self) -> tuple[np.ndarray, np.ndarray]:
        """(the digit of every code on every (side, slice) plane, (2, n_slices, n_codes); each plane's table offset, (2, n_slices, 1)).

        Codes run from -c to c, c = 2**bit_quan - 1, the widest ``crossbar.map_weights``
        accepts: |code| on the side of its sign, 0 on the other, split big-endian into
        res_cell-bit digits. Code q of plane (side, slice) sits at offset[side, slice] + q.
        """
        d = self.design
        c = (1 << d.bit_quan) - 1
        code = np.arange(-c, c + 1)
        sides = np.stack((np.maximum(code, 0), np.maximum(-code, 0)))
        digits = sides[:, None] >> d.slice_shifts[:, None].astype(np.intp) & ((1 << d.res_cell) - 1)
        offset = np.arange(2 * d.slices_per_weight).reshape(2, -1, 1) * code.size + c
        return digits, offset

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """(target, fresh-read std, RTN jump) of every plane and code, flat; None for a source a fresh read lacks.

        Each is the per-level value gathered by digit, so a cell gets the bytes of the per-cell expression.
        """
        d, spec, write, digits = self.design, self.spec, self._writes, self._planes[0].ravel()
        std = self._std(d.levels, write).take(digits) if spec.thermal or spec.shot or write else None
        jump = rtn_amplitude(d.levels, d, spec).take(digits) if spec.rtn else None  # levels > 0: no mask
        return d.levels.take(digits), std, jump

    def targets(self, codes: np.ndarray) -> np.ndarray:
        """The target conductances of the cells of weight codes (rows, cols), (rows, 1, 2, n_slices, cols)."""
        return self._tables[0].take(codes[:, None, None, None, :] + self._planes[1])

    def _std(self, g: np.ndarray, write: bool) -> np.ndarray:
        """Std of a read's one Gaussian: enabled thermal and shot, plus the write error if ``write``."""
        var = self.var_per_siemens * g
        if write:
            prog_var = prog_sigma(g, self.design)
            prog_var *= prog_var
            var += prog_var
        return np.sqrt(var, out=var)

    def _write_error(self, g, shape: tuple[int, ...], rng: np.random.Generator | None) -> np.ndarray:
        """One write error per cell of ``shape``, Gaussian with std sigma_prog*g; g broadcasts to ``shape``.

        Zeros, drawn without ``rng``, when a write draws nothing; else a None ``rng`` raises ValueError.
        """
        if not self._writes:
            return np.zeros(shape)
        if rng is None:
            raise ValueError("a noisy write requires a generator")
        return np.multiply(prog_sigma(g, self.design), standard_normal(rng, shape))

    def write(self, codes: np.ndarray, dup: int, rng: np.random.Generator | None) -> np.ndarray:
        """Programmed conductances of the cells of weight codes in ``dup`` copies, each cell with its own error.

        Takes the write std once per cell of one copy; ``rng`` may be None
        only when a write draws nothing.
        """
        target = self.targets(codes)
        g = self._write_error(target, (target.shape[0], dup) + target.shape[2:], rng)
        g += target
        return g.clip(0.0, self.design.g_max, out=g)

    def read(self, g: np.ndarray, rng: np.random.Generator | None) -> np.ndarray:
        """One read of programmed conductances g: one thermal-plus-shot Gaussian, then RTN, then the clip.

        Reproducible reads depend on that order. With no source on, g itself,
        which ``write`` clipped, comes back and ``rng`` may be None;
        otherwise the result is a new array.
        """
        spec = self.spec
        gauss = spec.thermal or spec.shot
        if not (gauss or spec.rtn):
            return g
        normals, occupied = _read_draws(spec, rng, g.shape, gauss, spec.rtn)
        out = g
        if gauss:
            out = self._std(g, write=False)
            out *= normals
            out += g
        if spec.rtn:
            rtn = rtn_amplitude(g, self.design, spec)
            rtn *= occupied
            rtn += out
            out = rtn
        return out.clip(0.0, self.design.g_max, out=out)

    def fresh(self, codes: np.ndarray, dup: int, rng: np.random.Generator | None) -> np.ndarray:
        """One read of a fresh deployment of weight codes in ``dup`` copies: one Gaussian per cell at its target, then RTN, then the clip.

        With no source on the targets come back and ``rng`` may be None;
        otherwise the result is a buffer that the next fresh read overwrites.
        Inside an epoch of ``block_reads`` the draws come from its block.
        """
        target, std, jump = self._tables
        shape = (codes.shape[0], dup, 2, self.design.slices_per_weight, codes.shape[1])
        if std is None and jump is None:
            return np.broadcast_to(self.targets(codes), shape).copy()
        if not self._work or self._work[0].shape != shape:
            # Each cell's plane offset, whole, so that the index is one broadcast copy and one add.
            offset = np.broadcast_to(self._planes[1], shape).copy()
            out, tmp = np.empty(shape), np.empty(shape)
            work = np.empty(3 * ((offset.size + 1) // 2), np.float32)
            self._work = (offset, np.empty(shape, np.intp), out, tmp, out.reshape(2, -1), tmp.reshape(-1), work)
        offset, idx, out, tmp, halves, flat, work = self._work
        drawn = self._block.draws(self, rng) if self._block is not None else None
        if drawn is None:
            drawn = _read_draws(self.spec, rng, (idx.size,), std is not None, jump is not None, work)
        normals, occupied = drawn
        np.copyto(idx, codes[:, None, None, None, :])
        idx += offset
        # Every index is in range, and "wrap" gathers fastest.
        if std is not None:
            std.take(idx, out=out, mode="wrap")
            np.multiply(halves, normals.reshape(2, -1), out=halves)  # the cosine normals' cells, then the sines'
            out += target.take(idx, out=tmp, mode="wrap")
        else:
            target.take(idx, out=out, mode="wrap")
        if jump is not None:
            jump.take(idx, out=tmp, mode="wrap")
            flat *= occupied
            out += tmp
        return out.clip(0.0, self.design.g_max, out=out)

    @staticmethod
    def block_reads(layers: list[CellNoise], shapes: list[tuple[int, int]], rng: np.random.Generator) -> _Blocks:
        """The fresh reads of one training run, drawn in blocks of batches: ``layers`` read codes of ``shapes`` in turn.

        Inside each ``epoch(batches)`` of the result, the layers' ``fresh``
        reads through ``rng`` take their draws from blocks (see ``_Blocks``).
        """
        return _Blocks(layers, shapes, rng)

    def sources(self, g: np.ndarray, rng: np.random.Generator) -> dict[str, np.ndarray]:
        """Each source's own unclipped perturbation of cells g, drawn and keyed in the order thermal, shot, rtn, prog.

        A source that is off is zeros and draws nothing.
        """
        d, spec, shape = self.design, self.spec, g.shape
        thermal = standard_normal(rng, shape) * thermal_sigma(g, d) if spec.thermal else np.zeros(shape)
        shot = standard_normal(rng, shape) * shot_sigma(g, d) if spec.shot else np.zeros(shape)
        occupied = _read_draws(spec, rng, shape, False, True)[1] if spec.rtn else False
        rtn = rtn_amplitude(g, d, spec) * occupied
        return {"thermal": thermal, "shot": shot, "rtn": rtn, "prog": self._write_error(g, shape, rng)}


# Cells whose fresh reads one block draws at most: under 1 MB of draws, normals and bits.
_BLOCK_CELLS = 1 << 16


class _Blocks:
    """The fresh reads of a training run, drawn K batches at a time.

    Every batch of an epoch reads the same cells of every layer in turn, and
    nothing draws between those reads, so the 32-bit draws of K batches are
    one contiguous draw. Box-Muller runs per layer over its K reads at once,
    which gives every value the bytes of a read by read draw. K keeps a
    block within ``_BLOCK_CELLS`` cells and the epoch's batches left.

    A read that does not come in its turn (an all-zero input draws nothing)
    ends the block: the generator is set back to the start of the block
    plus the draws that the reads took, and so it is when an epoch ends, so
    ``rng.permutation`` and every later draw see the generator that read by
    read draws leave. Blocks need a PCG64 generator on a little-endian host,
    RTN off or at p = 1/2, and at least two batches per block; otherwise,
    and outside an epoch, every read draws alone.
    """

    def __init__(self, layers: list[CellNoise], shapes: list[tuple[int, int]], rng: np.random.Generator):
        self.layers, self.rng, self.k, self.left = layers, rng, None, 0
        self.cells = [2 * c.design.slices_per_weight * rows * cols for c, (rows, cols) in zip(layers, shapes)]
        tables = [c._tables for c in layers]
        self.words = [_read_words(n, std is not None, jump is not None) for n, (_, std, jump) in zip(self.cells, tables)]
        self.row = sum(map(sum, self.words))
        self.size = _BLOCK_CELLS // sum(self.cells)
        self.on = (
            self.row > 0
            and self.size > 1
            and isinstance(rng.bit_generator, np.random.PCG64)
            and np.little_endian
            and all(not c.spec.rtn or c.spec.rtn_p_occupancy == 0.5 for c in layers)
        )
        # Per layer, the K reads' radii, angles and cosines, each (K, m) and contiguous.
        self.polar = [np.empty((3, self.size, w // 2), np.float32) for w, _ in self.words] if self.on else []

    @contextmanager
    def epoch(self, batches: int):
        """One epoch of ``batches`` batches, after which the generator stands at the draws its reads took."""
        if not self.on:
            yield
            return
        self.left = batches
        for c in self.layers:
            c._block = self
        try:
            yield
        finally:
            for c in self.layers:
                c._block = None
            self.left = 0
            if self.k is not None:
                self._rewind()

    def draws(self, layer: CellNoise, rng) -> tuple[np.ndarray | None, np.ndarray | None] | None:
        """(normals as (2, m), occupancy) of ``layer``'s read through ``rng`` from a block, or None to draw it alone."""
        if rng is not self.rng:
            return None
        i = self.layers.index(layer)
        if self.k is not None and i != self.next:
            # The batch in progress skipped a read; the block's later batches go back to the epoch.
            self.left += self.drawn - self.k - 1
            self._rewind()
        if self.k is None:
            if i or not self.left:
                return None
            self._draw(min(self.size, self.left))
        k, (words, rtn_words) = self.k, self.words[i]
        self.used += words + rtn_words
        self.next = (i + 1) % len(self.layers)
        if not self.next:
            self.k = k + 1 if k + 1 < self.drawn else None
        return self.polar[i][:2, k] if words else None, self.bits[i][k].view(bool) if rtn_words else None

    def _draw(self, batches: int) -> None:
        """Draw the next ``batches`` batches' reads and make each layer's normals and occupancy bits of them.

        Each draw becomes a uniform as in ``standard_normal``, and Box-Muller
        runs on each layer's (K, m) radii and angles.
        """
        self.start = self.rng.bit_generator.state
        block = _uint32_draws(self.rng, batches * self.row).reshape(batches, self.row)
        self.bits, at = [], 0
        for n, polar, (words, rtn_words) in zip(self.cells, self.polar, self.words):
            normal, packed = block[:, at : at + words], block[:, at + words : at + words + rtn_words]
            at += words + rtn_words
            self.bits.append(np.unpackbits(packed.view(np.uint8), axis=1, count=n) if rtn_words else None)
            if words:
                normal >>= 8
                r, theta, cos = polar[:, :batches]
                np.multiply(normal[:, : words // 2], _UNIFORM_STEP, out=r, dtype=np.float32)
                np.multiply(normal[:, words // 2 :], _UNIFORM_STEP, out=theta, dtype=np.float32)
                _box_muller(r, theta, cos)
        self.left -= batches
        self.k, self.next, self.used, self.drawn = 0, 0, 0, batches

    def _rewind(self) -> None:
        """Set the generator to the block's start plus the draws its reads took: drawn again, the state they leave."""
        self.rng.bit_generator.state = self.start
        _uint32_draws(self.rng, self.used)
        self.k = None
