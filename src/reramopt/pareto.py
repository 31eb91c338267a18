"""Pareto dominance, non-dominated sorting, NSGA-II and hypervolume.

All objectives are maximized throughout the package; callers negate
minimization metrics before they get here. NSGA-II is the outer baseline
optimizer. There is one implementation, ``nsga2_lockstep``: it
advances S independent solves in lockstep as one (S, pop, d) population,
and ``nsga2`` is its S = 1 call. Each solve keeps its own generator and
makes its draws in the order of a solve run alone, so every lockstep
result equals the sequential run bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Nsga2Config:
    """Operator constants for nsga2(); defaults follow the canonical recipe."""

    pop: int = 100
    crossover_prob: float = 0.9
    crossover_eta: float = 15.0
    mutation_eta: float = 20.0
    mutation_prob: float | None = None  # None -> 1/d

    def __post_init__(self):
        if self.pop < 1:
            raise ValueError(f"pop must be >= 1, got {self.pop}")
        for name in ("crossover_eta", "mutation_eta"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("crossover_prob", "mutation_prob"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")


def _domination_matrix(y: np.ndarray) -> np.ndarray:
    """dom[..., i, j] is True when point i dominates point j, for points
    (..., n, k) with any leading batch axes.

    Built per column, so no temporary is larger than (..., n, n). ``ge &
    ~ge.T`` equals ``ge & gt`` for every float input, NaN and +-inf
    included: ge[i, j] holds only when no coordinate of i or j is NaN, and
    then ``not y_j >= y_i`` is ``y_i > y_j``.
    """
    ge = np.ones(y.shape[:-1] + y.shape[-2:-1], dtype=bool)
    for j in range(y.shape[-1]):
        c = y[..., j]
        ge &= c[..., :, None] >= c[..., None, :]
    return ge & ~np.swapaxes(ge, -1, -2)


def _pareto_ranks(y: np.ndarray, limit: int) -> np.ndarray:
    """Pareto rank (0 first) of every row of each set in y (S, n, k).

    Fronts are peeled for all S sets at once, one batched matmul per round,
    until every set has ranked at least ``limit`` rows; rows left unranked
    get rank n. Dominance is a strict partial order for any float input,
    NaN and +-inf included, so every round retires at least one row of a
    set that has rows left.
    """
    n = y.shape[1]
    dom = _domination_matrix(y).astype(np.float32)  # counts stay exact below 2**24
    counts = dom.sum(axis=1)
    ranks = np.full(y.shape[:2], n)
    ranked = np.zeros(len(y), dtype=np.int64)
    r = 0
    while (ranked < limit).any():
        front = counts == 0
        ranks[front] = r
        ranked += front.sum(axis=1)
        counts -= (front[:, None, :].astype(np.float32) @ dom)[:, 0]
        counts[front] = -1
        r += 1
    return ranks


def non_dominated_sort(points) -> list[np.ndarray]:
    """Fast non-dominated sorting; returns index arrays per rank (rank 0 first)."""
    y = np.asarray(points, dtype=float)
    if y.ndim != 2 or len(y) == 0:
        raise ValueError("need a non-empty (n, k) array of objective vectors")
    ranks = _pareto_ranks(y[None], len(y))[0]
    return [np.flatnonzero(ranks == r) for r in range(ranks.max() + 1)]


def non_dominated_mask(y: np.ndarray) -> np.ndarray:
    dom = _domination_matrix(np.asarray(y, dtype=float))
    return ~dom.any(axis=0)


@dataclass(frozen=True)
class FrontSet:
    """A mutually non-dominated set of objective vectors with their inputs."""

    x: np.ndarray  # (n, d)
    y: np.ndarray  # (n, k)

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise ValueError("inputs and objective vectors must pair up")
        if len(self.y) and _domination_matrix(self.y).any():
            raise ValueError("front members must be mutually non-dominated")

    def __len__(self) -> int:
        return len(self.y)

    @classmethod
    def from_points(cls, x, y) -> "FrontSet":
        """Extract the non-dominated subset (exact duplicate vectors collapsed)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        keep = non_dominated_mask(y)
        x, y = x[keep], y[keep]
        _, unique_idx = np.unique(y, axis=0, return_index=True)
        unique_idx.sort()
        return cls(x[unique_idx], y[unique_idx])


def _crowding(y: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Crowding distance of every row of each set in y (S, n, k) within its
    front, the rows sharing its rank.

    A stable sort per objective on (rank, y_j) lays every front out in the
    same contiguous run of positions. The first and last row of a run get
    +inf, so fronts of one or two rows are all +inf; interior rows add
    (next - previous) / span when the span is positive. Objectives are taken
    in order and a later +inf overwrites an earlier sum, as in the
    per-front recipe.
    """
    n_sets, n, k = y.shape
    rows, pos = np.arange(n_sets)[:, None], np.arange(n)
    prev, nxt = np.maximum(pos - 1, 0), np.minimum(pos + 1, n - 1)
    sorted_ranks = np.sort(ranks, axis=-1)
    edge = np.ones((n_sets, n + 1), dtype=bool)  # edge[:, p]: a front starts at p
    edge[:, 1:-1] = sorted_ranks[:, 1:] != sorted_ranks[:, :-1]
    first, last = edge[:, :-1], edge[:, 1:]
    ends = first | last
    start = np.maximum.accumulate(np.where(first, pos, 0), axis=-1)
    end = np.minimum.accumulate(np.where(last, pos, n - 1)[:, ::-1], axis=-1)[:, ::-1]
    dist = np.zeros((n_sets, n))
    for j in range(k):
        order = np.lexsort((y[..., j], ranks), axis=-1)
        ys = y[rows, order, j]
        span = ys[rows, end] - ys[rows, start]
        inner = ~ends & (span > 0)
        d = dist[rows, order]
        d[ends] = np.inf
        d[inner] += (ys[:, nxt][inner] - ys[:, prev][inner]) / span[inner]
        dist[rows, order] = d
    return dist


def _select(x_all, y_all, pop):
    """Environmental selection of pop rows per set: whole fronts by rank,
    then the front that overflows by crowding descending, ties by index."""
    ranks = _pareto_ranks(y_all, pop)
    crowd = _crowding(y_all, ranks)
    # Rank of the first row past the cut: the front that overflows, if any.
    cut = np.partition(ranks, pop, axis=1)[:, pop : pop + 1]
    keep = np.lexsort((np.where(ranks == cut, -crowd, 0.0), ranks), axis=-1)[:, :pop]
    rows = np.arange(len(keep))[:, None]
    return x_all[rows, keep], y_all[rows, keep], ranks[rows, keep], crowd[rows, keep]


def _generation_draws(rng, pop: int, d: int) -> tuple[np.ndarray, ...]:
    """One sample's draws for one generation, in the order and shapes the
    operators use them: tournament pairs, mating permutation, the three SBX
    arrays and the two mutation arrays (only the mutation pair when
    pop < 2)."""
    if pop < 2:
        return rng.random((pop, d)), rng.random((pop, d))
    n_pairs = pop // 2
    return (
        rng.integers(0, pop, size=(2, pop)),
        rng.permutation(pop),
        rng.random((n_pairs, d)),
        rng.random((n_pairs, d)),
        rng.random((n_pairs, 1)),
        rng.random((pop, d)),
        rng.random((pop, d)),
    )


def _sbx(parents, mates, u_beta, u_take, u_pair, eta, crossover_prob):
    """SBX over all pairs of every set; beta=1 reduces a pair to its parents."""
    n_pairs = u_beta.shape[1]
    p1 = parents[:, : 2 * n_pairs : 2]
    p2 = mates[:, : 2 * n_pairs : 2]
    beta = np.where(
        u_beta <= 0.5,
        (2.0 * u_beta) ** (1.0 / (eta + 1.0)),
        (0.5 / (1.0 - u_beta)) ** (1.0 / (eta + 1.0)),
    )
    beta = np.where(u_take < 0.5, beta, 1.0)
    beta = np.where(u_pair < crossover_prob, beta, 1.0)
    children = parents.copy()  # an odd last row keeps its parent
    children[:, : 2 * n_pairs : 2] = 0.5 * ((1 + beta) * p1 + (1 - beta) * p2)
    children[:, 1 : 2 * n_pairs : 2] = 0.5 * ((1 - beta) * p1 + (1 + beta) * p2)
    return children


def nsga2_lockstep(
    evaluators, bounds, seeds, config: Nsga2Config = Nsga2Config(), gens: int = 100
) -> list[tuple[np.ndarray, np.ndarray]]:
    """S independent NSGA-II solves of ``gens`` generations advanced in
    lockstep; returns each solve's final rank-0 rows as an (x, y) pair.

    Solve s evaluates ``evaluators[s]`` on (pop, d) batches and draws from
    its own ``np.random.default_rng(seeds[s])`` in the order and shapes of
    a solve run alone. Only those draws and the evaluator calls loop over
    S; tournament, variation, ranking, crowding and selection run batched
    on the (S, pop, d) population. So solve s equals ``nsga2(evaluators[s],
    bounds, seeds[s], config, gens)`` bit for bit.
    """
    if gens < 0:
        raise ValueError(f"gens must be >= 0, got {gens}")
    pop = config.pop
    bounds = np.asarray(bounds, dtype=float)
    lo, hi = bounds[:, 0], bounds[:, 1]
    d = len(lo)
    mutation_prob = 1.0 / d if config.mutation_prob is None else config.mutation_prob
    eta_m = 1.0 / (config.mutation_eta + 1.0)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    rows = np.arange(len(rngs))[:, None]

    def evaluate(x):
        return np.stack([np.asarray(ev(xs), dtype=float) for ev, xs in zip(evaluators, x)])

    x = lo + np.stack([rng.random((pop, d)) for rng in rngs]) * (hi - lo)
    y = evaluate(x)
    ranks = _pareto_ranks(y, pop)
    crowd = _crowding(y, ranks)

    for _ in range(gens):
        *variation, u, u_flip = (
            np.stack(a) for a in zip(*(_generation_draws(rng, pop, d) for rng in rngs))
        )
        if pop >= 2:
            cand, perm, u_beta, u_take, u_pair = variation
            # Binary tournament: lower rank, then larger crowding, then index.
            a, b = cand[:, 0], cand[:, 1]
            ra, rb, ca, cb = ranks[rows, a], ranks[rows, b], crowd[rows, a], crowd[rows, b]
            a_wins = (ra < rb) | ((ra == rb) & ((ca > cb) | ((ca == cb) & (a <= b))))
            parents = x[rows, np.where(a_wins, a, b)]
            children = _sbx(
                parents, parents[rows, perm], u_beta, u_take, u_pair,
                config.crossover_eta, config.crossover_prob,
            )
            children = np.clip(children, lo, hi)
        else:
            children = x
        # Polynomial mutation.
        delta = np.where(u < 0.5, (2.0 * u) ** eta_m - 1.0, 1.0 - (2.0 * (1.0 - u)) ** eta_m)
        children = np.where(u_flip < mutation_prob, children + delta * (hi - lo), children)
        children = np.clip(children, lo, hi)
        y_children = evaluate(children)
        x, y, ranks, crowd = _select(
            np.concatenate([x, children], axis=1), np.concatenate([y, y_children], axis=1), pop
        )

    return [(xs[r == 0], ys[r == 0]) for xs, ys, r in zip(x, y, ranks)]


def nsga2(
    evaluator, bounds, seed: int = 0, config: Nsga2Config = Nsga2Config(), gens: int = 100
) -> FrontSet:
    """Canonical real-coded NSGA-II over ``gens`` generations; returns the
    final rank-0 set.

    ``evaluator`` maps a batch of rows (n, d) to objective values (n, k),
    maximization orientation. Selection uses binary tournaments on
    (rank, crowding distance); ties in the crowding sort are broken by
    index, so a fixed seed reproduces the run exactly. This is the one-solve
    call of ``nsga2_lockstep``, whose solves each equal this function's
    result for their seed.
    """
    [(x, y)] = nsga2_lockstep([evaluator], bounds, [seed], config, gens)
    return FrontSet.from_points(x, y)


def hypervolume(front, ref) -> float:
    """Exact hypervolume dominated by ``front`` and bounded below by ``ref``.

    Maximization orientation; supports up to 4 objectives via recursive
    dimension sweep. Every front member must dominate the reference point.
    """
    y = np.asarray(front, dtype=float)
    if y.ndim == 1:
        y = y.reshape(1, -1)
    ref = np.asarray(ref, dtype=float)
    k = y.shape[1]
    if ref.shape != (k,):
        raise ValueError("reference point dimension mismatch")
    if k > 4:
        raise ValueError("hypervolume supports at most 4 objectives")
    if len(y) == 0:
        return 0.0
    ok = np.all(y >= ref, axis=1) & np.any(y > ref, axis=1)
    if not ok.all():
        raise ValueError("reference point must be dominated by every front member")
    shifted = y - ref
    shifted = shifted[non_dominated_mask(shifted)]
    shifted = np.unique(shifted, axis=0)
    return _hv_recursive(shifted)


def _hv_recursive(q: np.ndarray) -> float:
    k = q.shape[1]
    if k == 1:
        return float(q[:, 0].max())
    if k == 2:
        return _hv_2d(q)
    order = np.argsort(-q[:, -1], kind="stable")
    q = q[order]
    heights = q[:, -1]
    total = 0.0
    i = 0
    n = len(q)
    while i < n:
        h = heights[i]
        j = i
        while j < n and heights[j] == h:
            j += 1
        lower = heights[j] if j < n else 0.0
        if h > lower:
            proj = q[:j, :-1]
            proj = proj[non_dominated_mask(proj)]
            total += (h - lower) * _hv_recursive(proj)
        i = j
    return total


def _hv_2d(q: np.ndarray) -> float:
    order = np.argsort(-q[:, 0], kind="stable")
    area = 0.0
    h = 0.0
    for x_val, y_val in q[order]:
        if y_val > h:
            area += x_val * (y_val - h)
            h = y_val
    return float(area)


def dominated_hypervolume(points, ref) -> float:
    """Hypervolume of an arbitrary point set: members not dominating ref are ignored.

    Raises ValueError for a NaN or infinite ``ref``, which would otherwise
    read as an empty dominated region.
    """
    ref = np.asarray(ref, dtype=float)
    if not np.isfinite(ref).all():
        raise ValueError(f"hypervolume reference point must be finite, got {ref.tolist()}")
    y = np.asarray(points, dtype=float)
    if y.ndim == 1:
        y = y.reshape(1, -1)
    if len(y) == 0:
        return 0.0
    ok = np.all(y >= ref, axis=1) & np.any(y > ref, axis=1)
    if not ok.any():
        return 0.0
    return hypervolume(y[ok], ref)
