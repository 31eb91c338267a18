"""Pareto dominance, non-dominated sorting, NSGA-II and hypervolume.

All objectives are maximized throughout the package; callers negate
minimization metrics before they get here. NSGA-II serves double duty as
the cheap inner solver over sampled surrogate functions and as an outer
baseline optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Nsga2Config:
    """Operator constants for nsga2(); defaults follow the canonical recipe."""

    pop: int = 100
    gens: int = 100
    crossover_prob: float = 0.9
    crossover_eta: float = 15.0
    mutation_eta: float = 20.0
    mutation_prob: float | None = None  # None -> 1/d


def dominates(a, b) -> bool:
    """Strict Pareto dominance under maximization: a >= b with some a_j > b_j."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return bool(np.all(a >= b) and np.any(a > b))


def _domination_matrix(y: np.ndarray) -> np.ndarray:
    """dom[i, j] is True when point i dominates point j."""
    ge = (y[:, None, :] >= y[None, :, :]).all(axis=2)
    gt = (y[:, None, :] > y[None, :, :]).any(axis=2)
    return ge & gt


def non_dominated_sort(points) -> list[np.ndarray]:
    """Fast non-dominated sorting; returns index arrays per rank (rank 0 first)."""
    y = np.asarray(points, dtype=float)
    if y.ndim != 2 or len(y) == 0:
        raise ValueError("need a non-empty (n, k) array of objective vectors")
    dom = _domination_matrix(y)
    n_dominators = dom.sum(axis=0)
    fronts = []
    assigned = np.zeros(len(y), dtype=bool)
    counts = n_dominators.astype(np.int64)
    while not assigned.all():
        current = (counts == 0) & ~assigned
        if not current.any():  # numerical safety; cannot happen for finite input
            current = ~assigned
        fronts.append(np.flatnonzero(current))
        assigned |= current
        counts = counts - dom[current].sum(axis=0)
    return fronts


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


def crowding_distance(y: np.ndarray) -> np.ndarray:
    """Crowding distance within one front (boundary points get +inf)."""
    n, k = y.shape
    dist = np.zeros(n)
    if n <= 2:
        return np.full(n, np.inf)
    for j in range(k):
        order = np.argsort(y[:, j], kind="stable")
        span = y[order[-1], j] - y[order[0], j]
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        if span > 0:
            gaps = (y[order[2:], j] - y[order[:-2], j]) / span
            dist[order[1:-1]] += gaps
    return dist


def _rank_and_crowding(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ranks = np.empty(len(y), dtype=np.int64)
    crowd = np.empty(len(y))
    for r, front in enumerate(non_dominated_sort(y)):
        ranks[front] = r
        crowd[front] = crowding_distance(y[front])
    return ranks, crowd


def _sbx_offspring(parents, mates, lo, hi, eta, crossover_prob, rng):
    """Vectorized SBX over all pairs; beta=1 reduces a pair to its parents."""
    pop, d = parents.shape
    n_pairs = pop // 2
    p1 = parents[: 2 * n_pairs : 2]
    p2 = mates[: 2 * n_pairs : 2]
    u = rng.random((n_pairs, d))
    beta = np.where(
        u <= 0.5, (2.0 * u) ** (1.0 / (eta + 1.0)), (0.5 / (1.0 - u)) ** (1.0 / (eta + 1.0))
    )
    beta = np.where(rng.random((n_pairs, d)) < 0.5, beta, 1.0)
    beta = np.where(rng.random((n_pairs, 1)) < crossover_prob, beta, 1.0)
    children = np.empty_like(parents)
    children[: 2 * n_pairs : 2] = 0.5 * ((1 + beta) * p1 + (1 - beta) * p2)
    children[1 : 2 * n_pairs : 2] = 0.5 * ((1 - beta) * p1 + (1 + beta) * p2)
    if pop % 2 == 1:
        children[-1] = parents[-1]
    return np.clip(children, lo, hi)


def _polynomial_mutation(x, lo, hi, eta, prob, rng):
    u = rng.random(x.shape)
    delta = np.where(
        u < 0.5,
        (2.0 * u) ** (1.0 / (eta + 1.0)) - 1.0,
        1.0 - (2.0 * (1.0 - u)) ** (1.0 / (eta + 1.0)),
    )
    mutate = rng.random(x.shape) < prob
    return np.clip(np.where(mutate, x + delta * (hi - lo), x), lo, hi)


def nsga2(evaluator, bounds, seed: int = 0, config: Nsga2Config = Nsga2Config()) -> FrontSet:
    """Canonical real-coded NSGA-II; returns the final rank-0 set.

    ``evaluator`` maps a batch of rows (n, d) to objective values (n, k),
    maximization orientation. Selection uses binary tournaments on
    (rank, crowding distance); ties in the crowding sort are broken by
    index, so a fixed seed reproduces the run exactly.
    """
    pop = config.pop
    bounds = np.asarray(bounds, dtype=float)
    lo, hi = bounds[:, 0], bounds[:, 1]
    d = len(lo)
    mutation_prob = 1.0 / d if config.mutation_prob is None else config.mutation_prob
    rng = np.random.default_rng(seed)

    x = lo + rng.random((pop, d)) * (hi - lo)
    y = np.asarray(evaluator(x), dtype=float)
    ranks, crowd = _rank_and_crowding(y)

    for _ in range(config.gens):
        if pop >= 2:
            cand = rng.integers(0, pop, size=(2, pop))
            better = _tournament(cand[0], cand[1], ranks, crowd)
            parents = x[better]
            mates = parents[rng.permutation(pop)]
            children = _sbx_offspring(
                parents, mates, lo, hi, config.crossover_eta, config.crossover_prob, rng
            )
        else:
            children = x.copy()
        children = _polynomial_mutation(children, lo, hi, config.mutation_eta, mutation_prob, rng)
        y_children = np.asarray(evaluator(children), dtype=float)

        x_all = np.vstack([x, children])
        y_all = np.vstack([y, y_children])
        x, y, ranks, crowd = _environmental_selection(x_all, y_all, pop)

    keep = ranks == 0
    return FrontSet.from_points(x[keep], y[keep])


def _tournament(a, b, ranks, crowd):
    """Binary tournament winners: lower rank, then larger crowding, then index."""
    a_wins = (ranks[a] < ranks[b]) | (
        (ranks[a] == ranks[b]) & ((crowd[a] > crowd[b]) | ((crowd[a] == crowd[b]) & (a <= b)))
    )
    return np.where(a_wins, a, b)


def _environmental_selection(x_all, y_all, pop):
    fronts = non_dominated_sort(y_all)
    chosen = []
    ranks = np.empty(pop, dtype=np.int64)
    crowd = np.empty(pop)
    filled = 0
    for r, front in enumerate(fronts):
        cd = crowding_distance(y_all[front])
        if filled + len(front) <= pop:
            take = np.arange(len(front))
        else:
            # Deterministic truncation: crowding descending, index ascending.
            order = np.lexsort((front, -cd))
            take = order[: pop - filled]
        for t in take:
            chosen.append(front[t])
        ranks[filled : filled + len(take)] = r
        crowd[filled : filled + len(take)] = cd[take]
        filled += len(take)
        if filled == pop:
            break
    idx = np.array(chosen)
    return x_all[idx], y_all[idx], ranks, crowd


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
    """Hypervolume of an arbitrary point set: members not dominating ref are ignored."""
    y = np.asarray(points, dtype=float)
    if y.ndim == 1:
        y = y.reshape(1, -1)
    if len(y) == 0:
        return 0.0
    ref = np.asarray(ref, dtype=float)
    ok = np.all(y >= ref, axis=1) & np.any(y > ref, axis=1)
    if not ok.any():
        return 0.0
    return hypervolume(y[ok], ref)
