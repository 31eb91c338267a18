"""Pareto dominance, non-dominated sorting, NSGA-II and hypervolume.

All objectives are maximized throughout the package; callers negate
minimization metrics before they get here. NSGA-II is the outer baseline
optimizer: ``nsga2`` runs one solve over a (pop, d) population in the
unit box, with every draw from one seeded generator in the order its
docstring states, so a fixed seed reproduces a run bit for bit.
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
    """dom[i, j] is True when point i dominates point j, for points (n, k).

    Built per column, so no temporary is larger than (n, n). ``ge & ~ge.T``
    equals ``ge & gt`` for every float input, NaN and +-inf included:
    ge[i, j] holds only when no coordinate of i or j is NaN, and then
    ``not y_j >= y_i`` is ``y_i > y_j``.
    """
    ge = np.ones((len(y), len(y)), dtype=bool)
    for c in y.T:
        ge &= c[:, None] >= c[None, :]
    return ge & ~ge.T


def _pareto_ranks(y: np.ndarray, limit: int) -> np.ndarray:
    """Pareto rank (0 first) of every row of y (n, k).

    Fronts are peeled one matmul per round until at least ``limit`` rows
    are ranked; rows left unranked get rank n. Dominance is a strict
    partial order for any float input, NaN and +-inf included, so every
    round retires at least one row while rows are left.
    """
    n = len(y)
    dom = _domination_matrix(y).astype(np.float32)  # counts stay exact below 2**24
    counts = dom.sum(axis=0)
    ranks = np.full(n, n)
    ranked = r = 0
    while ranked < limit:
        front = counts == 0
        ranks[front] = r
        ranked += front.sum()
        counts -= front.astype(np.float32) @ dom
        counts[front] = -1
        r += 1
    return ranks


def non_dominated_sort(points) -> list[np.ndarray]:
    """Fast non-dominated sorting; returns index arrays per rank (rank 0 first)."""
    y = np.asarray(points, dtype=float)
    if y.ndim != 2 or len(y) == 0:
        raise ValueError("need a non-empty (n, k) array of objective vectors")
    ranks = _pareto_ranks(y, len(y))
    return [np.flatnonzero(ranks == r) for r in range(ranks.max() + 1)]


def non_dominated_mask(y: np.ndarray) -> np.ndarray:
    dom = _domination_matrix(np.asarray(y, dtype=float))
    return ~dom.any(axis=0)


def pareto_front(x, y) -> tuple[np.ndarray, np.ndarray]:
    """The non-dominated rows of inputs x (n, d) and objectives y (n, k) in
    first-seen order, keeping the first of exact duplicate vectors."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = non_dominated_mask(y)
    x, y = x[keep], y[keep]
    _, first = np.unique(y, axis=0, return_index=True)
    first.sort()
    return x[first], y[first]


def _crowding(y: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Crowding distance of every row of y (n, k) within its front, the
    rows sharing its rank (Deb et al. 2002).

    Per front and objective, a stable sort puts the first and last row at
    +inf, so fronts of one or two rows are all +inf; interior rows add
    (next - previous) / span when the span is positive. Objectives are
    taken in order, so a later +inf overwrites an earlier sum.
    """
    dist = np.zeros(len(y))
    for r in np.unique(ranks):
        front = np.flatnonzero(ranks == r)
        d = np.zeros(len(front))
        for ys in y[front].T:
            order = np.argsort(ys, kind="stable")
            ys = ys[order]
            span = ys[-1] - ys[0]
            d[order[[0, -1]]] = np.inf
            if span > 0:
                d[order[1:-1]] += (ys[2:] - ys[:-2]) / span
        dist[front] = d
    return dist


def _select(x_all, y_all, pop):
    """Environmental selection of pop rows: whole fronts by rank, then the
    front that overflows by crowding descending, ties by index."""
    ranks = _pareto_ranks(y_all, pop)
    crowd = _crowding(y_all, ranks)
    # Rank of the first row past the cut: the front that overflows, if any.
    cut = np.partition(ranks, pop)[pop]
    keep = np.lexsort((np.where(ranks == cut, -crowd, 0.0), ranks))[:pop]
    return x_all[keep], y_all[keep], ranks[keep], crowd[keep]


def _sbx(parents, mates, u_beta, u_take, u_pair, eta, crossover_prob):
    """SBX over all pairs; beta=1 reduces a pair to its parents."""
    n_pairs = len(u_beta)
    p1 = parents[: 2 * n_pairs : 2]
    p2 = mates[: 2 * n_pairs : 2]
    beta = np.where(
        u_beta <= 0.5,
        (2.0 * u_beta) ** (1.0 / (eta + 1.0)),
        (0.5 / (1.0 - u_beta)) ** (1.0 / (eta + 1.0)),
    )
    beta = np.where(u_take < 0.5, beta, 1.0)
    beta = np.where(u_pair < crossover_prob, beta, 1.0)
    children = parents.copy()  # an odd last row keeps its parent
    children[: 2 * n_pairs : 2] = 0.5 * ((1 + beta) * p1 + (1 - beta) * p2)
    children[1 : 2 * n_pairs : 2] = 0.5 * ((1 - beta) * p1 + (1 + beta) * p2)
    return children


def nsga2(
    evaluator, dim: int, seed: int = 0, *, config: Nsga2Config, gens: int = 100
) -> tuple[np.ndarray, np.ndarray]:
    """Canonical real-coded NSGA-II over ``gens`` generations in [0, 1]^dim;
    returns the ``pareto_front`` of the final rank-0 set.

    ``evaluator`` maps a batch of rows (pop, dim) to objective values
    (pop, k), maximization orientation; it is called gens + 1 times.
    Selection uses binary tournaments on (rank, crowding distance); ties in
    the crowding sort are broken by index. All draws come from one
    ``np.random.default_rng(seed)``: the initial population, then per
    generation the tournament pairs, the mating permutation, the three SBX
    arrays and the two mutation arrays (only the mutation pair when
    pop < 2). So a fixed seed reproduces the run exactly.
    """
    if gens < 0:
        raise ValueError(f"gens must be >= 0, got {gens}")
    pop = config.pop
    mutation_prob = 1.0 / dim if config.mutation_prob is None else config.mutation_prob
    eta_m = 1.0 / (config.mutation_eta + 1.0)
    rng = np.random.default_rng(seed)

    x = rng.random((pop, dim))
    y = np.asarray(evaluator(x), dtype=float)
    ranks = _pareto_ranks(y, pop)
    crowd = _crowding(y, ranks)

    for _ in range(gens):
        if pop >= 2:
            a, b = rng.integers(0, pop, size=(2, pop))
            perm = rng.permutation(pop)
            n_pairs = pop // 2
            u_sbx = rng.random((n_pairs, dim)), rng.random((n_pairs, dim)), rng.random((n_pairs, 1))
            # Binary tournament: lower rank, then larger crowding, then index.
            ra, rb, ca, cb = ranks[a], ranks[b], crowd[a], crowd[b]
            a_wins = (ra < rb) | ((ra == rb) & ((ca > cb) | ((ca == cb) & (a <= b))))
            parents = x[np.where(a_wins, a, b)]
            children = _sbx(
                parents, parents[perm], *u_sbx, config.crossover_eta, config.crossover_prob
            )
            children = np.clip(children, 0.0, 1.0)
        else:
            children = x
        # Polynomial mutation.
        u, u_flip = rng.random((pop, dim)), rng.random((pop, dim))
        delta = np.where(u < 0.5, (2.0 * u) ** eta_m - 1.0, 1.0 - (2.0 * (1.0 - u)) ** eta_m)
        children = np.where(u_flip < mutation_prob, children + delta, children)
        children = np.clip(children, 0.0, 1.0)
        y_children = np.asarray(evaluator(children), dtype=float)
        x, y, ranks, crowd = _select(
            np.concatenate([x, children]), np.concatenate([y, y_children]), pop
        )

    return pareto_front(x[ranks == 0], y[ranks == 0])


def _hv_recursive(q: np.ndarray) -> float:
    """Dimension sweep over the distinct last-objective levels, highest first."""
    k = q.shape[1]
    if k == 1:
        return float(q[:, 0].max())
    if k == 2:
        return _hv_2d(q)
    q = q[np.argsort(-q[:, -1], kind="stable")]
    levels = np.unique(q[:, -1])[::-1]
    total = 0.0
    for h, lower in zip(levels, np.append(levels[1:], 0.0)):
        if h > lower:
            proj = q[q[:, -1] >= h, :-1]
            total += (h - lower) * _hv_recursive(proj[non_dominated_mask(proj)])
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
    """Exact hypervolume dominated by ``points`` and bounded below by ``ref``.

    Maximization orientation; supports up to 4 objectives via recursive
    dimension sweep. Points that do not dominate ``ref`` are ignored.
    Raises ValueError for a NaN or infinite ``ref``, which would otherwise
    read as an empty dominated region, and for a ``ref`` of the wrong
    dimension.
    """
    ref = np.asarray(ref, dtype=float)
    if not np.isfinite(ref).all():
        raise ValueError(f"hypervolume reference point must be finite, got {ref.tolist()}")
    y = np.atleast_2d(np.asarray(points, dtype=float))
    k = y.shape[1]
    if ref.shape != (k,):
        raise ValueError("reference point dimension mismatch")
    if k > 4:
        raise ValueError("hypervolume supports at most 4 objectives")
    ok = np.all(y >= ref, axis=1) & np.any(y > ref, axis=1)
    if not ok.any():
        return 0.0
    shifted = y[ok] - ref
    shifted = shifted[non_dominated_mask(shifted)]
    return _hv_recursive(np.unique(shifted, axis=0))
