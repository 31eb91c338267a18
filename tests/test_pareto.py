import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reramopt.pareto import (
    FrontSet,
    Nsga2Config,
    dominated_hypervolume,
    dominates,
    hypervolume,
    non_dominated_sort,
    nsga2,
)


def brute_force_rank0(points):
    points = np.asarray(points, dtype=float)
    keep = []
    for i, p in enumerate(points):
        if not any(dominates(q, p) for j, q in enumerate(points) if j != i):
            keep.append(i)
    return set(keep)


class TestDominates:
    def test_strict(self):
        assert dominates([1, 2], [1, 1])

    def test_equal_not_dominating(self):
        assert not dominates([1, 1], [1, 1])

    def test_incomparable(self):
        assert not dominates([2, 0], [0, 2])
        assert not dominates([0, 2], [2, 0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dominates([1, 2], [1, 2, 3])

    @given(
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=3, max_size=3),
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=3, max_size=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_antisymmetry(self, a, b):
        assert not (dominates(a, b) and dominates(b, a))


class TestNonDominatedSort:
    def test_single_point(self):
        fronts = non_dominated_sort([[1.0, 1.0]])
        assert len(fronts) == 1 and list(fronts[0]) == [0]

    def test_reference_case(self):
        pts = [[3, 1], [1, 3], [2, 2], [1, 1]]
        fronts = non_dominated_sort(pts)
        assert set(fronts[0]) == {0, 1, 2}
        assert set(fronts[1]) == {3}

    def test_matches_brute_force_on_random_3d(self):
        rng = np.random.default_rng(0)
        pts = rng.random((200, 3))
        fronts = non_dominated_sort(pts)
        assert set(fronts[0]) == brute_force_rank0(pts)

    def test_every_point_ranked_once(self):
        rng = np.random.default_rng(1)
        pts = rng.random((60, 2))
        fronts = non_dominated_sort(pts)
        all_idx = np.concatenate(fronts)
        assert sorted(all_idx) == list(range(60))


class TestFrontSet:
    def test_rejects_dominated_members(self):
        with pytest.raises(ValueError):
            FrontSet(x=np.zeros((2, 1)), y=np.array([[1.0, 1.0], [2.0, 2.0]]))

    def test_from_points_filters_and_dedupes(self):
        y = np.array([[1, 3], [3, 1], [0, 0], [1, 3]])
        x = np.arange(8, dtype=float).reshape(4, 2)
        front = FrontSet.from_points(x, y)
        assert len(front) == 2


class TestNsga2:
    def test_linear_tradeoff_front_coverage(self):
        # Objectives (x, 1-x): every x is Pareto-optimal; the population
        # should spread over [0,1] with no large gaps.
        def ev(x):
            return np.hstack([x, 1.0 - x])

        front = nsga2(ev, [[0.0, 1.0]], seed=0, config=Nsga2Config(pop=100, gens=100))
        xs = np.sort(front.x.ravel())
        assert xs[0] < 0.02 and xs[-1] > 0.98
        assert np.max(np.diff(xs)) < 0.05

    def test_pop_one_does_not_crash(self):
        def ev(x):
            return np.hstack([x, -x])

        front = nsga2(ev, [[0.0, 1.0]], seed=3, config=Nsga2Config(pop=1, gens=10))
        assert len(front) >= 1

    def test_deterministic(self):
        def ev(x):
            return np.hstack([np.sin(3 * x[:, :1]), np.cos(2 * x[:, 1:2])])

        a = nsga2(ev, [[0, 1], [0, 1]], seed=11, config=Nsga2Config(pop=24, gens=15))
        b = nsga2(ev, [[0, 1], [0, 1]], seed=11, config=Nsga2Config(pop=24, gens=15))
        np.testing.assert_array_equal(a.y, b.y)

    def test_returns_mutually_non_dominated(self):
        def ev(x):
            return np.hstack([x[:, :1] ** 2, (1 - x[:, :1]) ** 2])

        front = nsga2(ev, [[0, 1]], seed=2, config=Nsga2Config(pop=30, gens=20))
        assert brute_force_rank0(front.y) == set(range(len(front)))


def mc_hypervolume(front, ref, n, seed):
    """Monte-Carlo oracle: fraction of a bounding box dominated by the front."""
    front = np.asarray(front, dtype=float)
    ref = np.asarray(ref, dtype=float)
    top = front.max(axis=0)
    rng = np.random.default_rng(seed)
    pts = ref + rng.random((n, len(ref))) * (top - ref)
    dominated = np.zeros(n, dtype=bool)
    for p in front:
        dominated |= np.all(pts <= p, axis=1)
    box = float(np.prod(top - ref))
    frac = dominated.mean()
    se = box * np.sqrt(frac * (1 - frac) / n)
    return box * frac, se


class TestHypervolume:
    def test_reference_triangle(self):
        assert hypervolume([[3, 1], [2, 2], [1, 3]], [0, 0]) == pytest.approx(6.0)

    def test_single_point_box(self):
        assert hypervolume([[2.0, 3.0, 4.0]], [1.0, 1.0, 1.0]) == pytest.approx(6.0)

    def test_ref_not_dominated_rejected(self):
        with pytest.raises(ValueError):
            hypervolume([[1.0, 1.0]], [2.0, 0.0])
        with pytest.raises(ValueError):
            hypervolume([[1.0, 1.0]], [1.0, 1.0])

    def test_duplicate_and_dominated_points_ignored(self):
        base = hypervolume([[3, 1], [1, 3]], [0, 0])
        padded = hypervolume([[3, 1], [1, 3], [3, 1], [1, 1]], [0, 0])
        assert padded == pytest.approx(base)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_against_monte_carlo_oracle(self, k):
        rng = np.random.default_rng(40 + k)
        for case in range(3):
            pts = 1.0 + rng.random((8, k)) * 2.0
            ref = np.zeros(k)
            exact = hypervolume(pts, ref)
            approx, se = mc_hypervolume(pts, ref, 1_000_000, seed=900 + case)
            assert abs(exact - approx) < 3 * se + 1e-12

    def test_monotone_under_new_point(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            pts = rng.random((6, 3)) + 0.5
            ref = np.zeros(3)
            before = hypervolume(pts, ref)
            extra = rng.random(3) + 0.5
            after = hypervolume(np.vstack([pts, extra]), ref)
            assert after >= before - 1e-12

    def test_axis_permutation_invariance(self):
        rng = np.random.default_rng(5)
        pts = rng.random((10, 4)) + 1.0
        ref = np.full(4, 0.5)
        base = hypervolume(pts, ref)
        for perm in ([1, 0, 2, 3], [3, 2, 1, 0], [2, 3, 0, 1]):
            assert hypervolume(pts[:, perm], ref[perm]) == pytest.approx(base, rel=1e-12)

    def test_member_permutation_invariance(self):
        rng = np.random.default_rng(6)
        pts = rng.random((12, 3)) + 1.0
        ref = np.zeros(3)
        base = hypervolume(pts, ref)
        shuffled = pts[rng.permutation(12)]
        assert hypervolume(shuffled, ref) == pytest.approx(base, rel=1e-12)

    def test_k5_rejected(self):
        with pytest.raises(ValueError):
            hypervolume([[1] * 5], [0] * 5)


class TestDominatedHypervolume:
    def test_filters_points_not_dominating_ref(self):
        pts = [[3, 1], [1, 3], [-5, 10]]
        assert dominated_hypervolume(pts, [0, 0]) == pytest.approx(
            hypervolume([[3, 1], [1, 3]], [0, 0])
        )

    def test_empty_when_nothing_dominates(self):
        assert dominated_hypervolume([[-1, -1]], [0, 0]) == 0.0
