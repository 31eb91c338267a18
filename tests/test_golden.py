"""Golden artifacts: fixed (config, seed) runs must reproduce committed bytes.

Each case reruns one CLI invocation through ``cli.main`` in a temporary
directory and compares every file it writes, byte for byte, with the copy
under ``tests/golden/<case>/``. The goldens were produced by the same
invocations; refactors that do not mean to change results must keep them.
"""

from pathlib import Path

import pytest

from reramopt import cli

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = GOLDEN / "configs"

# case -> CLI arguments (the output location is appended per case).
RUNS = {
    "branin-cf-mesmo": ["run", "--config", "branin.yaml", "--seed", "0", "--optimizer", "cf-mesmo"],
    "branin-mesmo": ["run", "--config", "branin.yaml", "--seed", "0", "--optimizer", "mesmo"],
    "branin-random": ["run", "--config", "branin.yaml", "--seed", "0", "--optimizer", "random"],
    # 24 evaluations at pop 8: the initial population plus 2 generations.
    "branin-nsga2": [
        "run", "--config", "branin.yaml", "--seed", "0", "--optimizer", "nsga2", "--budget", "48",
    ],
    "reram-cf-mesmo": ["run", "--config", "reram.yaml", "--seed", "0"],
    # The synthetic fronts above stay outside their reference box at these
    # budgets; this run has a growing hypervolume under NSGA-II.
    "reram-nsga2": [
        "run", "--config", "reram.yaml", "--seed", "0", "--optimizer", "nsga2", "--budget", "96",
    ],
    # The 6-D problem, where the float32 feature error of a draw is largest.
    "zdt1-cf-mesmo": ["run", "--config", "zdt1.yaml", "--seed", "0", "--optimizer", "cf-mesmo"],
    "noise-hist": [
        "noise-hist", "--res-cell", "2", "--samples", "300", "--bins", "6", "--levels", "2",
        "--seed", "0",
    ],
}


def produce(case: str, dest: Path) -> int:
    """Run one golden case, writing its artifacts into ``dest``."""
    argv = [str(CONFIGS / a) if a.endswith(".yaml") else a for a in RUNS[case]]
    if argv[0] == "run":
        return cli.main(argv + ["--out", str(dest)])
    dest.mkdir(parents=True)
    return cli.main(argv + ["--out", str(dest / "noise_hist.csv")])


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("case", sorted(RUNS))
def test_reproduces_golden_bytes(case, tmp_path):
    out = tmp_path / case
    assert produce(case, out) == 0
    expected = _files(GOLDEN / case)
    actual = _files(out)
    assert sorted(actual) == sorted(expected)
    for name, data in expected.items():
        assert actual[name] == data, f"{case}/{name} differs from its golden copy"
