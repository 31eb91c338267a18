"""The emulator path runs without loading SciPy.

Only the surrogate fit and the acquisition need SciPy, and importing it
costs more than the rest of the package together. A fresh interpreter
imports the package, evaluates one ReRAM design and dumps noise
histograms, then reports every SciPy module it has loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

EMULATOR_ONLY = """
import json, sys
import numpy as np
import reramopt
from reramopt import cli, config

cfg = config.parse_config(
    "problem: {name: reram}\\n"
    "resna: {widths: [8, 6, 4], n_train: 16, n_test: 8,"
    " min_epochs: 1, max_epochs: 2, infer_runs: 1}\\n"
)
problem = config.build_problem(cfg)
y = problem.evaluate(np.zeros(problem.dim), np.zeros(problem.n_obj), np.random.default_rng(0))
assert y.shape == (problem.n_obj,) and np.isfinite(y).all(), y
argv = ["noise-hist", "--samples", "20", "--bins", "2", "--levels", "1", "--out", sys.argv[1]]
assert cli.main(argv) == 0
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_emulator_path_does_not_load_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", EMULATOR_ONLY, str(tmp_path / "hist.csv")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []
    assert (tmp_path / "hist.csv").is_file()
