"""One set-up sample: import the package, parse the config, build the problem.

    python3 setup_child.py <src dir> <config.yaml>

Prints ``ready`` once the problem is built; ``run.py`` times the process
from its start to that line.
"""

import sys

sys.path.insert(0, sys.argv[1])

from reramopt import config  # noqa: E402

with open(sys.argv[2], encoding="utf-8") as fh:
    config.build_problem(config.parse_config(fh.read()))
print("ready", flush=True)
