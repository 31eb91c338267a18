"""Rerun every golden case and compare its bytes with the committed copy.

    python tests/golden/regen.py [--write]

Each case of ``tests/test_golden.py`` is produced into a temporary
directory through the same ``produce``. Every file is reported as
``same``, ``hash-only`` (equal once the ``config_hash`` values are
masked) or ``changed``, the last followed by a diff of the masked text.
The exit status is 1 when any file is ``changed``. ``--write`` replaces
each golden directory with the new files, so a deliberate re-pin is one
command whose report says what moved.
"""

from __future__ import annotations

import argparse
import difflib
import re
import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

from test_golden import GOLDEN, RUNS, _files, produce  # noqa: E402

_HASH = re.compile(r'(config_hash"?[=:] ?"?)[0-9a-f]{16}')


def _masked(data: bytes | None) -> list[str]:
    text = "" if data is None else data.decode("utf-8")
    return _HASH.sub(r"\1<hash>", text).splitlines()


def _status(old: bytes | None, new: bytes | None) -> str:
    if old == new:
        return "same"
    if old is not None and new is not None and _masked(old) == _masked(new):
        return "hash-only"
    return "changed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--write", action="store_true", help="copy the new files over the goldens")
    args = parser.parse_args(argv)
    tally = Counter()
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(RUNS):
            out = Path(tmp) / case
            if produce(case, out) != 0:
                print(f"failed    {case}: the run did not exit 0")
                tally["failed"] += 1
                continue
            old, new = _files(GOLDEN / case), _files(out)
            for name in sorted(old.keys() | new.keys()):
                status = _status(old.get(name), new.get(name))
                tally[status] += 1
                print(f"{status:<9} {case}/{name}")
                if status == "changed":
                    diff = difflib.unified_diff(
                        _masked(old.get(name)),
                        _masked(new.get(name)),
                        f"golden/{case}/{name}",
                        f"new/{case}/{name}",
                        lineterm="",
                    )
                    print("\n".join(diff))
            if args.write:
                shutil.rmtree(GOLDEN / case, ignore_errors=True)
                shutil.copytree(out, GOLDEN / case)
    print(", ".join(f"{tally[s]} {s}" for s in ("same", "hash-only", "changed", "failed")))
    return 1 if tally["changed"] or tally["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
