"""Output checks and digests for the benchmark's workloads.

Everything here works on plain values and artifact files, so the checks
can be tested without running a campaign. A check returns a list of
error strings; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
from pathlib import Path


def read_trace(path: Path) -> list[dict[str, str]]:
    """Rows of a ``trace_seed<n>.csv`` artifact (the hash comment line skipped)."""
    lines = [line for line in path.read_text(encoding="utf-8").splitlines() if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _columns(row: dict[str, str], prefix: str) -> list[str]:
    return [row[k] for k in row if re.fullmatch(prefix + r"\d+", k)]


def failed_rows(rows: list[dict[str, str]]) -> int:
    return sum(row["ok"] != "1" for row in rows)


def trace_errors(rows: list[dict[str, str]], max_iterations: int) -> list[str]:
    """Campaign invariants the benchmark relies on.

    Every evaluation succeeded, ``cum_cost`` strictly increases,
    ``hypervolume`` never decreases, objective values are finite and the
    run was ended by ``max_iterations`` (so every run times the same
    number of optimizer iterations).
    """
    if not rows:
        return ["trace is empty"]
    errors = []
    prev_cost = prev_hv = -math.inf
    for row in rows:
        it = row["iteration"]
        if row["ok"] != "1":
            errors.append(f"row {it}: evaluation failed (ok={row['ok']})")
        elif not all(math.isfinite(float(v)) for v in _columns(row, "y")):
            errors.append(f"row {it}: non-finite objective value")
        cost, hv = float(row["cum_cost"]), float(row["hypervolume"])
        if not cost > prev_cost:
            errors.append(f"row {it}: cum_cost {cost} does not increase")
        if hv < prev_hv:
            errors.append(f"row {it}: hypervolume {hv} decreased from {prev_hv}")
        prev_cost, prev_hv = cost, hv
    n_opt = sum(row["phase"] == "opt" for row in rows)
    if n_opt != max_iterations:
        errors.append(f"{n_opt} optimizer iterations, expected max_iterations={max_iterations}")
    return errors


def low_fidelity_picks(rows: list[dict[str, str]], fidelity_mask) -> tuple[int, int]:
    """(optimizer picks with a fidelity-bearing z below 1, all optimizer picks)."""
    opt = [row for row in rows if row["phase"] == "opt"]
    low = sum(
        any(float(z) < 1.0 for z, bearing in zip(_columns(row, "z"), fidelity_mask) if bearing)
        for row in opt
    )
    return low, len(opt)


def file_digest(paths: list[Path]) -> str:
    """SHA-256 over the names and bytes of the given files."""
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def picks_digest(rows: list[dict[str, str]]) -> str:
    """SHA-256 over the (x, z) sequence of a campaign trace, as written."""
    h = hashlib.sha256()
    for row in rows:
        h.update((",".join(_columns(row, "x") + ["|"] + _columns(row, "z")) + "\n").encode())
    return h.hexdigest()[:16]


def evaluation_errors(y, hw_expected) -> list[str]:
    """Checks on one ReRAM objective vector ``[acc, -area, -latency, -energy]``.

    ``hw_expected`` is (area, latency, energy) of the decoded design; the
    hardware objectives must equal their negation exactly.
    """
    y = [float(v) for v in y]
    errors = []
    if not all(math.isfinite(v) for v in y):
        errors.append(f"non-finite objective in {y}")
    if not 0.0 <= y[0] <= 1.0:
        errors.append(f"accuracy {y[0]} outside [0, 1]")
    if y[1:] != [-float(v) for v in hw_expected]:
        errors.append(f"hardware objectives {y[1:]} != -{list(hw_expected)}")
    return errors
