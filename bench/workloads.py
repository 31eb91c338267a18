"""The benchmark's workloads: what each one runs and how it is checked.

Every workload is one closed loop with a single caller: the next call
starts when the previous one has returned, because a campaign is
sequential. A workload repeats the same inputs (a pass over a design
list, or one campaign) until the run's time is up. README.md says why
each workload exists.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import shutil
import statistics
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import tracing
from reramopt import cli, config
from reramopt.design_space import ReramDesign
from reramopt.objectives import NetworkSpec, hw_area, hw_energy, hw_latency

WORKLOADS = ("resna-eval", "campaign-synth", "campaign-reram")

# ReSNA settings of the ReRAM workloads: the paper's 64-32-10 MLP, batch 8,
# all four noise sources and 10 voting inference runs are the defaults and
# stay. The data set and epoch range are cut down so that a pass over the
# design list and a campaign fit the run length; a larger step and a more
# separable task let the short training learn, so that the z=1 accuracy
# check has something to check.
RESNA = {
    "n_train": 320,
    "n_test": 250,
    "min_epochs": 1,
    "max_epochs": 5,
    "lr": 0.03,
    "center_spread": 1.0,
}
# Mean z=1 accuracy over the design list must reach this; chance is 0.1.
MIN_Z1_ACCURACY = 0.5
# Campaign lengths. The budget is never the limit, and the convergence
# window (10 full-fidelity picks) cannot fill, so max_iterations ends
# every campaign and all runs time the same number of iterations.
ITERATIONS = {"campaign-synth": 8, "campaign-reram": 5}
# An untraced run repeats its inputs at least twice, whatever its length,
# so that outputs can be compared and each unit has a fastest repetition.
# A traced run makes at least one untraced and one traced repetition.
MIN_REPS = 2
_BUDGET = 1.0e9


def config_text(workload: str, seed: int) -> str:
    """The campaign config YAML of a workload; the seed enters only as ``resna.data_seed``."""
    if workload == "campaign-synth":
        return (
            "problem: {name: branin-currin-cf}\n"
            "optimizer: cf-mesmo\n"
            f"budget: {{total_cost: {_BUDGET}, max_iterations: {ITERATIONS[workload]}}}\n"
        )
    resna = ", ".join(f"{k}: {v}" for k, v in {**RESNA, "data_seed": seed}.items())
    text = f"problem: {{name: reram}}\nresna: {{{resna}}}\n"
    if workload == "campaign-reram":
        text += (
            "optimizer: cf-mesmo\n"
            f"budget: {{total_cost: {_BUDGET}, max_iterations: {ITERATIONS[workload]}}}\n"
        )
    return text


@dataclass
class Report:
    """What a workload measured and found.

    ``units`` holds, for every untraced repetition, the wall time of each
    unit of identical work: one evaluate call on resna-eval; the init phase, each optimizer iteration and the artifact
    writing on the campaigns. Repetitions repeat the same inputs, so the
    fastest repetition of each unit is the time that unit takes when the
    machine does not slow it down.
    """

    steps: int = 0  # evaluate calls, or optimizer iterations, per repetition
    units: list[list[float]] = field(default_factory=list)
    pair_walls: list[tuple[float, float]] = field(default_factory=list)  # (untraced, traced)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    info: list[str] = field(default_factory=list)  # printed before the result line
    digests: list[str] = field(default_factory=list)
    low_fidelity: list[int] = field(default_factory=lambda: [0, 0])  # [low picks, all picks]

    def step_s(self) -> float:
        """Wall time per step, taking each unit from its fastest repetition."""
        return sum(min(times) for times in zip(*self.units)) / self.steps

    def samples(self) -> list[float]:
        """Wall time per step of each untraced repetition."""
        return [sum(times) / self.steps for times in self.units]

    def overhead(self) -> float:
        """Traced over untraced wall time of the same work, minus one (median over pairs)."""
        return statistics.median(traced / plain for plain, traced in self.pair_walls) - 1.0


def design_points(cfg, seed: int) -> list[np.ndarray]:
    """One design for every (res_cell, xbar_size) pair, in a seeded order.

    Those two values set the number of cells per layer and so the emulator
    work per batch; the seed draws frequency, temperature and the order.
    """
    space = config.build_space(cfg)
    rng = np.random.default_rng([seed, 0])
    pairs = list(itertools.product(space.res_cell_levels, space.xbar_sizes))
    points = []
    for i in rng.permutation(len(pairs)):
        res_cell, xbar = pairs[i]
        design = ReramDesign(
            res_cell=res_cell,
            freq_hz=float(rng.uniform(*space.freq_bounds_hz)),
            temperature_k=float(rng.uniform(*space.temperature_bounds_k)),
            xbar_size=xbar,
            **space.constants,
        )
        points.append(space.encode(design))
    return points


class ResnaEval:
    """``problem.evaluate`` over the design list, each design at z=0 and then z=1."""

    FIDELITIES = (0.0, 1.0)

    def __init__(self, cfg, problem, seed: int):
        self.seed = seed
        self.points = design_points(cfg, seed)
        self.z = [np.where(problem.fidelity_mask, z, 1.0) for z in self.FIDELITIES]
        space = config.build_space(cfg)
        network = NetworkSpec.from_mlp(config.build_mlp(cfg), n_inputs=cfg.hw.n_inputs)
        params = config.build_hw_params(cfg)
        self.hw = [
            [f(space.decode(x), network, params) for f in (hw_area, hw_latency, hw_energy)]
            for x in self.points
        ]

    def run_pass(self, evaluate, report: Report) -> tuple[list[float], str, list[float]]:
        """Evaluate every design at both fidelities.

        Returns the wall time of each call (design-major, z=0 first), a
        digest of the outputs and the mean accuracy at each fidelity.
        """
        times, accuracies = [], [[] for _ in self.FIDELITIES]
        digest = hashlib.sha256()
        for i, x in enumerate(self.points):
            for f, z in enumerate(self.z):
                report.attempted += 1
                rng = np.random.default_rng([self.seed, i, f])
                t0 = time.perf_counter()
                try:
                    y = evaluate(x, z, rng)
                except Exception:  # noqa: BLE001 - a failed evaluation is counted and reported
                    report.failed += 1
                    report.errors.append(f"design {i} z={z[0]}: evaluate raised\n{traceback.format_exc()}")
                    times.append(float("nan"))
                    continue
                times.append(time.perf_counter() - t0)
                y = np.asarray(y, dtype=float)
                digest.update(y.tobytes())
                accuracies[f].append(y[0])
                report.errors += [f"design {i} z={z[0]}: {e}" for e in checks.evaluation_errors(y, self.hw[i])]
        means = [float(np.mean(a)) if a else float("nan") for a in accuracies]
        if not means[-1] >= MIN_Z1_ACCURACY:
            report.errors.append(f"mean z=1 accuracy {means[-1]:.3f} below {MIN_Z1_ACCURACY} (chance is 0.1)")
        return times, digest.hexdigest()[:16], means


def run_resna(cfg, text: str, seed: int, seconds: float, min_reps: int, tracer: tracing.Tracer | None) -> Report:
    """Passes over the design list; traced runs follow each pass with a traced one."""
    problem = config.build_problem(cfg)
    work = ResnaEval(cfg, problem, seed)
    report = Report(steps=len(work.points) * len(work.FIDELITIES))
    if tracer is not None:
        with tracing.installed(tracer):
            config.build_problem(config.parse_config(text))
    t_start = time.perf_counter()
    while True:
        times, digest, accuracy = work.run_pass(problem.evaluate, report)
        report.units.append(times)
        report.digests.append(digest)
        if tracer is not None:
            tracer.rep, tracer.eval_id = len(report.pair_walls), 0
            with tracing.installed(tracer), tracer.span(tracing.REP_SPAN):
                traced, digest, _ = work.run_pass(tracer.wrap_evaluate(problem.evaluate), report)
            report.pair_walls.append((sum(times), sum(traced)))
            report.digests.append(digest)
        if len(report.units) >= min_reps and time.perf_counter() - t_start >= seconds:
            break
    if len(set(report.digests)) != 1:
        report.errors.append(f"passes with the same inputs gave different outputs: {report.digests}")
    best = [min(t) for t in zip(*report.units)]
    for f, z in enumerate(work.FIDELITIES):
        per_call = statistics.fmean(best[f :: len(work.FIDELITIES)])
        report.info.append(f"eval_z{z:g}_s {per_call!r} mean accuracy {accuracy[f]:.4f}")
    report.info.append(f"output digest {report.digests[0]} over {len(report.digests)} passes")
    return report


@contextmanager
def _evaluation_clock(stamps: list[float]):
    """Record when each evaluation of a problem from ``config.build_problem`` returns."""
    build_problem = config.build_problem

    def clocked_build_problem(*args, **kwargs):
        problem = build_problem(*args, **kwargs)
        evaluate = problem.evaluate

        def clocked_evaluate(*a, **k):
            try:
                return evaluate(*a, **k)
            finally:
                stamps.append(time.perf_counter())

        return dataclasses.replace(problem, evaluate=clocked_evaluate)

    config.build_problem = clocked_build_problem
    try:
        yield
    finally:
        config.build_problem = build_problem


class Campaign:
    """``reramopt run`` on one config and seed, checked through its artifacts."""

    def __init__(self, workload: str, cfg_path: Path, out_root: Path, seed: int, fidelity_mask):
        self.cfg_path = cfg_path
        self.out_root = out_root
        self.seed = seed
        self.max_iterations = ITERATIONS[workload]
        self.fidelity_mask = fidelity_mask

    def run(self, tag: str, report: Report, tracer=None) -> tuple[float, list[float], str]:
        """One campaign: (wall seconds, unit times, digest line).

        The units are the init phase (start to the last init evaluation),
        each optimizer iteration (evaluation to evaluation) and the rest
        of the call (artifact writing). Untraced campaigns only.
        """
        out = self.out_root / tag
        shutil.rmtree(out, ignore_errors=True)
        argv = ["run", "--config", str(self.cfg_path), "--seed", str(self.seed), "--out", str(out)]
        stamps: list[float] = []
        t0 = time.perf_counter()
        if tracer is None:
            with _evaluation_clock(stamps):
                rc = cli.main(argv)
        else:
            with tracer.span(tracing.REP_SPAN):
                rc = cli.main(argv)
        wall = time.perf_counter() - t0
        if rc != 0:
            report.errors.append(f"reramopt run --seed {self.seed} returned {rc}")
            report.attempted += 1
            report.failed += 1
            return wall, [], ""
        files = [out / f"trace_seed{self.seed}.csv", out / f"front_seed{self.seed}.csv",
                 out / f"campaign_seed{self.seed}.json"]
        rows = checks.read_trace(files[0])
        report.attempted += len(rows)
        report.failed += checks.failed_rows(rows)
        report.errors += checks.trace_errors(rows, self.max_iterations)
        if tracer is not None:
            low, picks = checks.low_fidelity_picks(rows, self.fidelity_mask)
            report.low_fidelity[0] += low
            report.low_fidelity[1] += picks
        digest = (
            f"campaign seed={self.seed} artifacts={checks.file_digest(files)} "
            f"picks={checks.picks_digest(rows)}"
        )
        n_init = sum(row["phase"] == "init" for row in rows)
        if tracer is None and len(stamps) == len(rows) and n_init:
            bounds = [t0, *stamps[n_init - 1 :], t0 + wall]
            return wall, [b - a for a, b in zip(bounds[:-1], bounds[1:])], digest
        if tracer is None:
            report.errors.append(f"{len(stamps)} evaluations timed for {len(rows)} trace rows")
        return wall, [], digest


def run_campaigns(
    workload: str, cfg_path: Path, out_root: Path, problem, seed: int, seconds: float, min_reps: int,
    tracer: tracing.Tracer | None,
) -> Report:
    """The same campaign repeated; traced runs follow each repetition with a traced one.

    Every repetition must write byte-identical artifacts.
    """
    campaign = Campaign(workload, cfg_path, out_root, seed, problem.fidelity_mask)
    report = Report(steps=ITERATIONS[workload])
    if tracer is not None:
        with tracing.installed(tracer):
            config.build_problem(config.parse_config(cfg_path.read_text(encoding="utf-8")))
    t_start = time.perf_counter()
    while True:
        wall, units, digest = campaign.run("plain", report)
        report.units.append(units)
        report.digests.append(digest)
        if tracer is not None:
            tracer.rep, tracer.eval_id = len(report.pair_walls), 0
            with tracing.installed(tracer):
                traced_wall, _, digest = campaign.run("traced", report, tracer)
            report.pair_walls.append((wall, traced_wall))
            report.digests.append(digest)
        if len(report.units) >= min_reps and time.perf_counter() - t_start >= seconds:
            break
    if len(set(report.digests)) != 1:
        report.errors.append(f"repeated campaigns wrote different artifacts: {report.digests}")
    report.info.append(f"{report.digests[0]} over {len(report.digests)} campaigns")
    return report


def run(workload: str, seed: int, seconds: float, out_root: Path, tracer: tracing.Tracer | None) -> Report:
    text = config_text(workload, seed)
    out_root.mkdir(parents=True, exist_ok=True)
    cfg_path = out_root / "config.yaml"
    cfg_path.write_text(text, encoding="utf-8")
    cfg = config.parse_config(text)
    min_reps = 1 if tracer is not None else MIN_REPS
    if workload == "resna-eval":
        return run_resna(cfg, text, seed, seconds, min_reps, tracer)
    return run_campaigns(workload, cfg_path, out_root, config.build_problem(cfg), seed, seconds, min_reps, tracer)
