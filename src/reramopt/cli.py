"""Command-line campaign runner and utilities.

Subcommands: run, evaluate, train-one, noise-hist, hv, emit-defaults.
Every artifact embeds the effective config hash and seed on its first
line; rerunning with the same (config, seed) pair reproduces the bytes
exactly. Measured wall/CPU times are deliberately kept out of the run
artifacts for that reason (train-one, a measurement utility, is the one
exception). CSVs are UTF-8 with LF endings and shortest round-trip float
formatting.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .design_space import ReramDesign
from .mesmo import CampaignResult, nsga2_evaluations, search
from .noise import rtn_sample, sample_write_noise, shot_sigma, standard_normal, thermal_sigma
from .objectives import MooProblem
from .pareto import dominated_hypervolume
from .resna import accuracy_objective, make_dataset


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


# The decoded design's columns in the trace and front CSVs, in order.
_DESIGN_COLUMNS = ("res_cell", "freq_hz", "temperature_k", "xbar_size")


def _design_fields(space, x: np.ndarray) -> list:
    return [getattr(space.decode(x), c) for c in _DESIGN_COLUMNS]


def _trace_csv(result: CampaignResult, problem: MooProblem, space, hash_: str) -> list[str]:
    k = problem.n_obj
    d = problem.dim
    cols = ["iteration", "phase"]
    cols += [f"x{i}" for i in range(d)]
    if space is not None:
        cols += _DESIGN_COLUMNS
    cols += [f"z{j + 1}" for j in range(k)]
    cols += [f"y{j + 1}" for j in range(k)]
    cols += ["cost", "cum_cost", "hypervolume", "ok"]
    lines = [f"# config_hash={hash_} seed={result.seed}", ",".join(cols)]
    for row in result.trace:
        vals = [row.iteration, row.phase]
        vals += list(row.x)
        if space is not None:
            vals += _design_fields(space, row.x)
        vals += list(problem.fidelity_vector(row.z))
        vals += list(row.y) if row.y is not None else [""] * k
        vals += [row.cost, row.cum_cost, row.hypervolume, row.ok]
        lines.append(",".join(_fmt(v) if v != "" else "" for v in vals))
    return lines


def _front_csv(result: CampaignResult, problem: MooProblem, space, hash_: str) -> list[str]:
    k = problem.n_obj
    d = problem.dim
    cols = [f"x{i}" for i in range(d)]
    if space is not None:
        cols += _DESIGN_COLUMNS
    cols += [f"y{j + 1}" for j in range(k)]
    lines = [f"# config_hash={hash_} seed={result.seed}", ",".join(cols)]
    for x, y in zip(result.pareto_x, result.pareto_y):
        vals = list(x)
        if space is not None:
            vals += _design_fields(space, x)
        vals += list(y)
        lines.append(",".join(_fmt(v) for v in vals))
    return lines


def _campaign_json(result: CampaignResult, cfg, hash_: str) -> str:
    payload = {
        "config_hash": hash_,
        "seed": result.seed,
        "problem": result.problem_name,
        "optimizer": result.optimizer,
        "budget": cfg.budget.total_cost,
        "total_cost": result.total_cost,
        "truncated": result.truncated,
        "converged": result.converged,
        "n_evaluations": len(result.trace),
        "pareto_set": [list(map(float, x)) for x in result.pareto_x],
        "pareto_front": [list(map(float, y)) for y in result.pareto_y],
        "gp_hyperparameters": None
        if result.model_params is None
        else [dataclasses.asdict(p) for p in result.model_params],
    }
    return json.dumps(payload, sort_keys=True, indent=2)


def _hv_at_costs(result: CampaignResult, grid: np.ndarray) -> np.ndarray:
    """Hypervolume of the last row at or below each cost of the grid, 0 before the first."""
    costs = np.array([r.cum_cost for r in result.trace])
    hvs = np.array([0.0] + [r.hypervolume for r in result.trace])
    return hvs[np.searchsorted(costs, grid, side="right")]


def _aggregate_csv(results: list[CampaignResult], budget: float, hash_: str) -> list[str]:
    grid = np.linspace(0.0, budget, 121)
    curves = np.stack([_hv_at_costs(r, grid) for r in results])
    med = np.median(curves, axis=0)
    q25 = np.quantile(curves, 0.25, axis=0)
    q75 = np.quantile(curves, 0.75, axis=0)
    lines = [f"# config_hash={hash_} seed=all", "cost,hv_median,hv_q25,hv_q75"]
    for c, m, a, b in zip(grid, med, q25, q75):
        lines.append(",".join(_fmt(v) for v in (c, m, a, b)))
    return lines


def _fidelity_csv(results: list[CampaignResult], hash_: str) -> list[str]:
    lines = [f"# config_hash={hash_} seed=all", "seed,iteration,mean_fidelity"]
    for result in results:
        opt_rows = [r for r in result.trace if r.phase == "opt"]
        for i, row in enumerate(opt_rows):
            lines.append(",".join(_fmt(v) for v in (result.seed, i, row.z)))
    return lines


def run_one_seed(cfg: cfgmod.CampaignConfig, seed: int) -> CampaignResult:
    problem = cfgmod.build_problem(cfg)
    return search(problem, cfg.budget, seed, cfg.optimizer, cfg.mesmo, cfg.gp, cfg.nsga2)


def run_campaign(cfg: cfgmod.CampaignConfig, out_dir: Path) -> int:
    """Execute all seeds and write the artifact set; 0 iff all completed.

    The problem is built first, so a config that cannot build it writes
    nothing. A seed that raises is named on stderr; the artifacts of the
    seeds that completed are still written. So is a surrogate campaign that
    has no opt row within its budget: fewer than two initial evaluations
    succeeded.
    """
    problem = cfgmod.build_problem(cfg)
    space = cfgmod.build_space(cfg) if cfg.problem.name == "reram" else None
    out_dir.mkdir(parents=True, exist_ok=True)
    hash_ = cfgmod.config_hash(cfg)

    _write_lines(out_dir / "effective_config.yaml", [f"# config_hash={hash_}", cfgmod.dump_config(cfg).rstrip()])
    if cfg.optimizer == "nsga2":
        evals = nsga2_evaluations(problem, cfg.budget)
        if evals < 2 * cfg.nsga2.pop:
            print(
                f"note: the budget buys {evals} evaluations, fewer than two populations of "
                f"{cfg.nsga2.pop}, so NSGA-II runs 0 generations and is random search",
                file=sys.stderr,
            )

    results: list[CampaignResult] = []
    failed: list[int] = []

    def collect(seed: int, get_result) -> None:
        try:
            results.append(get_result())
        except Exception as exc:  # noqa: BLE001 - one seed must not sink the others
            print(f"seed {seed} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            failed.append(seed)

    if cfg.workers > 1 and len(cfg.seeds) > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            futures = [pool.submit(run_one_seed, cfg, s) for s in cfg.seeds]
            for s, future in zip(cfg.seeds, futures):
                collect(s, future.result)
    else:
        for s in cfg.seeds:
            collect(s, lambda: run_one_seed(cfg, s))

    for result in results:
        rows = result.trace
        surrogate = result.optimizer in ("cf-mesmo", "mesmo") and not result.truncated
        if surrogate and all(r.phase == "init" for r in rows):
            print(
                f"note: seed {result.seed} stopped before its first iteration: {sum(r.ok for r in rows)} "
                f"of {len(rows)} initial evaluations succeeded, and the surrogates need two",
                file=sys.stderr,
            )
        _write_lines(out_dir / f"trace_seed{result.seed}.csv", _trace_csv(result, problem, space, hash_))
        _write_lines(out_dir / f"front_seed{result.seed}.csv", _front_csv(result, problem, space, hash_))
        (out_dir / f"campaign_seed{result.seed}.json").write_text(
            _campaign_json(result, cfg, hash_) + "\n", encoding="utf-8", newline="\n"
        )
    if results:
        _write_lines(out_dir / "hv_vs_cost.csv", _aggregate_csv(results, cfg.budget.total_cost, hash_))
        _write_lines(out_dir / "fidelity_trace.csv", _fidelity_csv(results, hash_))
    if failed:
        print(f"campaign failed for seeds {failed}", file=sys.stderr)
        return 1
    return 0


def _add_design_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--res-cell", type=int, default=8)
    p.add_argument("--freq", type=float, default=5.0e8, help="operating frequency in Hz")
    p.add_argument("--temp", type=float, default=350.0, help="temperature in K")
    p.add_argument("--xbar", type=int, default=64)


def _design_from_args(cfg: cfgmod.CampaignConfig, args) -> ReramDesign:
    return ReramDesign(
        res_cell=args.res_cell,
        freq_hz=args.freq,
        temperature_k=args.temp,
        xbar_size=args.xbar,
        **dataclasses.asdict(cfg.device),
    )


def _seed(text: str) -> int:
    """The argparse type of --seed: a non-negative integer, as the config's seeds are."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _load_cfg(args) -> cfgmod.CampaignConfig:
    if getattr(args, "config", None):
        return cfgmod.load_config(args.config)
    return cfgmod.parse_config("")


def _cmd_run(args) -> int:
    cfg = _load_cfg(args)
    overrides = {}
    if args.optimizer:
        overrides["optimizer"] = args.optimizer
    if args.budget is not None:
        try:
            overrides["budget"] = dataclasses.replace(cfg.budget, total_cost=args.budget)
        except ValueError as exc:
            raise cfgmod.ConfigError(f"--budget: {exc}") from exc
    if args.seed is not None:
        overrides["seeds"] = (args.seed,)
    cfg = dataclasses.replace(cfg, **overrides)
    return run_campaign(cfg, Path(args.out or cfg.out_dir))


def _cmd_evaluate(args) -> int:
    cfg = _load_cfg(args)
    problem = cfgmod.build_problem(cfg)
    if cfg.problem.name == "reram":
        space = cfgmod.build_space(cfg)
        x = space.encode(_design_from_args(cfg, args))
    else:
        if not args.x:
            print("synthetic problems need --x", file=sys.stderr)
            return 1
        x = np.array([float(v) for v in args.x.split(",")])
        if len(x) != problem.dim:
            print(f"--x needs {problem.dim} values", file=sys.stderr)
            return 1
        if not np.all((x >= 0.0) & (x <= 1.0)):
            print("--x values must lie in [0, 1]", file=sys.stderr)
            return 1
    if not 0.0 <= args.z <= 1.0:
        print("--z values must lie in [0, 1]", file=sys.stderr)
        return 1
    z = problem.fidelity_vector(args.z)
    rng = np.random.default_rng(args.seed)
    y = problem.evaluate(x, z, rng)
    print(
        json.dumps(
            {"y": [float(v) for v in y], "cost": problem.cost(args.z), "z": [float(v) for v in z]},
            sort_keys=True,
        )
    )
    return 0


def _cmd_train_one(args) -> int:
    cfg = _load_cfg(args)
    mlp = cfg.resna
    per_run, seconds = accuracy_objective(
        _design_from_args(cfg, args),
        args.z,
        spec=mlp,
        dataset=make_dataset(mlp),
        rng=np.random.default_rng(args.seed),
        noise=cfg.noise,
    )
    print(
        json.dumps(
            {
                "accuracy": float(np.mean(per_run)),
                "epochs": mlp.epochs(args.z),
                "cost_seconds": seconds,
                "per_run_accuracies": per_run,
            },
            sort_keys=True,
        )
    )
    return 0


def _cmd_noise_hist(args) -> int:
    for flag, value in (("--samples", args.samples), ("--bins", args.bins), ("--levels", args.levels)):
        if value is not None and value < 1:
            print(f"{flag} must be >= 1, got {value}", file=sys.stderr)
            return 1
    cfg = _load_cfg(args)
    design = _design_from_args(cfg, args)
    rng = np.random.default_rng(args.seed)
    g_levels = design.g_min + np.arange(1 << design.res_cell) * design.g_step
    if args.levels is not None:
        g_levels = g_levels[: args.levels]
    lines = [
        f"# config_hash={cfgmod.config_hash(cfg)} seed={args.seed}",
        "level,g,source,bin_lo,bin_hi,count",
    ]
    n, spec = args.samples, cfg.noise
    off = np.zeros(n)  # a disabled source draws nothing
    for level, g in enumerate(g_levels):
        cells = np.full(n, g)
        # Built in draw order: thermal, shot, RTN, programming.
        draws = {
            "thermal": standard_normal(rng, (n,)) * thermal_sigma(cells, design) if spec.thermal else off,
            "shot": standard_normal(rng, (n,)) * shot_sigma(cells, design) if spec.shot else off,
            "rtn": rtn_sample(cells, design, spec, rng) if spec.rtn else off,
            "prog": sample_write_noise(cells, design, spec, rng),
        }
        draws["total"] = sum(draws.values())
        for source, dg in draws.items():
            rel = dg / g
            counts, edges = np.histogram(rel, bins=args.bins)
            for c, lo, hi in zip(counts, edges[:-1], edges[1:]):
                lines.append(
                    ",".join(_fmt(v) for v in (level, g, source, lo, hi, int(c)))
                )
    if args.out:
        _write_lines(Path(args.out), lines)
    else:
        print("\n".join(lines))
    return 0


def _cmd_hv(args) -> int:
    with open(args.front, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    table = [ln.split(",") for ln in lines if ln and not ln.startswith("#")]
    if not table:
        raise ValueError(f"{args.front}: no header line")
    header, *rows = table
    cols = [i for i, name in enumerate(header) if name[:1] == "y" and name[1:].isdigit()]
    if not cols:
        raise ValueError(f"{args.front}: the header names no y1..yk objective columns")
    front = np.array([[float(row[i]) for i in cols] for row in rows]).reshape(-1, len(cols))
    ref = np.array([float(v) for v in args.ref.split(",")])
    if len(ref) != len(cols):
        raise ValueError(f"--ref has {len(ref)} values for {len(cols)} objectives")
    print(_fmt(dominated_hypervolume(front, ref)))
    return 0


def _cmd_emit_defaults(args) -> int:
    text = cfgmod.emit_defaults()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8", newline="\n")
    else:
        print(text, end="")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="reramopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a campaign per the config file")
    p_run.add_argument("--config")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--out")
    p_run.add_argument("--optimizer", choices=cfgmod.OPTIMIZERS)
    p_run.add_argument("--budget", type=float)
    p_run.set_defaults(func=_cmd_run)

    p_eval = sub.add_parser("evaluate", help="evaluate the objective vector at (design, z)")
    p_eval.add_argument("--config")
    _add_design_flags(p_eval)
    p_eval.add_argument("--x", help="comma-separated coordinates for synthetic problems")
    p_eval.add_argument("--z", type=float, default=1.0, help="fidelity level in [0, 1]")
    p_eval.add_argument("--seed", type=_seed, default=0)
    p_eval.set_defaults(func=_cmd_evaluate)

    p_train = sub.add_parser("train-one", help="train one design at one fidelity")
    p_train.add_argument("--config")
    _add_design_flags(p_train)
    p_train.add_argument("--z", type=float, default=1.0)
    p_train.add_argument("--seed", type=_seed, default=0)
    p_train.set_defaults(func=_cmd_train_one)

    p_hist = sub.add_parser("noise-hist", help="dump relative-noise histograms per level")
    p_hist.add_argument("--config")
    _add_design_flags(p_hist)
    p_hist.add_argument("--samples", type=int, default=10000)
    p_hist.add_argument("--bins", type=int, default=50)
    p_hist.add_argument("--levels", type=int, help="restrict to the first N conductance levels")
    p_hist.add_argument("--seed", type=_seed, default=0)
    p_hist.add_argument("--out")
    p_hist.set_defaults(func=_cmd_noise_hist)

    p_hv = sub.add_parser("hv", help="hypervolume of a front CSV against a reference point")
    p_hv.add_argument("--front", required=True)
    p_hv.add_argument("--ref", required=True)
    p_hv.set_defaults(func=_cmd_hv)

    p_def = sub.add_parser("emit-defaults", help="print the default config as YAML")
    p_def.add_argument("--out")
    p_def.set_defaults(func=_cmd_emit_defaults)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except cfgmod.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
