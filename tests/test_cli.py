import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from reramopt import cli, config
from reramopt.config import build_problem, load_config, parse_config
from reramopt.resna import TrainingDivergedError

GOLDEN = Path(__file__).parent / "golden"


def _final_hypervolume(trace: Path) -> float:
    rows = [r for r in csv.reader(trace.open(encoding="utf-8")) if not r[0].startswith("#")]
    return float(rows[-1][rows[0].index("hypervolume")])


@pytest.mark.parametrize("case,config", [("reram-nsga2", "reram.yaml"), ("branin-cf-mesmo", "branin.yaml")])
def test_hv_reads_the_front_that_run_writes(case, config, capsys):
    problem = build_problem(load_config(str(GOLDEN / "configs" / config)))
    ref = ",".join(repr(float(v)) for v in problem.hv_ref)
    assert cli.main(["hv", "--front", str(GOLDEN / case / "front_seed0.csv"), f"--ref={ref}"]) == 0
    printed = float(capsys.readouterr().out)
    assert printed == _final_hypervolume(GOLDEN / case / "trace_seed0.csv")
    assert (printed > 0) == (case == "reram-nsga2")


def test_hv_rejects_a_reference_of_the_wrong_length(capsys):
    front = GOLDEN / "branin-cf-mesmo" / "front_seed0.csv"
    assert cli.main(["hv", "--front", str(front), "--ref=-22,-7,-1"]) == 1
    assert "3 values for 2 objectives" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["", "# a comment\n\n"], ids=["empty", "comments-only"])
def test_hv_names_a_front_with_no_header_line(text, tmp_path, capsys):
    front = tmp_path / "front.csv"
    front.write_text(text, encoding="utf-8")
    assert cli.main(["hv", "--front", str(front), "--ref=0,0"]) == 1
    assert capsys.readouterr().err == f"error: {front}: no header line\n"


@pytest.mark.parametrize("ref,shown", [("nan,0", "[nan, 0.0]"), ("0,inf", "[0.0, inf]"), ("-inf,-7", "[-inf, -7.0]")])
def test_hv_rejects_a_non_finite_reference(ref, shown, capsys):
    front = GOLDEN / "branin-cf-mesmo" / "front_seed0.csv"
    assert cli.main(["hv", "--front", str(front), f"--ref={ref}"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and f"must be finite, got {shown}" in err


def test_failed_seed_keeps_the_other_seeds_artifacts(tmp_path, monkeypatch, capsys):
    cfg = parse_config("optimizer: random\nseeds: [0, 1, 2]\nbudget: {total_cost: 10}")
    run_one_seed = cli.run_one_seed

    def flaky(cfg, seed):
        if seed == 1:
            raise RuntimeError("worker lost")
        return run_one_seed(cfg, seed)

    monkeypatch.setattr(cli, "run_one_seed", flaky)
    assert cli.run_campaign(cfg, tmp_path) == 1
    err = capsys.readouterr().err
    assert "seed 1 failed: RuntimeError: worker lost" in err
    assert "[1]" in err
    written = {p.name for p in tmp_path.iterdir()}
    for seed in (0, 2):
        assert {f"trace_seed{seed}.csv", f"front_seed{seed}.csv", f"campaign_seed{seed}.json"} <= written
    assert not any("seed1" in name for name in written)
    assert {"hv_vs_cost.csv", "fidelity_trace.csv", "effective_config.yaml"} <= written


@pytest.mark.parametrize("budget,evals,note", [(30, 15, True), (32, 16, False), (48, 24, False)])
def test_nsga2_says_when_the_budget_buys_no_generation(budget, evals, note, tmp_path, capsys):
    # branin.yaml has pop 8 and a z* evaluation costs 2, so 16 evaluations
    # are the least that leave room for one generation after the first.
    argv = ["run", "--config", str(GOLDEN / "configs" / "branin.yaml"), "--optimizer", "nsga2"]
    assert cli.main(argv + ["--budget", str(budget), "--out", str(tmp_path)]) == 0
    err = capsys.readouterr().err
    line = (
        f"note: the budget buys {evals} evaluations, fewer than two populations of 8, "
        "so NSGA-II runs 0 generations and is random search\n"
    )
    assert err == (line if note else "")


@pytest.mark.parametrize("optimizer", ["cf-mesmo", "mesmo", "random"])
def test_a_surrogate_campaign_that_cannot_start_says_so(optimizer, tmp_path, monkeypatch, capsys):
    # Every evaluation diverges, so the surrogates never get the two results
    # they need; random search does not fit them and goes on.
    problem = build_problem(load_config(str(GOLDEN / "configs" / "branin.yaml")))

    def diverging(x, z, rng):
        raise TrainingDivergedError(0)

    monkeypatch.setattr(config, "build_problem", lambda cfg: dataclasses.replace(problem, evaluate=diverging))
    argv = ["run", "--config", str(GOLDEN / "configs" / "branin.yaml"), "--optimizer", optimizer]
    assert cli.main(argv + ["--seed", "3", "--out", str(tmp_path)]) == 0
    err = capsys.readouterr().err
    note = (
        "note: seed 3 stopped before its first iteration: 0 of 3 initial evaluations succeeded, "
        "and the surrogates need two\n"
    )
    assert err == ("" if optimizer == "random" else note)
    rows = (tmp_path / "trace_seed3.csv").read_text(encoding="utf-8").splitlines()[2:]
    assert len(rows) == (7 if optimizer == "random" else 3)


# NSGA-II's initial population at seed 0 and pop 8, as the branin.yaml
# runs have always drawn it.
NSGA2_FIRST_X = [
    (0.6369616873214543, 0.2697867137638703),
    (0.04097352393619469, 0.016527635528529094),
    (0.8132702392002724, 0.9127555772777217),
    (0.6066357757671799, 0.7294965609839984),
    (0.5436249914654229, 0.9350724237877682),
    (0.8158535541215322, 0.002738500170148095),
    (0.8574042765875693, 0.033585575305464355),
    (0.7296554464299441, 0.17565562060255901),
]


def test_nsga2_spends_a_budget_below_two_populations(tmp_path):
    # 15 evaluations buy no generation; all of them are still made, the
    # first 8 at the designs of NSGA-II's initial population.
    argv = ["run", "--config", str(GOLDEN / "configs" / "branin.yaml"), "--optimizer", "nsga2"]
    assert cli.main(argv + ["--budget", "30", "--out", str(tmp_path)]) == 0
    rows = list(csv.DictReader((tmp_path / "trace_seed0.csv").read_text(encoding="utf-8").splitlines()[1:]))
    assert len(rows) == 15
    assert all(r["ok"] == "1" and r["z1"] == r["z2"] == "1.0" for r in rows)
    assert [(float(r["x0"]), float(r["x1"])) for r in rows[:8]] == NSGA2_FIRST_X


def test_parallel_seeds_match_the_serial_golden(tmp_path):
    # Each worker gets the config object; only the config hash header differs.
    cfg = tmp_path / "cfg.yaml"
    text = (GOLDEN / "configs" / "reram.yaml").read_text(encoding="utf-8")
    cfg.write_text(text + "seeds: [0, 1]\nworkers: 2\n", encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("trace_seed0.csv", "front_seed0.csv"):
        lines = (out / name).read_text(encoding="utf-8").splitlines()
        golden = (GOLDEN / "reram-cf-mesmo" / name).read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("# config_hash=") and lines[1:] == golden[1:]
    assert (out / "trace_seed1.csv").is_file()


@pytest.mark.parametrize("z,epochs,accuracy", [(0.0, 1, 0.3125), (1.0, 2, 0.5)], ids=["z0", "z1"])
def test_train_one_prints_the_accuracy_that_evaluate_scores(z, epochs, accuracy, capsys):
    args = ["--config", str(GOLDEN / "configs" / "reram.yaml"), "--res-cell", "2", "--xbar", "32"]
    args += ["--freq", "2e8", "--temp", "320", "--seed", "3", "--z", repr(z)]
    assert cli.main(["train-one", *args]) == 0
    trained = json.loads(capsys.readouterr().out)
    assert cli.main(["evaluate", *args]) == 0
    evaluated = json.loads(capsys.readouterr().out)
    assert trained["epochs"] == epochs and len(trained["per_run_accuracies"]) == 2
    assert trained["accuracy"] == np.mean(trained["per_run_accuracies"]) == evaluated["y"][0] == accuracy


def test_noise_hist_leaves_disabled_sources_at_zero(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("noise: {thermal: false, rtn: false, prog: false}\n", encoding="utf-8")
    args = ["--config", str(cfg), "--samples", "50", "--bins", "3", "--levels", "1"]
    assert cli.main(["noise-hist", *args]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()[1:]))
    hist = {}
    for r in rows:
        hist.setdefault(r["source"], []).append((float(r["bin_lo"]), float(r["bin_hi"]), int(r["count"])))
    for source in ("thermal", "rtn", "prog"):
        # All-zero draws: numpy centres the bins on 0, so the middle one of three holds them all.
        assert [count for *_, count in hist[source]] == [0, 50, 0]
        assert hist[source][1][0] < 0.0 < hist[source][1][1]
    assert max(count for *_, count in hist["shot"]) < 50
    assert hist["total"] == hist["shot"]


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--x", "0.5,0.5,0.5"], "--x needs 2 values"),
        (["--x", "0.5"], "--x needs 2 values"),
        (["--x", "3,-2"], "--x values must lie in [0, 1]"),
        (["--x", "0.5,nan"], "--x values must lie in [0, 1]"),
        (["--x", "0.5,0.5", "--z", "1.7"], "--z values must lie in [0, 1]"),
        (["--x", "0.5,0.5", "--z", "nan"], "--z values must lie in [0, 1]"),
    ],
)
def test_evaluate_rejects_inputs_off_the_unit_box(flags, message, capsys):
    config = str(GOLDEN / "configs" / "branin.yaml")
    assert cli.main(["evaluate", "--config", config, *flags]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.strip() == message


def test_evaluate_rejects_a_list_of_fidelities_as_a_usage_error(capsys):
    # An evaluation has one fidelity level, shared by both branin objectives.
    config = str(GOLDEN / "configs" / "branin.yaml")
    with pytest.raises(SystemExit) as exit_:
        cli.main(["evaluate", "--config", config, "--x", "0.5,0.5", "--z", "0.5,1"])
    out, err = capsys.readouterr()
    assert exit_.value.code == 2 and out == "" and "--z" in err


def test_evaluate_accepts_the_unit_box_corners(capsys):
    config = str(GOLDEN / "configs" / "branin.yaml")
    for z in (0.0, 1.0):
        assert cli.main(["evaluate", "--config", config, "--x", "0,1", "--z", repr(z)]) == 0
        assert json.loads(capsys.readouterr().out)["z"] == [z, z]


@pytest.mark.parametrize(
    "flag,value", [("--levels", "0"), ("--samples", "0"), ("--bins", "0"), ("--bins", "-3")]
)
def test_noise_hist_rejects_counts_below_one(flag, value, tmp_path, capsys):
    args = ["--res-cell", "2", "--samples", "30", "--bins", "3", flag, value]
    assert cli.main(["noise-hist", *args]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.strip() == f"{flag} must be >= 1, got {value}"
    assert cli.main(["noise-hist", *args, "--out", str(tmp_path / "hist.csv")]) == 1
    assert not (tmp_path / "hist.csv").exists()


def test_run_writes_nothing_when_the_problem_cannot_be_built(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"problem: {{name: reram}}\nresna: {{csv_path: {missing}}}\n", encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert str(missing) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_rejects_a_negative_seed_before_writing(tmp_path, capsys):
    argv = ["run", "--config", str(GOLDEN / "configs" / "branin.yaml"), "--seed", "-1"]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert "seeds must be distinct and >= 0, got [-1]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["evaluate", "train-one", "noise-hist"])
def test_negative_seed_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main([command, "--seed", "-1"])
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "argument --seed: must be >= 0, got -1" in err
