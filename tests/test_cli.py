import csv
from pathlib import Path

import pytest

from reramopt import cli
from reramopt.config import build_problem, load_config, parse_config

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
