import re

import pytest

from reramopt import cli
from reramopt.config import (
    CampaignConfig,
    ConfigError,
    build_mesmo_config,
    config_hash,
    emit_defaults,
    parse_config,
)
from reramopt.pareto import Nsga2Config

# config_hash of the default config; artifacts embed it, so it must not drift.
DEFAULT_HASH = "a1a1b06b5661c66f"


def test_emit_defaults_round_trips():
    cfg = parse_config(emit_defaults())
    assert cfg == CampaignConfig() == parse_config("")


def test_default_hash_is_pinned():
    assert config_hash(CampaignConfig()) == DEFAULT_HASH
    assert config_hash(parse_config(emit_defaults())) == DEFAULT_HASH


@pytest.mark.parametrize(
    "text,path",
    [
        ("bogus: 1", "'bogus'"),
        ("gp: {bogus: 1}", "'gp.bogus'"),
        ("budget: {max_iterations: 1.5}", "'budget.max_iterations'"),
        ("nsga2: {mutation_prob: high}", "'nsga2.mutation_prob'"),
        ("space: {xbar_sizes: [32, big]}", "'space.xbar_sizes[1]'"),
        ("resna: {voting: 1}", "'resna.voting'"),
        ("nsga2: [1, 2]", "'nsga2' must be a mapping"),
        # The space's corner designs are built with the default device, then
        # with the configured one; the first to fail names its section.
        ("space: {xbar_sizes: [256]}", "'space': xbar_size"),
        ("space: {temperature_bounds_k: [300, 500]}", "'space': temperature_k"),
        ("device: {bit_quan: 2}", "'device': res_cell (3) exceeds bit_quan (2)"),
        ("device: {v_r: 0}", "'device': v_r"),
        ("device: {bit_quan: 9}", "'device': need 1 <= bit_quan <= 8"),
        ("device: {res_dac: 0}", "'device': need 1 <= bit_quan <= 8"),
        ("device: {res_adc: 0}", "'device': need 1 <= bit_quan <= 8"),
        ("noise: {rtn_p_occupancy: 1.5}", "'noise': rtn_p_occupancy"),
        # resna: and hw: are MlpSpec and HwCostParams, checked at parse time.
        ("resna: {vote_copies: 2}", "'resna': vote_copies"),
        ("resna: {n_classes: 20}", "'resna': n_classes (20) must equal widths[-1] (10)"),
        ("hw: {columns_per_adc: 0}", "'hw': columns_per_adc"),
        # mesmo: sizes must allow at least one sample, candidate, level, feature
        # and inner individual; z=0 must be the cheapest fidelity.
        ("mesmo: {n_front_samples: 0}", "'mesmo': n_front_samples must be >= 1, got 0"),
        ("mesmo: {pool_size: 0}", "'mesmo': pool_size must be >= 1, got 0"),
        ("mesmo: {fidelity_levels: 0}", "'mesmo': fidelity_levels must be >= 1, got 0"),
        ("mesmo: {rff_features: 0}", "'mesmo': rff_features must be >= 1, got 0"),
        ("mesmo: {inner_pop: 0}", "'mesmo': inner_pop must be >= 1, got 0"),
        ("mesmo: {inner_gens: -1}", "'mesmo': inner_gens must be >= 0, got -1"),
        ("resna: {min_epochs: 4, max_epochs: 1}", "'resna': need 1 <= min_epochs (4) <= max_epochs (1)"),
        ("resna: {min_epochs: 0}", "'resna': need 1 <= min_epochs (0) <= max_epochs (100)"),
    ],
)
def test_errors_carry_the_dotted_path(text, path):
    with pytest.raises(ConfigError, match=re.escape(path)):
        parse_config(text)


@pytest.mark.parametrize("text", ["budget: {max_iterations: 0}", "budget: {total_cost: 0}"])
def test_runtime_class_rejections_become_config_errors(text):
    with pytest.raises(ConfigError, match="'budget'"):
        parse_config(text)


def test_inner_nsga2_keeps_the_operator_constants():
    cfg = parse_config("nsga2: {crossover_eta: 7.0}\nmesmo: {inner_pop: 5}")
    assert build_mesmo_config(cfg).inner_nsga2 == Nsga2Config(pop=5, gens=40, crossover_eta=7.0)


@pytest.mark.parametrize(
    "text,extra",
    [
        ("budget: {max_iterations: 0}\n", []),
        ("", ["--budget", "-1"]),
        ("", ["--budget", "0"]),
        ("problem: {name: reram}\nspace: {xbar_sizes: [256]}\n", []),
        ("problem: {name: reram}\ndevice: {bit_quan: 2}\n", []),
        ("noise: {rtn_p_occupancy: 1.5}\n", []),
        ("problem: {name: reram}\nresna: {vote_copies: 2}\n", []),
        ("problem: {name: reram}\nresna: {n_classes: 20}\n", []),
        ("problem: {name: reram}\nhw: {columns_per_adc: 0}\n", []),
        ("mesmo: {n_front_samples: 0}\n", []),
        ("mesmo: {pool_size: 0}\n", []),
        ("mesmo: {fidelity_levels: 0}\n", []),
        ("mesmo: {rff_features: 0}\n", []),
        ("mesmo: {inner_pop: 0}\n", []),
        ("mesmo: {inner_gens: -1}\n", []),
        ("problem: {name: reram}\nresna: {min_epochs: 4, max_epochs: 1}\n", []),
        ("problem: {name: reram}\nresna: {min_epochs: 0}\n", []),
    ],
)
def test_run_rejects_a_bad_budget_before_writing(tmp_path, capsys, text, extra):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)] + extra) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()
