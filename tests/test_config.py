import dataclasses
import re

import pytest

from reramopt import cli
from reramopt.config import (
    CampaignConfig,
    ConfigError,
    config_hash,
    emit_defaults,
    parse_config,
)

# config_hash of the default config; artifacts embed it, so it must not drift.
DEFAULT_HASH = "b5e517b1f61a66a5"


def test_emit_defaults_round_trips():
    cfg = parse_config(emit_defaults())
    assert cfg == CampaignConfig() == parse_config("")


def test_default_hash_is_pinned():
    assert config_hash(CampaignConfig()) == DEFAULT_HASH
    assert config_hash(parse_config(emit_defaults())) == DEFAULT_HASH


def test_exponent_floats_are_numbers():
    # YAML 1.1 reads an exponent with no sign or no dot as a string.
    assert parse_config("budget: {total_cost: 1e9}").budget.total_cost == 1e9
    assert parse_config("budget: {total_cost: 2.5E-1}").budget.total_cost == 0.25
    same = parse_config("space: {freq_bounds_hz: [1.0e7, 1.0e9]}")
    assert same == CampaignConfig() and config_hash(same) == DEFAULT_HASH


def test_quoted_exponent_stays_a_string():
    with pytest.raises(ConfigError, match="'budget.total_cost' must be a number"):
        parse_config("budget: {total_cost: '1e9'}")


@pytest.mark.parametrize(
    "text,path",
    [
        ("bogus: 1", "'bogus'"),
        ("optimizer: bogus", "optimizer must be one of ('cf-mesmo', 'mesmo', 'random', 'nsga2'), got 'bogus'"),
        ("problem: {name: bogus}", "problem.name must be one of ('reram', 'branin-currin-cf', 'zdt1'), got 'bogus'"),
        ("workers: 0", "workers must be >= 1"),
        ("seeds: []", "seeds must not be empty"),
        ("gp: {bogus: 1}", "'gp.bogus'"),
        ("budget: {max_iterations: 1.5}", "'budget.max_iterations'"),
        ("nsga2: {mutation_prob: high}", "'nsga2.mutation_prob'"),
        ("space: {xbar_sizes: [32, big]}", "'space.xbar_sizes[1]'"),
        ("noise: {thermal: 1}", "'noise.thermal' must be a boolean"),
        ("nsga2: [1, 2]", "'nsga2' must be a mapping"),
        # The space's corner designs are built with the default device, then
        # with the configured one; the first to fail names its section.
        ("space: {xbar_sizes: [256]}", "'space': xbar_size"),
        ("space: {temperature_bounds_k: [300, 500]}", "'space': temperature_k"),
        ("device: {bit_quan: 2}", "'device': res_cell (3) exceeds bit_quan (2)"),
        ("device: {v_r: 0}", "'device': v_r"),
        ("device: {bit_quan: 9}", "'device': need 1 <= bit_quan <= 8"),
        ("device: {res_dac: 0}", "'device': need 1 <= bit_quan <= 8"),
        # Activations are quantized to bit_quan bits, so the DAC must resolve them.
        ("device: {res_dac: 4}", "'device': res_dac (4) is narrower than bit_quan (8)"),
        ("device: {res_adc: 0}", "'device': need 1 <= bit_quan <= 8"),
        ("noise: {rtn_p_occupancy: 1.5}", "'noise': rtn_p_occupancy"),
        # resna: and hw: are MlpSpec and HwCostParams, checked at parse time.
        ("resna: {vote_copies: 2}", "'resna': vote_copies"),
        ("hw: {columns_per_adc: 0}", "'hw': columns_per_adc"),
        # Values that break training or inference mid-run, or that quietly
        # turn a noise source off or make a cost negative, fail at parse time.
        ("resna: {widths: [8, 0, 4]}", "'resna': widths must all be >= 1, got [8, 0, 4]"),
        ("resna: {batch_size: 0}", "'resna': batch_size must be >= 1, got 0"),
        ("resna: {n_train: 0}", "'resna': n_train must be >= 1, got 0"),
        ("resna: {n_test: 0}", "'resna': n_test must be >= 1, got 0"),
        ("resna: {infer_runs: 0}", "'resna': infer_runs must be >= 1, got 0"),
        ("resna: {lr: .nan}", "'resna': lr must be positive and finite, got nan"),
        ("resna: {lr: 0}", "'resna': lr must be positive and finite, got 0.0"),
        ("resna: {lr: .inf}", "'resna': lr must be positive and finite, got inf"),
        ("resna: {momentum: 1.0}", "'resna': momentum must lie in [0, 1), got 1.0"),
        ("resna: {momentum: -0.1}", "'resna': momentum must lie in [0, 1), got -0.1"),
        ("resna: {center_spread: .nan}", "'resna': center_spread must be finite, got nan"),
        ("resna: {classifier_freq_hz: 5.0}", "'resna': classifier operating point: freq_hz 5.0 outside"),
        ("resna: {classifier_temperature_k: 500.0}", "'resna': classifier operating point: temperature_k 500.0"),
        ("device: {sigma_prog: .nan}", "'device': sigma_prog must be finite and >= 0, got nan"),
        ("device: {sigma_prog: -0.1}", "'device': sigma_prog must be finite and >= 0, got -0.1"),
        ("device: {v_r: .nan}", "'device': v_r must be positive and finite, got nan"),
        ("device: {v_r: .inf}", "'device': v_r must be positive and finite, got inf"),
        ("noise: {rtn_amp_a: .nan}", "'noise': RTN amplitude coefficients must be finite and >= 0, got [nan, 0.002]"),
        ("noise: {rtn_amp_b: .inf}", "'noise': RTN amplitude coefficients must be finite and >= 0, got [0.0004, inf]"),
        ("hw: {energy_per_adc_j: -1.0}", "'hw': energy_per_adc_j must be finite and >= 0, got -1.0"),
        ("hw: {area_per_cell_mm2: .nan}", "'hw': area_per_cell_mm2 must be finite and >= 0, got nan"),
        # mesmo: sizes must allow at least one sample, candidate, level and
        # feature; z=0 must be the cheapest fidelity.
        ("mesmo: {n_front_samples: 0}", "'mesmo': n_front_samples must be >= 1, got 0"),
        ("mesmo: {pool_size: 0}", "'mesmo': pool_size must be >= 1, got 0"),
        ("mesmo: {fidelity_levels: 0}", "'mesmo': fidelity_levels must be >= 1, got 0"),
        ("mesmo: {rff_features: 0}", "'mesmo': rff_features must be >= 1, got 0"),
        ("resna: {min_epochs: 4, max_epochs: 1}", "'resna': need 1 <= min_epochs (4) <= max_epochs (1)"),
        ("resna: {min_epochs: 0}", "'resna': need 1 <= min_epochs (0) <= max_epochs (100)"),
        # cf-mesmo and mesmo fit surrogates to the initial design; random does not.
        ("mesmo: {n_init: 1}", "'mesmo': n_init must be >= 2 for cf-mesmo, got 1"),
        ("optimizer: mesmo\nmesmo: {n_init: 0}", "'mesmo': n_init must be >= 2 for mesmo, got 0"),
        ("optimizer: random\nmesmo: {n_init: -3}", "'mesmo': n_init must be >= 0, got -3"),
        # gp: bounds and nsga2: operator constants are checked before any fit
        # or solve, not when the first seed reaches them.
        ("gp: {lengthscale_bounds: [2.0, 0.05]}", "'gp': lengthscale_bounds must be a finite pair"),
        ("gp: {noise_var_bounds: [-1.0, 0.1]}", "'gp': noise_var_bounds must be a finite pair"),
        ("gp: {signal_var_bounds: [0.0, 20.0]}", "'gp': signal_var_bounds must be a finite pair"),
        ("gp: {signal_var_bounds: [0.05, .inf]}", "'gp': signal_var_bounds must be a finite pair"),
        ("gp: {lengthscale_bounds: [0.05]}", "'gp': lengthscale_bounds must be a finite pair"),
        ("nsga2: {pop: 0}", "'nsga2': pop must be >= 1, got 0"),
        ("nsga2: {crossover_eta: -1.0}", "'nsga2': crossover_eta must be >= 0, got -1.0"),
        ("nsga2: {mutation_eta: -1.0}", "'nsga2': mutation_eta must be >= 0, got -1.0"),
        ("nsga2: {crossover_prob: 1.5}", "'nsga2': crossover_prob must lie in [0, 1], got 1.5"),
        ("nsga2: {mutation_prob: -0.1}", "'nsga2': mutation_prob must lie in [0, 1], got -0.1"),
        # Hidden layers have one copy, the classifier always votes, every
        # batch draws fresh programming noise, the class count is widths[-1],
        # the outer NSGA-II sizes its generations to the budget and front
        # sampling maximizes each sampled function directly: these keys are
        # gone.
        ("resna: {hidden_copies: 2}", "unknown config key 'resna.hidden_copies'"),
        ("resna: {voting: 1}", "'resna.voting'"),
        ("resna: {noise_resample: per_epoch}", "unknown config key 'resna.noise_resample'"),
        ("resna: {n_classes: 10}", "unknown config key 'resna.n_classes'"),
        ("nsga2: {gens: 3}", "unknown config key 'nsga2.gens'"),
        ("mesmo: {inner_pop: 0}", "unknown config key 'mesmo.inner_pop'"),
        ("mesmo: {inner_gens: -1}", "unknown config key 'mesmo.inner_gens'"),
        # A search limit below one would turn the hyperparameter search or
        # its refits off.
        ("gp: {n_restarts: -4}", "'gp': n_restarts must be >= 1, got -4"),
        ("gp: {n_restarts: 0}", "'gp': n_restarts must be >= 1, got 0"),
        ("gp: {max_opt_iter: 0}", "'gp': max_opt_iter must be >= 1, got 0"),
        ("mesmo: {gp_refit_every: 0}", "'mesmo': gp_refit_every must be >= 1, got 0"),
        ("mesmo: {gp_refit_every: -3}", "'mesmo': gp_refit_every must be >= 1, got -3"),
        # A repeated seed would write its trace rows twice and weigh its
        # curve twice in the median; a negative one fails in SeedSequence.
        ("seeds: [1, 1]", "seeds must be distinct and >= 0, got [1, 1]"),
        ("seeds: [0, -1]", "seeds must be distinct and >= 0, got [0, -1]"),
        # An empty level set has no design to decode, and an empty or
        # inverted bound interval cannot be encoded onto [0, 1].
        ("space: {res_cell_levels: []}", "'space': res_cell_levels must be non-empty and distinct, got []"),
        ("space: {xbar_sizes: [32, 64, 32]}", "'space': xbar_sizes must be non-empty and distinct"),
        ("space: {freq_bounds_hz: [1.0e9, 1.0e7]}", "'space': freq_bounds_hz must be a (lo, hi) pair with lo < hi"),
        ("space: {freq_bounds_hz: [1.0e7]}", "'space': freq_bounds_hz must be a (lo, hi) pair with lo < hi"),
        ("space: {temperature_bounds_k: [350.0, 350.0]}", "'space': temperature_bounds_k must be a (lo, hi) pair"),
    ],
)
def test_errors_carry_the_dotted_path(text, path):
    with pytest.raises(ConfigError, match=re.escape(path)):
        parse_config(text)


@pytest.mark.parametrize("change", [{"seeds": (0, 0)}, {"optimizer": "bogus"}], ids=["seeds", "optimizer"])
def test_replace_checks_the_campaign_config(change):
    # CLI overrides build their config with dataclasses.replace.
    with pytest.raises(ConfigError):
        dataclasses.replace(parse_config(""), **change)


def test_campaign_errors_reach_the_user_unwrapped():
    # parse_config adds no section prefix to CampaignConfig's own errors.
    with pytest.raises(ConfigError, match=r"^seeds must not be empty$"):
        parse_config("seeds: []")


@pytest.mark.parametrize(
    "text",
    [
        "budget: {max_iterations: 0}",
        "budget: {total_cost: 0}",
        "budget: {total_cost: .nan}",
        "budget: {total_cost: .inf}",
        "budget: {total_cost: -.inf}",
        "budget: {converge_window: 0}",
        "budget: {converge_window: -3}",
        "budget: {converge_eps: .nan}",
        "budget: {converge_eps: -0.1}",
    ],
)
def test_runtime_class_rejections_become_config_errors(text):
    with pytest.raises(ConfigError, match="'budget'"):
        parse_config(text)


@pytest.mark.parametrize("optimizer", ["random", "nsga2"])
def test_optimizers_without_surrogates_need_no_initial_design(optimizer):
    assert parse_config(f"optimizer: {optimizer}\nmesmo: {{n_init: 0}}").mesmo.n_init == 0


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
        ("mesmo: {n_init: 1}\n", []),
        ("optimizer: random\nmesmo: {n_init: 1}\n", ["--optimizer", "mesmo"]),
        ("optimizer: random\nmesmo: {n_init: -3}\n", []),
        ("gp: {lengthscale_bounds: [2.0, 0.05]}\n", []),
        ("gp: {noise_var_bounds: [-1.0, 0.1]}\n", []),
        ("gp: {signal_var_bounds: [0.0, 20.0]}\n", []),
        ("optimizer: nsga2\nnsga2: {crossover_eta: -1.0}\n", []),
        ("optimizer: nsga2\nnsga2: {mutation_eta: -1.0}\n", []),
        ("optimizer: nsga2\nnsga2: {pop: 0}\n", []),
        ("gp: {n_restarts: -4}\n", []),
        ("gp: {max_opt_iter: 0}\n", []),
        ("mesmo: {gp_refit_every: 0}\n", []),
        ("", ["--budget", "nan"]),
        ("", ["--budget", "inf"]),
        ("problem: {name: reram}\nspace: {res_cell_levels: []}\n", []),
        ("problem: {name: reram}\nspace: {freq_bounds_hz: [1.0e9, 1.0e7]}\n", []),
        ("problem: {name: reram}\nspace: {temperature_bounds_k: [350.0, 350.0]}\n", []),
        ("problem: {name: reram}\noptimizer: random\nresna: {infer_runs: 0}\n", []),
        ("problem: {name: reram}\noptimizer: random\nresna: {batch_size: 0}\n", []),
        ("problem: {name: reram}\nresna: {n_test: 0}\n", []),
        ("problem: {name: reram}\nresna: {n_train: 0}\n", []),
        ("problem: {name: reram}\nresna: {classifier_freq_hz: 5.0}\n", []),
        ("problem: {name: reram}\ndevice: {sigma_prog: .nan}\n", []),
        ("problem: {name: reram}\nnoise: {rtn_amp_a: .nan}\n", []),
        ("problem: {name: reram}\nhw: {energy_per_adc_j: -1.0}\n", []),
    ],
)
def test_run_rejects_a_bad_budget_before_writing(tmp_path, capsys, text, extra):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)] + extra) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()
