"""Cost-aware multi-objective design exploration for noisy ReRAM crossbars.

The package couples a stochastic crossbar simulator and a noise-aware MLP
trainer to an information-theoretic multi-objective optimizer that selects
(design, fidelity) pairs by entropy gain per unit evaluation cost.
"""

from .config import CampaignConfig, ConfigError, emit_defaults, load_config, parse_config
from .crossbar import MappedLayer, map_weights, mvm, program, quantize
from .design_space import (
    DEFAULT_SPACE,
    DesignSpace,
    ReramDesign,
    fidelity_grid,
)
from .gp import CfGpModel, GpConfig, GpParams, SampledFunction, fit, posterior, sample_function
from .mesmo import (
    Budget,
    CampaignResult,
    MesmoConfig,
    entropy_term,
    sample_pareto_fronts,
    search,
    select_next,
)
from .noise import (
    NoiseSpec,
    prog_sigma,
    rtn_sample,
    sample_read,
    sample_write_noise,
    shot_sigma,
    thermal_sigma,
)
from .objectives import (
    HwCostParams,
    MooProblem,
    NetworkSpec,
    hw_area,
    hw_energy,
    hw_latency,
    reram_problem,
    synthetic_cf_problem,
)
from .pareto import (
    Nsga2Config,
    dominated_hypervolume,
    non_dominated_sort,
    nsga2,
    pareto_front,
)
from .resna import (
    Dataset,
    MlpSpec,
    TrainingDivergedError,
    TrainState,
    accuracy_objective,
    infer,
    majority_vote,
    make_dataset,
    train,
)

__version__ = "0.1.0"
