"""Cost-aware multi-objective design exploration for noisy ReRAM crossbars.

The package couples a stochastic crossbar simulator and a noise-aware MLP
trainer to an information-theoretic multi-objective optimizer that selects
(design, fidelity) pairs by entropy gain per unit evaluation cost.

Every public name lives in its module and is imported from there, as in
``from reramopt.crossbar import mvm``; the package itself re-exports none.
"""

__version__ = "0.1.0"
