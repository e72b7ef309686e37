"""Equilibrium and welfare analysis for the two-server activation game.

Two servers with success probabilities ``(p1, p2)`` on [0, 1] decide
whether to be active at one-off cost ``c``; a completed task pays 1 to
both.  The package covers the game's three information/cooperation
regimes and the regulations that reconcile them:

* ``cooperative`` (case I)  -- full communication and cooperation: serve
  with the better server iff ``max(p1, p2) > c/2``.
* ``bayesian`` (case II)    -- no communication: cutoff strategies, unique
  equilibrium ``(sqrt(c), sqrt(c))``, the c/2-subsidy regulation, and the
  fixed point ``h * F(h) = c`` for general state distributions.
* ``full_info`` (case III)  -- communication without cooperation:
  equilibrium regions (including a contention region with two pure and one
  unstable mixed equilibrium), best/worst equilibrium welfare, and the
  side-payment regulation restoring the cooperative optimum.

``payoffs`` holds the stage-game tables; ``oracle`` holds the independent
verification engines (Monte Carlo, quadrature, grid search) every closed
form is tested against; ``cli`` exposes the ``servergame`` command.
"""

from types import ModuleType as _ModuleType

from .bayesian import (
    Distribution,
    ThresholdPair,
    ThresholdWelfare,
    best_response_fixed_point,
    best_response_threshold,
    nash_threshold,
    nash_threshold_general,
    optimal_thresholds,
    power_distribution,
    uniform_distribution,
    welfare_thresholds,
)
from .cooperative import optimal_profile, pointwise_welfare, welfare_case1
from .full_info import (
    EquilibriumKind,
    EquilibriumSet,
    classify_state,
    mixed_equilibrium,
    regulated_equilibrium,
    select_equilibrium,
    welfare_case3_max,
    welfare_case3_min,
)
from .oracle import (
    DeviationReport,
    Estimate,
    epsilon_nash_check,
    grid_best_response,
    mc_welfare,
    quadrature,
    threshold_welfare_by_quadrature,
)
from .payoffs import (
    ACTIVE,
    INACTIVE,
    Action,
    PayoffPair,
    Profile,
    State,
    payoff,
    payoff_case2_regulated,
    payoff_case3_regulated,
    payoff_mixed,
)

__version__ = "0.1.0"

# every public name imported above; the submodules are reached as attributes
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
