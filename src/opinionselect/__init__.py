"""Observation subset selection for noisy DeGroot dynamics with stubborn agents."""

__version__ = "0.1.0"

from .errors import (BudgetExceededError, GraphError, NumericalError,
                     ReachabilityError)
from .graph import (SocialGraph, generate_cycle, generate_random_reachable,
                    generate_random_regular, generate_watts_strogatz,
                    load_graph, normalize, save_graph)
from .equilibrium import NoiseModel, moments
from .objective import estimator_coefficients, f_score, var_y
from .selector import (SelectionResult, exact_curve, exact_select,
                       greedy_select)
from .centrality import (bonacich, eta_scores, intercentrality,
                         ranking_report, var_reduction_scores)
