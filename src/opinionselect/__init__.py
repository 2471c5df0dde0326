"""Observation subset selection for noisy DeGroot dynamics with stubborn agents."""

__version__ = "0.1.0"

from .errors import (BudgetExceededError, GraphError, NumericalError,
                     ReachabilityError)
from .graph import (NetworkOperators, SocialGraph, generate_cycle,
                    generate_random_reachable, generate_random_regular,
                    generate_watts_strogatz, load_graph, normalize, save_graph,
                    validate_reachability)
from .equilibrium import (EquilibriumMoments, NoiseModel, covariance_lyapunov,
                          mean, moments)
from .objective import estimator_coefficients, f_score, var_y
from .selector import (EXACT_BUDGET, AuditReport, GuaranteeReport,
                       SelectionResult, check_exact_budget, exact_curve,
                       exact_select, greedy_select, guarantee_check,
                       marginal_gain, submodularity_audit)
from .centrality import (NodeScores, RankingReport, bonacich, eta_scores,
                         intercentrality, kendall_tau_b, ranking_report,
                         var_reduction_scores)
from .simulate import (EmpiricalMoments, SimConfig, empirical_moments,
                       horizon_for, simulate)
