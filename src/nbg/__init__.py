"""Neighbourhood balancing games.

A toolkit for nonatomic games where a unit of divisible mass spreads
over the vertices of a graph and the cost at a vertex depends on its
own load plus weighted loads of its in-neighbours. Provides exact
equilibrium verification and solving, deviation-robustness certificates,
potential methods for symmetric games, kernel correspondence for
digraph-induced games, social-cost metrics, and closed forms for paths,
cycles, complete bipartite graphs and stars.
"""

from .errors import (DimensionMismatchError, InputFormatError,
                     MassMismatchError, NbgError, UnsupportedGameError)
from .numeric import (FLOAT_TOLERANCE, PHI, SQRT5, QuadExt, all_exact,
                      auto_tolerance, format_scalar, is_exact_scalar,
                      parse_scalar, quadext, scalar_to_json, to_float)
from .linalg import (LinearSolution, determinant, matvec, rref,
                     solve_linear_system, solve_with_determinant)
from .graphs import (Digraph, UndirectedGraph, digraph, load_digraph,
                     save_digraph, undirected_graph)
from .games import (CHARGE_TOLERANCE, CLASS_LADDER, MASS_TOLERANCE,
                    Classification, Game, InfluenceMatrix, MassDistribution,
                    OpaqueCost, PolynomialCost, affine, class_conditions,
                    classify, constant, cost_vector, distribution,
                    influence_from_triples, opaque, polynomial,
                    underlying_graph, validate_game)
from .equilibrium import (EQUILIBRIUM_TOLERANCE, DynamicsResult,
                          EquilibriumFamily, EquilibriumPoint,
                          EquilibriumReport, IterationResult,
                          StrongnessCertificate, affine_coefficients,
                          best_response_dynamics, brouwer_iterate,
                          brouwer_map, family_cost_range,
                          solve_affine_by_supports, verify_delta_strong,
                          verify_equilibrium)
from .potential import (PotentialValue, is_local_minimum, minimize_potential,
                        potential)
from .kernel_structure import (CorrespondenceReport, Kernel, digraph_to_nbg,
                               enumerate_kernels, is_dominating, is_kernel,
                               is_stable, kernel_to_strong_equilibrium,
                               satisfies_correspondence_hypotheses,
                               strong_supports_match_kernels)
from .metrics import (OptimumResult, PriceReport, SocialCostPair, cost_degree,
                      gamma_for_class, min_social_cost, price_report,
                      social_costs)
from .closed_forms import (FAMILY_KINDS, RuleViolation, ScanReport, ScanRow,
                           UniformCostSystem, bipartite_closed_form,
                           check_rules, conjecture_scan, cycle_closed_form,
                           cycle_determinant, cycle_matrix, make_family,
                           path_closed_form, path_determinant, path_matrix,
                           star_closed_form, uniform_cost_matrix,
                           uniform_cost_solve)
from .instances import (braess_game, dilemma_game, directed_triangle,
                        no_equilibrium_game, potential_maximum_game,
                        stability_gap_game, three_equilibria_game,
                        unbounded_anarchy_game, unique_nonstrong_game)
from .serialize import (game_from_dict, game_to_dict, load_distribution,
                        load_game, parse_masses, save_distribution, save_game)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
