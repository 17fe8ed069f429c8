"""Nonlinear diffusion on infinite weighted graphs.

Simulation and verification laboratory for the Cauchy problem of the
degenerate graph diffusion ``du/dt = Delta_p u`` (p > 2): neighbor-oracle
graphs, the discrete p-Laplacian and its energies, Faber-Krahn profiles
with their scaling functions, a truncated-ball method-of-lines solver, and
a harness that checks decay, propagation and moment estimates by ratio
boundedness and exponent fits.
"""

from .fields import Field, ball_indicator_field, delta_field
from .graphs import (Cutoff, FiniteGraph, GraphGenerator, Region,
                     UnknownVertexError, ball, ball_measure_profile,
                     complete_graph, distance,
                     generator_from_edges, generator_from_file,
                     lattice_generator, product_generator,
                     region_from_vertices)
from .operators import (apply_plaplacian, dirichlet_energy, monotonicity_check,
                        monotonicity_gamma, summation_by_parts_residual)
from .faberkrahn import (FkProfile, ball_radius_inverse, check_assumptions,
                         check_ball_measure_bound, check_psi_scaling_monotone,
                         connected_subsets_containing, dirichlet_p_eigenvalue,
                         eigenvalue_grid_oracle, fk_profile_bruteforce,
                         linf_lq_bound, psi, psi_inverse, rayleigh_quotient)
from .solver import (SolverConfig, SolverError, Trajectory, comparison_check,
                     log_instants, mass_radius, moment, solve_cauchy,
                     solve_truncated)
from .estimates import (BoundCheck, ExponentFit, PowerLawSpec,
                        check_entropy_bound, check_lower_bound,
                        check_moment_bound, check_slow_decay, check_sup_bound,
                        decay_exponent, fit_decay_exponent, fit_loglog,
                        fit_propagation_exponent, minimal_balance_radius,
                        propagation_exponent, slow_decay_T, slow_decay_exponent)

__version__ = "0.1.0"
