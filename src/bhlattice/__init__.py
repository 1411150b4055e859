"""Implicit-Euler simulation of the damped Burgers-Huxley lattice system:
attractor approximation, finite-dimensional truncation, and pullback random
attractors driven by Ornstein-Uhlenbeck noise."""

# defined before the submodule imports, which read it
__version__ = "0.1.0"

from .errors import (BhLatticeError, ConfigError, DissipativityViolation,
                     HorizonTooShort, NoConvergence, NonFinite, NotStabilized,
                     SpaceMismatch, StepTooLarge)
from .lattice import (DerivedConstants, LatticeWindow, Params, cutoff_xi,
                      d_minus, d_plus, derived_constants, l_bound,
                      lambda_star, lambda_star_coeffs, laplacian, m_bound,
                      norm_lp, tail_mass, vector_field)
from .stepping import (StepConfig, StepInfo, Trajectory, global_error,
                       implicit_step_info, local_error, reference_flow,
                       reference_flows, run_trajectory)
from .truncation import (TruncatedState, d_minus_m, d_minus_matrix, d_plus_m,
                         d_plus_matrix, laplacian_m, laplacian_matrix,
                         restriction, truncated_field, truncated_trajectory)
from .attractor import (AttractorConfig, PointCloud, attractor_approx,
                        cloud_from_json, cloud_norm, cloud_to_json,
                        embed_cloud, hausdorff_semi, hausdorff_sym,
                        sample_ball, tail_profile)
from .stochastic import (AbsorbingRadius, NoiseConfig, OUPath,
                         absorbing_radius, ergodic_average, ou_path,
                         ou_path_from_json, ou_path_to_json, pullback_batch,
                         pullback_sample, random_field)
from .experiments import (ExperimentConfig, GridConfig, ReferenceConfig,
                          ResultTable, default_config, default_params,
                          run_bounds, run_dim_convergence,
                          run_eps_convergence, run_error_order,
                          run_noise_convergence, verify, write_table)
