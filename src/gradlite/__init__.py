"""Low-rank error-feedback optimizer with a desk-scale verification harness."""

from .errors import (ConfigError, DataError, DimError, DivergedError,
                     EmptyRunError, GradLiteError, NonPositiveGapError,
                     NumError, RankError, SpdError)
from .feedback import correct, estimate_delta, update_accumulator
from .harness import (AblationResult, GradCheckReport, MemoryReport, RateFit,
                      RunMetrics, ablation_suite, build_problem,
                      grad_check_suite, memory_counts, memory_report,
                      rate_check, rate_sweep, run_experiment)
from .linalg import (SvdResult, as_matrix, frob_residual, matvec, matvec_t,
                     truncated_svd)
from .lowrank import (LowRankFactor, approx_gradient, factorize,
                      projected_signal, static_basis)
from .optimizers import (AdamConfig, AdamState, GaloreConfig, GaloreState,
                         GradLiteConfig, GradLiteState, OptimizerState,
                         SgdConfig, StepTrace, averaged_iterate, exact_step,
                         gradlite_step, init_gradlite_state, init_state)
from .problems import (Dataset, LogisticProblem, MlpProblem, Problem,
                       QuadraticProblem, finite_difference_gradient,
                       make_gaussian_logistic, make_lowrank_logistic, make_mlp,
                       make_quadratic, synth_dataset)
from .rng import SplitMix64, derive_seed

__version__ = "0.1.0"
