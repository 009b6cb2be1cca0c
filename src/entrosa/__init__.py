"""Global sensitivity analysis with entropy-based total-effect indices and
derivative-based screening bounds."""

__version__ = "0.1.0"

from .benchmarks import (BenchmarkModel, MetaFunctionSpec, builtin,
                         builtin_names, build_metafunction, draw_metafunction)
from .deriv import DerivMeasures, estimate_deriv_measures
from .distributions import (ChiSquared, Distribution, Gaussian, Triangular,
                            TruncatedGaussian, TruncatedGumbel, Uniform,
                            parse_distribution)
from .entropy import (EntropyBounds, EntropyReport, HistogramSpec,
                      conditional_entropy, entropy_histogram, entropy_knn,
                      entropy_upper_bounds, estimate_entropy_indices,
                      kl_total_index)
from .errors import (ConfigurationError, EntrosaError, NumericalError,
                     SparseGridError)
from .model import (Model, evaluate_batch, fd_directional_batch, fix_variables,
                    sample_inputs)
from .report import RunConfig, SensitivityReport, rank_descending
from .variance import (PoincareBound, VarianceReport,
                       estimate_total_effect_variance, variance_upper_bound)

__all__ = [name for name in dir() if not name.startswith("_")]
