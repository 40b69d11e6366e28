"""forestfuse: a CPU random-forest engine built around one set of trees.

Train once, then use the same forest for prediction, proximity-based
similarity search with explanations, four importance measures, outlier
scores, class prototypes, and missing-value imputation with a
ground-truth-free quality validator.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .dataset import (CATEGORICAL, CONTINUOUS, Dataset, Feature,
                      FeatureSchema, continuous_schema, load_dense_csv,
                      load_schema, load_sparse_svmlight, write_dense_csv)
from .errors import (ArgumentError, CapacityError, ClassSizeError,
                     ConfigError, ForestFuseError, FormatError,
                     ImputationError, ModelFormatError, ParseError,
                     ProvenanceError, SchemaError)
from .forest import (Forest, ForestConfig, OOBResult, Tree,
                     generate_synthetic, oob_error, p_synthetic, predict,
                     predict_proba, train)
from .importance import (ImportanceReport, compute_importance_report,
                         counted_trees, local_proximity_importance,
                         local_variable_importance,
                         overall_proximity_importance,
                         overall_variable_importance)
from .imputation import (ImputationConfig, ImputationResult, IterationStats,
                         ValidationReport, bc_reimpute, impute,
                         impute_breiman_cutler, impute_young, initial_impute,
                         validate_imputations, young_reimpute)
from .model_io import ModelArtifact, load_model, save_model
from .outlier import OutlierReport, outlier_exact, outlier_greedy
from .prototype import Prototype, find_prototypes
from .proximity import (Neighbor, ProximityMatrix, compute_proximity,
                        top_k_similar, top_k_similar_explained)
from .splitfind import Split, find_node_split

__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], _ModuleType)]
