"""Second-order probabilistic inference on d-DNNF circuits.

Leaves of a deterministic decomposable circuit carry beta-distributed
random variables (distributions over probabilities); the library computes
the distribution of a conditioned query from the circuit's means and
gradients (one forward and one reverse pass), alongside three simpler
baselines (point probabilities, subjective-logic opinions, and
independence-assuming moment matching) and a Monte Carlo oracle.
"""

from .betacalc import (BetaLabel, Moments, Opinion, QueryResult, from_opinion,
                       mm_division, mm_product, mm_sum, moment_match,
                       sl_division, sl_product, sl_sum, to_opinion)
from .circuit import (Circuit, CircuitError, CircuitNode, LabelTable, NodeKind,
                      format_nnf, parse_nnf, set_condition, validate)
from .cpb import (LeafCovariance, ShadowedCircuit, eval_cov, eval_cov_queries,
                  shadow_circuit)
from .learn import Dataset, fit_complete, sample_observations
from .mc import MCResult, mc_eval, mc_eval_queries, mc_strength
from .semirings import (InconsistentEvidenceError, SemiringSpec,
                        conditioned_eval, conditioned_eval_queries,
                        mm_semiring, prob_semiring, sl_semiring)

__all__ = [
    "BetaLabel", "Moments", "Opinion", "QueryResult", "from_opinion",
    "mm_division", "mm_product", "mm_sum", "moment_match", "sl_division",
    "sl_product", "sl_sum", "to_opinion",
    "Circuit", "CircuitError", "CircuitNode", "LabelTable", "NodeKind",
    "format_nnf", "parse_nnf", "set_condition", "validate",
    "LeafCovariance", "ShadowedCircuit", "eval_cov", "eval_cov_queries",
    "shadow_circuit",
    "Dataset", "fit_complete", "sample_observations",
    "MCResult", "mc_eval", "mc_eval_queries", "mc_strength",
    "InconsistentEvidenceError", "SemiringSpec", "conditioned_eval",
    "conditioned_eval_queries", "mm_semiring", "prob_semiring",
    "sl_semiring",
]

__version__ = "0.1.0"
