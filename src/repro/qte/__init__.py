"""Query time estimators (QTEs) used by the rewriters."""

from .accurate import AccurateQTE
from .base import EstimationOutcome, QueryTimeEstimator, required_attributes
from .sampling import SamplingQTE
from .selectivity import SelectivityCache

__all__ = [
    "AccurateQTE",
    "EstimationOutcome",
    "QueryTimeEstimator",
    "SamplingQTE",
    "SelectivityCache",
    "required_attributes",
]
