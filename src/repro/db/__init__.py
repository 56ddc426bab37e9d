"""Database substrate: an in-memory SQL-subset engine with virtual timing.

This package stands in for the PostgreSQL / commercial backends of the
paper.  See DESIGN.md §1 for the substitution rationale and §2.1 for the
module inventory.
"""

from .batch_executor import BatchExecutor, BatchSharingStats
from .binning import BinLayout, bin_center, bin_counts, bin_counts_many, build_bin_layout, compute_bin_ids
from .caches import CacheStats, CacheStatsReport, InstrumentedCache
from .clock import Stopwatch, VirtualClock
from .cost_model import CostModel, WorkCounters
from .database import Database, EngineProfile, SimProfile
from .executor import ExecutionResult
from .rowset import RowSet, intersect_all
from .indexes import GridIndex, Index, InvertedIndex, SortedIndex
from .optimizer import Optimizer, derive_counters
from .plans import AccessPath, JoinStep, PhysicalPlan, ScanPlan
from .predicates import (
    EqualsPredicate,
    KeywordPredicate,
    Predicate,
    RangePredicate,
    SpatialPredicate,
)
from .query import (
    ApproximationRule,
    BinGroupBy,
    HintSet,
    JoinSpec,
    LimitRule,
    SampleTableRule,
    SelectQuery,
    apply_hints,
)
from .schema import Column, ForeignKey, TableSchema
from .sql import parse_sql
from .statistics import StatisticsConfig, TableStatistics
from .table import Table, make_table
from .tokens import PackedTokens
from .types import BoundingBox, ColumnKind, Interval, days, tokenize

__all__ = [
    "AccessPath",
    "ApproximationRule",
    "BatchExecutor",
    "BatchSharingStats",
    "BinGroupBy",
    "BinLayout",
    "BoundingBox",
    "CacheStats",
    "CacheStatsReport",
    "Column",
    "ColumnKind",
    "CostModel",
    "Database",
    "EngineProfile",
    "EqualsPredicate",
    "ExecutionResult",
    "ForeignKey",
    "GridIndex",
    "HintSet",
    "Index",
    "InstrumentedCache",
    "Interval",
    "InvertedIndex",
    "JoinSpec",
    "JoinStep",
    "KeywordPredicate",
    "LimitRule",
    "Optimizer",
    "PackedTokens",
    "PhysicalPlan",
    "Predicate",
    "RangePredicate",
    "RowSet",
    "SampleTableRule",
    "ScanPlan",
    "SelectQuery",
    "SimProfile",
    "SortedIndex",
    "SpatialPredicate",
    "StatisticsConfig",
    "Stopwatch",
    "Table",
    "TableSchema",
    "TableStatistics",
    "VirtualClock",
    "WorkCounters",
    "apply_hints",
    "bin_center",
    "bin_counts",
    "bin_counts_many",
    "build_bin_layout",
    "compute_bin_ids",
    "days",
    "derive_counters",
    "intersect_all",
    "make_table",
    "parse_sql",
    "tokenize",
]
