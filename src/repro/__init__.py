"""Independent Query Sampling (IQS) — reproduction of Tao, PODS 2022.

A library of index structures that answer *sampling* versions of classic
reporting queries: instead of returning every element satisfying a
predicate, a query returns ``s`` random samples of the result — in time
far below the result size — with the outputs of **all** queries mutually
independent (the IQS guarantee, paper eq. 1).

Quickstart::

    from repro import ChunkedRangeSampler

    keys = [float(v) for v in range(100_000)]
    sampler = ChunkedRangeSampler(keys, rng=42)       # O(n) space
    samples = sampler.sample(250.0, 90_000.0, s=10)   # O(log n + s) time

See DESIGN.md for the paper-to-module map and EXPERIMENTS.md for the
reproduced guarantees.
"""

from repro import obs
from repro.core import (
    AliasSampler,
    ApproximateDynamicSampler,
    IntegerRangeSampler,
    AliasAugmentedRangeSampler,
    ApproxCoverSampler,
    ApproximateCover,
    BucketDynamicSampler,
    ChunkedRangeSampler,
    ComplementRangeIndex,
    CoverageSampler,
    DependentRangeSampler,
    DynamicRangeSampler,
    FenwickDynamicSampler,
    FlatTreeSampler,
    NaiveRangeSampler,
    NaiveSetUnionSampler,
    PlanScope,
    PlanStore,
    PrecomputedCoverSampler,
    QueryPlan,
    SetUnionSampler,
    Tree,
    TreeSampler,
    TreeWalkRangeSampler,
    multinomial_split,
    sample_without_replacement,
    uniform_indices_without_replacement,
    wr_from_wor,
)
from repro.core.coverage import BSTIndex
from repro.apps.fair_nn import FairNearNeighbor
from repro.apps.table import SampledTable
from repro.em.deamortized import DeamortizedSamplePoolSetSampler
from repro.em import (
    EMMachine,
    EMRangeSampler,
    ExternalArray,
    NaiveEMSetSampler,
    SamplePoolSetSampler,
    StaticBTree,
    external_merge_sort,
    set_sampling_lower_bound,
)
from repro.errors import (
    BuildError,
    EmptyQueryError,
    ExternalMemoryError,
    IQSError,
    InvalidWeightError,
    SampleBudgetExceededError,
)
from repro.substrates.yfast import YFastTrie
from repro.substrates import (
    ConvexLayers,
    FenwickTree,
    HalfplaneIndex,
    KDTree,
    KMVSketch,
    QuadTree,
    RangeTree,
    ShiftedGrids,
    StaticBST,
)

# The engine imports last: it references the sampler classes above through
# its lazy registry, so keeping it at the tail of the package init means
# any partial-import state it could observe is already complete.
from repro.engine import (
    QueryRequest,
    QueryResult,
    REGISTRY,
    Sampler,
    SamplingEngine,
    build,
)

__version__ = "1.0.0"

__all__ = [
    # observability
    "obs",
    # engine (unified construction + batched execution)
    "QueryRequest",
    "QueryResult",
    "REGISTRY",
    "Sampler",
    "SamplingEngine",
    "build",
    # core techniques
    "AliasSampler",
    "ApproximateDynamicSampler",
    "IntegerRangeSampler",
    "DeamortizedSamplePoolSetSampler",
    "YFastTrie",
    "AliasAugmentedRangeSampler",
    "ApproxCoverSampler",
    "ApproximateCover",
    "BucketDynamicSampler",
    "ChunkedRangeSampler",
    "ComplementRangeIndex",
    "CoverageSampler",
    "DependentRangeSampler",
    "DynamicRangeSampler",
    "FenwickDynamicSampler",
    "FlatTreeSampler",
    "NaiveRangeSampler",
    "NaiveSetUnionSampler",
    "PrecomputedCoverSampler",
    "PlanScope",
    "PlanStore",
    "QueryPlan",
    "SetUnionSampler",
    "Tree",
    "TreeSampler",
    "TreeWalkRangeSampler",
    "multinomial_split",
    "sample_without_replacement",
    "uniform_indices_without_replacement",
    "wr_from_wor",
    "BSTIndex",
    # applications
    "FairNearNeighbor",
    "SampledTable",
    # external memory
    "EMMachine",
    "EMRangeSampler",
    "ExternalArray",
    "NaiveEMSetSampler",
    "SamplePoolSetSampler",
    "StaticBTree",
    "external_merge_sort",
    "set_sampling_lower_bound",
    # errors
    "BuildError",
    "EmptyQueryError",
    "ExternalMemoryError",
    "IQSError",
    "InvalidWeightError",
    "SampleBudgetExceededError",
    # substrates
    "ConvexLayers",
    "FenwickTree",
    "HalfplaneIndex",
    "KDTree",
    "KMVSketch",
    "QuadTree",
    "RangeTree",
    "ShiftedGrids",
    "StaticBST",
]
