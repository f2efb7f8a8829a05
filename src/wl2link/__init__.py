"""Link-level Weisfeiler-Lehman refinement tests, oracles, and benchmarks."""

from .graph import (
    EdgeListParseError,
    Graph,
    GraphError,
    LinkSplit,
    disjoint_union,
    label01,
    load_edgelist,
    load_labels,
    permute,
    sample_non_edges,
    split_links,
)
from .refine import (
    ABSENT,
    ColorMap,
    DistinguishResult,
    Interner,
    MemoryGateError,
    RefinementError,
    RefinementResult,
    RefinementSession,
    TestKind,
    indistinguishable,
    lockstep,
    refine_to_stable,
)
from .unroll import (
    TREE_KINDS,
    UnrollError,
    UnrollTree,
    link_certificate,
    link_isomorphic,
    tree_equal,
)
from .harness import (
    BatchResult,
    Corpus,
    Fixture,
    PowerReport,
    all_pairs_corpus,
    batch_refine,
    builtin_fixtures,
    fixtures_corpus,
    oracle_soundness,
    power_check,
    random_corpus,
)
from .linkpred import (
    BenchmarkReport,
    LinearScorer,
    LinkPredError,
    auc,
    benchmark,
    featurize,
    featurize_many,
    heuristic_cn,
    heuristic_pa,
    heuristic_ra,
    train_scorer,
)

__version__ = "0.1.0"
