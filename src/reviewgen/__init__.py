"""reviewgen: draft peer reviews from paper knowledge graphs.

The pipeline builds a knowledge graph for a submission, compares it with
a background index of earlier work, turns the differences into
per-category evidence, predicts 1-5 review scores with a small
attentional recurrent classifier, and renders template-based comments.
"""

import importlib.util
import os
import sys

# One BLAS thread per process unless the user set a count: the network's
# matrices are too small to gain from threads, and `train` already runs a
# process per CPU, whose thread pools would fight over the cores. BLAS
# reads these when numpy loads, which is never earlier than here.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

# numpy loads on the first read of one of its attributes, so the graph and
# index commands never pay for its import. The modules that use it take
# this object: an ``import numpy`` statement would read ``__spec__`` and
# so load it at once.
np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)
    del _spec

from reviewgen.background import (
    BackgroundIndex,
    PaperRef,
    build_index,
    load_index,
    match_element,
    restrict,
    save_index,
    tfidf,
)
from reviewgen.corpus import (
    Category,
    EntityType,
    IEAnnotations,
    Mention,
    PaperRecord,
    RelationAnnotation,
    RelationType,
    ReviewLabels,
    SCOREABLE_CATEGORIES,
    SectionKind,
    corpus_paths,
    load_corpus,
    load_paper,
    load_review_labels,
    parse_paper,
    serialize_paper,
    target_scores,
)
from reviewgen.errors import (
    CutoffMismatchError,
    EmptyDatasetError,
    EmptySequenceError,
    FormatVersionError,
    MissingModelError,
    ParseError,
    ReviewgenError,
    ShapeMismatchError,
    UnsupportedRelationError,
    ValidationError,
)
from reviewgen.evidence import (
    ComparisonEntry,
    EvidenceBundle,
    FEATURE_DIM,
    FEATURE_NAMES,
    NoveltyTimeline,
    SUMMARY_RELATIONS,
    build_bundle,
    evidence_features,
    extract_comparison,
    extract_novelty,
    extract_summary,
    format_timeline,
    novelty_timeline,
    recommend_related,
)
from reviewgen.kg import (
    ElementKey,
    Entity,
    KnowledgeGraph,
    RELATED_SCOPE,
    TARGET_SCOPE,
    build_kg,
    coreferential,
    elements,
    normalize,
    representative_mention,
)
from reviewgen.review import (
    Polarity,
    ReviewDocument,
    TemplateSet,
    assemble,
    default_templates,
    generate_comparison,
    generate_generic,
    generate_novelty,
    generate_summary,
    load_templates,
    realize_relation,
    render,
    select_polarity,
)
from reviewgen.scoring import (
    CategoryScore,
    EvalMetrics,
    ModelParams,
    ScoreModel,
    ScoreReport,
    TrainConfig,
    TrainingExample,
    Vocab,
    backward,
    category_sentences,
    evaluate,
    gradient_check,
    load_model,
    predict_scores,
    save_model,
    train,
)

__version__ = "0.1.0"
