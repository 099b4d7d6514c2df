"""Quantify how predefined topics rise and fall in salience over time.

Pipeline: time-bin a corpus, track per-bin n-gram usage trends, score each
n-gram against a predefined topic framework via TF-IDF context vectors and
cosine similarity, associate n-grams to topics by a bivariate percentile
rule, and derive per-topic salience trends and matrices.
"""

__version__ = "0.1.0"

from .association import TopicAssociation, associate, percentile, relative_std_devs
from .corpus import (
    Document,
    TimeBinnedCorpus,
    TimeBinning,
    analysis_text,
    bin_documents,
    build_binning,
    load_corpus,
    read_corpus,
)
from .errors import ConsistencyError, InputError, SalienceError
from .ngrams import NgramTable, build_ngram_table, usage_matrix
from .pipeline import RunConfig, compute_associations, compute_similarities, run_analyze
from .render import render_grid_svg, render_trend_svg
from .salience import (
    SalienceMatrix,
    normalize_salience,
    salience_matrix,
    time_derivative,
    topic_salience_trend,
    topic_usage_trend,
)
from .synth import (
    PlantedEvent,
    SynthSpec,
    corpus_to_jsonl,
    generate_corpus,
    oracle_count_many,
    news_scale_spec,
)
from .topics import (
    SimilarityMatrix,
    Topic,
    TopicFramework,
    VectorSpace,
    batch_similarities,
    build_vector_space,
    context_vector,
    cosine,
    expand_topic_document,
    load_framework,
    load_lexicon,
    load_pmesii_ascope,
    ngram_vector,
    similarity_matrix,
)

__all__ = [
    "__version__",
    "SalienceError",
    "InputError",
    "ConsistencyError",
    "Document",
    "TimeBinning",
    "TimeBinnedCorpus",
    "read_corpus",
    "load_corpus",
    "build_binning",
    "bin_documents",
    "analysis_text",
    "NgramTable",
    "build_ngram_table",
    "usage_matrix",
    "Topic",
    "TopicFramework",
    "VectorSpace",
    "SimilarityMatrix",
    "load_framework",
    "load_pmesii_ascope",
    "load_lexicon",
    "expand_topic_document",
    "build_vector_space",
    "batch_similarities",
    "context_vector",
    "ngram_vector",
    "cosine",
    "similarity_matrix",
    "TopicAssociation",
    "relative_std_devs",
    "percentile",
    "associate",
    "SalienceMatrix",
    "time_derivative",
    "topic_usage_trend",
    "topic_salience_trend",
    "salience_matrix",
    "normalize_salience",
    "SynthSpec",
    "PlantedEvent",
    "generate_corpus",
    "corpus_to_jsonl",
    "oracle_count_many",
    "news_scale_spec",
    "RunConfig",
    "run_analyze",
    "compute_similarities",
    "compute_associations",
    "render_trend_svg",
    "render_grid_svg",
]
