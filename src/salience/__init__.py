"""Quantify how predefined topics rise and fall in salience over time.

Pipeline: time-bin a corpus, track per-bin n-gram usage trends, score each
n-gram against a predefined topic framework via TF-IDF context vectors and
cosine similarity, associate n-grams to topics by a bivariate percentile
rule, and derive per-topic salience trends and matrices.

The names below are the documented library API; every other public name is
imported from its module (`salience.corpus`, `salience.topics`, ...).
"""

__version__ = "0.1.0"

from .association import relative_std_devs
from .corpus import read_corpus
from .errors import ConsistencyError, InputError, SalienceError
from .ngrams import build_ngram_table, usage_matrix
from .pipeline import RunConfig, compute_associations, compute_similarities, run_analyze
from .salience import normalize_salience, topic_salience_trend
from .topics import build_vector_space, load_pmesii_ascope

__all__ = [
    "__version__",
    "SalienceError",
    "InputError",
    "ConsistencyError",
    "RunConfig",
    "run_analyze",
    "read_corpus",
    "build_ngram_table",
    "usage_matrix",
    "load_pmesii_ascope",
    "build_vector_space",
    "compute_similarities",
    "relative_std_devs",
    "compute_associations",
    "topic_salience_trend",
    "normalize_salience",
]
