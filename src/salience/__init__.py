"""Quantify how predefined topics rise and fall in salience over time.

Pipeline: time-bin a corpus, track per-bin n-gram usage trends, score each
n-gram against a predefined topic framework via TF-IDF context vectors and
cosine similarity, associate n-grams to topics by a bivariate percentile
rule, and derive per-topic salience trends and matrices.

The names below are the documented library API; every other public name is
imported from its module (`salience.corpus`, `salience.topics`, ...). Each
documented name loads its module on first use, so `import salience`, which
every `salience.cli` process runs first, loads neither numpy nor any module
that process does not need.
"""

import importlib

__version__ = "0.1.0"

# Each documented name -> the module that defines it.
_EXPORTS = {
    "SalienceError": "errors",
    "InputError": "errors",
    "ConsistencyError": "errors",
    "RunConfig": "runs",
    "run_analyze": "pipeline",
    "read_corpus": "corpus",
    "build_ngram_table": "ngrams",
    "usage_matrix": "ngrams",
    "load_pmesii_ascope": "topics",
    "build_vector_space": "topics",
    "compute_similarities": "pipeline",
    "relative_std_devs": "association",
    "compute_associations": "pipeline",
    "topic_salience_trend": "salience",
    "normalize_salience": "salience",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
