"""Tokenization, n-gram extraction, and per-bin relative usage trends.

Tokens are maximal runs of Unicode letters/digits; every punctuation mark
(apostrophes and hyphens included) separates tokens and is discarded, so
"council's" yields ["council", "s"]. Case is preserved: n-gram identity is
case-sensitive. Sentences split after '.', '!' or '?' followed by
whitespace, and at blank lines; n-gram windows never cross sentences.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

from .corpus import TimeBinnedCorpus, analysis_text
from .errors import ConsistencyError, InputError

# A token key: n surfaces in order, case preserved.
NgramKey = tuple[str, ...]

_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)
_BOUNDARY_RE = re.compile(r"(?<=[.!?])\s+|\n\s*\n")


def sentences_with_tokens(text: str) -> list[tuple[str, list[str]]]:
    """Split text into sentences and their token surfaces.

    Returns (raw sentence, tokens) pairs; chunks that yield no tokens are
    dropped so every returned sentence can host n-gram instances.
    """
    out: list[tuple[str, list[str]]] = []
    for chunk in _BOUNDARY_RE.split(text):
        if not chunk:
            continue
        tokens = _WORD_RE.findall(chunk)
        if tokens:
            out.append((chunk.strip(), tokens))
    return out


@dataclass
class NgramRecord:
    """One unique n-gram: per-bin instance counts and per-instance contexts."""

    key: NgramKey
    counts: list[int]
    total: int
    contexts: list[tuple[int, int]]  # (bin index, id into NgramTable.sentences)


@dataclass
class NgramTable:
    """Table of n-grams over a binned corpus.

    bin_totals counts every n-gram instance per bin, including instances of
    n-grams later dropped by the min_total filter, so relative usage stays a
    proportion of all observed instances. Each enclosing sentence is stored
    once in `sentences`, numbered by first use in sorted n-gram order; a
    context refers to it by id.
    """

    n: int
    min_total: int
    bin_totals: list[int]
    records: dict[NgramKey, NgramRecord]
    sentences: list[str]

    def sorted_keys(self) -> list[NgramKey]:
        return sorted(self.records)

    def contexts_of(self, key: NgramKey) -> list[str]:
        """The enclosing sentence of each instance, one entry per instance."""
        return [self.sentences[sid] for _, sid in self.records[key].contexts]


def render_ngram(key: NgramKey) -> str:
    return " ".join(key)


def parse_ngram(text: str) -> NgramKey:
    return tuple(text.split(" "))


def build_ngram_table(
    corpus: TimeBinnedCorpus,
    n: int = 2,
    min_total: int = 1,
    *,
    include_titles: bool = True,
) -> NgramTable:
    """Build the n-gram table for a binned corpus."""
    if n < 1:
        raise InputError("n must be >= 1")
    if min_total < 1:
        raise InputError("min_total must be >= 1")

    m = corpus.binning.bin_count
    bin_totals = [0] * m
    # Each distinct sentence gets an id when first seen; all instances in one
    # scanned sentence share one (bin, sentence id) tuple.
    sentence_ids: dict[str, int] = {}
    acc: defaultdict[NgramKey, list[tuple[int, int]]] = defaultdict(list)
    for t, doc in corpus.iter_documents():
        for raw, tokens in sentences_with_tokens(analysis_text(doc, include_titles)):
            if len(tokens) < n:
                continue
            context = (t, sentence_ids.setdefault(raw, len(sentence_ids)))
            bin_totals[t] += len(tokens) - n + 1
            for key in zip(*[tokens[i:] for i in range(n)]):
                acc[key].append(context)

    # Keep the n-grams that reach min_total, in sorted order, and renumber
    # the sentences that host them by first use.
    texts = list(sentence_ids)
    renumbered = [-1] * len(texts)
    sentences: list[str] = []
    records: dict[NgramKey, NgramRecord] = {}
    for key in sorted(key for key, contexts in acc.items() if len(contexts) >= min_total):
        contexts = []
        counts = [0] * m
        for t, old in acc[key]:
            sid = renumbered[old]
            if sid < 0:
                sid = renumbered[old] = len(sentences)
                sentences.append(texts[old])
            contexts.append((t, sid))
            counts[t] += 1
        records[key] = NgramRecord(key=key, counts=counts, total=len(contexts), contexts=contexts)
    return NgramTable(
        n=n, min_total=min_total, bin_totals=bin_totals, records=records, sentences=sentences
    )


def relative_usage_trend(record: NgramRecord, bin_totals: Sequence[int]) -> list[float]:
    """Per-bin fraction of all n-gram instances that belong to this n-gram.

    Empty bins (zero total) contribute 0 so the trend stays total and safe
    to differentiate.
    """
    if len(record.counts) != len(bin_totals):
        raise ConsistencyError(
            f"{render_ngram(record.key)!r}: counts length {len(record.counts)} "
            f"!= bin_totals length {len(bin_totals)}"
        )
    values: list[float] = []
    for count, total in zip(record.counts, bin_totals):
        if count > total:
            raise ConsistencyError(
                f"{render_ngram(record.key)!r}: count {count} exceeds bin total {total}"
            )
        values.append(count / total if total else 0.0)
    return values

