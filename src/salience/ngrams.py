"""Tokenization, n-gram extraction, and per-bin relative usage trends.

Tokens are maximal runs of Unicode letters/digits; every punctuation mark
(apostrophes and hyphens included) separates tokens and is discarded, so
"council's" yields ["council", "s"]. Case is preserved: n-gram identity is
case-sensitive. Sentences split after '.', '!' or '?' followed by
whitespace, and at blank lines; n-gram windows never cross sentences.

One path tokenizes all text, ASCII or not: `str.translate` folds it through
`_FOLD`, which keeps each code point that `str.isalnum()` accepts (exactly
the regex word characters other than the underscore) and turns every other
one into a space, and `str.split()` cuts the folded text into tokens. No
alphanumeric code point is whitespace, so the tokens are the maximal
alphanumeric runs. A text is folded once; each sentence's tokens are the
split of its slice of the fold.

The n-gram table is counted over interned ids: one Python pass over any
iterable of documents (a file streamed by `read_corpus`, or a list) turns
each token and each distinct sentence into a dense id, held in int32
arrays, and numpy groups the n-gram instances by sorting their rows of
token ids. The pass keeps each document's date and nothing else of it, and
bins the sentences once the dates have fixed the binning. `NgramTable`
keeps its header (n, min_total, include_titles, binning) and numpy's
arrays, row i for the i-th kept n-gram in sorted key order (K n-grams, B
bins, N instances): `keys`, the n-grams' texts, (K × B) int32 `counts`,
and the contexts in CSR form, n-gram i's being entries context_start[i]
to context_start[i + 1] ((K + 1) int64 starts) of the (N,) int32 arrays
`context_bins` and `context_sids`, one per instance in bin order, input
order within a bin.

An n-gram is its text: its tokens joined by single spaces, as every
artifact names it. The space sorts below every alphanumeric code point (no
alphanumeric code point is below U+0030), so sorted texts are in the order
of the sorted token sequences: word by word, a word before any longer word
it begins.

The table also carries the tokens of its S sentences in CSR form, for the
similarity kernel: sentence s's tokens are words[i] for i in
token_ids[token_start[s]:token_start[s + 1]] ((S + 1) int64 starts, int32
ids). The build takes them from its own scan, so no sentence is tokenized
twice; a table loaded from `ngram_table.json`, which does not store them,
re-tokenizes its sentences with `intern_sentences` when first asked.
"""

from __future__ import annotations

import datetime as dt
import re
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import GRANULARITIES, Document, TimeBinning, analysis_text, span_binning
from .errors import ConsistencyError, InputError

# A sentence boundary: a mark and the whitespace after it, or a blank line.
# The pattern starts on a character class, so the regex engine scans ahead
# for its first character; the mark itself stays in its sentence.
_BOUNDARY_RE = re.compile(r"[.!?]\s+|\n\s*\n")


class _Fold(dict):
    """The str.translate table of the tokenizer, filled as code points are
    met: an alphanumeric code point maps to itself, any other to a space."""

    def __missing__(self, cp: int) -> int:
        self[cp] = folded = cp if chr(cp).isalnum() else 32
        return folded


_FOLD = _Fold()


def _sentence_spans(text: str) -> Iterator[tuple[int, int]]:
    """The (start, end) of each chunk of text between sentence boundaries."""
    start = 0
    for boundary in _BOUNDARY_RE.finditer(text):
        # A boundary's first character, a mark or a line break, ends the
        # sentence; a sentence is stripped, so a trailing break is dropped.
        yield start, boundary.start() + 1
        start = boundary.end()
    yield start, len(text)


def sentences_with_tokens(text: str) -> list[tuple[str, list[str]]]:
    """Split text into sentences and their token surfaces.

    Returns (raw sentence, tokens) pairs; chunks that yield no tokens are
    dropped so every returned sentence can host n-gram instances.
    """
    folded = text.translate(_FOLD)
    out: list[tuple[str, list[str]]] = []
    for start, end in _sentence_spans(text):
        tokens = folded[start:end].split()
        if tokens:
            out.append((text[start:end].strip(), tokens))
    return out


@dataclass(eq=False)
class NgramTable:
    """The kept n-grams over a binned corpus, as the arrays the module
    docstring lists, with the scan's options and the corpus's binning.

    bin_totals counts every n-gram instance per bin, including instances of
    n-grams later dropped by the min_total filter, so relative usage stays a
    proportion of all observed instances. Each enclosing sentence is stored
    once in `sentences`, numbered by first use in sorted n-gram order; a
    context refers to it by id. Counts, context bins and context sentence
    ids are int32; positions in an array (`context_start`, and
    `token_start` of `sentence_tokens`) are int64.
    """

    n: int
    min_total: int
    include_titles: bool
    binning: TimeBinning
    keys: list[str]
    bin_totals: list[int]
    sentences: list[str]
    context_start: np.ndarray
    context_bins: np.ndarray
    context_sids: np.ndarray

    @cached_property
    def counts(self) -> np.ndarray:
        """Instances per bin, int32: one bincount over (row, bin) cells."""
        rows, bins = len(self.keys), len(self.bin_totals)
        row_of = np.repeat(np.arange(rows), np.diff(self.context_start))
        cells = np.bincount(row_of * bins + self.context_bins, minlength=rows * bins)
        return cells.astype(np.int32).reshape(rows, bins)

    @cached_property
    def sentence_tokens(self) -> tuple[list[str], np.ndarray, np.ndarray]:
        """The sentences' tokens as (words, token_start, token_ids), the CSR
        form the module docstring describes. `build_ngram_table` sets it from
        its scan; otherwise, or once deleted, the sentences are tokenized on
        first use."""
        return intern_sentences(self.sentences)


class _DenseIds(dict):
    """Token -> dense id; an unseen token gets the next id."""

    def __missing__(self, token: str) -> int:
        self[token] = token_id = len(self)
        return token_id


def intern_sentences(sentences: Sequence[str]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Tokenize each sentence once: (words, token_start, token_ids), words
    in first-seen order and the ids in CSR form, one row per sentence."""
    token_ids = _DenseIds()
    word_id = token_ids.__getitem__
    ids: list[int] = []
    starts = [0]
    for sentence in sentences:
        ids += map(word_id, sentence.translate(_FOLD).split())
        starts.append(len(ids))
    return list(token_ids), np.array(starts, dtype=np.int64), np.array(ids, dtype=np.int32)


def _gather_runs(values: np.ndarray, first: np.ndarray, length: np.ndarray):
    """The runs values[first[r] : first[r] + length[r]] one after another,
    and the (R + 1,) int64 starts of the runs in the result. The runs are
    gathered through one index that steps by 1 within a run and jumps to
    the next run's first position; every length must be at least 1."""
    start = np.zeros(len(length) + 1, dtype=np.int64)
    np.cumsum(length, out=start[1:])
    at = np.ones(start[-1], dtype=np.int64)
    jumps = first.astype(np.int64)
    jumps[1:] -= first[:-1] + length[:-1] - 1
    at[start[:-1]] = jumps
    np.cumsum(at, out=at)
    return values[at], start


def build_ngram_table(
    docs: Iterable[Document],
    n: int = 2,
    min_total: int = 1,
    *,
    granularity: str = "month",
    include_titles: bool = True,
) -> NgramTable:
    """Build the n-gram table over documents, in one pass over them.

    The scan interns every token and every distinct sentence as a dense id
    and records, per sentence of at least n tokens, its document, sentence
    id and token count, all in int32 arrays; it keeps each document's date
    and nothing else of it, and creates no object per n-gram or per
    instance. Once the pass has ended the binning is fixed: it spans the
    earliest and latest dates read, as `build_binning` spans them. Each
    sentence takes its document's bin and, unless the documents came in
    date order, a stable sort by bin puts the sentences in bin order, input
    order within a bin, as `TimeBinnedCorpus.iter_documents` yields them.
    numpy then groups the instances: each instance is a row of n token
    ids, the rows are sorted, runs of equal rows are the n-grams, and only
    the n-grams that reach min_total are kept. Each kept sentence's token
    row is cut from the scan's ids at its first occurrence. A bad option is
    refused before the first document is read; no documents, after.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    if min_total < 1:
        raise InputError("min_total must be >= 1")
    if granularity not in GRANULARITIES:
        raise InputError(f"unknown granularity {granularity!r}")

    token_ids = _DenseIds()
    word_id = token_ids.__getitem__
    sentence_ids: dict[str, int] = {}
    ids, docs_of, sids, lengths, days = (array("i") for _ in range(5))
    for d, doc in enumerate(docs):
        # A list takes a document's ids faster than the array would.
        doc_ids: list[int] = []
        for raw, tokens in sentences_with_tokens(analysis_text(doc, include_titles)):
            if len(tokens) < n:
                continue
            doc_ids += map(word_id, tokens)
            docs_of.append(d)
            sids.append(sentence_ids.setdefault(raw, len(sentence_ids)))
            lengths.append(len(tokens))
        ids.fromlist(doc_ids)
        days.append(doc.date.toordinal())
    if not days:
        raise InputError("no documents to build an n-gram table from")
    texts = list(sentence_ids)
    del sentence_ids

    # The binning spans the dates read; one bin lookup per distinct date.
    binning = span_binning(*map(dt.date.fromordinal, (min(days), max(days))), granularity)
    bin_of = {day: binning.index_of(dt.date.fromordinal(day)) for day in set(days)}
    doc_bins = np.array([bin_of[day] for day in days], dtype=np.int32)
    del days, bin_of

    # Relabel each token id by the sorted() rank of its text: rows of ids
    # then compare as sequences of words, case and non-ASCII included, which
    # is how the joined texts compare, so sorted rows are sorted keys.
    words = list(token_ids)
    del token_ids, word_id
    by_text = sorted(range(len(words)), key=words.__getitem__)
    words = [words[i] for i in by_text]
    rank = np.empty(len(words), dtype=np.int32)
    rank[by_text] = np.arange(len(words), dtype=np.int32)
    ranked = rank[np.frombuffer(ids, dtype=np.intc)]
    del ids, rank, by_text

    # Bin order: the order of each n-gram's contexts, and so
    # ngram_table.json, depends on it. A file out of date order is put in
    # bin order by a stable sort, which keeps a bin's sentences in scan
    # order; the token ids follow their sentences.
    bins = doc_bins[np.frombuffer(docs_of, dtype=np.intc)]
    sids, lengths = (np.frombuffer(a, dtype=np.intc) for a in (sids, lengths))
    ends = np.cumsum(lengths, dtype=np.int64)
    del doc_bins, docs_of
    if (bins[1:] < bins[:-1]).any():
        by_bin = np.argsort(bins, kind="stable")
        bins, sids, first = bins[by_bin], sids[by_bin], (ends - lengths)[by_bin]
        lengths = lengths[by_bin]
        ranked, ends = _gather_runs(ranked, first, lengths)
        ends = ends[1:]
        del by_bin, first

    # One instance per window, in bin order: the window at token p is an
    # instance when its n tokens lie in one sentence, that is unless p is
    # one of the last n - 1 tokens of its sentence.
    starts_window = np.ones(len(ranked), dtype=bool)
    for j in range(1, n):
        starts_window[ends - j] = False
    starts_window = starts_window[: len(ranked) - (n - 1)]
    columns = [ranked[j : len(starts_window) + j][starts_window] for j in range(n)]
    del starts_window
    windows = lengths - (n - 1)
    totals = np.zeros(binning.bin_count, dtype=np.int64)
    np.add.at(totals, bins, windows)
    bin_totals = totals.tolist()
    del totals

    # The sort must be stable: the instances of one n-gram then keep bin
    # order, which is the order of its contexts. np.lexsort is stable, sorts
    # by its last key first, and packs no integer code that could overflow
    # for a large n. The sorted columns are made one at a time, and each
    # instance's sentence only then, so that the sort does not hold it.
    order = np.lexsort(columns[::-1])
    for j in range(n):
        columns[j] = columns[j][order]
    sentence_of = np.repeat(np.arange(len(windows), dtype=np.int32), windows)[order]
    del order, windows
    new_key = np.zeros(len(sentence_of), dtype=bool)
    new_key[:1] = True
    for column in columns:
        new_key[1:] |= column[1:] != column[:-1]
    group_start = np.flatnonzero(new_key)
    del new_key
    # The run lengths, written in place: no copy of group_start is made.
    sizes = np.empty_like(group_start)
    np.subtract(group_start[1:], group_start[:-1], out=sizes[:-1])
    sizes[-1:] = len(sentence_of) - group_start[-1:]
    kept = sizes >= min_total
    sentence_of = sentence_of[np.repeat(kept, sizes)]
    group_start, sizes = group_start[kept], sizes[kept]
    key_columns = [[words[r] for r in column[group_start].tolist()] for column in columns]
    del columns, group_start, kept

    # Renumber the hosting sentences by first use in sorted key order.
    context_bins = bins[sentence_of]
    used, first_use, old_to_used = np.unique(
        sids[sentence_of], return_index=True, return_inverse=True
    )
    del sentence_of
    by_first_use = np.argsort(first_use)
    new_id = np.empty(len(used), dtype=np.int32)
    new_id[by_first_use] = np.arange(len(used), dtype=np.int32)
    hosts = used[by_first_use]
    sentences = [texts[i] for i in hosts.tolist()]
    context_sids = new_id[old_to_used]
    del texts, bins, used, first_use, old_to_used, new_id

    # Each kept sentence's row of tokens is the run of `ranked` at its first
    # occurrence: np.unique's first index of each sentence id.
    scanned = np.unique(sids, return_index=True)[1][hosts]
    del sids, hosts
    row_length = lengths[scanned]
    token_ids, token_start = _gather_runs(ranked, ends[scanned] - row_length, row_length)
    del ranked, lengths, ends, scanned, row_length

    table = NgramTable(
        n=n,
        min_total=min_total,
        include_titles=include_titles,
        binning=binning,
        keys=list(map(" ".join, zip(*key_columns))),
        bin_totals=bin_totals,
        sentences=sentences,
        context_start=np.concatenate(([0], np.cumsum(sizes))),
        context_bins=context_bins,
        context_sids=context_sids,
    )
    table.sentence_tokens = (words, token_start, token_ids)
    return table


def usage_matrix(table: NgramTable) -> np.ndarray:
    """Every n-gram's relative usage trend as one (n-grams × bins) array,
    rows in sorted key order: counts / bin_totals, 0 in empty bins."""
    totals = np.array(table.bin_totals, dtype=np.int64)
    return np.divide(table.counts, totals, out=np.zeros(table.counts.shape), where=totals > 0)


def relative_usage_trend(counts: Sequence[int], bin_totals: Sequence[int]) -> list[float]:
    """Per-bin fraction of all n-gram instances that belong to one n-gram,
    given its row of `NgramTable.counts`.

    Empty bins (zero total) contribute 0 so the trend stays total and safe
    to differentiate. Scalar reference for `usage_matrix`.
    """
    if len(counts) != len(bin_totals):
        raise ConsistencyError(
            f"counts length {len(counts)} != bin_totals length {len(bin_totals)}"
        )
    values: list[float] = []
    for count, total in zip(counts, bin_totals):
        if count > total:
            raise ConsistencyError(f"count {count} exceeds bin total {total}")
        values.append(count / total if total else 0.0)
    return values
