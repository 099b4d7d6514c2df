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
arrays. The pass keeps each document's date and nothing else of it, and
bins the sentences once the dates have fixed the binning. The tokens stay
in scan order, whatever the order of the file; the N n-gram instances are
numbered in bin order, scan order within a bin, through one stable sort of
the sentences by bin, which is the identity for a file in date order.
numpy then groups the instances in one int64 array, sorted once at full
width, in place and with no permutation of it: each instance's token ranks
are packed into one key (for n > 2 each prefix is first replaced by its
dense rank), and the key with the instance's number, as key * N +
instance, so that sorted, each n-gram's instances are one run in bin
order. When (largest key + 1) * N could pass 2**63, each full-width key is
first replaced by its dense rank too. A run of min_total instances or more
is a kept n-gram: a block at a time, its instances move to the front of
the same buffer, each as its (bin, sentence id) int32 pair written over its
own 8 bytes, and the buffer is cut to them. A scan of 2**31 instances or
more is refused, so no packing can wrap.

`NgramTable` keeps its header (n, min_total, include_titles, binning) and
numpy's arrays, row i for the i-th kept n-gram in sorted key order (K
n-grams, B bins, M kept instances): `keys`, the n-grams' texts, (K × B)
int32 `counts`, and the contexts in CSR form, n-gram i's being entries
context_start[i] to context_start[i + 1] ((K + 1) int64 starts) of
`context_bins` and `context_sids`, the two columns of one (M, 2) int32
array of (bin, sentence id) pairs, one per kept instance in bin order,
input order within a bin.

An n-gram is its text: its tokens joined by single spaces, as every
artifact names it. The space sorts below every alphanumeric code point (no
alphanumeric code point is below U+0030), so sorted texts are in the order
of the sorted token sequences: word by word, a word before any longer word
it begins.

The table also carries the tokens of its S sentences, for the similarity
kernel: sentence s's tokens are words[i] for i in
token_ids[token_spans[s, 0]:token_spans[s, 1]] ((S, 2) int64 spans, int32
ids). The build hands over its scan's own ids, every scanned token, each
kept sentence spanning its run at one of its occurrences, so no sentence is
tokenized twice and no row is copied. `ngram_table.json` does not store
them: its loader tokenizes the sentences it reads with `intern_sentences`.
"""

from __future__ import annotations

import datetime as dt
import re
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .association import _BLOCK, _blocks
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
    ids are int32; positions in an array (`context_start`, and the
    `token_spans` of `sentence_tokens`) are int64. `sentence_tokens` is
    (words, token_spans, token_ids), as the module docstring describes. A
    released field reads None: the similarity kernel releases the token
    rows, and `analyze` the sentences once ngram_table.json is written.
    """

    n: int
    min_total: int
    include_titles: bool
    binning: TimeBinning
    keys: list[str]
    bin_totals: list[int]
    sentences: list[str] | None
    context_start: np.ndarray
    context_bins: np.ndarray
    context_sids: np.ndarray
    sentence_tokens: tuple[list[str], np.ndarray, np.ndarray] | None = None

    @cached_property
    def counts(self) -> np.ndarray:
        """Instances per bin, (K × B) int32, counted a block of rows at a
        time (`count_rows`)."""
        out = np.empty((len(self.keys), len(self.bin_totals)), dtype=np.int32)
        for rows in _blocks(out.shape[1] * np.arange(1, len(out) + 1), _BLOCK):
            out[rows] = self.count_rows(rows)
        return out

    def count_rows(self, rows: slice) -> np.ndarray:
        """Instances per bin of the n-grams in `rows` (a slice with a start
        and a stop), int32: one bincount over their (row, bin) cells. The
        writers and `usage_matrix` count a block at a time, so no (K × B)
        count array is held beside the usage."""
        block, bins = rows.stop - rows.start, len(self.bin_totals)
        start = self.context_start[rows.start : rows.stop + 1]
        row_of = np.repeat(np.arange(block), np.diff(start))
        cells = row_of * bins + self.context_bins[start[0] : start[-1]]
        counts = np.bincount(cells, minlength=block * bins)
        return counts.astype(np.int32).reshape(block, bins)


class _DenseIds(dict):
    """Token -> dense id; an unseen token gets the next id."""

    def __missing__(self, token: str) -> int:
        self[token] = token_id = len(self)
        return token_id


def intern_sentences(sentences: Sequence[str]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Tokenize each sentence once: (words, token_spans, token_ids), words
    in first-seen order and each sentence's ids one run after the last."""
    token_ids = _DenseIds()
    word_id = token_ids.__getitem__
    ids: list[int] = []
    starts = [0]
    for sentence in sentences:
        ids += map(word_id, sentence.translate(_FOLD).split())
        starts.append(len(ids))
    bounds = np.array(starts, dtype=np.int64)
    spans = np.stack([bounds[:-1], bounds[1:]], axis=1)
    return list(token_ids), spans, np.array(ids, dtype=np.int32)


# A scan of this many n-gram instances or more is refused: instance numbers
# and dense key ranks stay below 2**31, so a rank packed with an instance
# number, rank * instances + i, stays below 2**62.
_INSTANCE_LIMIT = 1 << 31
# A full-width key packed with an instance number, key * instances + i,
# must stay below this; past it the scan packs the key's dense rank instead.
_PACK_LIMIT = 1 << 63


def _instance_keys(
    ranked: np.ndarray,
    ends: np.ndarray,
    n: int,
    width: int,
    vocabulary: int,
    prefixes: list[np.ndarray],
) -> Iterator[tuple[int, slice, np.ndarray]]:
    """The packed keys of the first `width` tokens of every instance, in scan
    order, a block of sentences at a time: (first scan-order instance
    number, the block's sentences, keys).

    A key is the rank of its first token; each later token multiplies the
    key by the vocabulary size and adds its rank. Before token j goes in
    (counting from 0, j >= 2), the key of the first j tokens is replaced by
    its dense rank among `prefixes[j - 2]`, their sorted distinct keys.
    Ranks are below the vocabulary size and dense ranks below the instance
    count, both below 2**31, so every key is below 2**62, and keys sort as
    token sequences."""
    for sentences in _blocks(ends, _BLOCK):
        lo, hi = sentences.start, sentences.stop
        first = int(ends[lo - 1]) if lo else 0
        tokens = ranked[first : ends[hi - 1]]
        # The window at token p is an instance unless p is one of the last
        # n - 1 tokens of its sentence.
        starts = np.ones(len(tokens), dtype=bool)
        for j in range(1, n):
            starts[ends[lo:hi] - first - j] = False
        at = np.flatnonzero(starts)
        keys = tokens[at].astype(np.int64)
        for j in range(1, width):
            if j > 1:
                keys = np.searchsorted(prefixes[j - 2], keys)
            keys *= vocabulary
            keys += tokens[at + j]
        yield first - (n - 1) * lo, sentences, keys


def _sorted_distinct(
    packed: np.ndarray, blocks: Iterator[tuple[int, slice, np.ndarray]]
) -> np.ndarray:
    """Write each block of `_instance_keys` into `packed` at its instances'
    scan-order places, sort it in place, and return its distinct keys,
    sorted: each value's first occurrence."""
    for i, _, keys in blocks:
        packed[i : i + len(keys)] = keys
    packed.sort()
    first = np.ones(len(packed), dtype=bool)
    np.not_equal(packed[1:], packed[:-1], out=first[1:])
    return packed[first]


def _compact(
    packed: np.ndarray,
    instances: int,
    min_total: int,
    window_ends: np.ndarray,
    bins: np.ndarray,
    sids: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Move the kept instances of the sorted `packed` (key * instances + i)
    to its front, a _BLOCK at a time, each written as its (bin, sentence id)
    int32 pair over its own 8 bytes. Instance i is a window of the sentence
    that `window_ends` (bin order, as `bins` and `sids`) places it in.
    Returns the (K + 1,) int64 starts of the kept n-grams' runs in the
    compacted buffer and each one's first instance number.

    A run of equal keys is kept when it holds min_total rows or more; a run
    begun in an earlier block keeps that block's verdict. A block writes at
    most as many rows as it reads, and only below its own end, so no write
    reaches a row that is still to be read. Each temporary is freed once
    used, so a block holds about two _BLOCK-sized int64 arrays at a time."""
    pairs = packed.view(np.int32).reshape(-1, 2)
    starts: list[np.ndarray] = []
    firsts = [np.empty(0, dtype=np.int64)]
    written, kept_run, last_key = 0, False, -1
    for lo in range(0, instances, _BLOCK):
        block = packed[lo : lo + _BLOCK]
        key = block // instances
        new_run = np.empty(len(key), dtype=bool)
        new_run[0] = key[0] != last_key
        np.not_equal(key[1:], key[:-1], out=new_run[1:])
        run = np.flatnonzero(new_run)
        del new_run
        # The rows of each run begun here; the rows before the first, of a
        # run begun in an earlier block, take the verdict carried in.
        length = np.diff(run, prepend=0, append=len(block))
        verdict = length >= min_total
        verdict[0] = kept_run
        if len(run):
            # The last run may go on past the block: it is kept when the
            # key min_total - 1 places on is its own.
            ahead = lo + int(run[-1]) + min_total - 1
            verdict[-1] = ahead < instances and packed[ahead] // instances == key[run[-1]]
        kept_run, last_key = bool(verdict[-1]), int(key[-1])
        del key
        at = np.flatnonzero(np.repeat(verdict, length))
        kept = np.searchsorted(at, run[verdict[1:]])
        del run, length, verdict
        instance = block[at]
        del at
        instance %= instances
        starts.append(written + kept)
        firsts.append(instance[kept])
        sentence = np.searchsorted(window_ends, instance, side="right")
        del instance
        pairs[written : written + len(sentence), 0] = bins[sentence]
        pairs[written : written + len(sentence), 1] = sids[sentence]
        written += len(sentence)
    starts.append(np.array([written]))
    return np.concatenate(starts).astype(np.int64, copy=False), np.concatenate(firsts)


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
    sentence takes its document's bin. The tokens stay in scan order; a
    stable sort of the sentences by bin numbers the instances in bin order,
    input order within a bin, as `bin_documents` orders the documents.
    numpy then groups the instances: each instance's tokens are
    packed into one int64 key (`_instance_keys`, in scan order), packed
    again with the instance's bin-order number and sorted once in place,
    and each run of at least min_total equal keys is a kept n-gram, whose
    instances `_compact` turns into contexts in the same buffer. Each kept
    sentence's token row is a span of the scan's ids. A bad option is
    refused before the first document is read; no documents, or 2**31
    instances or more, after.
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
    instances = len(ids) - (n - 1) * len(lengths)
    if instances >= _INSTANCE_LIMIT:
        raise InputError(
            f"{instances} n-gram instances; a table holds fewer than {_INSTANCE_LIMIT}"
        )
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

    bins = doc_bins[np.frombuffer(docs_of, dtype=np.intc)]
    sids, lengths = (np.frombuffer(a, dtype=np.intc) for a in (sids, lengths))
    ends = np.cumsum(lengths, dtype=np.int64)
    del doc_bins, docs_of
    totals = np.zeros(binning.bin_count, dtype=np.int64)
    np.add.at(totals, bins, lengths - (n - 1))
    bin_totals = totals.tolist()
    del totals

    # The instances are numbered in bin order, scan order within a bin: the
    # order of each n-gram's contexts, and so ngram_table.json, depends on
    # it. The tokens stay in scan order. One stable sort of the sentences by
    # bin, the identity for a file in date order, gives each sentence its
    # place in bin order, and `shift` turns its scan-order instance numbers
    # into bin-order ones. Each earlier sentence has n - 1 more tokens than
    # windows, so window_ends[t] ends the instances of the t-th sentence in
    # bin order.
    by_bin = np.argsort(bins, kind="stable").astype(np.int32)
    bins, sids = bins[by_bin], sids[by_bin]
    window_ends = np.cumsum(lengths[by_bin] - (n - 1), dtype=np.int64)
    shift = np.empty(len(ends), dtype=np.int64)
    shift[by_bin] = window_ends
    shift -= ends - (n - 1) * np.arange(1, len(ends) + 1)

    # One instance array is sorted in place, with no permutation of it: for
    # n > 2 once per prefix width, whose distinct keys rank the next width's
    # prefixes, and then once at full width, each instance's key packed with
    # its bin-order number as key * instances + i. Sorted, one n-gram's
    # instances are one run, in instance and so bin order; where a value
    # sits before the sort does not matter.
    vocabulary = len(words)
    packed = np.empty(instances, dtype=np.int64)
    prefixes: list[np.ndarray] = []
    for width in range(2, n):
        keys = _instance_keys(ranked, ends, n, width, vocabulary, prefixes)
        prefixes.append(_sorted_distinct(packed, keys))
    # Each full-width key is below span. When span * instances would pass
    # the packing limit, each key is first replaced by its dense rank among
    # the sorted distinct full-width keys, as a prefix is: a rank is below
    # instances.
    span = (len(prefixes[-1]) if prefixes else vocabulary if n > 1 else 1) * vocabulary
    ranks = None
    if span * instances > _PACK_LIMIT:
        ranks = _sorted_distinct(packed, _instance_keys(ranked, ends, n, n, vocabulary, prefixes))
    for i, sentences, keys in _instance_keys(ranked, ends, n, n, vocabulary, prefixes):
        if ranks is not None:
            keys = np.searchsorted(ranks, keys)
        keys *= instances
        keys += np.arange(i, i + len(keys))
        keys += np.repeat(shift[sentences], lengths[sentences] - (n - 1))
        packed[i : i + len(keys)] = keys
    packed.sort()
    del prefixes, ranks, shift

    # The kept instances move to the front of the buffer, each as its
    # (bin, sentence id) pair in its own 8 bytes, and the buffer shrinks to
    # them: the contexts are the two int32 columns of an (M, 2) array.
    context_start, first = _compact(packed, instances, min_total, window_ends, bins, sids)
    # No view of the buffer is left, so it is cut to its first M rows in place.
    packed.resize(context_start[-1], refcheck=False)
    contexts = packed.view(np.int32).reshape(-1, 2)
    # Each key's text, from its first instance's tokens: a sentence's k-th
    # window starts at its k-th token, and its windows end n - 1 places
    # before its tokens do.
    at = np.searchsorted(window_ends, first, side="right")
    first += ends[by_bin[at]] - window_ends[at] - (n - 1)
    key_columns = [[words[r] for r in ranked[first + j].tolist()] for j in range(n)]
    del packed, window_ends, first, at, bins

    # Renumber the hosting sentences by first use in sorted key order.
    used = len(contexts)
    first_use = np.full(len(texts), used, dtype=np.int64)
    for lo in range(0, used, _BLOCK):
        block = contexts[lo : lo + _BLOCK, 1]
        np.minimum.at(first_use, block, np.arange(lo, lo + len(block)))
    hosts = contexts[np.sort(first_use[first_use < used]), 1]
    new_id = np.empty(len(texts), dtype=np.int32)
    new_id[hosts] = np.arange(len(hosts), dtype=np.int32)
    for lo in range(0, used, _BLOCK):
        contexts[lo : lo + _BLOCK, 1] = new_id[contexts[lo : lo + _BLOCK, 1]]
    sentences = [texts[i] for i in hosts.tolist()]
    # Each kept sentence's row of tokens is the run of `ranked` at any of
    # its occurrences: one sentence text always has the same tokens.
    occurrence = np.empty(len(texts), dtype=np.int64)
    occurrence[sids] = by_bin
    scanned = occurrence[hosts]
    del texts, first_use, new_id, occurrence, sids, by_bin, hosts
    spans = np.empty((len(scanned), 2), dtype=np.int64)
    spans[:, 1] = ends[scanned]
    spans[:, 0] = spans[:, 1] - lengths[scanned]
    del lengths, ends, scanned

    return NgramTable(
        n=n,
        min_total=min_total,
        include_titles=include_titles,
        binning=binning,
        keys=list(map(" ".join, zip(*key_columns))),
        bin_totals=bin_totals,
        sentences=sentences,
        context_start=context_start,
        context_bins=contexts[:, 0],
        context_sids=contexts[:, 1],
        sentence_tokens=(words, spans, ranked),
    )


def usage_matrix(table: NgramTable) -> np.ndarray:
    """Every n-gram's relative usage trend as one (n-grams × bins) array,
    rows in sorted key order: counts / bin_totals, 0 in empty bins."""
    totals = np.array(table.bin_totals, dtype=np.int64)
    usage = np.zeros((len(table.keys), len(totals)))
    for rows in _blocks(usage.shape[1] * np.arange(1, len(usage) + 1), _BLOCK):
        np.divide(table.count_rows(rows), totals, out=usage[rows], where=totals > 0)
    return usage


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
