import json
import random
import re
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from salience.corpus import (
    Document,
    analysis_text,
    bin_documents,
    build_binning,
    load_corpus,
    read_corpus,
)
from salience import ngrams, pipeline
from salience.errors import ConsistencyError, InputError
from salience.ngrams import (
    _Fold,
    build_ngram_table,
    relative_usage_trend,
    usage_matrix,
    sentences_with_tokens,
)

from salience.pipeline import RunConfig, load_table_json, run_stage, write_table_json
from salience.synth import _oracle_sentences, oracle_count_many

from conftest import assert_same_table, corpus_file, day, make_docs, sentence_texts


# The tokenizer by regex alone, written out apart from the package: tokens are
# the runs of [^\W_] in each chunk between sentence boundaries. It is the
# tokenizer of the reference table, so the reference is not the implementation.
_ORACLE_WORD_RE = re.compile(r"[^\W_]+")
_ORACLE_BOUNDARY_RE = re.compile(r"(?<=[.!?])\s+|\n\s*\n")


def oracle_sentences_with_tokens(text):
    """(raw sentence, tokens) per chunk of text that holds a token."""
    out = []
    for chunk in _ORACLE_BOUNDARY_RE.split(text):
        tokens = _ORACLE_WORD_RE.findall(chunk)
        if tokens:
            out.append((chunk.strip(), tokens))
    return out


def _reference_table(docs, n=2, min_total=1, *, include_titles=True, granularity="month"):
    """build_ngram_table as a dict of context lists, one per unique n-gram,
    over the documents held and binned first: the oracle for the scan and
    the numpy group-by. Returns the binning, the bin totals, the sentences
    and {key: (per-bin counts, [(bin, sentence id), ...])}, keys in the order
    of their token tuples under sorted() and written as texts."""
    binning = build_binning(docs, granularity)
    m = binning.bin_count
    bin_totals = [0] * m
    sentence_ids = {}
    acc = defaultdict(list)
    for t, doc in bin_documents(docs, binning):
        for raw, tokens in oracle_sentences_with_tokens(analysis_text(doc, include_titles)):
            if len(tokens) < n:
                continue
            context = (t, sentence_ids.setdefault(raw, len(sentence_ids)))
            bin_totals[t] += len(tokens) - n + 1
            for key in zip(*[tokens[i:] for i in range(n)]):
                acc[key].append(context)

    texts = list(sentence_ids)
    renumbered = [-1] * len(texts)
    sentences = []
    rows = {}
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
        rows[" ".join(key)] = (counts, contexts)
    return binning, bin_totals, sentences, rows


def _contexts(table, key):
    """One n-gram's contexts as (bin, sentence id) pairs, read from the CSR
    arrays."""
    row = table.keys.index(key)
    lo, hi = table.context_start[row : row + 2].tolist()
    return list(zip(table.context_bins[lo:hi].tolist(), table.context_sids[lo:hi].tolist()))


def _context_sentences(table, docs, key):
    """One n-gram's context texts, recovered by rescanning `docs`."""
    texts = sentence_texts(table, docs)
    return [texts[sid] for _, sid in _contexts(table, key)]


def _assert_equals_reference(table, reference, docs):
    """The columnar table against the dict-of-lists oracle, field by field.
    The sentence ids must number the oracle's texts, one token row each."""
    binning, bin_totals, sentences, rows = reference
    assert table.binning == binning
    assert table.bin_totals == bin_totals
    assert sentence_texts(table, docs) == sentences
    assert len(table.sentence_tokens[1]) == len(sentences)
    assert table.keys == list(rows)
    assert table.counts.dtype == np.int32
    assert table.context_start.dtype == np.int64
    assert table.context_bins.dtype == table.context_sids.dtype == np.int32
    assert table.counts.shape == (len(rows), len(bin_totals))
    assert table.counts.tolist() == [counts for counts, _ in rows.values()]
    assert table.context_start[0] == 0
    assert [_contexts(table, key) for key in table.keys] == [ctx for _, ctx in rows.values()]


def surfaces(text):
    return [tokens for _, tokens in sentences_with_tokens(text)]


def table_of(text, n=2):
    """The n-gram table of a one-document corpus, with every n-gram kept."""
    return build_ngram_table(make_docs([(day(2017, 1), text)]), n=n, min_total=1)


class TestTokenize:
    def test_apostrophe_splits(self):
        assert surfaces("Anyone's runoff election.") == [["Anyone", "s", "runoff", "election"]]

    def test_sentence_boundaries(self):
        assert surfaces("Polls closed. Votes counted!") == [
            ["Polls", "closed"],
            ["Votes", "counted"],
        ]

    def test_digits_are_tokens(self):
        assert surfaces("March 14, 2019") == [["March", "14", "2019"]]

    def test_empty_text(self):
        assert sentences_with_tokens("") == []
        assert sentences_with_tokens("...!!!") == []

    def test_blank_line_splits_sentences(self):
        assert surfaces("one two\n\nthree four") == [["one", "two"], ["three", "four"]]

    def test_case_preserved(self):
        assert surfaces("Harbor the") == [["Harbor", "the"]]

    def test_token_indices(self):
        # Sentence index and token position are the list positions.
        sentences = surfaces("a b. c")
        assert sentences[0][1] == "b"
        assert sentences[1][0] == "c"

    def test_raw_sentence_kept_for_contexts(self):
        pairs = sentences_with_tokens("The runoff election was held. Next one.")
        assert pairs[0][0] == "The runoff election was held."
        assert pairs[0][1] == ["The", "runoff", "election", "was", "held"]


# The characters the tokenizer must tell apart: sentence marks, ASCII and
# Unicode whitespace (\x1c and \x85 are whitespace to the regex and to
# str.split), '_' (a word character but not a token one), numerics that are
# not decimal digits, a combining mark and a lone surrogate.
_BOUNDARY_ALPHABET = [
    "a", "B", "é", "7", ".", "!", "?", "\n", "\r", "\t", "\x0b", "\x1c", "\x85", "\xa0",
    " ", "\u3000", "_", "²", "Ⅻ", "٣", "\u0301", "\ud800",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_BOUNDARY_ALPHABET), max_size=40).map("".join))
@example("a.\n\nb!\x85c ?d_e\u3000²\u0301.")
# Where the boundary's two alternatives meet: a mark before a blank line and
# after one, a mark and a newline with Unicode whitespace between, two marks,
# and a closing mark.
@example("a b.\n\nc d")
@example("a b\n\n. c d")
@example("a b.\x1c\nc d")
@example("a b.\x85\nc d")
@example("a b..  c d")
@example("a b. c d.")
def test_tokenizer_equals_the_regex_oracle(text):
    assert sentences_with_tokens(text) == oracle_sentences_with_tokens(text)


# The boundary as a top-level alternation, the tokenizer's earlier pattern.
# The package's pattern puts both alternatives behind one leading class, so
# the regex engine can skip ahead to a mark or a newline; it must find the
# same boundaries.
_ALTERNATION_BOUNDARY_RE = re.compile(r"[.!?]\s+|\n\s*\n")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_BOUNDARY_ALPHABET), max_size=40).map("".join))
@example("a b.\n\nc d")
@example("a b\n\n. c d")
@example("a b.\x1c\nc d")
@example("a b.\x85\nc d")
@example("a b..  c d")
@example("a b. c d.")
def test_boundary_spans_equal_the_alternation(text):
    spans = [m.span() for m in ngrams._BOUNDARY_RE.finditer(text)]
    assert spans == [m.span() for m in _ALTERNATION_BOUNDARY_RE.finditer(text)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_BOUNDARY_ALPHABET), max_size=40).map("".join))
@example("a b\n\x0c\nc d")
@example("a b\n\u3000\x85\nc d")
def test_synth_oracle_splits_sentences_as_the_tokenizer(text):
    # perfbench's count check reads its counts from this oracle: a blank
    # line of any Unicode whitespace must end a sentence there too.
    expected = [tokens for _, tokens in sentences_with_tokens(text)]
    assert _oracle_sentences(text) == expected


def test_fold_keeps_exactly_the_oracle_word_characters():
    # Every code point, lone surrogates included: the fold keeps each one
    # the oracle's regex matches and turns every other into a space.
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    pieces, at = [], 0
    for match in _ORACLE_WORD_RE.finditer(every):
        pieces += [" " * (match.start() - at), match.group()]
        at = match.end()
    pieces.append(" " * (len(every) - at))
    # A table of its own: the module's would keep every code point.
    assert every.translate(_Fold()) == "".join(pieces)


class TestExtractNgrams:
    def test_windows_within_sentence(self):
        assert table_of("a b c").keys == ["a b", "b c"]

    def test_no_cross_sentence_windows(self):
        table = table_of("a. b")
        assert table.keys == []
        assert table.counts.shape == (0, 1)
        assert table.bin_totals == [0]

    def test_repeated_sentences_repeat_instances(self):
        table = table_of("a b. a b")
        assert table.keys == ["a b"]
        assert table.context_start.tolist() == [0, 2]
        assert table.counts.tolist() == [[2]]

    def test_short_sentences_yield_nothing(self):
        assert table_of("a").keys == []

    def test_n_must_be_positive(self):
        with pytest.raises(InputError):
            table_of("a b", n=0)


class TestBuildTable:
    def test_single_doc_counts(self):
        docs = make_docs([(day(2017, 1), "a b c")])
        table = build_ngram_table(docs, n=2, min_total=1)
        assert table.keys == ["a b", "b c"]
        assert table.counts.tolist() == [[1], [1]]
        assert table.bin_totals == [2]

    def test_min_total_filters_but_keeps_bin_totals(self):
        docs = make_docs([(day(2017, 1), "a b c")])
        table = build_ngram_table(docs, n=2, min_total=2)
        assert table.keys == []
        assert table.counts.shape == (0, 1)
        assert table.bin_totals == [2]

    def test_counts_across_gap_bin(self):
        docs = make_docs([(day(2017, 1), "x y"), (day(2017, 3), "x y")])
        table = build_ngram_table(docs, n=2, min_total=1)
        assert table.keys == ["x y"]
        assert table.counts.tolist() == [[1, 0, 1]]

    def test_titles_included_by_default(self):
        docs = [Document(id="d0", date=day(2017, 1), text="body text", title="big title")]
        with_title = build_ngram_table(docs, n=2, min_total=1)
        assert "big title" in with_title.keys
        assert with_title.include_titles is True
        without = build_ngram_table(docs, n=2, min_total=1, include_titles=False)
        assert "big title" not in without.keys
        assert without.include_titles is False

    def test_no_documents(self):
        with pytest.raises(InputError, match="no documents"):
            build_ngram_table([])

    @pytest.mark.parametrize(
        "options, message",
        [
            pytest.param({"n": 0}, "n must be >= 1", id="n"),
            pytest.param({"n": 2**31}, "n must be below 2147483648", id="n-2**31"),
            pytest.param({"n": 10**12}, "n must be below 2147483648", id="n-10**12"),
            pytest.param({"min_total": 0}, "min_total must be >= 1", id="min_total"),
            pytest.param({"granularity": "fortnight"}, "fortnight", id="granularity"),
        ],
    )
    def test_options_are_refused_before_any_document_is_read(self, options, message):
        def untouched():
            raise AssertionError("the scan read a document before checking its options")
            yield

        with pytest.raises(InputError, match=message):
            build_ngram_table(untouched(), **options)

    def test_scan_of_a_file_bins_it_by_the_dates_read(self, tmp_path):
        records = [
            {"id": "a", "date": "2017-03-15", "text": "one two"},
            {"id": "b", "date": "2016-11-02", "text": "two three", "title": "T"},
            {"id": "c", "date": "2017-01-20", "text": "three four"},
        ]
        path = corpus_file(tmp_path, records)
        table = build_ngram_table(read_corpus(path), granularity="week")
        assert table.binning == build_binning(load_corpus(path), "week")
        assert table.binning.origin == day(2016, 10, 31)  # the Monday before b
        assert sum(table.bin_totals) == 3


class TestRelativeUsage:
    def test_proportions(self):
        assert relative_usage_trend([2, 0], [4, 5]) == [0.5, 0.0]

    def test_sole_ngram_gets_one(self):
        assert relative_usage_trend([3], [3]) == [1.0]

    def test_empty_bin_maps_to_zero(self):
        assert relative_usage_trend([0], [0]) == [0.0]

    def test_counts_exceeding_totals_is_inconsistent(self):
        with pytest.raises(ConsistencyError):
            relative_usage_trend([5], [4])

    def test_length_mismatch(self):
        with pytest.raises(ConsistencyError):
            relative_usage_trend([1], [1, 1])


class TestContexts:
    def test_context_is_the_enclosing_sentence(self):
        docs = make_docs([(day(2017, 1), "The runoff election was held. Unrelated line.")])
        table = build_ngram_table(docs, n=2, min_total=1)
        assert _context_sentences(table, docs, "runoff election") == [
            "The runoff election was held."
        ]

    def test_one_context_per_instance(self):
        docs = make_docs(
            [(day(2017, 1), "vote count rose. vote count fell"), (day(2017, 2), "vote count")]
        )
        table = build_ngram_table(docs, n=2, min_total=1)
        assert len(_context_sentences(table, docs, "vote count")) == 3

    def test_duplicate_sentences_not_deduped(self):
        # One context per instance, even when both instances share a sentence id.
        docs = make_docs([(day(2017, 1), "same words"), (day(2017, 2), "same words")])
        table = build_ngram_table(docs, n=2, min_total=1)
        assert _context_sentences(table, docs, "same words") == ["same words", "same words"]
        assert _contexts(table, "same words") == [(0, 0), (1, 0)]

    def test_contexts_contain_the_ngram_tokens(self):
        docs = make_docs([(day(2017, 1), "alpha beta gamma. beta gamma delta")])
        table = build_ngram_table(docs, n=2, min_total=1)
        for key in table.keys:
            for sentence in _context_sentences(table, docs, key):
                flat = [t for _, toks in oracle_sentences_with_tokens(sentence) for t in toks]
                n = len(key.split(" "))
                assert any(
                    " ".join(flat[i : i + n]) == key for i in range(len(flat) - n + 1)
                ), f"{key} not in context {sentence!r}"

    def test_sentences_listed_once_and_only_if_they_host_a_kept_instance(self):
        docs = make_docs(
            [
                (day(2017, 1), "kept pair here. kept pair again. rare words"),
                (day(2017, 2), "kept pair here. lonely. kept pair again."),
            ]
        )
        table = build_ngram_table(docs, n=2, min_total=3)
        assert table.keys == ["kept pair"]
        assert sentence_texts(table, docs) == ["kept pair here.", "kept pair again."]
        used = set(table.context_sids.tolist())
        assert used == set(range(len(table.sentence_tokens[1]))) == {0, 1}


words = st.sampled_from(["alpha", "bravo", "charlie", "delta", "Echo"])
sentence_strat = st.lists(words, min_size=1, max_size=5).map(" ".join)
doc_strat = st.lists(sentence_strat, min_size=1, max_size=4).map(". ".join)
corpus_strat = st.lists(
    st.tuples(st.integers(min_value=1, max_value=4), doc_strat), min_size=1, max_size=10
)


def _docs_from(items):
    return make_docs([(day(2017, month), text) for month, text in items])


@settings(max_examples=40)
@given(corpus_strat)
def test_partition_and_count_conservation(items):
    table = build_ngram_table(_docs_from(items), n=2, min_total=1)
    # The usage array is the scalar trends, row for row and bit for bit.
    rows = table.counts.tolist()
    assert usage_matrix(table).tolist() == [
        relative_usage_trend(row, table.bin_totals) for row in rows
    ]
    for t, total in enumerate(table.bin_totals):
        column = sum(row[t] for row in rows)
        assert column == total
        if total > 0:
            share = sum(relative_usage_trend(row, table.bin_totals)[t] for row in rows)
            assert abs(share - 1.0) < 1e-9


def _bin_sentences(table, docs, key):
    """An n-gram's contexts as sorted (bin, sentence text) pairs: sentence ids
    depend on n-gram order, the texts do not."""
    texts = sentence_texts(table, docs)
    return sorted((t, texts[sid]) for t, sid in _contexts(table, key))


@settings(max_examples=25)
@given(corpus_strat, st.randoms(use_true_random=False))
def test_order_independence(items, rnd):
    shuffled_items = list(enumerate(items))
    rnd.shuffle(shuffled_items)
    docs = [
        Document(id=f"d{orig}", date=day(2017, month), text=text)
        for orig, (month, text) in shuffled_items
    ]
    ordered = _docs_from(items)
    a = build_ngram_table(ordered, n=2, min_total=1)
    b = build_ngram_table(docs, n=2, min_total=1)
    assert a.binning == b.binning
    assert a.bin_totals == b.bin_totals
    assert a.keys == b.keys
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.context_start, b.context_start)
    for key in a.keys:
        assert _bin_sentences(a, ordered, key) == _bin_sentences(b, docs, key)


@settings(max_examples=40)
@given(corpus_strat, st.integers(min_value=1, max_value=3))
def test_sentences_are_distinct_and_each_hosts_a_kept_instance(items, min_total):
    docs = _docs_from(items)
    table = build_ngram_table(docs, n=2, min_total=min_total)
    texts = sentence_texts(table, docs)
    assert len(set(texts)) == len(texts) == len(table.sentence_tokens[1])
    # Every sentence id hosts a kept instance, numbered by first use, and
    # names one text: each context's id gives its rescanned sentence.
    assert list(dict.fromkeys(table.context_sids.tolist())) == list(range(len(texts)))
    for key in table.keys:
        for sentence in _context_sentences(table, docs, key):
            tokens = _ORACLE_WORD_RE.findall(sentence)
            assert key in map(" ".join, zip(tokens, tokens[1:]))


mixed_words = st.sampled_from(["alpha", "Echo", "echo", "émile", "Ünï", "2017", "Zulu"])
mixed_corpus = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=4),
        st.lists(st.lists(mixed_words, min_size=1, max_size=5).map(" ".join), min_size=1, max_size=4)
        .map(". ".join),
    ),
    min_size=1,
    max_size=10,
)


@settings(max_examples=60)
@given(mixed_corpus, st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=7))
def test_table_equals_reference(items, n, min_total):
    # min_total up to 7 exceeds many n-grams' instance counts: a key is kept
    # when it equals the sorted key min_total - 1 places on, which must not
    # reach into the next n-gram's run or past the end.
    # The first document's text again in another bin: one sentence, two bins.
    month, text = items[0]
    docs = _docs_from(items + [(month % 4 + 1, text)])
    table = build_ngram_table(docs, n=n, min_total=min_total)
    _assert_equals_reference(table, _reference_table(docs, n=n, min_total=min_total), docs)


@settings(max_examples=40)
@given(mixed_corpus, st.integers(min_value=1, max_value=4), st.sampled_from([1, 2, 5]))
def test_block_size_does_not_change_the_table(items, n, block):
    # The build packs and numbers keys and compacts instances a bounded
    # block at a time; a block of one element puts a block boundary at every
    # sentence and run. The documents come in month order or not.
    docs = _docs_from(items)
    expected = build_ngram_table(docs, n=n, min_total=2)
    with mock.patch.object(ngrams, "_BLOCK", block):
        table = build_ngram_table(docs, n=n, min_total=2)
    assert_same_table(table, expected)
    assert _decoded(table.sentence_tokens) == _decoded(expected.sentence_tokens)


# Tokens where a separator could decide the order: tokens that begin one
# another ("a", "ab"), digits, case and non-ASCII letters, and any run of
# alphanumeric code points.
order_tokens = st.sampled_from(
    ["a", "ab", "abc", "b", "A", "0", "09", "9", "é", "éa", "Ü", "ß", "二三"]
) | st.text(st.characters().filter(str.isalnum), min_size=1, max_size=3)
token_keys = st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(*[order_tokens] * n), min_size=1, max_size=30),
    )
)


@settings(max_examples=80)
@given(token_keys)
@example((2, [("a", "b"), ("ab", "a"), ("a", "ab"), ("a", "a"), ("9", "a"), ("09", "é")]))
@example((1, [("ab",), ("a",), ("éa",), ("é",), ("A",)]))
def test_text_keys_sort_as_token_tuples(case):
    # An n-gram is its tokens joined by single spaces: its text must sort as
    # its token tuple does, and the scan must return the texts in that order.
    n, keys = case
    texts = [" ".join(key) for key in keys]
    by_tuple = sorted(range(len(keys)), key=keys.__getitem__)
    assert sorted(range(len(keys)), key=texts.__getitem__) == by_tuple
    # One sentence per key, of exactly n tokens: the sentence is one window.
    items = [(day(2017, 1 + i % 3), f"{text}.") for i, text in enumerate(texts)]
    table = build_ngram_table(make_docs(items), n=n, min_total=1)
    assert table.keys == sorted(set(texts))
    assert table.keys == [" ".join(key) for key in sorted(set(keys))]


def _decoded(sentence_tokens):
    """Token rows, each a span of the token ids, decoded to one list of
    words per sentence."""
    words, spans, ids = sentence_tokens
    return [[words[i] for i in ids[a:b].tolist()] for a, b in spans.tolist()]


token_words = st.sampled_from(["alpha", "Echo", "echo", "ECHO", "émile", "Ünï", "İstanbul", "2017", "x9"])
token_sentence = st.lists(
    st.tuples(token_words, st.sampled_from([" ", " - ", "'", ", ", "_"])), min_size=1, max_size=5
).map(lambda pairs: "".join(word + gap for word, gap in pairs).strip(" ,-'"))
token_corpus = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=4),
        st.lists(token_sentence, min_size=1, max_size=4).map(". ".join),
    ),
    min_size=1,
    max_size=10,
)


@settings(max_examples=60)
@given(token_corpus, st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=3))
# Case variants, a one-token sentence under n = 2, and a sentence that
# min-count 2 drops while another sentence stays.
@example([(1, "Echo echo. İstanbul. Ünï 2017 x9"), (2, "ECHO echo")], 2, 2)
def test_token_rows_are_the_sentences_tokens(items, n, min_total):
    # The first document's text again in another bin: one sentence, two bins.
    month, text = items[0]
    docs = _docs_from(items + [(month % 4 + 1, text)])
    table = build_ngram_table(docs, n=n, min_total=min_total)
    words, spans, ids = table.sentence_tokens
    assert words == sorted(words)
    assert spans.dtype == np.int64 and ids.dtype == np.int32
    texts = sentence_texts(table, docs)
    assert spans.shape == (len(texts), 2)
    expected = [_ORACLE_WORD_RE.findall(sentence) for sentence in texts]
    assert _decoded(table.sentence_tokens) == expected


# Text at the tokenizer's edges: '_' (a word character but not a token one),
# digits, U+00A0 and U+2028 (whitespace outside ASCII), \x1c-\x1f (ASCII
# whitespace to the regex), a combining mark, curly quotes, sentence ends,
# CRLF and blank lines.
_EDGE_PIECES = [
    "alpha", "Émile", "x9", "2017", "a", "é", "_", "-", "'", "’", "“", " ", "\t", "\u00a0",
    "\u2028", "\x1c", "\x1d", "\x1e", "\x1f", "e\u0301", "\u0301", ".", "!", "?", "\n",
    "\r\n", "\n\n", "\r\n\r\n",
]
any_text = st.one_of(
    st.text(),
    st.lists(st.sampled_from(_EDGE_PIECES)).map("".join),
    # ASCII only, as both benchmark corpora are.
    st.lists(st.sampled_from([p for p in _EDGE_PIECES if p.isascii()])).map("".join),
)
_EDGE_EXAMPLE = (
    "Crisis_talks. Talks\u00a0resume!\r\n\r\nCafe\u0301 re\u2028opens?  "
    "Ports\x1cclose\x1fnow.\n\nIt’s “done”.\n \n"
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 4), any_text, st.none() | any_text), min_size=1, max_size=6
    ),
    st.integers(1, 3),
    st.booleans(),
)
@example([(1, _EDGE_EXAMPLE, "Title_one\r\nhere"), (2, "plain ascii. text here", None)], 1, True)
def test_scan_equals_the_regex_oracle(items, n, include_titles):
    docs = [
        Document(id=f"d{i}", date=day(2017, month), text=text, title=title)
        for i, (month, text, title) in enumerate(items)
    ]
    table = build_ngram_table(docs, n=n, min_total=1, include_titles=include_titles)
    reference = _reference_table(docs, n=n, include_titles=include_titles)
    _assert_equals_reference(table, reference, docs)
    expected = [_ORACLE_WORD_RE.findall(sentence) for sentence in reference[2]]
    assert _decoded(table.sentence_tokens) == expected


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.dates(min_value=day(2016, 12, 25), max_value=day(2017, 3, 10)),
            st.lists(token_sentence, min_size=1, max_size=4).map(". ".join),
            st.none() | st.sampled_from(["Echo echo", "alpha. x9"]),
        ),
        min_size=1,
        max_size=10,
    ),
    st.sampled_from(["month", "week", "day"]),
    st.integers(1, 3),
)
# Files out of date order, with one text in several bins.
@example(
    [
        (day(2017, 3, 1), "b c. a b", None),
        (day(2017, 1, 9), "a b", "T"),
        (day(2017, 3, 1), "a b", None),
    ],
    "month",
    1,
)
def test_streamed_file_equals_the_binned_corpus(docs, granularity, n):
    # The scan reads the file in its own order and bins afterwards; the table
    # must be the one of the corpus binned first, contexts in bin order and
    # file order within a bin, over the binning that build_binning gives.
    records = [
        {"id": f"d{i}", "date": date.isoformat(), "text": text, "title": title}
        for i, (date, text, title) in enumerate(docs)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = corpus_file(Path(tmp), records)
        table = build_ngram_table(read_corpus(path), n=n, min_total=1, granularity=granularity)
        documents = load_corpus(path)
    assert table.binning == build_binning(documents, granularity)
    reference = _reference_table(documents, n=n, granularity=granularity)
    _assert_equals_reference(table, reference, documents)
    held = build_ngram_table(documents, n=n, min_total=1, granularity=granularity)
    assert_same_table(table, held)
    expected = [_ORACLE_WORD_RE.findall(sentence) for sentence in reference[2]]
    assert _decoded(table.sentence_tokens) == expected


@pytest.mark.parametrize("block", [1, 8])
def test_write_blocks_do_not_change_the_table(tmp_path, monkeypatch, block):
    # Every n-gram holds four counts and a context or more, so under either
    # budget each is a block of its own.
    docs = _docs_from([(1, "a b c. b c d"), (2, "a b. c d e"), (3, "b c d"), (4, "émile a b")])
    table = build_ngram_table(docs, n=2, min_total=1)
    monkeypatch.setattr(pipeline, "_BLOCK", block)
    path = tmp_path / "ngram_table.json"
    write_table_json(path, table)
    # The file is one compact json.dumps of the whole table.
    binning, bin_totals, _, rows = _reference_table(docs, n=2)
    payload = {
        "version": 3,
        "n": 2,
        "min_total": 1,
        "include_titles": True,
        "granularity": "month",
        "origin": binning.origin.isoformat(),
        "bin_labels": binning.labels(),
        "bin_totals": bin_totals,
        "ngrams": {
            key: {"counts": counts, "contexts": contexts}
            for key, (counts, contexts) in rows.items()
        },
    }
    assert path.read_text(encoding="utf-8") == json.dumps(payload, separators=(",", ":")) + "\n"
    # The loader compares the file with the same pieces of text.
    records = [{"id": doc.id, "date": doc.date.isoformat(), "text": doc.text} for doc in docs]
    assert_same_table(load_table_json(path, corpus_file(tmp_path, records)), table)


def test_scan_of_too_many_instances_is_refused(monkeypatch):
    # Instance numbers are packed with n-gram numbers into one int64, so a
    # scan of 2**31 instances or more is refused; here the bound is 6.
    monkeypatch.setattr(ngrams, "_INSTANCE_LIMIT", 6)
    five = _docs_from([(1, "a b c. d e f"), (2, "a b")])
    assert sum(build_ngram_table(five, n=2).bin_totals) == 5
    six = _docs_from([(1, "a b c. d e f"), (2, "a b c")])
    with pytest.raises(InputError, match="^6 n-gram instances; a table holds fewer than 6$"):
        build_ngram_table(six, n=2)


def test_no_sentence_reaches_n_tokens(tmp_path):
    docs = _docs_from([(1, "one two. three"), (3, "four five six")])
    table = build_ngram_table(docs, n=4, min_total=1)
    assert table.keys == []
    assert len(table.sentence_tokens[1]) == 0
    assert table.bin_totals == [0, 0, 0]
    _assert_equals_reference(table, _reference_table(docs, n=4), docs)
    records = [{"id": doc.id, "date": doc.date.isoformat(), "text": doc.text} for doc in docs]
    config = RunConfig(
        corpus=corpus_file(tmp_path, records), framework=None, out_dir=tmp_path, n=4, min_total=1
    )
    with pytest.raises(InputError, match="^trends: no n-gram reached min-count 1"):
        run_stage("trends", config)


def test_emergent_ngram_has_exact_zero_before_first_use():
    items = [(day(2017, 1), "alpha bravo"), (day(2017, 2), "alpha bravo")]
    items += [(day(2017, m), "nova spike") for m in (4, 5)]
    table = build_ngram_table(make_docs(items), n=2, min_total=1)
    row = table.keys.index("nova spike")
    trend = relative_usage_trend(table.counts[row].tolist(), table.bin_totals)
    assert trend[:3] == [0.0, 0.0, 0.0]
    assert all(v > 0 for v in trend[3:])


def _unordered_mixed_corpus(seed=5, docs=40):
    """Documents out of date order over a small vocabulary with non-ASCII
    and case-variant words, so that n-grams repeat across bins."""
    rng = random.Random(seed)
    vocabulary = ["alpha", "Alpha", "beta", "émile", "Ünï", "ß", "二三", "x9", "2017", "the"]
    items = []
    for _ in range(docs):
        sentences = [" ".join(rng.choices(vocabulary, k=rng.randint(1, 6))) for _ in range(3)]
        items.append((day(2017, rng.randint(1, 6), rng.randint(1, 28)), ". ".join(sentences)))
    return make_docs(items)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("min_total", [1, 2, 5])
def test_dense_rank_branch_gives_the_same_table(monkeypatch, n, min_total):
    # The full-width keys are packed with their instance numbers unless that
    # could pass the packing limit; then each is first replaced by its dense
    # rank. A limit of 0 sends every scan down the dense-rank branch.
    docs = _unordered_mixed_corpus()
    passes = []  # one per sort that ranks keys: each prefix width, then full width
    distinct = ngrams._sorted_distinct
    monkeypatch.setattr(ngrams, "_sorted_distinct", lambda *a: passes.append(1) or distinct(*a))
    direct = build_ngram_table(docs, n=n, min_total=min_total)
    assert len(passes) == max(n - 2, 0)
    monkeypatch.setattr(ngrams, "_PACK_LIMIT", 0)
    dense = build_ngram_table(docs, n=n, min_total=min_total)
    assert len(passes) == 2 * max(n - 2, 0) + 1
    assert_same_table(dense, direct)
    assert _decoded(dense.sentence_tokens) == _decoded(direct.sentence_tokens)
    _assert_equals_reference(direct, _reference_table(docs, n=n, min_total=min_total), docs)
    # Both against the naive window scan over the JSONL records.
    lines = [
        json.dumps({"id": doc.id, "date": doc.date.isoformat(), "text": doc.text}) for doc in docs
    ]
    expected = oracle_count_many(lines, [key.split(" ") for key in direct.keys], direct.binning)
    for table in (direct, dense):
        assert dict(zip(table.keys, table.counts.tolist())) == expected


def test_n_that_no_sentence_reaches_sorts_no_prefix(monkeypatch):
    # The scan's loops over a key's token positions stop at its longest
    # recorded sentence, so an n above every sentence's length costs nothing
    # per width: n = 1,000 over a short corpus sorts no prefix (n - 2 = 998
    # sorts when each width ran).
    docs = _unordered_mixed_corpus()
    passes = []
    distinct = ngrams._sorted_distinct
    monkeypatch.setattr(ngrams, "_sorted_distinct", lambda *a: passes.append(1) or distinct(*a))
    table = build_ngram_table(docs, n=1000)
    assert passes == []
    assert table.keys == []
    assert table.bin_totals == [0] * table.binning.bin_count
