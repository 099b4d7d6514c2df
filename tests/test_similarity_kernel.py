"""The batch similarity kernel against the scalar reference path, and the
order-independence of its values."""

import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salience import topics
from salience.corpus import TimeBinning
from salience.errors import ConsistencyError
from salience.ngrams import NgramTable
from salience.pipeline import compute_similarities
from salience.topics import (
    Topic,
    TopicFramework,
    build_vector_space,
    expand_topic_document,
    load_pmesii_ascope,
    score_terms,
    sentence_terms,
    similarity_matrix,
)

from conftest import day

TOLERANCE = 1e-12
NOISE = ["zzyzx", "quux", "Florp", "blorb", "snark"]  # in no topic document


def _oracle(space, vectors, contexts):
    return np.array([similarity_matrix(ctx, space, vectors) for ctx in contexts])


def _token_rows(sentences):
    """The sentences' token rows as `NgramTable.sentence_tokens` holds them,
    (words, token_spans, token_ids), tokens found by regex: words in
    first-seen order, each sentence's ids one run after the last."""
    ids: dict[str, int] = {}
    rows = [[ids.setdefault(w, len(ids)) for w in re.findall(r"[^\W_]+", s)] for s in sentences]
    bounds = np.cumsum([0] + [len(row) for row in rows], dtype=np.int64)
    spans = np.stack([bounds[:-1], bounds[1:]], axis=1)
    return list(ids), spans, np.array([i for row in rows for i in row], dtype=np.int32)


def _intern(contexts):
    """Each distinct sentence once, and every n-gram's contexts in CSR form:
    (sentences, context_start, context_sids)."""
    ids: dict[str, int] = {}
    rows = [[ids.setdefault(s, len(ids)) for s in ctx] for ctx in contexts]
    start = np.cumsum([0] + [len(row) for row in rows])
    return list(ids), start, np.array([i for row in rows for i in row], dtype=np.int64)


def _kernel(space, vectors, contexts):
    sentences, start, sids = _intern(contexts)
    terms = sentence_terms(space, *_token_rows(sentences))
    return score_terms(space, vectors, terms, start, sids)


def _sentence_pool(framework, rng, lexicon=None, size=200):
    """Sentences mixing topic-document words (some capitalized) with words in
    no topic; about one in ten holds no vocabulary term at all."""
    words = sorted(
        {
            w
            for t in framework.topics
            for w in expand_topic_document(t, lexicon).replace("\n", " ").split()
        }
    )
    pool = []
    for _ in range(size):
        if rng.random() < 0.1:
            pool.append(" ".join(rng.choices(NOISE, k=rng.randint(1, 6))))
            continue
        picked = rng.choices(words, k=rng.randint(3, 15)) + rng.choices(NOISE, k=rng.randint(0, 4))
        rng.shuffle(picked)
        pool.append(" ".join(w.capitalize() if rng.random() < 0.2 else w for w in picked))
    return pool


def _random_contexts(pool, rng, count=300):
    return [rng.choices(pool, k=rng.randint(1, 12)) for _ in range(count)]


class TestAgreesWithScalarOracle:
    def test_bundled_framework(self):
        fw = load_pmesii_ascope()
        space, vectors = build_vector_space(fw)
        rng = random.Random(0)
        contexts = _random_contexts(_sentence_pool(fw, rng), rng)
        got = _kernel(space, vectors, contexts)
        assert np.abs(got - _oracle(space, vectors, contexts)).max() <= TOLERANCE

    def test_lexicon_expanded_space(self):
        fw = load_pmesii_ascope()
        lexicon = {
            "election": ["plebiscite", "ballot box"],
            "army": ["legion", "armed forces"],
            "market": ["bazaar"],
            "bazaar": ["souk"],
        }
        space, vectors = build_vector_space(fw, lexicon)
        assert "plebiscite" in space.term_index and "souk" in space.term_index
        rng = random.Random(1)
        contexts = _random_contexts(_sentence_pool(fw, rng, lexicon), rng)
        contexts.append(["a plebiscite in the souk", "Legion armed forces"])
        got = _kernel(space, vectors, contexts)
        assert np.abs(got - _oracle(space, vectors, contexts)).max() <= TOLERANCE

    def test_contexts_without_vocabulary_score_zero(self, quadrant_framework):
        space, vectors = build_vector_space(quadrant_framework)
        contexts = [["totally unrelated words"], ["harbor freight"], ["none here", "nor here"]]
        got = _kernel(space, vectors, contexts)
        assert got[0].tolist() == [0.0] * 4 and got[2].tolist() == [0.0] * 4
        assert got[1].max() > 0.0

    def test_idf_zero_terms_carry_no_weight(self):
        fw = TopicFramework(
            name="fw",
            topics=(
                Topic(id="a", definition="shared alpha"),
                Topic(id="b", definition="shared beta"),
            ),
        )
        space, vectors = build_vector_space(fw)
        contexts = [["shared shared"], ["shared alpha", "beta"]]
        got = _kernel(space, vectors, contexts)
        assert got[0].tolist() == [0.0, 0.0]
        assert np.abs(got - _oracle(space, vectors, contexts)).max() <= TOLERANCE

    def test_empty_context_list_is_inconsistent(self, quadrant_framework):
        space, vectors = build_vector_space(quadrant_framework)
        with pytest.raises(ConsistencyError):
            _kernel(space, vectors, [["harbor"], []])

    def test_no_ngrams(self, quadrant_framework):
        space, vectors = build_vector_space(quadrant_framework)
        assert _kernel(space, vectors, []).shape == (0, 4)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.sampled_from(["w0", "w1", "w2", "w3", "w4", "w5"]), min_size=1, max_size=6),
            min_size=2,
            max_size=5,
        ),
        st.lists(
            st.lists(
                st.lists(
                    st.sampled_from(["w0", "W1", "w2", "w3", "w4", "w5", "W5", "oov", "x"]),
                    min_size=1,
                    max_size=8,
                ).map(" ".join),
                min_size=1,
                max_size=5,
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_random_tables(self, definitions, contexts):
        fw = TopicFramework(
            name="random",
            topics=tuple(Topic(id=f"t{i}", definition=" ".join(d)) for i, d in enumerate(definitions)),
        )
        space, vectors = build_vector_space(fw)
        got = _kernel(space, vectors, contexts)
        assert np.abs(got - _oracle(space, vectors, contexts)).max() <= TOLERANCE


def _table(records) -> NgramTable:
    """A one-bin table of (key, contexts) records, rows in sorted key order."""
    records = sorted(records, key=lambda record: record[0])
    sentences, start, sids = _intern(ctx for _, ctx in records)
    return NgramTable(
        n=2,
        min_total=1,
        include_titles=True,
        binning=TimeBinning("month", day(2017, 1), 1),
        keys=[key for key, _ in records],
        bin_totals=[10_000],
        context_start=start,
        context_bins=np.zeros(len(sids), dtype=np.int64),
        context_sids=sids,
        sentence_tokens=_token_rows(sentences),
    )


class TestOrderIndependence:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_permuted_contexts_and_records_are_bit_identical(self, seed):
        fw = load_pmesii_ascope()
        space, vectors = build_vector_space(fw)
        rng = random.Random(seed)
        pool = _sentence_pool(fw, rng, size=40)
        records = [(f"g{i} x", ctx) for i, ctx in enumerate(_random_contexts(pool, rng, 60))]
        table = _table(records)
        before = dict(zip(table.keys, compute_similarities(table, space, vectors).tolist()))

        shuffled = [(key, rng.sample(ctx, len(ctx))) for key, ctx in records]
        rng.shuffle(shuffled)
        table = _table(shuffled)
        after = compute_similarities(table, space, vectors).tolist()
        assert dict(zip(table.keys, after)) == before
        # Fed in the shuffled order, the kernel interns sentences in another order.
        rows = _kernel(space, vectors, [ctx for _, ctx in shuffled])
        assert {key: row for (key, _), row in zip(shuffled, rows.tolist())} == before

    def test_block_size_does_not_change_values(self, monkeypatch):
        fw = load_pmesii_ascope()
        space, vectors = build_vector_space(fw)
        rng = random.Random(7)
        contexts = _random_contexts(_sentence_pool(fw, rng), rng, 100)
        # One n-gram per block, blocks of a few n-grams, and the default,
        # against one block for all.
        budgets = (1, 50, topics._BLOCK)
        monkeypatch.setattr(topics, "_BLOCK", 1 << 40)
        whole = _kernel(space, vectors, contexts)
        for budget in budgets:
            monkeypatch.setattr(topics, "_BLOCK", budget)
            assert np.array_equal(_kernel(space, vectors, contexts), whole)

    def test_proportional_counts_give_bit_equal_rows(self):
        fw = load_pmesii_ascope()
        space, vectors = build_vector_space(fw)
        s1 = "the election ballot and the army budget"
        s2 = "Market trade routes near the harbor bridge"
        contexts = [[s1], [s1, s1, s1], [s1, s2], [s2, s1, s2, s1], [s2, s1, s1]]
        got = _kernel(space, vectors, contexts)
        assert got[0].tolist() == got[1].tolist()
        assert got[2].tolist() == got[3].tolist()
        assert got[4].tolist() != got[2].tolist()
        assert np.abs(got - _oracle(space, vectors, contexts)).max() <= TOLERANCE


class TestTokenIds:
    def test_case_variants_share_one_column(self):
        fw = load_pmesii_ascope()
        space, vectors = build_vector_space(fw)
        contexts = [
            ["Army budget"],
            ["ARMY budget"],
            ["army budget"],
            ["Army ARMY army budget"],
            ["army army army budget"],
        ]
        words, _, _ = _token_rows([s for ctx in contexts for s in ctx])
        assert {"Army", "ARMY", "army"} <= set(words)
        got = _kernel(space, vectors, contexts)
        assert got[0].tolist() == got[1].tolist() == got[2].tolist()
        assert got[3].tolist() == got[4].tolist() != got[0].tolist()
        assert got.max() > 0.0
        assert np.abs(got - _oracle(space, vectors, contexts)).max() <= TOLERANCE
