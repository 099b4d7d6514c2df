import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salience.errors import ConsistencyError, InputError
from salience.topics import (
    Topic,
    TopicFramework,
    VectorSpace,
    build_vector_space,
    cosine,
    expand_topic_document,
    framework_from_dict,
    load_framework,
    load_pmesii_ascope,
    ngram_vector,
    similarity_matrix,
)



class TestFramework:
    def test_bundled_asset_is_a_full_6x6_grid(self):
        fw = load_pmesii_ascope()
        assert len(fw.topics) == 36
        assert len(fw.rows) == 6 and len(fw.columns) == 6
        assert fw.has_grid
        assert "political_events" in fw.topic_ids()

    def test_flat_single_topic_framework_is_valid(self):
        fw = TopicFramework(name="solo", topics=(Topic(id="t", definition="something"),))
        assert not fw.has_grid

    def test_duplicate_topic_id_rejected(self):
        with pytest.raises(InputError, match="duplicate"):
            TopicFramework(
                name="dup",
                topics=(Topic(id="t", definition="a"), Topic(id="t", definition="b")),
            )

    def test_incomplete_grid_rejected(self):
        with pytest.raises(InputError, match="incomplete"):
            TopicFramework(
                name="partial",
                topics=(Topic(id="t", definition="a", row="R", column="C1"),),
                rows=("R",),
                columns=("C1", "C2"),
            )

    def test_contentless_topic_rejected(self):
        with pytest.raises(InputError, match="no definition"):
            TopicFramework(name="hollow", topics=(Topic(id="t"),))

    def test_rows_without_columns_rejected(self):
        with pytest.raises(InputError, match="both rows and columns"):
            TopicFramework(
                name="half", topics=(Topic(id="t", definition="a", row="R"),), rows=("R",)
            )

    def test_load_framework_file(self, tmp_path):
        path = tmp_path / "fw.json"
        path.write_text(
            '{"name": "mini", "topics": [{"id": "a", "definition": "words"}, '
            '{"id": "b", "keywords": ["thing"]}]}',
            encoding="utf-8",
        )
        fw = load_framework(path)
        assert fw.topic_ids() == ["a", "b"]

    def test_grid_order_row_major(self):
        fw = framework_from_dict(
            {
                "name": "g",
                "rows": ["R1", "R2"],
                "columns": ["C1", "C2"],
                "topics": [
                    {"id": "r2c1", "row": "R2", "column": "C1", "definition": "x"},
                    {"id": "r1c1", "row": "R1", "column": "C1", "definition": "x"},
                    {"id": "r1c2", "row": "R1", "column": "C2", "definition": "x"},
                    {"id": "r2c2", "row": "R2", "column": "C2", "definition": "x"},
                ],
            }
        )
        assert [fw.topics[i].id for i in fw.grid_order()] == ["r1c1", "r1c2", "r2c1", "r2c2"]
        flat = framework_from_dict(
            {"name": "f", "topics": [{"id": "b", "definition": "x"}, {"id": "a", "definition": "y"}]}
        )
        assert flat.grid_order() == [0, 1]


class TestExpansion:
    def test_synonyms_appended_once_each(self):
        topic = Topic(id="t", definition="election results")
        text = expand_topic_document(topic, {"election": ["poll", "vote"]})
        assert text.split("\n\n") == ["election results", "poll", "vote"]

    def test_no_lexicon_is_plain_concatenation(self):
        topic = Topic(
            id="t", definition="def text", keywords=("kw",), ground_truth=("gt block",)
        )
        assert expand_topic_document(topic) == "def text\n\nkw\n\ngt block"

    def test_present_synonym_not_duplicated(self):
        topic = Topic(id="t", definition="election poll results")
        text = expand_topic_document(topic, {"election": ["poll", "vote"]})
        assert text.count("poll") == 1 and text.endswith("vote")

    def test_expansion_is_idempotent(self):
        lexicon = {"election": ["poll"], "poll": ["survey"], "survey": ["census"]}
        topic = Topic(id="t", definition="an election")
        once = expand_topic_document(topic, lexicon)
        again = expand_topic_document(Topic(id="t", definition=once), lexicon)
        assert again == once

    def test_chained_synonyms_reach_fixpoint(self):
        lexicon = {"election": ["poll"], "poll": ["survey"]}
        text = expand_topic_document(Topic(id="t", definition="election"), lexicon)
        assert "survey" in text

    def test_multiword_synonym_presence_check(self):
        lexicon = {"vote": ["ballot box"]}
        topic = Topic(id="t", definition="vote near the ballot box")
        assert expand_topic_document(topic, lexicon) == "vote near the ballot box"


class TestVectorSpace:
    def test_needs_two_topics(self):
        fw = TopicFramework(name="solo", topics=(Topic(id="t", definition="alone"),))
        with pytest.raises(InputError, match="idf"):
            build_vector_space(fw)

    def test_idf_ln36_for_singleton_term(self):
        fw = load_pmesii_ascope()
        space, _ = build_vector_space(fw)
        # "ballot" appears in exactly one of the 36 topic documents.
        assert space.idf["ballot"] == pytest.approx(math.log(36), abs=1e-12)

    def test_common_term_carries_no_weight(self):
        topics = tuple(
            Topic(id=f"t{i}", definition=f"shared unique{i}") for i in range(3)
        )
        space, vectors = build_vector_space(TopicFramework(name="fw", topics=topics))
        assert space.idf["shared"] == 0.0
        assert vectors[:, space.term_index["shared"]].tolist() == [0.0] * 3

    def test_topic_rows_follow_framework_order(self):
        fw = TopicFramework(
            name="fw",
            topics=(
                Topic(id="z", definition="zebra"),
                Topic(id="a", definition="aardvark"),
            ),
        )
        space, vectors = build_vector_space(fw)
        assert space.vocabulary == ("aardvark", "zebra")
        assert vectors.shape == (2, 2)
        assert vectors.tolist() == [[0.0, math.log(2)], [math.log(2), 0.0]]

    def test_topic_weights_are_tf_times_idf(self):
        fw = TopicFramework(
            name="two",
            topics=(
                Topic(id="a", definition="vote vote poll"),
                Topic(id="b", definition="poll"),
            ),
        )
        space, vectors = build_vector_space(fw)
        # df(vote)=1 -> idf=ln2; df(poll)=2 -> idf=0, so only "vote" survives.
        assert space.idf["vote"] == pytest.approx(math.log(2))
        vote = space.term_index["vote"]
        assert vectors[0, vote] == pytest.approx(2 * math.log(2))
        assert np.count_nonzero(vectors[0]) == 1
        assert not vectors[1].any()

    def test_idf_monotone_in_document_frequency(self):
        topics = tuple(
            Topic(id=f"t{i}", definition=("wide " if i < 3 else "") + f"only{i}")
            for i in range(4)
        )
        space, _ = build_vector_space(TopicFramework(name="fw", topics=topics))
        assert space.idf["only0"] > space.idf["wide"] > 0


class TestContextVectors:
    def setup_method(self):
        self.space = VectorSpace(vocabulary=("poll", "vote"), idf={"poll": 2.0, "vote": 1.0})

    def test_tf_times_idf(self):
        assert ngram_vector(self.space, ["vote vote poll"]).tolist() == [2.0, 2.0]

    def test_repeated_term(self):
        assert ngram_vector(self.space, ["poll poll"]).tolist() == [4.0, 0.0]

    def test_out_of_vocabulary_dropped(self):
        assert ngram_vector(self.space, ["entirely novel words"]).tolist() == [0.0, 0.0]

    def test_lowercasing(self):
        assert ngram_vector(self.space, ["Poll VOTE"]).tolist() == [2.0, 1.0]


class TestNgramVector:
    def test_mean_of_one_is_itself(self):
        space = VectorSpace(vocabulary=("a",), idf={"a": 1.0})
        assert ngram_vector(space, ["a a"]).tolist() == [2.0]

    def test_componentwise_mean_with_missing_terms(self):
        space = VectorSpace(vocabulary=("a", "b"), idf={"a": 1.0, "b": 1.0})
        assert ngram_vector(space, ["a a", "b b b b"]).tolist() == [1.0, 2.0]

    def test_all_zero_contexts_give_zero_vector(self):
        space = VectorSpace(vocabulary=("a",), idf={"a": 1.0})
        assert ngram_vector(space, ["nothing known", "still nothing"]).tolist() == [0.0]

    def test_empty_context_list_is_inconsistent(self):
        space = VectorSpace(vocabulary=("a",), idf={"a": 1.0})
        with pytest.raises(ConsistencyError):
            ngram_vector(space, [])


class TestCosine:
    def test_identity(self):
        u = np.array([1.0, 1.0])
        assert cosine(u, u) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_supports(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_partial_overlap(self):
        u, v = np.array([1.0, 1.0]), np.array([1.0, 0.0])
        assert cosine(u, v) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_zero_norm_guard(self):
        zero, u = np.zeros(2), np.array([1.0, 0.0])
        assert cosine(zero, u) == 0.0 and cosine(zero, zero) == 0.0

    @settings(max_examples=50)
    @given(
        st.dictionaries(st.integers(0, 8), st.floats(0.1, 10.0), min_size=1, max_size=6),
        st.dictionaries(st.integers(0, 8), st.floats(0.1, 10.0), min_size=1, max_size=6),
        st.floats(min_value=0.01, max_value=100.0),
    )
    def test_scale_invariance(self, a, b, factor):
        u, v = np.zeros(9), np.zeros(9)
        u[list(a)], v[list(b)] = list(a.values()), list(b.values())
        assert cosine(u * factor, v) == pytest.approx(cosine(u, v), abs=1e-9)


class TestSimilarityMatrix:
    def test_verbatim_topic_document_scores_one(self, quadrant_framework):
        space, vectors = build_vector_space(quadrant_framework)
        topic = quadrant_framework.topics[0]
        whole_doc = expand_topic_document(topic)
        values = similarity_matrix([whole_doc], space, vectors)
        assert values[0] == pytest.approx(1.0, abs=1e-12)

    def test_unknown_contexts_give_all_zero_matrix(self, quadrant_framework):
        space, vectors = build_vector_space(quadrant_framework)
        assert similarity_matrix(["totally unrelated words"], space, vectors) == (0.0,) * 4

    def test_grid_shape_follows_framework(self):
        fw = load_pmesii_ascope()
        space, vectors = build_vector_space(fw)
        values = similarity_matrix(["election ballot"], space, vectors)
        grid = np.array(values)[fw.grid_order()].reshape(len(fw.rows), -1)
        assert grid.shape == (6, 6)
        assert ((0.0 <= grid) & (grid <= 1.0)).all()

    def test_topic_self_similarity_is_one_across_the_asset(self):
        fw = load_pmesii_ascope()
        space, vectors = build_vector_space(fw)
        for row in vectors:
            assert cosine(row, row) == pytest.approx(1.0, abs=1e-12)

    def test_ground_truth_contexts_discriminate(self, quadrant_framework):
        space, vectors = build_vector_space(quadrant_framework)
        for i, topic in enumerate(quadrant_framework.topics):
            values = similarity_matrix(list(topic.ground_truth), space, vectors)
            assert values[i] > max(values[:i] + values[i + 1 :])
