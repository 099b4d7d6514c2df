import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salience.errors import ConsistencyError, InputError
from salience.pipeline import load_associations_json
from salience.salience import (
    normalize_salience,
    salience_matrix,
    time_derivative,
    topic_salience_trend,
    topic_usage_trend,
)
from salience.topics import Topic, TopicFramework


def _sequential_usage(members, trends):
    """Reference: member trends added bin by bin, in member order."""
    values = [0.0] * len(trends[0])
    for row in members:
        for t, v in enumerate(trends[row]):
            values[t] += v
    return values


def _sequential_salience(members, trends):
    """Reference: member derivatives added in member order, then averaged."""
    values = [0.0] * len(trends[0])
    for row in members:
        trend = trends[row]
        for t in range(1, len(trend)):
            values[t] += trend[t] - trend[t - 1]
    return [v / len(members) for v in values] if members else values


class TestTimeDerivative:
    def test_backward_difference(self):
        assert time_derivative([0.1, 0.3, 0.2]).tolist() == pytest.approx([0.0, 0.2, -0.1])

    def test_constant_trend_is_all_zero(self):
        assert time_derivative([0.4, 0.4, 0.4]).tolist() == [0.0, 0.0, 0.0]

    def test_emergent_jump_lands_on_its_bin(self):
        assert time_derivative([0.0, 0.0, 1.0]).tolist() == [0.0, 0.0, 1.0]

    def test_single_bin(self):
        assert time_derivative([0.7]).tolist() == [0.0]

    def test_empty_trend(self):
        with pytest.raises(InputError):
            time_derivative([])

    @settings(max_examples=50)
    @given(st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=40))
    def test_telescoping_sum(self, trend):
        assert sum(time_derivative(trend)) == pytest.approx(trend[-1] - trend[0], abs=1e-12)


class TestTopicUsage:
    def test_componentwise_sum(self):
        usage = np.array([[0.1, 0.2], [0.3, 0.0]])
        assert topic_usage_trend((0, 1), usage).tolist() == pytest.approx([0.4, 0.2])

    def test_empty_member_set_is_flagged_zero(self):
        assert topic_usage_trend((), np.ones((2, 3))).tolist() == [0.0, 0.0, 0.0]

    def test_single_member_is_its_own_trend(self):
        usage = np.array([[0.9, 0.9], [0.5, 0.1]])
        assert topic_usage_trend((1,), usage).tolist() == [0.5, 0.1]

    def test_missing_member_trend(self, tmp_path):
        # Members are rows of the usage array; a member named in
        # associations.json that has no usage row is refused on load.
        path = tmp_path / "associations.json"
        entry = {"sim_threshold": 0.0, "rsd_threshold": 0.0, "members": [{"ngram": "g1"}]}
        path.write_text(json.dumps({"t": entry}), encoding="utf-8")
        with pytest.raises(ConsistencyError, match="g1"):
            load_associations_json(path, [("g0",)])


class TestSequentialSums:
    """Topic trends add member rows one at a time in member order, so they
    equal the scalar loops bit for bit."""

    def test_one_bin(self):
        # numpy's .sum(axis=0) over a one-bin column sums pairwise, which
        # rounds differently from adding the members in order.
        rng = np.random.default_rng(1)
        usage = rng.uniform(0, 1, size=(40, 1))
        members = rng.permutation(40)[:30].tolist()
        expected = _sequential_usage(members, usage.tolist())
        assert usage[members].sum(axis=0).tolist() != expected
        assert topic_usage_trend(members, usage).tolist() == expected
        assert topic_salience_trend(members, usage).tolist() == [0.0]

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3, 33, 128, 129, 257]),
        st.integers(1, 60),
    )
    def test_many_bins(self, seed, bins, count):
        rng = np.random.default_rng(seed)
        usage = rng.uniform(0, 1, size=(80, bins)) * (rng.uniform(size=(80, bins)) < 0.7)
        members = rng.permutation(80)[:count].tolist()
        trends = usage.tolist()
        assert topic_usage_trend(members, usage).tolist() == _sequential_usage(members, trends)
        assert topic_salience_trend(members, usage).tolist() == _sequential_salience(
            members, trends
        )


class TestTopicSalience:
    def test_mean_of_derivatives(self):
        usage = np.array([[0.0, 0.2], [0.0, 0.4]])
        assert topic_salience_trend((0, 1), usage).tolist() == pytest.approx([0.0, 0.3])

    def test_constant_members_give_zero_salience(self):
        usage = np.array([[0.2, 0.2, 0.2], [0.1, 0.1, 0.1]])
        assert topic_salience_trend((0, 1), usage).tolist() == [0.0, 0.0, 0.0]

    def test_single_member_spike(self):
        usage = np.array([[0.0, 0.5, 0.0]])
        assert topic_salience_trend((0,), usage).tolist() == pytest.approx([0.0, 0.5, -0.5])

    def test_empty_member_set_flagged(self):
        assert topic_salience_trend((), np.ones((1, 2))).tolist() == [0.0, 0.0]

    @settings(max_examples=30)
    @given(
        st.lists(
            st.lists(st.floats(min_value=0, max_value=1), min_size=5, max_size=5),
            min_size=1,
            max_size=6,
        )
    )
    def test_salience_is_derivative_of_usage_over_member_count(self, member_trends):
        usage = np.array(member_trends)
        members = tuple(range(len(member_trends)))
        topic_usage = topic_usage_trend(members, usage)
        sal = topic_salience_trend(members, usage)
        expected = time_derivative(topic_usage) / len(members)
        assert sal.tolist() == pytest.approx(expected.tolist(), abs=1e-12)

    def test_burst_members_peak_salience_at_the_jump(self):
        t_star = 4
        usage = np.full((3, 8), 0.001)
        for i in range(3):
            usage[i, t_star:6] = 0.2 + 0.01 * i
        result = topic_salience_trend((0, 1, 2), usage)
        assert int(np.argmax(result)) == t_star


def grid_framework():
    return TopicFramework(
        name="g",
        topics=(
            Topic(id="a", definition="x", row="R1", column="C1"),
            Topic(id="b", definition="x", row="R1", column="C2"),
            Topic(id="c", definition="x", row="R2", column="C1"),
            Topic(id="d", definition="x", row="R2", column="C2"),
        ),
        rows=("R1", "R2"),
        columns=("C1", "C2"),
    )


class TestSalienceMatrix:
    def test_projection_at_bin(self):
        # Column t is bin t's matrix; topics declared column-major come out
        # row-major over the grid.
        grid = grid_framework()
        topics = tuple(grid.topics[i] for i in (0, 2, 1, 3))
        fw = TopicFramework(name="g", topics=topics, rows=grid.rows, columns=grid.columns)
        salience = np.array([[0.0, float(i)] for i in range(4)])
        matrix = salience_matrix(fw, salience)
        assert matrix[:, 1].tolist() == [0.0, 2.0, 1.0, 3.0]
        assert matrix[:, 0].tolist() == [0.0] * 4

    def test_all_zero_matrix(self):
        fw = grid_framework()
        assert (salience_matrix(fw, np.zeros((4, 3))) == 0.0).all()

    def test_one_by_one_grid(self):
        fw = TopicFramework(
            name="solo",
            topics=(Topic(id="t", definition="x", row="R", column="C"),),
            rows=("R",),
            columns=("C",),
        )
        assert salience_matrix(fw, np.array([[0.4, -0.1]])).tolist() == [[0.4, -0.1]]

    def test_no_grid_keeps_topic_order(self):
        fw = TopicFramework(
            name="flat", topics=(Topic(id="b", definition="x"), Topic(id="a", definition="y"))
        )
        salience = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert salience_matrix(fw, salience).tolist() == salience.tolist()

    def test_missing_topic_trend(self):
        fw = grid_framework()
        with pytest.raises(ConsistencyError):
            salience_matrix(fw, np.zeros((1, 1)))


class TestNormalize:
    def test_equal_values_map_to_zero(self):
        out = normalize_salience(np.array([[0.5, 0.1], [0.5, 0.3]]))
        assert out[0, 0] == 0.0 and out[1, 0] == 0.0

    @pytest.mark.parametrize("method", ["zscore", "minmax"])
    def test_bin_of_one_repeated_value_maps_to_zero(self, method):
        # Summed in order, three 0.1s have a mean an ulp off 0.1 and a
        # population std of about 1e-17, which scaled every topic to -1.
        out = normalize_salience(np.full((3, 2), 0.1), method)
        assert out.tolist() == [[0.0, 0.0]] * 3

    def test_symmetric_pair_gives_plus_minus_one(self):
        out = normalize_salience(np.array([[0.2], [-0.2]]))
        assert out.tolist() == [[1.0], [-1.0]]

    def test_zscore_moments(self):
        rng = np.random.default_rng(3)
        out = normalize_salience(rng.normal(size=(5, 6)))
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-9)

    def test_argmax_preserved_per_bin(self):
        rng = np.random.default_rng(4)
        raw = rng.normal(size=(7, 9))
        for method in ("zscore", "minmax"):
            out = normalize_salience(raw, method)
            assert (out.argmax(axis=0) == raw.argmax(axis=0)).all()

    def test_minmax_range(self):
        out = normalize_salience(np.array([[-1.0, 2.0], [3.0, 2.0]]), "minmax")
        assert out.tolist() == [[0.0, 0.0], [1.0, 0.0]]

    def test_needs_two_topics(self):
        with pytest.raises(InputError):
            normalize_salience(np.array([[0.1]]))

    def test_unknown_method(self):
        with pytest.raises(InputError):
            normalize_salience(np.array([[0.1], [0.2]]), "rank")
