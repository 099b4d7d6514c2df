import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salience import association
from salience.association import associate, percentile, relative_std_dev, relative_std_devs
from salience.errors import ConsistencyError, InputError
from salience.pipeline import compute_associations


class TestRelativeStdDev:
    def test_constant_trend_is_zero(self):
        assert relative_std_dev([0.3, 0.3, 0.3]) == 0.0

    def test_two_point_trend(self):
        # sigma = 0.1, mean = 0.3
        assert relative_std_dev([0.2, 0.4]) == pytest.approx(1 / 3, abs=1e-12)

    def test_symmetric_trend(self):
        # sigma = 0.25, mean = 0.25
        assert relative_std_dev([0, 0.5, 0.5, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_zero_mean_is_inconsistent(self):
        with pytest.raises(ConsistencyError):
            relative_std_dev([0.0, 0.0])

    def test_empty_trend(self):
        with pytest.raises(InputError):
            relative_std_dev([])


@given(st.lists(st.integers(0, 40), max_size=30), st.integers(1, 100))
def test_blocks_are_the_longest_runs_within_the_budget(costs, budget):
    # The slices partition the rows in order; each is within the budget
    # unless it is one row, and none could take its next row and stay so.
    blocks = list(association._blocks(np.cumsum(costs, dtype=np.int64), budget))
    assert [i for rows in blocks for i in range(rows.start, rows.stop)] == list(range(len(costs)))
    for rows in blocks:
        assert rows.stop > rows.start
        assert sum(costs[rows]) <= budget or rows.stop - rows.start == 1
        if rows.stop < len(costs):
            assert sum(costs[rows.start : rows.stop + 1]) > budget


class TestRelativeStdDevs:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.one_of(st.integers(1, 39), st.sampled_from([128, 129, 256, 257, 1002])),
    )
    def test_rows_equal_the_scalar_oracle(self, seed, bins):
        rng = np.random.default_rng(seed)
        usage = rng.uniform(0, 1, size=(20, bins)) * (rng.uniform(size=(20, bins)) < 0.6)
        usage[:, 0] += 1e-3  # every row occurs at least once
        expected = [relative_std_dev(row) for row in usage.tolist()]
        assert relative_std_devs(usage).tolist() == expected

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_blocks_do_not_change_the_values(self, monkeypatch, block):
        # One row per block, then 7 cells (one 5-bin row), then 64 (12 rows).
        rng = np.random.default_rng(block)
        usage = rng.uniform(0, 1, size=(30, 5)) + 1e-3
        expected = relative_std_devs(usage).tolist()
        monkeypatch.setattr(association, "_BLOCK", block)
        assert relative_std_devs(usage).tolist() == expected
        assert expected == [relative_std_dev(row) for row in usage.tolist()]

    def test_zero_row_is_inconsistent(self):
        with pytest.raises(ConsistencyError):
            relative_std_devs(np.array([[0.1, 0.2], [0.0, 0.0]]))

    def test_zero_row_in_a_later_block_is_inconsistent(self, monkeypatch):
        monkeypatch.setattr(association, "_BLOCK", 2)
        with pytest.raises(ConsistencyError):
            relative_std_devs(np.array([[0.1, 0.2], [0.3, 0.1], [0.0, 0.0]]))


class TestPercentile:
    def test_linear_interpolation_between_ranks(self):
        # rank = 0.75 * 7 = 5.25, between the 6th and 7th sorted values.
        assert percentile(list(range(1, 9)), 75) == 6.25

    def test_p100_is_the_maximum(self):
        assert percentile([3.0, 9.0, 1.0], 100) == 9.0

    def test_single_value(self):
        assert percentile([4.2], 10) == 4.2
        assert percentile([4.2], 99) == 4.2

    def test_empty_list(self):
        with pytest.raises(InputError):
            percentile([], 75)

    def test_out_of_range_p(self):
        with pytest.raises(InputError):
            percentile([1.0], 101)


def _arrays(pairs):
    """(similarity, rsd) pairs, one per row, as the two arrays."""
    sims, rsds = zip(*pairs)
    return np.array(sims), np.array(rsds)


def _at_percentile(sims, rsds, p):
    """One topic's association with both thresholds at the p-th percentile,
    taken as the pipeline takes them."""
    return compute_associations(sims[:, None], rsds, ["topic"], p)["topic"]


class TestAssociate:
    def test_no_ngram_top_quartile_on_both_axes(self):
        # sims 75th pct = 0.325 (only row 3 above); rsd 75th pct = 3.25 (only row 0).
        sims, rsds = _arrays([(0.1, 4.0), (0.2, 3.0), (0.3, 2.0), (0.4, 1.0)])
        assert _at_percentile(sims, rsds, 75).members == ()

    def test_identical_scores_leave_nothing_strictly_above(self):
        sims, rsds = np.full(6, 0.5), np.full(6, 2.0)
        assert _at_percentile(sims, rsds, 75).members == ()

    def test_dominant_ngram_alone(self):
        # With 8 values the strict 75th-percentile cut admits the top two per
        # axis; only row 7 is top-two on both.
        sims = np.array([0.1, 0.12, 0.11, 0.13, 0.1, 0.1, 0.5, 0.9])
        rsds = np.array([0.2, 0.3, 0.25, 3.0, 0.2, 0.2, 0.3, 5.0])
        result = _at_percentile(sims, rsds, 75)
        assert result.members == (7,)

    def test_mismatched_ngram_sets(self):
        with pytest.raises(ConsistencyError):
            associate("topic", np.array([0.1]), np.array([0.1, 0.2]), 0.0, 0.0)

    def test_members_sorted_by_descending_similarity(self):
        sims, rsds = _arrays([(0.2, 5.0), (0.9, 9.0), (0.8, 8.0), (0.0, 0.0)])
        result = _at_percentile(sims, rsds, 25)
        assert result.members == (1, 2, 0)

    def test_similarity_ties_keep_row_order(self):
        sims, rsds = _arrays([(0.5, 1.0), (0.9, 1.0), (0.5, 1.0), (0.9, 1.0), (0.0, 1.0)])
        result = associate("topic", sims, rsds, sim_threshold=0.1, rsd_threshold=0.5)
        assert result.members == (1, 3, 0, 2)

    def test_explicit_thresholds_override(self):
        sims, rsds = _arrays([(0.5, 1.0), (0.1, 1.0)])
        result = associate("topic", sims, rsds, sim_threshold=0.4, rsd_threshold=0.5)
        assert result.members == (0,)
        assert result.sim_threshold == 0.4

    def test_thresholds_recorded(self):
        values = np.arange(1.0, 9.0)
        result = _at_percentile(values, values, 75)
        assert result.sim_threshold == 6.25
        assert result.rsd_threshold == 6.25


def _random_population(rng, size):
    return rng.uniform(0, 1, size), rng.lognormal(0, 1, size)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=4, max_value=120))
def test_member_set_is_the_upper_right_quadrant(seed, size):
    rng = np.random.default_rng(seed)
    sims, rsds = _random_population(rng, size)
    result = _at_percentile(sims, rsds, 75)
    sim_cut = percentile(sims.tolist(), 75)
    rsd_cut = percentile(rsds.tolist(), 75)
    brute = {i for i in range(size) if sims[i] > sim_cut and rsds[i] > rsd_cut}
    assert set(result.members) == brute
    assert len(result.members) <= min(
        sum(1 for s in sims if s > sim_cut),
        sum(1 for r in rsds if r > rsd_cut),
    )
    # Member order: descending similarity, ties in row order.
    assert list(result.members) == sorted(brute, key=lambda i: (-sims[i], i))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=4, max_value=120))
def test_raising_p_never_adds_members(seed, size):
    rng = np.random.default_rng(seed)
    sims, rsds = _random_population(rng, size)
    at_75 = set(_at_percentile(sims, rsds, 75).members)
    at_90 = set(_at_percentile(sims, rsds, 90).members)
    assert at_90 <= at_75


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.01, max_value=50.0),
)
def test_membership_invariant_under_similarity_rescaling(seed, factor):
    rng = np.random.default_rng(seed)
    sims, rsds = _random_population(rng, 60)
    base = _at_percentile(sims, rsds, 75)
    scaled = _at_percentile(sims * factor, rsds, 75)
    assert scaled.members == base.members


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 300),
    st.sampled_from([0.0, 25.0, 75.0, 90.0, 100.0]),
)
def test_column_thresholds_equal_the_scalar_percentile(seed, rows, p):
    rng = np.random.default_rng(seed)
    # Mostly zeros with ties, as real similarity columns are.
    sims = rng.uniform(0, 1, size=(rows, 6)) * (rng.uniform(size=(rows, 6)) < 0.3)
    sims[:, 1] = np.round(sims[:, 1], 1)
    rsd = rng.lognormal(0, 1, rows)
    topic_ids = [f"t{j}" for j in range(6)]
    per_topic = compute_associations(sims, rsd, topic_ids, p)
    for column, topic_id in enumerate(topic_ids):
        assert per_topic[topic_id].sim_threshold == percentile(sims[:, column].tolist(), p)
        assert per_topic[topic_id].rsd_threshold == percentile(rsd.tolist(), p)
        thresholds = percentile(sims[:, column].tolist(), p), percentile(rsd.tolist(), p)
        assert per_topic[topic_id] == associate(topic_id, sims[:, column], rsd, *thresholds)


# Similarity cells as the kernel makes them: ties, zeros, ones and the
# awkward small values, drawn often.
similarity_cells = st.sampled_from([0.0, -0.0, 1.0, 0.5, 1 / 3, 5e-324, 2.5e-17]) | st.floats(0, 1)


@st.composite
def similarity_arrays(draw):
    """A (rows × columns) similarity array, one row or one column often,
    with all-zero columns and columns of one repeated value."""
    rows = draw(st.sampled_from([1, 2, 7]) | st.integers(1, 40))
    columns = draw(st.sampled_from([1, 3]) | st.integers(1, 8))
    cells = draw(st.lists(similarity_cells, min_size=rows * columns, max_size=rows * columns))
    sims = np.array(cells, dtype=np.float64).reshape(rows, columns)
    for column in draw(st.lists(st.integers(0, columns - 1), max_size=2)):
        sims[:, column] = draw(st.sampled_from([0.0, 1.0, 0.25]))
    return sims


@settings(max_examples=100, deadline=None)
@given(sims=similarity_arrays(), p=st.sampled_from([0.0, 50.0, 75.0, 90.0, 100.0]))
def test_per_topic_thresholds_are_numpys_column_percentiles_bit_for_bit(sims, p):
    # Each column's threshold is taken from that column alone; it must be
    # what one percentile over axis 0 of the whole array gives, to the bit.
    topic_ids = [f"t{j}" for j in range(sims.shape[1])]
    rsd = np.linspace(0.5, 2.0, len(sims))
    associations = compute_associations(sims, rsd, topic_ids, p)
    thresholds = np.array([associations[t].sim_threshold for t in topic_ids])
    expected = np.percentile(sims, p, axis=0, method="linear")
    assert thresholds.tobytes() == expected.tobytes()
