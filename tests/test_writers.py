"""The artifact writers against the standard library's encoders, and their
memory use against the height of the table they write.

The CSV and table writers render from arrays a bounded block of cells at a
time; each file must still be byte for byte what csv.writer or one compact
json.dumps of the whole payload writes, whatever the budget of cells per
block. The associations and matrix writers render by templates; each file
must be what json.dumps(payload, separators=(",", ":")) and a newline
write."""

import csv
import datetime as dt
import io
import json
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salience import pipeline
from salience.association import TopicAssociation
from salience.corpus import TimeBinning
from salience.errors import InputError
from salience.ngrams import NgramTable
from salience.runs import load_matrix_json
from salience.salience import salience_matrix
from salience.topics import Topic, TopicFramework

DEFAULT_BUDGET = pipeline._BLOCK
# One cell per block, a small odd budget, and the module's own.
BUDGETS = [1, 7, DEFAULT_BUDGET]
SPECIAL_FLOATS = [
    -0.0,
    0.0,
    float("nan"),
    float("inf"),
    float("-inf"),
    5e-324,
    1e16,
    1e-05,
    0.0001,
    1 / 3,
]
# The specials, often repeated, and any other float, NaNs of other bit
# patterns included.
floats = st.sampled_from(SPECIAL_FLOATS) | st.floats()
names = st.lists(st.text(max_size=6), min_size=1, max_size=5)
# Labels for the JSON writers: any text, and text the encoder must escape.
labels = st.text(max_size=6) | st.sampled_from(['"', 'q"\\', "é", "\u2028", "\x00", "\ud800"])
words = st.sampled_from(["a", "b", "ab", "2017", "é", "Ünï", "z9"])


def _written(budget: int, writer, *args) -> bytes:
    with tempfile.TemporaryDirectory() as folder, mock.patch.object(
        pipeline, "_BLOCK", budget
    ):
        path = Path(folder) / "artifact"
        writer(path, *args)
        return path.read_bytes()


def _csv_bytes(header, rows) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


def _float_array(draw, rows: int, columns: int) -> np.ndarray:
    cells = draw(st.lists(floats, min_size=rows * columns, max_size=rows * columns))
    return np.array(cells, dtype=np.float64).reshape(rows, columns)


def _keys(draw, rows: int) -> list[str]:
    """Distinct two-word n-grams as texts, in the sorted order of their
    token tuples."""
    pairs = draw(st.lists(st.tuples(words, words), min_size=rows, max_size=rows, unique=True))
    return [" ".join(pair) for pair in sorted(pairs)]


@st.composite
def tables(draw, rows=st.integers(1, 9), bins=st.integers(1, 5)):
    """An NgramTable and its contexts as Python lists, one list per n-gram."""
    bins, rows = draw(bins), draw(rows)
    sentences = draw(st.integers(1, 6))
    pair = st.tuples(st.integers(0, bins - 1), st.integers(0, sentences - 1))
    contexts = [draw(st.lists(pair, min_size=1, max_size=5)) for _ in range(rows)]
    return _table(_keys(draw, rows), bins, contexts), contexts


def _table(keys, bins, contexts) -> NgramTable:
    flat = np.array([p for ngram in contexts for p in ngram], dtype=np.int64).reshape(-1, 2)
    return NgramTable(
        n=2,
        min_total=1,
        include_titles=True,
        binning=TimeBinning("day", dt.date(2016, 2, 28), bins),
        keys=keys,
        bin_totals=list(range(bins)),
        context_start=np.cumsum([0] + [len(ngram) for ngram in contexts]),
        context_bins=flat[:, 0],
        context_sids=flat[:, 1],
    )


def _table_reference(table: NgramTable, contexts) -> bytes:
    # The table's day binning from 2016-02-28 crosses a leap day.
    start = dt.date(2016, 2, 28)
    labels = [str(start + dt.timedelta(days=t)) for t in range(len(table.bin_totals))]
    payload = {
        "version": pipeline.TABLE_VERSION,
        "n": table.n,
        "min_total": table.min_total,
        "include_titles": True,
        "granularity": "day",
        "origin": "2016-02-28",
        "bin_labels": labels,
        "bin_totals": table.bin_totals,
        "ngrams": {},
    }
    for key, pairs in zip(table.keys, contexts):
        counts = [0] * len(table.bin_totals)
        for t, _ in pairs:
            counts[t] += 1
        payload["ngrams"][key] = {
            "counts": counts,
            "contexts": [[t, sid] for t, sid in pairs],
        }
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


@st.composite
def trends_cases(draw):
    table, _ = draw(tables())
    usage = _float_array(draw, len(table.keys), len(table.bin_totals))
    bins = len(table.bin_totals)
    bin_labels = draw(st.lists(st.text(max_size=6), min_size=bins, max_size=bins))
    return table, usage, bin_labels


def _trends_reference(table, usage, bin_labels) -> bytes:
    totals = np.diff(table.context_start).tolist()
    rows = (
        [key, total, *map(repr, values)]
        for key, total, values in zip(table.keys, totals, usage.tolist())
    )
    return _csv_bytes(["ngram", "total", *bin_labels], rows)


@st.composite
def similarity_cases(draw):
    topic_ids = draw(names)
    rows = draw(st.integers(1, 9))
    return _keys(draw, rows), _float_array(draw, rows, len(topic_ids)), topic_ids


def _similarity_reference(keys, sims, topic_ids) -> bytes:
    rows = (
        [key, topic_id, repr(value)]
        for key, values in zip(keys, sims.tolist())
        for topic_id, value in zip(topic_ids, values)
    )
    return _csv_bytes(["ngram", "topic_id", "similarity"], rows)


@st.composite
def trend_cases(draw):
    topic_ids = draw(names)
    bin_labels = draw(names)
    return topic_ids, _float_array(draw, len(topic_ids), len(bin_labels)), bin_labels


def _trend_reference(topic_ids, values, bin_labels) -> bytes:
    rows = ([topic_id, *map(repr, row)] for topic_id, row in zip(topic_ids, values.tolist()))
    return _csv_bytes(["topic_id", *bin_labels], rows)


@pytest.mark.parametrize("budget", BUDGETS)
@settings(max_examples=30, deadline=None)
@given(case=trends_cases())
def test_ngram_trends_csv_is_csv_writer_output(budget, case):
    written = _written(budget, pipeline.write_ngram_trends_csv, *case)
    assert written == _trends_reference(*case)


@pytest.mark.parametrize("budget", BUDGETS)
@settings(max_examples=30, deadline=None)
@given(case=tables())
def test_table_json_is_one_compact_json_dumps(budget, case):
    table, contexts = case
    written = _written(budget, pipeline.write_table_json, table)
    assert written == _table_reference(table, contexts)


@pytest.mark.parametrize("budget", BUDGETS)
@settings(max_examples=30, deadline=None)
@given(case=similarity_cases())
def test_similarity_csv_matches_csv_writer(budget, case):
    written = _written(budget, pipeline.write_similarity_csv, *case)
    assert written == _similarity_reference(*case)


@pytest.mark.parametrize("budget", BUDGETS)
@settings(max_examples=30, deadline=None)
@given(case=trend_cases())
def test_trend_csv_is_csv_writer_output(budget, case):
    written = _written(budget, pipeline.write_trend_csv, *case)
    assert written == _trend_reference(*case)


@st.composite
def association_cases(draw):
    """Inputs of write_associations_json: no topics or some, each with
    members drawn from the rows in any order, or none."""
    rows = draw(st.integers(1, 6))
    keys = _keys(draw, rows)
    topic_ids = draw(st.lists(labels, max_size=4, unique=True))
    sims = _float_array(draw, rows, len(topic_ids))
    rsd = _float_array(draw, rows, 1)[:, 0]
    members = st.lists(st.integers(0, rows - 1), max_size=rows, unique=True).map(tuple)
    associations = {
        topic_id: TopicAssociation(topic_id, draw(members), draw(floats), draw(floats))
        for topic_id in topic_ids
    }
    return associations, keys, sims, rsd


def _associations_reference(associations, keys, sims, rsd) -> bytes:
    payload = {
        topic_id: {
            "sim_threshold": assoc.sim_threshold,
            "rsd_threshold": assoc.rsd_threshold,
            "members": [
                {
                    "ngram": keys[row],
                    "similarity": sims[row, column].item(),
                    "rsd": rsd[row].item(),
                }
                for row in assoc.members
            ],
        }
        for column, (topic_id, assoc) in enumerate(associations.items())
    }
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


@st.composite
def matrices(draw):
    """A framework with a grid or without, the (topics × bins) salience
    array of several bins, and the bins' labels."""
    if draw(st.booleans()):
        grid = [draw(st.lists(labels, min_size=1, max_size=3, unique=True)) for _ in "rc"]
        cells = draw(st.permutations([(r, c) for r in grid[0] for c in grid[1]]))
    else:
        grid = [None, None]
        cells = [(None, None)] * draw(st.integers(1, 5))
    # A framework refuses an empty topic id and one holding a CR.
    ids = labels.filter(lambda text: text and "\r" not in text)
    ids = st.lists(ids, min_size=len(cells), max_size=len(cells), unique=True)
    topics = [Topic(id=i, definition="d", row=r, column=c) for i, (r, c) in zip(draw(ids), cells)]
    rows, columns = (tuple(part) if part else None for part in grid)
    framework = TopicFramework(name="f", topics=tuple(topics), rows=rows, columns=columns)
    bins = draw(st.integers(1, 4))
    bin_labels = draw(st.lists(labels, min_size=bins, max_size=bins))
    return framework, _float_array(draw, len(topics), bins), bin_labels


def _matrix_reference(framework, salience: np.ndarray, label: str, t: int) -> bytes:
    values = salience[:, t].tolist()
    if framework.has_grid:
        by_cell = {(topic.row, topic.column): v for topic, v in zip(framework.topics, values)}
        payload = {
            "bin": label,
            "rows": list(framework.rows),
            "columns": list(framework.columns),
            "values": [[by_cell[r, c] for c in framework.columns] for r in framework.rows],
        }
    else:
        payload = {
            "bin": label,
            "rows": None,
            "columns": None,
            "topics": framework.topic_ids(),
            "values": [values],
        }
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


@settings(max_examples=100, deadline=None)
@given(case=association_cases())
def test_associations_json_is_compact_json_dumps(case):
    written = _written(DEFAULT_BUDGET, pipeline.write_associations_json, *case)
    assert written == _associations_reference(*case)


@settings(max_examples=100, deadline=None)
@given(case=matrices(), budget=st.sampled_from(BUDGETS))
def test_matrix_json_is_compact_json_dumps(case, budget):
    framework, salience, bin_labels = case
    matrix = salience_matrix(framework, salience)
    with tempfile.TemporaryDirectory() as folder, mock.patch.object(
        pipeline, "_BLOCK", budget
    ):
        paths = [Path(folder) / f"{t}.json" for t in range(len(bin_labels))]
        pipeline.write_matrix_json(paths, framework, matrix, bin_labels)
        for t, (path, label) in enumerate(zip(paths, bin_labels)):
            assert path.read_bytes() == _matrix_reference(framework, salience, label, t)
        # What the writer writes, the loader reads, unless a value is not
        # finite: salience from finite usage is finite, so render refuses it.
        # The loader reads a matrix from the file its bin names.
        names = [f"b{t}" for t in range(len(bin_labels))]
        paths = [Path(folder) / f"{name}.json" for name in names]
        pipeline.write_matrix_json(paths, framework, matrix, names)
        for path, column in zip(paths, salience.T):
            if np.isfinite(column).all():
                load_matrix_json(path)
            else:
                with pytest.raises(InputError, match="finite numbers"):
                    load_matrix_json(path)


def _wide_cases():
    """Inputs of each writer with rows wider than the default budget."""
    width = DEFAULT_BUDGET + 3
    rng = np.random.default_rng(7)
    values = rng.choice(np.array(SPECIAL_FLOATS), size=(3, width))
    keys = ["a b", "b c", "c d"]
    contexts = [[(0, 0)], [(t % 2, t % 3) for t in range(width)], [(1, 2), (0, 1)]]
    table = _table(keys, 2, contexts)
    labels = [f"bin {t}" for t in range(width)]
    wide_table = _table(keys, width, [[(t, 0)] for t in (0, width - 1, 5)])
    return [
        pytest.param(
            pipeline.write_ngram_trends_csv,
            (wide_table, values, labels),
            _trends_reference(wide_table, values, labels),
            id="ngram-trends",
        ),
        pytest.param(
            pipeline.write_table_json,
            (table,),
            _table_reference(table, contexts),
            id="table",
        ),
        pytest.param(
            pipeline.write_similarity_csv,
            (keys, values, labels),
            _similarity_reference(keys, values, labels),
            id="similarity",
        ),
        pytest.param(
            pipeline.write_trend_csv,
            (["t1", "t2", "t3"], values, labels),
            _trend_reference(["t1", "t2", "t3"], values, labels),
            id="trend",
        ),
    ]


@pytest.mark.parametrize("writer, args, expected", _wide_cases())
def test_rows_wider_than_the_default_budget(writer, args, expected):
    assert _written(DEFAULT_BUDGET, writer, *args) == expected


def test_associations_writer_holds_one_topic_at_a_time(tmp_path):
    # 36 topics of 200 members each over 6,000 n-grams. A writer that holds
    # every topic's text at once, and copies it again to add the newline,
    # peaks at about three times the file; one topic at a time is about a
    # tenth of it.
    rows, topics = 6000, 36
    rng = np.random.default_rng(5)
    keys = [f"w{i:06d} x" for i in range(rows)]
    sims, rsd = rng.random((rows, topics)), rng.random(rows) + 0.5
    associations = {
        f"topic {t}": TopicAssociation(
            f"topic {t}", tuple(rng.choice(rows, 200, replace=False).tolist()), 0.5, 1.0
        )
        for t in range(topics)
    }
    path = tmp_path / "associations.json"
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        pipeline.write_associations_json(path, associations, keys, sims, rsd)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size, (peak, path.stat().st_size)


def _tall_inputs(name: str, rows: int):
    """Inputs for one of the big writers: `rows` n-grams of 40 bins, four
    contexts and 36 topics each, over one sentence per n-gram."""
    bins, topics = 40, 36
    rng = np.random.default_rng(rows)
    keys = [f"w{i:06d} x" for i in range(rows)]
    bins_of, sids_of = rng.integers(0, bins, (rows, 4)), rng.integers(0, rows, (rows, 4))
    contexts = [list(zip(t, s)) for t, s in zip(bins_of.tolist(), sids_of.tolist())]
    table = _table(keys, bins, contexts)
    table.counts  # computed on first use: the table holds it, not the writer
    if name == "write_ngram_trends_csv":
        return table, rng.random((rows, bins)), [f"bin {t}" for t in range(bins)]
    if name == "write_table_json":
        return (table,)
    return keys, rng.random((rows, topics)), [f"topic {t}" for t in range(topics)]


@pytest.mark.parametrize(
    "name", ["write_ngram_trends_csv", "write_table_json", "write_similarity_csv"]
)
def test_writer_memory_does_not_grow_with_the_table(tmp_path, name):
    # Both tables span more than one block; a writer that renders the whole
    # table, or a fixed number of its rows, at once peaks about 8x higher on
    # the taller one.
    peaks = []
    for rows in (512, 8 * 512):
        args = _tall_inputs(name, rows)
        tracemalloc.start()
        try:
            getattr(pipeline, name)(tmp_path / name, *args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0], peaks
