"""The record readers of the two large CSV artifacts, `similarity.csv` and
`ngram_trends.csv`, against their writers and against csv.reader.

The loaders read the header (and, for similarities, the first n-gram's
rows) with csv.reader and everything after as records matched by one
pattern, a bounded block of text at a time. Whatever the block size, what a
writer wrote must load back bit for bit; a corrupted file must be refused
with an InputError naming the file, or, where the corruption leaves a file
the writer could have written, load as csv.reader reads it. The similarity
loader reads against the n-grams of the usage trends: a corrupted file
whose n-grams are no longer those is refused with a ConsistencyError naming
the smallest n-gram that only one of the two has."""

import csv
import datetime as dt
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from salience import pipeline, runs
from salience.corpus import TimeBinning
from salience.errors import ConsistencyError, InputError
from salience.ngrams import NgramTable

DEFAULT_CHARS = runs._READ_CHARS
# One character per read, a small odd number, and the module's own.
CHARS = [1, 7, DEFAULT_CHARS]
# What the loaders accept: floats in [0, 1], the awkward ones often.
unit_floats = st.sampled_from([-0.0, 0.0, 5e-324, 1.0, 1 / 3, 1e-05, 2.5e-17]) | st.floats(0, 1)
positive_unit_floats = unit_floats.filter(lambda value: value > 0.0)
words = st.sampled_from(["a", "b", "ab", "2017", "é", "Ünï", "z9", "日本"])
# Any text without a CR: the loaders read every CR or CRLF as LF, inside a
# quoted cell too.
texts = st.text(max_size=5).map(lambda text: text.replace("\r", ""))
topic_ids = st.sampled_from(["plain", "comma, id", 'say "hi"', "two\nlines", "çé", ""]) | texts
# LF as the writers write it, CRLF, and CR.
line_ends = st.sampled_from([b"\n", b"\r\n", b"\r"])
SIMILARITY = "similarity.csv"
TRENDS = "ngram_trends.csv"
SALIENCE = "salience.csv"  # a topic trend table, read by `runs.load_trend_csv`


def _keys(draw, rows: int) -> list[str]:
    """Distinct two-word n-grams as texts, in the sorted order of their
    token tuples."""
    pairs = draw(st.lists(st.tuples(words, words), min_size=rows, max_size=rows, unique=True))
    return [" ".join(pair) for pair in sorted(pairs)]


def _values(draw, rows: int, columns: int) -> np.ndarray:
    cells = draw(st.lists(unit_floats, min_size=rows * columns, max_size=rows * columns))
    return np.array(cells, dtype=np.float64).reshape(rows, columns)


def _trends_table(keys, totals, bins: int) -> NgramTable:
    """A table with the given keys whose i-th n-gram has totals[i]
    instances: all the writer of ngram_trends.csv reads of it."""
    starts = np.cumsum([0, *totals])
    return NgramTable(
        n=2,
        min_total=1,
        include_titles=True,
        binning=TimeBinning("month", dt.date(2016, 1, 1), bins),
        keys=keys,
        bin_totals=[1] * bins,
        context_start=starts,
        context_bins=np.zeros(starts[-1], dtype=np.int32),
        context_sids=np.zeros(starts[-1], dtype=np.int32),
    )


@st.composite
def similarity_cases(draw, ids=topic_ids):
    """(keys, similarities, topic ids) as write_similarity_csv takes them."""
    topics = draw(st.lists(ids, min_size=1, max_size=4))
    rows = draw(st.integers(1, 8))
    return _keys(draw, rows), _values(draw, rows, len(topics)), topics


@st.composite
def trends_cases(draw):
    """(table, usage, bin labels) as write_ngram_trends_csv takes them.
    Every tabled n-gram occurs, so each usage row has a positive cell, and a
    bin's kept counts sum to at most its total, so each bin's usage sums to
    at most 1."""
    rows, bins = draw(st.integers(1, 8)), draw(st.integers(1, 5))
    totals = draw(st.lists(st.integers(1, 10**6), min_size=rows, max_size=rows))
    labels = draw(st.lists(texts, min_size=bins, max_size=bins))
    usage = _values(draw, rows, bins)
    for row in np.flatnonzero(usage.max(axis=1) <= 0.0):
        usage[row, draw(st.integers(0, bins - 1))] = draw(positive_unit_floats)
    # Halve the normal cells of each bin that sums above 1 until none does;
    # subnormal ones stay, so no positive cell becomes 0.
    while (over := usage.sum(axis=0) > 1.0).any():
        cells = usage[:, over]
        usage[:, over] = np.where(cells < 2.0**-1022, cells, cells / 2)
    return _trends_table(_keys(draw, rows), totals, bins), usage, labels


def _write(folder: Path, name: str, case) -> Path:
    path = folder / name
    if name == SIMILARITY:
        pipeline.write_similarity_csv(path, *case)
    else:
        pipeline.write_ngram_trends_csv(path, *case)
    return path


def _load(path: Path, chars: int = DEFAULT_CHARS, keys=None):
    """(keys, values, columns) as the artifact's loader reads them. The
    similarity loader reads against the trends' n-grams `keys`, which it
    does not return. A topic trend table loads as (trends, labels)."""
    with mock.patch.object(runs, "_READ_CHARS", chars):
        if path.name == SALIENCE:
            return runs.load_trend_csv(path)
        if path.name == SIMILARITY:
            return (keys, *pipeline.load_similarity_csv(path, keys))
        return pipeline.load_ngram_trends_csv(path)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _rewritten(path: Path, newline: bytes, final_newline: bool) -> None:
    """Give every line end, a quoted cell's included, as `newline`, and
    drop the last one unless `final_newline`."""
    data = path.read_bytes().replace(b"\n", newline)
    path.write_bytes(data if final_newline else data.rstrip(b"\r\n"))


@pytest.mark.parametrize("chars", CHARS)
@settings(max_examples=25, deadline=None)
@given(case=similarity_cases(), newline=line_ends, final_newline=st.booleans())
def test_similarity_round_trip(chars, case, newline, final_newline):
    keys, sims, topics = case
    with tempfile.TemporaryDirectory() as folder:
        path = _write(Path(folder), SIMILARITY, case)
        _rewritten(path, newline, final_newline)
        _, loaded, loaded_topics = _load(path, chars, keys)
    assert loaded_topics == topics
    assert _same_bits(loaded, sims)


@pytest.mark.parametrize("chars", CHARS)
@settings(max_examples=25, deadline=None)
@given(case=trends_cases(), newline=line_ends, final_newline=st.booleans())
def test_trends_round_trip(chars, case, newline, final_newline):
    table, usage, labels = case
    with tempfile.TemporaryDirectory() as folder:
        path = _write(Path(folder), TRENDS, case)
        _rewritten(path, newline, final_newline)
        loaded_keys, loaded, loaded_labels = _load(path, chars)
    assert (loaded_keys, loaded_labels) == (table.keys, labels)
    assert _same_bits(loaded, usage)


@pytest.mark.parametrize("name", [SIMILARITY, TRENDS, SALIENCE])
@pytest.mark.parametrize("number", ["", " 0.5", "0.5 ", "+0.5", "1_0", "1E-05", "Infinity", ".5", "0x1"])
def test_loaders_refuse_numbers_not_spelled_as_the_writers_spell_them(tmp_path, name, number):
    # float() reads most of these; the loaders take a float's repr only.
    path = tmp_path / name
    header, second = {
        SIMILARITY: ("ngram,topic_id,similarity\na b,t1,", "b c,t1,"),
        TRENDS: ("ngram,total,b\na b,1,", "b c,1,"),
        SALIENCE: ("topic_id,b\nt1,", "t2,"),
    }[name]
    path.write_text(f"{header}0.5\n{second}{number}\n")
    with pytest.raises(InputError, match=rf"{re.escape(str(path))}: line 3: expected .*, found"):
        _load(path, keys=["a b", "b c"])


def test_trend_loader_refuses_a_blank_row(tmp_path):
    # No writer writes a blank row, and the record readers refuse one too.
    path = tmp_path / SALIENCE
    path.write_text("topic_id,b\nt1,0.5\n\nt2,0.25\n", encoding="utf-8")
    with pytest.raises(InputError, match=rf"{re.escape(str(path))}: line 3: 0 cells, header has 2$"):
        runs.load_trend_csv(path)


def _csv_reading(path: Path):
    """What csv.reader makes of an artifact: its keys, numbers and column
    names, as the loaders return them."""
    with path.open(encoding="utf-8") as fh:
        header, *rows = [row for row in csv.reader(fh) if row]
    if path.name == TRENDS:
        keys = [row[0] for row in rows]
        return keys, np.array([list(map(float, row[2:])) for row in rows]), header[2:]
    keys = list(dict.fromkeys(row[0] for row in rows))
    topics = [row[1] for row in rows[: len(rows) // len(keys)]]
    return keys, np.array([float(row[2]) for row in rows]).reshape(len(keys), -1), topics


# Topic ids of one line each, so that a line of similarity.csv is a row.
one_line_ids = st.sampled_from(["plain", "comma, id", 'say "hi"', "çé"])
CORRUPT_CELLS = ["nan", "inf", "-1", "2", "", "x"]


@st.composite
def corruptions(draw):
    """An artifact's name, the kind of corruption, a corrupted copy of the
    bytes a writer wrote (one number cell replaced, the file cut at a byte,
    or one line dropped or repeated) and the n-grams written."""
    name = draw(st.sampled_from([SIMILARITY, TRENDS]))
    case = draw(similarity_cases(one_line_ids) if name == SIMILARITY else trends_cases())
    with tempfile.TemporaryDirectory() as folder:
        data = _write(Path(folder), name, case).read_bytes()
    kind = draw(st.sampled_from(["cell", "cut", "drop", "repeat"]))
    keys = case[0] if name == SIMILARITY else case[0].keys
    if kind == "cut":
        return name, kind, data[: draw(st.integers(0, len(data) - 1))], keys
    lines = data.decode("utf-8").split("\n")[:-1]
    # The data rows are the last lines; a quoted bin label can make the
    # header more than one.
    rows = len(case[0]) * len(case[2]) if name == SIMILARITY else len(case[0].keys)
    at = draw(st.integers(len(lines) - rows if kind == "cell" else 0, len(lines) - 1))
    if kind == "cell":
        cells = lines[at].split(",")
        first = len(cells) - 1 if name == SIMILARITY else 2
        cells[draw(st.integers(first, len(cells) - 1))] = draw(st.sampled_from(CORRUPT_CELLS))
        lines[at] = ",".join(cells)
    elif kind == "drop":
        del lines[at]
    else:
        lines.insert(at, lines[at])
    return name, kind, "".join(line + "\n" for line in lines).encode("utf-8"), keys


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=corruptions(), chars=st.sampled_from(CHARS))
def test_corrupted_artifact_is_refused_or_read_as_csv_reads_it(case, chars):
    name, kind, data, written = case
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / name
        path.write_bytes(data)
        try:
            keys, values, columns = _load(path, chars, written)
        except InputError as exc:
            # The file, then the line, or the n-gram and column of a value.
            assert re.match(rf"{re.escape(str(path))}: (line \d+: |.+ at .+: .+ is not )", str(exc))
            return
        except ConsistencyError as exc:
            # Well-formed similarities for other n-grams than the trends':
            # the smallest n-gram only one of the two has is named.
            assert name == SIMILARITY and kind != "cell"
            with path.open(encoding="utf-8") as fh:
                rows = [row for row in csv.reader(fh) if row][1:]
            read = {row[0] for row in rows}
            sample = min(read ^ set(written))
            assert str(exc).endswith(f"different n-gram sets (e.g. {sample!r})")
            return
        # Accepted: a file the writer could have written, read as csv.reader
        # reads it.
        assert kind != "cell"
        expected_keys, expected_values, expected_columns = _csv_reading(path)
    assert (keys, columns) == (expected_keys, expected_columns)
    assert _same_bits(values, expected_values)


def test_loaders_do_not_parse_rows_with_csv_reader(tmp_path):
    # csv.reader reads the header and the first n-gram's rows, and the row
    # that ends them; the other 21,564 rows of similarity.csv, and every
    # row of ngram_trends.csv after its header, are matched as records.
    topics = [f"topic {t}" for t in range(36)]
    keys = [f"w{i:04d} x" for i in range(600)]
    sims = np.random.default_rng(1).random((600, 36))
    sims[sims < 0.8] = 0.0
    table = _trends_table(keys, [3] * 600, 33)
    # Every usage row has a positive cell, and every bin sums to at most 1.
    usage = sims[:, :33] / 600
    usage[:, 0] = 1 / 600
    pipeline.write_similarity_csv(tmp_path / SIMILARITY, keys, sims, topics)
    pipeline.write_ngram_trends_csv(tmp_path / TRENDS, table, usage, ["b"] * 33)
    real_reader = csv.reader
    rows = {}

    def counting_reader(*args, **kwargs):
        for row in real_reader(*args, **kwargs):
            rows[name] = rows.get(name, 0) + 1
            yield row

    for name in (SIMILARITY, TRENDS):
        with mock.patch.object(csv, "reader", counting_reader):
            loaded_keys, loaded, _ = _load(tmp_path / name, keys=keys)
        assert loaded_keys == keys and loaded.shape[0] == 600
    assert rows == {SIMILARITY: 1 + 36 + 1, TRENDS: 1}
