"""End-to-end invariants of `analyze` on small generated corpora.

Reordering the documents, repeating every one of them, splitting one at a
sentence boundary or moving every date by whole bins changes the corpus but
not what the method measures, so the artifacts must change only where the
n-gram table records the order or the number of instances, or where a bin
is named.
"""

import csv
import datetime as dt
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from salience.errors import InputError
from salience.pipeline import RunConfig, run_analyze

from conftest import TOPIC_WORDS, corpus_file, disjoint_framework, framework_file

# Sentences drawn from the topics' leading words and a few fillers, so that
# n-grams score against the topics and some topics gain members.
_WORDS = [w for words in TOPIC_WORDS.values() for w in words[:3]] + ["the", "report", "and"]
_sentence = st.lists(st.sampled_from(_WORDS), min_size=2, max_size=6).map(" ".join)
_docs = st.lists(
    st.tuples(st.integers(1, 4), st.lists(_sentence, min_size=1, max_size=3).map(". ".join)),
    min_size=2,
    max_size=12,
)
_settings = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _records(docs):
    return [
        {"id": f"d{i}", "date": f"2017-{month:02d}-01", "text": text}
        for i, (month, text) in enumerate(docs)
    ]


def _analyze(tmp: Path, name: str, records, min_total: int) -> dict[str, bytes]:
    """Every artifact of one analyze run but the manifest, which hashes the
    corpus file and so always differs."""
    out = tmp / name
    run_analyze(
        RunConfig(
            corpus=corpus_file(tmp, records, f"{name}.jsonl"),
            framework=framework_file(tmp, disjoint_framework()),
            out_dir=out,
            min_total=min_total,
            percentile=50,
        )
    )
    files = {
        str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
    }
    del files["manifest.json"]
    return files


def _without(files: dict[str, bytes], *names: str) -> dict[str, bytes]:
    return {name: data for name, data in files.items() if name not in names}


def _table_by_text(raw: bytes):
    """ngram_table.json with each n-gram's contexts as a sorted list of (bin,
    sentence text): what stays when the scan order of the instances changes."""
    table = json.loads(raw)
    sentences = table.pop("sentences")
    ngrams = {
        text: (entry["counts"], sorted((t, sentences[sid]) for t, sid in entry["contexts"]))
        for text, entry in table.pop("ngrams").items()
    }
    return table, list(ngrams), ngrams, sorted(sentences)


@_settings
@given(_docs, st.randoms(use_true_random=False))
def test_document_order_changes_only_the_context_order(docs, rnd):
    records = _records(docs)
    shuffled = list(records)
    rnd.shuffle(shuffled)
    with tempfile.TemporaryDirectory() as tmp:
        a = _analyze(Path(tmp), "a", records, 1)
        b = _analyze(Path(tmp), "b", shuffled, 1)
    assert _without(a, "ngram_table.json") == _without(b, "ngram_table.json")
    assert _table_by_text(a["ngram_table.json"]) == _table_by_text(b["ngram_table.json"])


@_settings
@given(_docs, st.integers(1, 2))
def test_repeated_documents_change_only_the_table_and_totals(docs, min_total):
    # Usage is a proportion and kc / kt is c / t to the bit; the kernel
    # divides each n-gram's summed term counts by their gcd, so k copies of
    # each context give the same row. Only a power of two k is exact without
    # that division, so k = 3 and 5 are the cases that can tell.
    records = _records(docs)
    with tempfile.TemporaryDirectory() as tmp:
        try:
            a = _analyze(Path(tmp), "a", records, min_total)
        except InputError:
            a = None
        for k in (2, 3, 5):
            repeated = [{**r, "id": f"{r['id']}-{copy}"} for copy in range(k) for r in records]
            if a is None:
                # No n-gram reaches min-count, and none reaches k times that.
                with pytest.raises(InputError, match="no n-gram reached min-count"):
                    _analyze(Path(tmp), f"x{k}", repeated, k * min_total)
                continue
            b = _analyze(Path(tmp), f"x{k}", repeated, k * min_total)
            _assert_repeated(a, b, k)


def _assert_repeated(a: dict[str, bytes], b: dict[str, bytes], k: int) -> None:
    """b is a's corpus with every document k times: every artifact but the
    table and the trends' total column is a's, and those count k times."""
    assert _without(a, "ngram_table.json", "ngram_trends.csv") == _without(
        b, "ngram_table.json", "ngram_trends.csv"
    )
    rows_a = list(csv.reader(io.StringIO(a["ngram_trends.csv"].decode("utf-8"))))
    rows_b = list(csv.reader(io.StringIO(b["ngram_trends.csv"].decode("utf-8"))))
    assert [r[:1] + r[2:] for r in rows_a] == [r[:1] + r[2:] for r in rows_b]
    assert [k * int(r[1]) for r in rows_a[1:]] == [int(r[1]) for r in rows_b[1:]]
    table_a, table_b = json.loads(a["ngram_table.json"]), json.loads(b["ngram_table.json"])
    assert table_b["bin_totals"] == [k * t for t in table_a["bin_totals"]]
    assert {key: [k * c for c in e["counts"]] for key, e in table_a["ngrams"].items()} == {
        key: e["counts"] for key, e in table_b["ngrams"].items()
    }


@_settings
@given(_docs, st.integers(1, 2), st.data())
def test_split_documents_change_nothing(docs, min_total, data):
    # A document cut at a sentence boundary into two of the same date keeps
    # every sentence and its place in its bin: no window crosses a sentence,
    # so none can tell where a document ended.
    records, split = _records(docs), []
    for record in records:
        sentences = record["text"].split(". ")
        cut = data.draw(st.integers(0, len(sentences) - 1))
        if cut == 0:
            split.append(record)
            continue
        head, tail = ". ".join(sentences[:cut]) + ".", ". ".join(sentences[cut:])
        split += [{**record, "text": head}, {**record, "id": record["id"] + "-b", "text": tail}]
    with tempfile.TemporaryDirectory() as tmp:
        try:
            a = _analyze(Path(tmp), "a", records, min_total)
        except InputError:
            with pytest.raises(InputError, match="no n-gram reached min-count"):
                _analyze(Path(tmp), "b", split, min_total)
            return
        b = _analyze(Path(tmp), "b", split, min_total)
    assert a == b


def _shifted(day: dt.date, months: int) -> dt.date:
    year, month = divmod(day.year * 12 + day.month - 1 + months, 12)
    return day.replace(year=year, month=month + 1)


def _unlabeled(files: dict[str, bytes]) -> dict[str, bytes]:
    """The artifacts with each bin label, in names and in text, replaced by
    its bin's index."""
    labels = json.loads(files["ngram_table.json"])["bin_labels"]
    out = {}
    for name, data in files.items():
        for t, label in enumerate(labels):
            name, data = name.replace(label, f"<{t}>"), data.replace(label.encode(), b"<%d>" % t)
        out[name] = data
    return out


_dated_docs = st.lists(
    st.tuples(
        st.dates(dt.date(2016, 1, 1), dt.date(2017, 12, 28)).filter(lambda d: d.day <= 28),
        st.lists(_sentence, min_size=1, max_size=3).map(". ".join),
    ),
    min_size=2,
    max_size=12,
)


@_settings
@given(_dated_docs, st.integers(1, 40))
def test_shifted_dates_move_only_the_bin_labels(docs, months):
    # Every date k months on, on the same day of its month, puts every
    # document k bins on: each cell of each artifact stays, in the bin of
    # the same index, and only the labels move. Most shifts cross a year.
    records = [
        {"id": f"d{i}", "date": day.isoformat(), "text": text} for i, (day, text) in enumerate(docs)
    ]
    moved = [{**r, "date": _shifted(day, months).isoformat()} for r, (day, _) in zip(records, docs)]
    with tempfile.TemporaryDirectory() as tmp:
        try:
            a = _analyze(Path(tmp), "a", records, 1)
        except InputError:
            with pytest.raises(InputError, match="no n-gram reached min-count"):
                _analyze(Path(tmp), "b", moved, 1)
            return
        b = _analyze(Path(tmp), "b", moved, 1)
    labels = json.loads(a["ngram_table.json"])["bin_labels"]
    assert json.loads(b["ngram_table.json"])["bin_labels"] == [
        _shifted(dt.date.fromisoformat(f"{label}-01"), months).isoformat()[:7] for label in labels
    ]
    assert _unlabeled(a) == _unlabeled(b)
