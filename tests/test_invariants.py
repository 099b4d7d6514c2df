"""End-to-end invariants of `analyze` on small generated corpora.

Reordering the documents or repeating every one of them changes the text of
the corpus but not what the method measures, so the artifacts must change
only where the n-gram table records the order or the number of instances.
"""

import csv
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
    records = _records(docs)
    repeated = records + [{**r, "id": r["id"] + "-again"} for r in records]
    with tempfile.TemporaryDirectory() as tmp:
        try:
            a = _analyze(Path(tmp), "a", records, min_total)
        except InputError:
            # No n-gram reaches min-count, and none reaches twice that.
            with pytest.raises(InputError, match="no n-gram reached min-count"):
                _analyze(Path(tmp), "b", repeated, 2 * min_total)
            return
        b = _analyze(Path(tmp), "b", repeated, 2 * min_total)
    assert _without(a, "ngram_table.json", "ngram_trends.csv") == _without(
        b, "ngram_table.json", "ngram_trends.csv"
    )
    # Usage is a proportion: 2c / 2t is c / t, to the bit.
    rows_a = list(csv.reader(io.StringIO(a["ngram_trends.csv"].decode("utf-8"))))
    rows_b = list(csv.reader(io.StringIO(b["ngram_trends.csv"].decode("utf-8"))))
    assert [r[:1] + r[2:] for r in rows_a] == [r[:1] + r[2:] for r in rows_b]
    assert [2 * int(r[1]) for r in rows_a[1:]] == [int(r[1]) for r in rows_b[1:]]
    table_a, table_b = json.loads(a["ngram_table.json"]), json.loads(b["ngram_table.json"])
    assert table_b["bin_totals"] == [2 * t for t in table_a["bin_totals"]]
    assert {k: [2 * c for c in e["counts"]] for k, e in table_a["ngrams"].items()} == {
        k: e["counts"] for k, e in table_b["ngrams"].items()
    }
