"""The benchmark's output check accepts a correct analysis directory and
rejects corrupted ones; the traced run's self-time arithmetic."""

import hashlib
import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import check  # noqa: E402
import corpora  # noqa: E402
import traced  # noqa: E402
from salience.pipeline import RunConfig, run_analyze  # noqa: E402

FRAMEWORK = BENCH.parent / "src" / "salience" / "data" / "pmesii_ascope.json"


@pytest.fixture(scope="module")
def analyzed(tmp_path_factory):
    work = tmp_path_factory.mktemp("news")
    corpus = corpora.write_news(work / "corpus.jsonl", seed=3)
    run_analyze(RunConfig(corpus=corpus.path, framework=FRAMEWORK, out_dir=work / "out", granularity="day"))
    return corpus, work / "out"


@pytest.fixture
def out(analyzed, tmp_path):
    copy = tmp_path / "out"
    shutil.copytree(analyzed[1], copy)
    return copy


def run_check(corpus, out):
    return check.check_output(out, corpus, check.read_framework(FRAMEWORK), seed=3)


def rehash(out, rel):
    """Record an edited artifact's new hash, so only the content checks can object."""
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["artifacts"][rel] = hashlib.sha256((out / rel).read_bytes()).hexdigest()
    (out / "manifest.json").write_text(json.dumps(manifest))


def test_correct_output_passes(analyzed, out):
    stats = run_check(analyzed[0], out)
    assert stats["kept"] > 0 and stats["instances"] == sum(analyzed[0].bin_totals)
    assert 0 < stats["unique_contexts"] <= stats["contexts"]


def test_edited_artifact_fails_manifest_hash(analyzed, out):
    path = out / "salience.csv"
    path.write_text(path.read_text().replace("0.0", "0.5", 1))
    with pytest.raises(check.CheckError, match="hash differs"):
        run_check(analyzed[0], out)


def test_dropped_member_fails_quadrant(analyzed, out):
    assoc = json.loads((out / "associations.json").read_text())
    topic = next(t for t, entry in assoc.items() if entry["members"])
    assoc[topic]["members"].pop()
    (out / "associations.json").write_text(json.dumps(assoc, indent=2))
    rehash(out, "associations.json")
    with pytest.raises(check.CheckError, match="misses a quadrant n-gram"):
        run_check(analyzed[0], out)


def test_wrong_trend_value_fails(analyzed, out):
    lines = (out / "ngram_trends.csv").read_text().splitlines()
    cells = lines[1].split(",")
    cells[2] = repr(float(cells[2]) + 1e-9)
    lines[1] = ",".join(cells)
    (out / "ngram_trends.csv").write_text("\n".join(lines) + "\n")
    rehash(out, "ngram_trends.csv")
    with pytest.raises(check.CheckError, match="count / bin total"):
        run_check(analyzed[0], out)


def test_miscounted_ngram_fails_oracle(analyzed, out):
    table = json.loads((out / "ngram_table.json").read_text())
    entry = table["ngrams"]["power grid"]
    t = entry["counts"].index(max(entry["counts"]))
    # Move one instance (count and context) to the next bin: totals still agree.
    entry["counts"][t] -= 1
    entry["counts"][t + 1] += 1
    context = next(c for c in entry["contexts"] if c[0] == t)
    context[0] = t + 1
    (out / "ngram_table.json").write_text(json.dumps(table))
    rehash(out, "ngram_table.json")
    with pytest.raises(check.CheckError, match="oracle counts of 'power grid'"):
        run_check(analyzed[0], out)


def test_self_time_subtracts_children_and_leaves():
    record = {
        "spans": [["cli.analyze", 0.0, 10.0, -1], ["pipeline.run_analyze", 1.0, 9.0, 0], ["topics.ngram_vector", 2.0, 5.0, 1]],
        "leaves": [["topics.cosine", 1, 100, 2.5]],
        "failed": {"topics": 1},
        "counts": {},
    }
    selfs = traced.self_times(record)
    assert selfs["cli.analyze"] == pytest.approx(2.0)
    assert selfs["pipeline.run_analyze"] == pytest.approx(8.0 - 3.0 - 2.5)
    assert selfs["topics.ngram_vector"] == pytest.approx(3.0)
    metrics = traced.layer_metrics([record])
    assert metrics["topics.vectorize_s"] == pytest.approx(3.0)
    assert metrics["topics.cosine_s"] == pytest.approx(2.5)
    assert metrics["topics.self_s"] == pytest.approx(5.5)
    assert metrics["topics.failed"] == 1


def test_zipf_corpus_is_deterministic(tmp_path):
    records = corpora.zipf_records(5)
    assert records == corpora.zipf_records(5)
    assert len(records) == corpora.ZIPF_DOCS
    assert records[0][0] == corpora.ZIPF_START


def test_failure_counted_once_at_innermost_span():
    tracer = traced.Tracer()

    def inner():
        raise ValueError("boom")

    wrapped_inner = tracer.wrap(inner, "topics.ngram_vector")
    wrapped_outer = tracer.wrap(lambda: wrapped_inner(), "pipeline.compute_similarities")
    with pytest.raises(ValueError):
        wrapped_outer()
    assert tracer.failed == {"topics": 1}
    assert [(name, parent) for name, _, _, parent in tracer.spans] == [
        ("pipeline.compute_similarities", -1),
        ("topics.ngram_vector", 0),
    ]
