import csv
import dataclasses
import datetime as dt
import functools
import hashlib
import importlib.util
import io
import itertools
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from salience import cli, ngrams, pipeline, render, runs
from salience.cli import main
from salience.corpus import TimeBinning, build_binning, load_corpus, read_corpus
from salience.errors import InputError
from salience.ngrams import NgramTable, build_ngram_table
from salience.pipeline import (
    RunConfig,
    load_associations_json,
    load_ngram_trends_csv,
    load_similarity_csv,
    load_table_json,
    load_trend_csv,
    run_analyze,
    write_similarity_csv,
    write_table_json,
)
from salience.runs import load_matrix_json
from salience.synth import (
    PlantedEvent,
    SynthSpec,
    corpus_to_jsonl,
    generate_corpus,
    news_scale_spec,
)

from conftest import (
    assert_same_table,
    burst_phrases,
    corpus_file,
    disjoint_framework,
    framework_file,
    framework_to_dict,
)

ARTIFACTS = (
    "ngram_trends.csv",
    "ngram_table.json",
    "similarity.csv",
    "associations.json",
    "topic_usage.csv",
    "salience.csv",
    "salience_normalized.csv",
    "manifest.json",
)


def demo_spec(seed=0):
    return SynthSpec(
        seed=seed,
        bin_count=8,
        docs_per_bin=3,
        background_vocab=12,
        sentence_length=(5, 9),
        sentences_per_doc=(3, 5),
        events=(
            PlantedEvent(
                topic_id="harbor_trade",
                phrases=burst_phrases("harbor_trade"),
                start_bin=4,
                duration=2,
                intensity=0.5,
            ),
        ),
    )


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipeline")
    docs, _ = generate_corpus(demo_spec())
    corpus = tmp / "corpus.jsonl"
    corpus.write_text(corpus_to_jsonl(docs), encoding="utf-8")
    framework = framework_file(tmp, disjoint_framework())
    return tmp, corpus, framework


def read_all(out_dir: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(out_dir)): p.read_bytes()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def assert_some_topic_has_members(out_dir: Path) -> None:
    """An equality test over all-zero salience would not notice a wrong sum:
    at the demo workspace's default 75th percentile every topic is empty."""
    associations = json.loads((out_dir / "associations.json").read_text(encoding="utf-8"))
    assert any(entry["members"] for entry in associations.values())
    salience, _ = load_trend_csv(out_dir / "salience.csv")
    assert any(value != 0.0 for row in salience.values() for value in row)


def _context_sentence_ids(path: Path) -> np.ndarray:
    """The sentence id of every context in ngram_table.json, in file order:
    along the sorted keys, each n-gram's contexts in order. Read by pattern,
    one n-gram at a time, since json.loads makes a list of every context."""
    text = path.read_text(encoding="utf-8")
    entries = re.finditer(r'"contexts":\[(.*?)\]\}', text)
    ids = [np.array(re.findall(r",(\d+)\]", entry[1]), dtype=np.int64) for entry in entries]
    return np.concatenate(ids)


def assert_ids_number_the_sentences(path: Path, count: int) -> None:
    """The contexts of ngram_table.json hold the sentence ids 0 ... count - 1,
    each first used after the one before it: numbered by first use along the
    sorted keys."""
    ids, first = np.unique(_context_sentence_ids(path), return_index=True)
    assert ids.tolist() == list(range(count))
    assert (np.diff(first) > 0).all()


class TestAnalyze:
    def test_writes_every_artifact(self, workspace):
        tmp, corpus, framework = workspace
        out = tmp / "run1"
        config = RunConfig(corpus=corpus, framework=framework, out_dir=out, min_total=1)
        manifest = run_analyze(config)
        for name in ARTIFACTS:
            assert (out / name).is_file(), name
        matrices = sorted((out / "matrices").glob("*.json"))
        assert len(matrices) == 8  # one per bin
        assert matrices[0].name == "2016-01.json"
        assert manifest["corpus"]["documents"] == 24
        assert manifest["corpus"]["bins"] == 8

    def test_manifest_hashes_every_artifact(self, workspace):
        tmp, corpus, framework = workspace
        out = tmp / "run_hashes"
        run_analyze(RunConfig(corpus=corpus, framework=framework, out_dir=out, min_total=1))
        manifest = json.loads((out / "manifest.json").read_text())
        listed = set(manifest["artifacts"])
        on_disk = {
            rel for rel in read_all(out) if rel != "manifest.json"
        }
        assert listed == on_disk
        for rel, digest in manifest["artifacts"].items():
            assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest
        assert manifest["corpus"]["sentences"] > 0
        assert_ids_number_the_sentences(out / "ngram_table.json", manifest["corpus"]["sentences"])

    def test_sentence_texts_are_dropped_once_the_table_is_written(self, workspace, monkeypatch):
        # The table holds no sentence text, and after the similarity stage
        # no token rows: the kernel scores from the token rows of analyze's
        # one scan, and the manifest's count was taken before they went.
        tmp, corpus, framework = workspace
        written, write = [], pipeline.write_table_json
        scans, scan = [], ngrams.build_ngram_table

        def write_table_json(path, table):
            write(path, table)
            written.append(table)

        def build_ngram_table(*args, **options):
            scans.append(scan(*args, **options))
            return scans[-1]

        monkeypatch.setattr(pipeline, "write_table_json", write_table_json)
        monkeypatch.setattr(ngrams, "build_ngram_table", build_ngram_table)
        out = tmp / "run_dropped"
        manifest = run_analyze(RunConfig(corpus=corpus, framework=framework, out_dir=out))
        assert scans == written
        (table,) = written
        assert not hasattr(table, "sentences") and table.sentence_tokens is None
        sids = _context_sentence_ids(out / "ngram_table.json")
        assert manifest["corpus"]["sentences"] == len(np.unique(sids)) > 0

    def test_manifest_times_each_stage(self, workspace):
        tmp, corpus, framework = workspace
        out = tmp / "run_timings"
        run_analyze(RunConfig(corpus=corpus, framework=framework, out_dir=out, min_total=1))
        timings = json.loads((out / "manifest.json").read_text())["timings"]
        stages = ["ingest", "trends", "similarity", "associate", "salience", "manifest"]
        assert set(timings) == set(stages)
        for stage in timings.values():
            assert set(stage) == {"wall_s", "cpu_s", "peak_rss_mib"}
            assert stage["wall_s"] >= 0.0 and stage["cpu_s"] >= 0.0
        peaks = [timings[name]["peak_rss_mib"] for name in stages]
        if runs.resource is None:
            assert peaks == [None] * len(stages)
        else:  # a high-water mark: it never falls from one stage to the next
            assert 0.0 < peaks[0] and peaks == sorted(peaks)

    def test_manifest_lists_the_topics_without_members(self, workspace):
        tmp, corpus, framework = workspace
        out = tmp / "run_empty"
        config = RunConfig(
            corpus=corpus, framework=framework, out_dir=out, min_total=1, percentile=50
        )
        manifest = run_analyze(config)
        associations = json.loads((out / "associations.json").read_text())
        empty = sorted(tid for tid, entry in associations.items() if not entry["members"])
        assert manifest["corpus"]["empty_topics"] == empty
        assert 0 < len(empty) < len(associations)

    def test_rerun_is_byte_identical_except_manifest_timings(self, workspace):
        tmp, corpus, framework = workspace
        out = tmp / "rerun"
        config = RunConfig(
            corpus=corpus, framework=framework, out_dir=out, min_total=1, percentile=50
        )
        run_analyze(config)
        assert_some_topic_has_members(out)
        first = read_all(out)
        run_analyze(config)
        second = read_all(out)
        assert set(first) == set(second)
        for rel in first:
            if rel == "manifest.json":
                a = json.loads(first[rel])
                b = json.loads(second[rel])
                a.pop("timings"), b.pop("timings")
                assert a == b
            else:
                assert first[rel] == second[rel], rel

    def test_exported_floats_roundtrip_exactly(self, workspace):
        tmp, corpus, framework = workspace
        out = tmp / "roundtrip"
        run_analyze(RunConfig(corpus=corpus, framework=framework, out_dir=out, min_total=1))
        from salience.ngrams import relative_usage_trend

        table = build_ngram_table(load_corpus(corpus), 2, 1)
        with (out / "ngram_trends.csv").open() as fh:
            reader = csv.reader(fh)
            next(reader)
            for row in reader:
                counts = table.counts[table.keys.index(row[0])].tolist()
                assert int(row[1]) == sum(counts)
                expected = relative_usage_trend(counts, table.bin_totals)
                assert [float(v) for v in row[2:]] == expected

    def test_empty_corpus_fails_with_input_error(self, tmp_path, workspace):
        _, _, framework = workspace
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        with pytest.raises(InputError, match="ingest"):
            run_analyze(
                RunConfig(corpus=empty, framework=framework, out_dir=tmp_path / "out")
            )

    def test_failed_run_removes_partial_outputs(self, tmp_path, workspace):
        _, corpus, _ = workspace
        # A single-topic framework passes ingest but fails in the similarity
        # stage, after the trends artifacts were already written.
        solo = tmp_path / "solo.json"
        solo.write_text(
            json.dumps({"name": "solo", "topics": [{"id": "t", "definition": "word"}]}),
            encoding="utf-8",
        )
        out = tmp_path / "out"
        with pytest.raises(InputError, match="similarity"):
            run_analyze(RunConfig(corpus=corpus, framework=solo, out_dir=out, min_total=1))
        leftovers = [p for p in out.rglob("*") if p.is_file()]
        assert leftovers == []

    @pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="no SIGKILL on this platform")
    def test_killed_rerun_leaves_no_stale_manifest(self, tmp_path, workspace):
        # A rerun with another --min-count, killed after it has rewritten
        # the trends artifacts, must not leave the earlier run's manifest,
        # whose digests no longer match them. The kill comes in a child, as
        # the similarity stage writes.
        _, corpus, framework = workspace
        out = tmp_path / "out"
        args = ["analyze", "--corpus", str(corpus), "--framework", str(framework)]
        args += ["--out", str(out)]
        assert main([*args, "--min-count", "1"]) == 0 and (out / "manifest.json").is_file()
        code = """
import os, signal, sys
import salience.cli, salience.pipeline

def killed(*args, **kwargs):
    os.kill(os.getpid(), signal.SIGKILL)

salience.pipeline.write_similarity_csv = killed
salience.cli.main(sys.argv[1:])
"""
        paths = [str(Path(pipeline.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        argv = [sys.executable, "-c", code, *args, "--min-count", "2"]
        run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == -signal.SIGKILL, run.stderr
        assert (out / "ngram_trends.csv").is_file()
        assert [p.name for p in out.glob("manifest*")] == []

    def test_run_refused_in_ingest_leaves_the_earlier_output_whole(self, tmp_path, workspace):
        # Ingest writes nothing, so the earlier run's manifest goes only
        # once ingest has passed: a bad option or a missing corpus leaves
        # every file of a complete output as it was.
        _, corpus, framework = workspace
        out = tmp_path / "out"
        args = ["analyze", "--framework", str(framework), "--out", str(out)]
        assert main([*args, "--corpus", str(corpus)]) == 0
        before = read_all(out)
        assert "manifest.json" in before
        assert main([*args, "--corpus", str(corpus), "--n", "0"]) == 1
        assert read_all(out) == before
        assert main([*args, "--corpus", str(tmp_path / "missing.jsonl")]) == 1
        assert read_all(out) == before

    def test_run_refused_in_ingest_makes_no_output_directory(self, tmp_path, workspace):
        # The output directory is made once ingest has passed, so a refused
        # run into a fresh nested path leaves no directory behind.
        _, corpus, framework = workspace
        refused = {
            "missing": ["--corpus", str(tmp_path / "missing.jsonl")],
            "n0": ["--corpus", str(corpus), "--n", "0"],
        }
        for name, flags in refused.items():
            out = tmp_path / name / "out"
            assert main(["analyze", "--framework", str(framework), "--out", str(out), *flags]) == 1
            assert not (tmp_path / name).exists()

    def test_run_refused_in_trends_makes_no_output_directory(self, tmp_path, workspace, capsys):
        # The trends stage's first artifact makes the output directory, so a
        # --min-count that keeps no n-gram leaves no folder, parents included.
        _, corpus, framework = workspace
        out = tmp_path / "refused" / "x" / "out"
        args = ["--corpus", str(corpus), "--framework", str(framework), "--out", str(out)]
        assert main(["analyze", *args, "--min-count", "100000"]) == 1
        assert "error: trends: no n-gram reached min-count 100000" in capsys.readouterr().err
        assert not (tmp_path / "refused").exists()

    def test_failed_run_removes_only_the_folders_it_made(self, tmp_path):
        # A run's folders go innermost first, whichever order it made them
        # in; one that holds a file the run did not write stays.
        run = runs._Run(tmp_path / "a" / "b")
        run.target("x.csv").write_text("x", encoding="utf-8")
        run.target("m", "n", "1.json").write_text("1", encoding="utf-8")
        run.target("m", "2.json").write_text("2", encoding="utf-8")
        run.cleanup()
        assert list(tmp_path.iterdir()) == []

        (tmp_path / "kept").mkdir()
        run = runs._Run(tmp_path / "kept" / "out")
        run.target("x.csv").write_text("x", encoding="utf-8")
        (tmp_path / "kept" / "out" / "other").write_text("", encoding="utf-8")
        run.cleanup()
        assert [p.name for p in (tmp_path / "kept" / "out").iterdir()] == ["other"]

    def test_min_total_that_filters_everything(self, tmp_path, workspace):
        _, corpus, framework = workspace
        with pytest.raises(InputError, match="min-count"):
            run_analyze(
                RunConfig(
                    corpus=corpus,
                    framework=framework,
                    out_dir=tmp_path / "out",
                    min_total=10_000,
                )
            )

    def test_bad_config_rejected(self, tmp_path, workspace):
        _, corpus, framework = workspace
        config = RunConfig(
            corpus=corpus, framework=framework, out_dir=tmp_path / "out", percentile=150
        )
        with pytest.raises(InputError):
            run_analyze(config)

    def test_lexicon_feeds_the_vector_space(self, tmp_path, workspace):
        _, corpus, framework = workspace
        lexicon = tmp_path / "lexicon.json"
        lexicon.write_text(json.dumps({"harbor": ["seaport"]}), encoding="utf-8")
        out = tmp_path / "out"
        manifest = run_analyze(
            RunConfig(
                corpus=corpus,
                framework=framework,
                out_dir=out,
                lexicon=lexicon,
                min_total=1,
            )
        )
        assert manifest["inputs"]["lexicon"] is not None
        assert manifest["config"]["lexicon"] == str(lexicon)

    def test_week_granularity_end_to_end(self, tmp_path, workspace):
        _, _, framework = workspace
        spec = SynthSpec(
            seed=4,
            bin_count=5,
            docs_per_bin=2,
            background_vocab=10,
            sentence_length=(5, 8),
            sentences_per_doc=(3, 4),
            granularity="week",
        )
        docs, _ = generate_corpus(spec)
        corpus = tmp_path / "weekly.jsonl"
        corpus.write_text(corpus_to_jsonl(docs), encoding="utf-8")
        out = tmp_path / "out"
        run_analyze(
            RunConfig(
                corpus=corpus,
                framework=framework,
                out_dir=out,
                min_total=1,
                granularity="week",
            )
        )
        matrices = sorted((out / "matrices").glob("*.json"))
        assert len(matrices) == 5
        # Weekly bins are labeled by their Monday start date.
        assert all(len(p.stem) == 10 for p in matrices)


class TestCli:
    def test_analyze_then_render(self, workspace, capsys):
        tmp, corpus, framework = workspace
        out = tmp / "cli_run"
        code = main(
            [
                "analyze",
                "--corpus", str(corpus),
                "--framework", str(framework),
                "--min-count", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert "artifacts" in capsys.readouterr().out

        code = main(
            ["render", "--in", str(out), "--topics", "harbor_trade,city_transit"]
        )
        assert code == 0
        for name in ("salience_absolute.svg", "salience_normalized.svg"):
            content = (out / "render" / name).read_text()
            assert content.count("<polyline") == 2

    def test_render_unknown_topic(self, workspace):
        tmp, corpus, framework = workspace
        out = tmp / "cli_run2"
        main(
            [
                "analyze",
                "--corpus", str(corpus),
                "--framework", str(framework),
                "--min-count", "1",
                "--out", str(out),
            ]
        )
        assert main(["render", "--in", str(out), "--topics", "nope"]) == 1

    def test_stage_subcommands_match_analyze(self, workspace):
        tmp, corpus, framework = workspace
        full = tmp / "full"
        staged = tmp / "staged"
        assert (
            main(
                [
                    "analyze",
                    "--corpus", str(corpus),
                    "--framework", str(framework),
                    "--min-count", "1",
                    "--percentile", "50",
                    "--out", str(full),
                ]
            )
            == 0
        )
        assert_some_topic_has_members(full)
        assert (
            main(
                [
                    "trends",
                    "--corpus", str(corpus),
                    "--min-count", "1",
                    "--out", str(staged),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "similarity",
                    "--in", str(staged),
                    "--corpus", str(corpus),
                    "--framework", str(framework),
                ]
            )
            == 0
        )
        # Only the similarity stage reads the table; the later stages read
        # the trends CSV.
        table = staged / "ngram_table.json"
        assert table.read_bytes() == (full / "ngram_table.json").read_bytes()
        table.unlink()
        assert main(["associate", "--in", str(staged), "--percentile", "50"]) == 0
        assert main(["salience", "--in", str(staged), "--framework", str(framework)]) == 0

        full_files = read_all(full)
        staged_files = read_all(staged)
        assert set(staged_files) == set(full_files) - {"manifest.json", "ngram_table.json"}
        for rel, content in staged_files.items():
            assert content == full_files[rel], rel

    def test_stage_bug_exits_two_and_removes_partial_output(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        _, corpus, framework = workspace
        out = tmp_path / "out"
        run_analyze(RunConfig(corpus=corpus, framework=framework, out_dir=out, min_total=1))

        def half_write(path, *arrays):
            path.write_text("{", encoding="utf-8")
            raise RuntimeError("boom")

        monkeypatch.setattr(pipeline, "write_associations_json", half_write)
        capsys.readouterr()
        assert main(["associate", "--in", str(out)]) == 2
        assert "error: associate: RuntimeError: boom" in capsys.readouterr().err
        assert not (out / "associations.json").exists()

    def test_bad_cells_exit_one(self, workspace, tmp_path, capsys):
        _, corpus, framework = workspace
        out = tmp_path / "out"
        run_analyze(RunConfig(corpus=corpus, framework=framework, out_dir=out, min_total=1))
        with (out / "similarity.csv").open("a", encoding="utf-8") as fh:
            fh.write("a b,t1,oops\n")
        capsys.readouterr()
        assert main(["associate", "--in", str(out)]) == 1
        assert "similarity.csv: line " in capsys.readouterr().err

        salience = out / "salience.csv"
        lines = salience.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + ",nan?"
        salience.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["render", "--in", str(out), "--topics", "harbor_trade"]) == 1
        assert "salience.csv: line 2: " in capsys.readouterr().err

    def test_render_malformed_matrix_exits_one(self, workspace, tmp_path, capsys):
        _, corpus, framework = workspace
        out = tmp_path / "out"
        run_analyze(RunConfig(corpus=corpus, framework=framework, out_dir=out, min_total=1))
        matrix = out / "matrices" / "2016-01.json"
        matrix.write_text("{", encoding="utf-8")
        capsys.readouterr()
        args = ["render", "--in", str(out), "--topics", "harbor_trade", "--bin", "2016-01"]
        assert main(args) == 1
        assert f"error: render: {matrix}: malformed JSON" in capsys.readouterr().err
        assert not (out / "render").exists()

    def test_non_object_associations_exit_one(self, workspace, tmp_path, capsys):
        _, corpus, framework = workspace
        out = tmp_path / "out"
        run_analyze(RunConfig(corpus=corpus, framework=framework, out_dir=out, min_total=1))
        associations = out / "associations.json"
        associations.write_text("[]", encoding="utf-8")
        capsys.readouterr()
        assert main(["salience", "--in", str(out), "--framework", str(framework)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: salience: {associations}: associations must be")

    def test_render_matrix_of_wrong_shape_exits_one(self, workspace, tmp_path, capsys):
        from salience.topics import load_pmesii_ascope

        _, corpus, _ = workspace
        grid_fw = framework_file(tmp_path, load_pmesii_ascope(), name="pmesii.json")
        out = tmp_path / "out"
        run_analyze(RunConfig(corpus=corpus, framework=grid_fw, out_dir=out, min_total=1))
        matrix = out / "matrices" / "2016-01.json"
        payload = json.loads(matrix.read_text(encoding="utf-8"))
        matrix.write_text(json.dumps({**payload, "values": 5}), encoding="utf-8")
        capsys.readouterr()
        args = ["render", "--in", str(out), "--topics", "political_events", "--bin", "2016-01"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: render: {matrix}: matrix values must be 6 rows of 6 ")
        assert not (out / "render").exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_render_non_finite_matrix_value_exits_one(self, workspace, tmp_path, capsys, value):
        from salience.topics import load_pmesii_ascope

        _, corpus, _ = workspace
        grid_fw = framework_file(tmp_path, load_pmesii_ascope(), name="pmesii.json")
        out = tmp_path / "out"
        run_analyze(RunConfig(corpus=corpus, framework=grid_fw, out_dir=out, min_total=1))
        matrix = out / "matrices" / "2016-01.json"
        payload = json.loads(matrix.read_text(encoding="utf-8"))
        payload["values"][2][3] = value
        matrix.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        capsys.readouterr()
        args = ["render", "--in", str(out), "--topics", "political_events", "--bin", "2016-01"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: render: {matrix}: matrix values must be 6 rows of 6 finite")
        assert not (out / "render").exists()

    def test_member_listed_twice_exits_one(self, workspace, tmp_path, capsys):
        _, corpus, framework = workspace
        out = tmp_path / "out"
        config = RunConfig(
            corpus=corpus, framework=framework, out_dir=out, min_total=1, percentile=50.0
        )
        run_analyze(config)
        path = out / "associations.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        topic_id, entry = next((tid, entry) for tid, entry in payload.items() if entry["members"])
        entry["members"].append(entry["members"][0])
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["salience", "--in", str(out), "--framework", str(framework)]) == 1
        ngram = entry["members"][0]["ngram"]
        assert capsys.readouterr().err.startswith(
            f"error: salience: {path}: topic {topic_id!r}: member {ngram!r} is listed twice"
        )
        # The failed stage leaves no trends that the repeated member shaped.
        assert not (out / "topic_usage.csv").exists()

    def test_associations_of_topics_outside_the_framework_exit_one(
        self, workspace, tmp_path, capsys
    ):
        # The framework with half its topics would make trends normalized
        # over those alone, beside associations of every topic.
        _, corpus, framework = workspace
        out = tmp_path / "out"
        run_analyze(RunConfig(corpus=corpus, framework=framework, out_dir=out, min_total=1))
        fw = disjoint_framework()
        kept, dropped = fw.topics[:2], [topic.id for topic in fw.topics[2:]]
        half = framework_file(tmp_path, dataclasses.replace(fw, topics=kept), name="half.json")
        capsys.readouterr()
        assert main(["salience", "--in", str(out), "--framework", str(half)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: salience: associations for topics not in the framework: {', '.join(dropped)}"
        )
        assert not (out / "topic_usage.csv").exists()

    def test_threshold_that_is_not_a_finite_number_exits_one(self, workspace, tmp_path, capsys):
        # tests/test_artifact_fuzz.py has the other values the loader refuses.
        _, corpus, framework = workspace
        out = tmp_path / "out"
        run_analyze(RunConfig(corpus=corpus, framework=framework, out_dir=out, min_total=1))
        path = out / "associations.json"
        text = path.read_text(encoding="utf-8")
        topic_id = next(iter(json.loads(text)))
        text = re.sub(r'"sim_threshold":[^,]+', '"sim_threshold":NaN', text, count=1)
        path.write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert main(["salience", "--in", str(out), "--framework", str(framework)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: salience: {path}: topic {topic_id!r}: thresholds must be finite numbers"
        )

    def test_render_matrix_of_another_bin_exits_one(self, workspace, tmp_path, capsys):
        _, corpus, framework = workspace
        out = tmp_path / "out"
        run_analyze(RunConfig(corpus=corpus, framework=framework, out_dir=out, min_total=1))
        matrix = out / "matrices" / "2016-01.json"
        payload = json.loads(matrix.read_text(encoding="utf-8"))
        matrix.write_text(json.dumps({**payload, "bin": "2016-02"}), encoding="utf-8")
        capsys.readouterr()
        args = ["render", "--in", str(out), "--topics", "harbor_trade", "--bin", "2016-01"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: render: {matrix}: matrix bin '2016-02' is not the bin")
        assert not (out / "render").exists()

    def test_render_bug_exits_two_and_removes_partial_output(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        _, corpus, framework = workspace
        out = tmp_path / "out"
        run_analyze(RunConfig(corpus=corpus, framework=framework, out_dir=out, min_total=1))
        calls = []

        def second_chart_fails(series, labels, title):
            calls.append(title)
            if len(calls) == 2:
                raise RuntimeError("boom")
            return "<svg/>"

        # The render subcommand imports its chart functions when it runs.
        monkeypatch.setattr(render, "render_trend_svg", second_chart_fails)
        capsys.readouterr()
        assert main(["render", "--in", str(out), "--topics", "harbor_trade"]) == 2
        assert "error: render: RuntimeError: boom" in capsys.readouterr().err
        assert not (out / "render").exists()

    @pytest.mark.parametrize("change", ["topic", "bins"])
    def test_render_refuses_a_normalized_file_of_other_topics_or_bins(
        self, workspace, tmp_path, capsys, change
    ):
        # The salience stage writes salience.csv and salience_normalized.csv
        # with one set of topics and bins; render refuses a pair that differs.
        _, corpus, framework = workspace
        out = tmp_path / "out"
        run_analyze(RunConfig(corpus=corpus, framework=framework, out_dir=out, min_total=1))
        normalized = out / "salience_normalized.csv"
        lines = normalized.read_text(encoding="utf-8").splitlines()
        if change == "topic":
            lines = [line for line in lines if not line.startswith("harbor_trade,")]
        else:
            lines = [line.rsplit(",", 1)[0] for line in lines]
        normalized.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["render", "--in", str(out), "--topics", "harbor_trade"]) == 1
        err = capsys.readouterr().err
        what = "topics are not those" if change == "topic" else "bin labels are not those"
        assert err.startswith(f"error: render: {normalized}: {what} of salience.csv")
        assert not (out / "render").exists()

    def test_salience_stage_rewrites_matrices_in_place(self, workspace, tmp_path):
        # A bin's matrix is overwritten, not removed and made again; only a
        # label outside the binning, left by another binning, is removed.
        _, corpus, framework = workspace
        out = tmp_path / "out"
        run_analyze(RunConfig(corpus=corpus, framework=framework, out_dir=out, min_total=1))
        matrices = out / "matrices"
        before = {path.name: path.read_bytes() for path in matrices.iterdir()}
        # A second name keeps the file's inode from being reused by a new file.
        held = tmp_path / "held.json"
        os.link(matrices / "2016-01.json", held)
        (matrices / "2016-01-04.json").write_text("{}", encoding="utf-8")
        assert main(["salience", "--in", str(out), "--framework", str(framework)]) == 0
        assert {path.name: path.read_bytes() for path in matrices.iterdir()} == before
        assert (matrices / "2016-01.json").samefile(held)

    def test_salience_stage_failure_removes_every_matrix(self, workspace, tmp_path, capsys):
        # The matrices of bins not yet rewritten are an earlier run's: the
        # failed stage removes them with the ones it wrote. A directory in
        # the place of a later bin's matrix fails the writer itself.
        _, corpus, framework = workspace
        out = tmp_path / "out"
        run_analyze(RunConfig(corpus=corpus, framework=framework, out_dir=out, min_total=1))
        blocked = out / "matrices" / "2016-03.json"
        blocked.unlink()
        blocked.mkdir()
        capsys.readouterr()
        assert main(["salience", "--in", str(out), "--framework", str(framework)]) == 1
        assert f"error: salience: {blocked}: Is a directory" in capsys.readouterr().err
        assert list((out / "matrices").iterdir()) == [blocked]
        assert not (out / "salience.csv").exists()

    def test_synth_writes_corpus_and_truth(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "seed": 1,
                    "bin_count": 3,
                    "docs_per_bin": 2,
                    "background_vocab": 8,
                    "sentence_length": [4, 6],
                    "sentences_per_doc": [2, 3],
                    "events": [],
                }
            ),
            encoding="utf-8",
        )
        out = tmp_path / "corpus.jsonl"
        assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
        assert out.is_file()
        truth = json.loads((tmp_path / "corpus.truth.json").read_text())
        assert truth["bin_count"] == 3

    def test_missing_input_exits_one(self, tmp_path, capsys):
        code = main(
            [
                "analyze",
                "--corpus", str(tmp_path / "absent.jsonl"),
                "--framework", str(tmp_path / "absent.json"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_analyze_out_that_is_a_file_exits_one(self, workspace, tmp_path, capsys):
        _, corpus, framework = workspace
        out = tmp_path / "taken"
        out.write_text("not a directory\n", encoding="utf-8")
        args = ["--corpus", str(corpus), "--framework", str(framework), "--out", str(out)]
        assert main(["analyze", *args]) == 1
        # The trends stage's first artifact makes the output directory.
        assert f"error: trends: cannot make output directory {out}:" in capsys.readouterr().err
        assert out.read_text(encoding="utf-8") == "not a directory\n"

    def test_analyze_refused_in_ingest_names_ingest_under_a_file(self, workspace, tmp_path, capsys):
        # The output directory is made after ingest, so ingest's refusal
        # comes first, and cleaning up after it touches no path under the file.
        _, _, framework = workspace
        (tmp_path / "taken").write_text("not a directory\n", encoding="utf-8")
        missing, out = tmp_path / "missing.jsonl", tmp_path / "taken" / "out"
        args = ["--corpus", str(missing), "--framework", str(framework), "--out", str(out)]
        assert main(["analyze", *args]) == 1
        assert "error: ingest: corpus file not found" in capsys.readouterr().err

    def test_trends_out_under_a_file_exits_one(self, workspace, tmp_path, capsys):
        _, corpus, _ = workspace
        (tmp_path / "taken").write_text("not a directory\n", encoding="utf-8")
        out = tmp_path / "taken" / "sub"
        assert main(["trends", "--corpus", str(corpus), "--out", str(out)]) == 1
        assert f"error: trends: cannot make output directory {out}:" in capsys.readouterr().err

    def test_refused_trends_makes_no_output_directory(self, workspace, tmp_path, capsys):
        # The stage's first artifact makes --out and its missing parents, so
        # a refused trends subcommand leaves none of them.
        _, corpus, _ = workspace
        refused = {
            "missing": ["--corpus", str(tmp_path / "missing.jsonl")],
            "min-count": ["--corpus", str(corpus), "--min-count", "100000"],
        }
        for name, flags in refused.items():
            out = tmp_path / name / "a" / "b"
            assert main(["trends", *flags, "--out", str(out)]) == 1
            assert capsys.readouterr().err.startswith("error: trends: ")
            assert not (tmp_path / name).exists()

    def test_refused_render_keeps_a_render_folder_it_did_not_make(self, workspace, tmp_path):
        _, corpus, framework = workspace
        out = tmp_path / "out"
        run_analyze(RunConfig(corpus=corpus, framework=framework, out_dir=out, min_total=1))
        (out / "render").mkdir()
        assert main(["render", "--in", str(out), "--topics", "nosuch"]) == 1
        assert (out / "render").is_dir()

    def test_synth_out_under_a_file_exits_one(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        fields = dict(seed=1, bin_count=3, docs_per_bin=2, background_vocab=8)
        fields.update(sentence_length=[4, 6], sentences_per_doc=[2, 3])
        spec.write_text(json.dumps(fields), encoding="utf-8")
        (tmp_path / "taken").write_text("not a directory\n", encoding="utf-8")
        out = tmp_path / "taken" / "corpus.jsonl"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: cannot make output directory {out.parent}:" in err

    def test_synth_out_that_is_a_directory_exits_one(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        fields = dict(seed=1, bin_count=3, docs_per_bin=2, background_vocab=8)
        fields.update(sentence_length=[4, 6], sentences_per_doc=[2, 3])
        spec.write_text(json.dumps(fields), encoding="utf-8")
        out = tmp_path / "taken.jsonl"
        out.mkdir()
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 1
        assert f"error: cannot write {out}: Is a directory" in capsys.readouterr().err
        assert not (tmp_path / "taken.truth.json").exists()

    # An artifact path the program cannot write is the user's output
    # directory at fault: the stage names itself and the path, and exits 1.
    def test_analyze_artifact_that_is_a_directory_exits_one(self, workspace, tmp_path, capsys):
        _, corpus, framework = workspace
        out = tmp_path / "out"
        (out / "ngram_trends.csv").mkdir(parents=True)
        args = ["--corpus", str(corpus), "--framework", str(framework), "--out", str(out)]
        assert main(["analyze", *args, "--min-count", "1"]) == 1
        err = capsys.readouterr().err
        assert f"error: trends: {out / 'ngram_trends.csv'}: Is a directory" in err
        assert sorted(path.name for path in out.iterdir()) == ["ngram_trends.csv"]

    def test_stage_artifact_that_is_a_directory_exits_one(self, workspace, tmp_path, capsys):
        _, corpus, framework = workspace
        out = tmp_path / "out"
        run_analyze(RunConfig(corpus=corpus, framework=framework, out_dir=out, min_total=1))
        blocked = out / "associations.json"
        blocked.unlink()
        blocked.mkdir()
        capsys.readouterr()
        assert main(["associate", "--in", str(out)]) == 1
        assert f"error: associate: {blocked}: Is a directory" in capsys.readouterr().err
        assert blocked.is_dir()

    # The render and salience stages make a folder under --in; a file there
    # fails the stage, which names itself, and is left as it is.
    def test_render_folder_that_is_a_file_exits_one(self, workspace, tmp_path, capsys):
        _, corpus, framework = workspace
        out = tmp_path / "out"
        run_analyze(RunConfig(corpus=corpus, framework=framework, out_dir=out, min_total=1))
        (out / "render").write_text("not a directory\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["render", "--in", str(out), "--topics", "harbor_trade"]) == 1
        err = capsys.readouterr().err
        assert f"error: render: cannot make output directory {out / 'render'}:" in err
        assert (out / "render").read_text(encoding="utf-8") == "not a directory\n"

    def test_salience_matrices_folder_that_is_a_file_exits_one(self, workspace, tmp_path, capsys):
        _, corpus, framework = workspace
        out = tmp_path / "out"
        run_analyze(RunConfig(corpus=corpus, framework=framework, out_dir=out, min_total=1))
        shutil.rmtree(out / "matrices")
        (out / "matrices").write_text("not a directory\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["salience", "--in", str(out), "--framework", str(framework)]) == 1
        err = capsys.readouterr().err
        assert f"error: salience: cannot make output directory {out / 'matrices'}:" in err
        assert (out / "matrices").read_text(encoding="utf-8") == "not a directory\n"
        assert not (out / "salience.csv").exists()

    @pytest.mark.parametrize("command", ["analyze", "trends"])
    def test_bad_record_after_many_good_ones_exits_one(self, workspace, tmp_path, capsys, command):
        _, corpus, framework = workspace
        lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
        bad = json.dumps({"id": "late", "date": "2017-02-30", "text": "x"}) + "\n"
        path = tmp_path / "bad.jsonl"
        path.write_text("".join(lines[:-5] + [bad] + lines[-5:]), encoding="utf-8")
        out = tmp_path / "out"
        args = ["--min-count", "1", "--out", str(out)]
        if command == "analyze":
            args += ["--framework", str(framework)]
        else:
            # An earlier run's artifacts, which the failed stage must remove.
            assert main(["trends", "--corpus", str(corpus), *args]) == 0
            assert (out / "ngram_table.json").is_file()
            capsys.readouterr()
        assert main([command, "--corpus", str(path), *args]) == 1
        stage = "ingest" if command == "analyze" else "trends"
        expected = f"error: {stage}: {path}:{len(lines) - 4}: record 'late': unparseable date"
        assert expected in capsys.readouterr().err
        assert [p for p in out.rglob("*") if p.is_file()] == []

    @pytest.mark.parametrize("command", ["analyze", "trends", "similarity"])
    def test_corpus_line_that_is_not_utf8_exits_one(self, workspace, tmp_path, capsys, command):
        _, corpus, framework = workspace
        lines = corpus.read_bytes().splitlines(keepends=True)
        latin1 = '{"id": "late", "date": "2017-01-02", "text": "caf\u00e9 au lait"}\n'
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(b"".join(lines[:-5] + [latin1.encode("latin-1")] + lines[-5:]))
        out = tmp_path / "out"
        args = ["--corpus", str(path), "--framework", str(framework), "--min-count", "1"]
        if command == "similarity":
            # The table of the UTF-8 corpus, which the similarity stage scans again.
            run_analyze(RunConfig(corpus=corpus, framework=framework, out_dir=out, min_total=1))
            args = ["--in", str(out), *args[:4]]
        elif command == "trends":
            args = [*args[:2], *args[4:], "--out", str(out)]
        else:
            args += ["--out", str(out)]
        capsys.readouterr()
        assert main([command, *args]) == 1
        stage = "ingest" if command == "analyze" else command
        err = capsys.readouterr().err
        prefix = f"error: {stage}: {path}:{len(lines) - 4}: 'utf-8' codec can't decode byte 0xe9"
        assert err.startswith(prefix)
        assert not (out / "similarity.csv").exists()

    def test_trends_scan_holds_no_documents(self, tmp_path):
        # One text of long words in every document: a held corpus would grow
        # with the file, while what the scan keeps per document is a date and
        # a few ids per token and sentence.
        words = [f"w{i:02d}" + "x" * 1000 for i in range(40)]
        text = " ".join(" ".join(words[i : i + 8]) + "." for i in range(0, 40, 8))

        def peak(copies: int) -> int:
            records = [
                {"id": f"d{i}", "date": f"2017-0{i % 3 + 1}-01", "text": text}
                for i in range(4 * copies)
            ]
            path = corpus_file(tmp_path, records, f"corpus{copies}.jsonl")
            out = tmp_path / f"out{copies}"
            tracemalloc.start()
            try:
                args = ["--corpus", str(path), "--min-count", "1", "--out", str(out)]
                assert main(["trends", *args]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8) < 2 * peak(1)

    def test_associate_holds_the_similarities_about_once(self, tmp_path, capsys):
        # 3,000 n-grams over 500 words, 33 bins and 36 topics, 88% of the
        # similarities 0, as in a Zipfian corpus's output. Past the
        # similarity array itself, the subcommand holds the keys, the
        # variabilities and one column's copy: about 2.3 times the array in
        # all. Holding the usage beside it, a second key list and a copy of
        # the whole array for the thresholds comes to 4.2 times.
        rng = np.random.default_rng(3)
        keys = sorted({f"w{a} w{b}" for a, b in rng.integers(500, size=(3200, 2)).tolist()})[:3000]
        counts = rng.integers(0, 3, size=(3000, 33))
        counts[np.arange(3000), rng.integers(33, size=3000)] += 1
        starts = np.concatenate([[0], np.cumsum(counts.sum(axis=1))])
        table = NgramTable(
            n=2,
            min_total=1,
            include_titles=True,
            binning=TimeBinning("month", dt.date(2016, 1, 1), 33),
            keys=keys,
            bin_totals=counts.sum(axis=0).tolist(),
            context_start=starts,
            context_bins=np.zeros(starts[-1], dtype=np.int32),
            context_sids=np.zeros(starts[-1], dtype=np.int32),
        )
        usage = counts / counts.sum(axis=0)
        sims = rng.random((3000, 36)) * (rng.random((3000, 36)) < 0.12)
        pipeline.write_ngram_trends_csv(
            tmp_path / "ngram_trends.csv", table, usage, table.binning.labels()
        )
        write_similarity_csv(tmp_path / "similarity.csv", keys, sims, [f"t{j}" for j in range(36)])
        args = ["associate", "--in", str(tmp_path), "--percentile", "90"]
        # The first run imports what numpy loads lazily, once per process.
        assert main(args) == 0
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            assert main(args) == 0
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 3 * sims.nbytes

    def test_usage_error_exits_one(self, capsys):
        assert main(["analyze"]) == 1

    def test_pooled_similarity_scope_is_not_an_option(self, workspace, tmp_path, capsys):
        # Each topic's similarity threshold is its own column's percentile;
        # no flag pools one threshold over all topics.
        _, corpus, framework = workspace
        args = ["--corpus", str(corpus), "--framework", str(framework), "--min-count", "1"]
        assert main(["analyze", *args, "--out", str(tmp_path), "--sim-scope", "global"]) == 1
        assert "error: unrecognized arguments: --sim-scope global" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_analyze_flags_default_to_run_config_defaults(self, tmp_path):
        corpus, framework, out = tmp_path / "c.jsonl", tmp_path / "f.json", tmp_path / "out"
        args = cli.build_parser().parse_args(
            ["analyze", "--corpus", str(corpus), "--framework", str(framework), "--out", str(out)]
        )
        parsed = {name: getattr(args, name) for name in RunConfig._fields}
        assert RunConfig(**parsed) == RunConfig(corpus=corpus, framework=framework, out_dir=out)

    def test_main_pins_the_mmap_threshold_where_libc_has_mallopt(self, monkeypatch, capsys):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))

        def no_libc(name):
            raise OSError("no C library")

        # A C library without mallopt, or none to load, changes nothing.
        for cdll in (lambda name: SimpleNamespace(mallopt=mallopt), lambda name: object(), no_libc):
            monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
            assert main(["analyze"]) == 1
        assert calls == [(-3, 128 * 1024)]

    def test_internal_inconsistency_exits_two(self, workspace, tmp_path, capsys):
        _, corpus, framework = workspace
        staged = tmp_path / "staged"
        main(["trends", "--corpus", str(corpus), "--min-count", "1", "--out", str(staged)])
        args = ["--in", str(staged), "--corpus", str(corpus), "--framework", str(framework)]
        main(["similarity", *args])
        # Corrupt the associations so the salience stage hits a member with
        # no usage trend.
        (staged / "associations.json").write_text(
            json.dumps(
                {
                    tid: {
                        "sim_threshold": 0.0,
                        "rsd_threshold": 0.0,
                        "members": [
                            {"ngram": "never seen", "similarity": 0.5, "rsd": 2.0}
                        ],
                    }
                    for tid in (
                        "harbor_trade",
                        "mountain_weather",
                        "desert_wildlife",
                        "city_transit",
                    )
                }
            ),
            encoding="utf-8",
        )
        code = main(["salience", "--in", str(staged), "--framework", str(framework)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_render_matrix_refused_without_grid(self, workspace):
        tmp, corpus, framework_path = workspace
        # The quadrant framework has no grid, so matrix rendering must refuse.
        out = tmp / "cli_run3"
        main(
            [
                "analyze",
                "--corpus", str(corpus),
                "--framework", str(framework_path),
                "--min-count", "1",
                "--out", str(out),
            ]
        )
        code = main(
            ["render", "--in", str(out), "--topics", "harbor_trade", "--bin", "2016-01"]
        )
        assert code == 1

    def test_render_matrix_for_grid_framework(self, workspace, tmp_path):
        from salience.topics import load_pmesii_ascope
        from conftest import framework_file as fw_file

        tmp, corpus, _ = workspace
        grid_fw = fw_file(tmp_path, load_pmesii_ascope(), name="pmesii.json")
        out = tmp_path / "grid_run"
        assert (
            main(
                [
                    "analyze",
                    "--corpus", str(corpus),
                    "--framework", str(grid_fw),
                    "--min-count", "1",
                    "--out", str(out),
                ]
            )
            == 0
        )
        code = main(
            [
                "render",
                "--in", str(out),
                "--topics", "political_events,infrastructure_capabilities",
                "--bin", "2016-05",
            ]
        )
        assert code == 0
        svg = (out / "render" / "matrix_2016-05.svg").read_text()
        assert svg.count("<rect") >= 36 and "2016-05" in svg


@pytest.mark.parametrize(
    "loader, text",
    [
        pytest.param(
            load_ngram_trends_csv,
            "ngram,total,2016-01,2016-02\na b,3,0.5,0.25\nb c,2,0.25,x\n",
            id="trends-non-numeric",
        ),
        pytest.param(
            load_ngram_trends_csv,
            "ngram,total,2016-01,2016-02\na b,3,0.5,0.25\nb c,2,0.25\n",
            id="trends-short-row",
        ),
        pytest.param(
            functools.partial(load_similarity_csv, keys=["a b", "b c"]),
            "ngram,topic_id,similarity\na b,t1,0.5\nb c,t1,oops\n",
            id="similarity-non-numeric",
        ),
        pytest.param(
            functools.partial(load_similarity_csv, keys=["a b", "b c"]),
            "ngram,topic_id,similarity\na b,t1,0.5\nb c,t1,0.5,0.5\n",
            id="similarity-long-row",
        ),
        pytest.param(
            load_trend_csv,
            "topic_id,2016-01,2016-02\nt1,0.5,0.25\nt2,0.0,nan?\n",
            id="topic-trend-non-numeric",
        ),
        pytest.param(
            load_trend_csv,
            "topic_id,2016-01,2016-02\nt1,0.5,0.25\nt2,0.0\n",
            id="topic-trend-short-row",
        ),
    ],
)
def test_loader_names_file_and_line_of_bad_row(tmp_path, loader, text):
    path = tmp_path / "artifact.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InputError, match=r"artifact\.csv: line 3: "):
        loader(path)


def test_trend_loader_refuses_repeated_topic(tmp_path):
    # Two rows for one topic leave it arbitrary which one `render` charts.
    path = tmp_path / "salience.csv"
    path.write_text("topic_id,2016-01\nt1,0.0\nt2,0.5\nt1,1.0\n", encoding="utf-8")
    with pytest.raises(InputError, match=r"salience\.csv: line 4: topic 't1' repeats"):
        load_trend_csv(path)


@pytest.mark.parametrize("text", ["[]", '"topics"', "5", "null"])
def test_associations_loader_refuses_a_non_object(tmp_path, text):
    path = tmp_path / "associations.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InputError, match=re.escape(f"{path}: associations must be")):
        load_associations_json(path, ["a b"])


_GRID_MATRIX = {"bin": "b", "rows": ["r1", "r2"], "columns": ["c1"], "values": [[0.5], [-1]]}
_FLAT_MATRIX = {
    "bin": "b",
    "rows": None,
    "columns": None,
    "topics": ["t1", "t2"],
    "values": [[0.5, 1e300]],
}


@pytest.mark.parametrize(
    "payload",
    [
        pytest.param({**_GRID_MATRIX, "values": 5}, id="grid-number"),
        pytest.param({**_GRID_MATRIX, "values": [[0.5]]}, id="grid-row-missing"),
        pytest.param({**_GRID_MATRIX, "values": [[0.5], [1, 2]]}, id="grid-row-long"),
        pytest.param({**_GRID_MATRIX, "values": [[0.5], []]}, id="grid-row-short"),
        pytest.param({**_GRID_MATRIX, "values": [[0.5], "x"]}, id="grid-row-string"),
        pytest.param({**_GRID_MATRIX, "values": [[0.5], ["1"]]}, id="grid-cell-string"),
        pytest.param({**_GRID_MATRIX, "values": [[0.5], [True]]}, id="grid-cell-bool"),
        pytest.param({**_GRID_MATRIX, "rows": "r1"}, id="grid-rows-string"),
        pytest.param({**_GRID_MATRIX, "columns": None}, id="grid-columns-missing"),
        pytest.param({**_FLAT_MATRIX, "values": [0.5, 1.0]}, id="flat-not-nested"),
        pytest.param({**_FLAT_MATRIX, "values": [[0.5]]}, id="flat-row-short"),
        pytest.param({**_FLAT_MATRIX, "values": [[0.5, 1.0]] * 2}, id="flat-two-rows"),
        pytest.param({**_FLAT_MATRIX, "values": [[0.5, None]]}, id="flat-cell-null"),
        pytest.param({**_FLAT_MATRIX, "topics": None}, id="flat-topics-missing"),
    ],
)
def test_matrix_loader_refuses_values_off_the_declared_shape(tmp_path, payload):
    path = tmp_path / "b.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(InputError, match=re.escape(f"{path}: matrix ")):
        load_matrix_json(path)


@pytest.mark.parametrize("payload", [_GRID_MATRIX, _FLAT_MATRIX])
def test_matrix_loader_reads_both_layouts(tmp_path, payload):
    path = tmp_path / "b.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert load_matrix_json(path) == payload


@pytest.mark.parametrize(
    "loader, text, line, ngram",
    [
        pytest.param(
            load_ngram_trends_csv,
            "ngram,total,2016-01\na b,3,0.5\na b,3,0.5\n",
            3,
            "a b",
            id="trends-repeated",
        ),
        pytest.param(
            load_ngram_trends_csv,
            "ngram,total,2016-01\nb c,3,0.5\na b,3,0.5\n",
            3,
            "a b",
            id="trends-unsorted",
        ),
        pytest.param(
            functools.partial(load_similarity_csv, keys=["a b", "b c"]),
            "ngram,topic_id,similarity\na b,t1,0.5\nb c,t1,0.5\na b,t1,0.5\n",
            4,
            "a b",
            id="similarity-split",
        ),
        pytest.param(
            functools.partial(load_similarity_csv, keys=["a b", "b c"]),
            "ngram,topic_id,similarity\nb c,t1,0.5\nb c,t2,0.5\na b,t1,0.5\na b,t2,0.5\n",
            4,
            "a b",
            id="similarity-unsorted",
        ),
    ],
)
def test_loader_refuses_repeated_or_unsorted_ngram(tmp_path, loader, text, line, ngram):
    # Row order stands for key order, so a repeat or a swap is refused.
    path = tmp_path / "artifact.csv"
    path.write_text(text, encoding="utf-8")
    message = rf"artifact\.csv: line {line}: n-gram '{ngram}' repeats or is out of sorted order"
    with pytest.raises(InputError, match=message):
        loader(path)


def test_duplicated_trends_row_exits_one(workspace, tmp_path, capsys):
    _, corpus, framework = workspace
    out = tmp_path / "out"
    run_analyze(RunConfig(corpus=corpus, framework=framework, out_dir=out, min_total=1))
    trends = out / "ngram_trends.csv"
    lines = trends.read_text(encoding="utf-8").splitlines(keepends=True)
    trends.write_text("".join(lines[:2] + lines[1:]), encoding="utf-8")
    capsys.readouterr()
    assert main(["associate", "--in", str(out)]) == 1
    assert f"error: associate: {trends}: line 3: n-gram " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["associate", "salience"])
@pytest.mark.parametrize("total", ["abc", "0", "-1", "1.5", ""])
def test_bad_trends_total_exits_one(workspace, tmp_path, capsys, command, total):
    # The total column was not read: a corrupt total passed every stage.
    _, corpus, framework = workspace
    out = tmp_path / "out"
    run_analyze(RunConfig(corpus=corpus, framework=framework, out_dir=out, min_total=1))
    trends = out / "ngram_trends.csv"
    lines = trends.read_text(encoding="utf-8").split("\n")
    cells = lines[2].split(",")
    cells[1] = total
    lines[2] = ",".join(cells)
    trends.write_text("\n".join(lines), encoding="utf-8")
    args = {
        "associate": ["associate", "--in", str(out)],
        "salience": ["salience", "--in", str(out), "--framework", str(framework)],
    }[command]
    capsys.readouterr()
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {command}: {trends}: line 3: expected an n-gram, a positive ")
    assert f"found '{lines[2][:30]}" in err


@pytest.mark.parametrize("command", ["associate", "salience"])
def test_trends_row_without_usage_exits_one(workspace, tmp_path, capsys, command):
    # A tabled n-gram occurs at least once, so a row of zeros is corrupt
    # input, refused by the reader of both stages, not an internal error.
    _, corpus, framework = workspace
    out = tmp_path / "out"
    run_analyze(RunConfig(corpus=corpus, framework=framework, out_dir=out, min_total=1))
    trends = out / "ngram_trends.csv"
    lines = trends.read_text(encoding="utf-8").split("\n")
    name, total, *usage = lines[3].split(",")
    lines[3] = ",".join([name, total, *["0.0"] * len(usage)])
    trends.write_text("\n".join(lines), encoding="utf-8")
    args = {
        "associate": ["associate", "--in", str(out)],
        "salience": ["salience", "--in", str(out), "--framework", str(framework)],
    }[command]
    capsys.readouterr()
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {command}: {trends}: line 4: n-gram {name!r} has no positive ")


@pytest.mark.parametrize("command", ["associate", "salience"])
def test_bin_usage_above_one_exits_one(workspace, tmp_path, capsys, command):
    # A bin's kept counts sum to at most its total, so its usage sums to at
    # most 1; two cells of 0.9 in one bin passed both stages.
    _, corpus, framework = workspace
    out = tmp_path / "out"
    run_analyze(RunConfig(corpus=corpus, framework=framework, out_dir=out, min_total=1))
    trends = out / "ngram_trends.csv"
    lines = trends.read_text(encoding="utf-8").split("\n")
    label = lines[0].split(",")[2]
    for row in (1, 2):
        cells = lines[row].split(",")
        cells[2] = "0.9"
        lines[row] = ",".join(cells)
    trends.write_text("\n".join(lines), encoding="utf-8")
    args = {
        "associate": ["associate", "--in", str(out)],
        "salience": ["salience", "--in", str(out), "--framework", str(framework)],
    }[command]
    capsys.readouterr()
    assert main(args) == 1
    err = capsys.readouterr().err
    prefix = re.escape(f"error: {command}: {trends}: usage sum at {label!r}: ")
    assert re.fullmatch(rf"{prefix}[0-9.]+ is not at most 1\n", err)


def test_bin_usage_summing_to_one_is_accepted(workspace, tmp_path):
    # With min_total=1 every instance is kept, so each bin's usage sums to 1
    # before rounding; after it, the float sum may lie just above 1.
    _, corpus, framework = workspace
    out = tmp_path / "out"
    run_analyze(RunConfig(corpus=corpus, framework=framework, out_dir=out, min_total=1))
    _, usage, _ = load_ngram_trends_csv(out / "ngram_trends.csv")
    assert np.allclose(usage.sum(axis=0), 1.0)
    assert main(["associate", "--in", str(out)]) == 0
    assert main(["salience", "--in", str(out), "--framework", str(framework)]) == 0
    # Counts 1, 3, 3, 3 and 3 of a bin's 13 instances sum to 1 + 2**-52.
    path = tmp_path / "rounded.csv"
    rows = [f"w{i} x,{count},{count / 13!r}\n" for i, count in enumerate([1, 3, 3, 3, 3])]
    path.write_text("ngram,total,2016-01\n" + "".join(rows), encoding="utf-8")
    _, usage, _ = load_ngram_trends_csv(path)
    assert usage.sum(axis=0).tolist() == [1 + 2**-52]


def test_stage_subcommands_do_not_load_openssl(workspace, tmp_path):
    # hashlib maps OpenSSL, about 3.6 MiB of a child's RSS, and only
    # analyze's manifest takes a digest. A fresh interpreter: pytest's own
    # may already hold hashlib.
    _, corpus, framework = workspace
    topic = json.loads(framework.read_text(encoding="utf-8"))["topics"][0]["id"]
    paths = [str(Path(pipeline.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    code = """
import sys
import salience, salience.cli
corpus, framework, out, topic = sys.argv[1:]
for args in (
    ["trends", "--corpus", corpus, "--min-count", "1", "--out", out],
    ["similarity", "--in", out, "--corpus", corpus, "--framework", framework],
    ["associate", "--in", out],
    ["salience", "--in", out, "--framework", framework],
    ["render", "--in", out, "--topics", topic],
):
    assert salience.cli.main(args) == 0, args
    assert "_hashlib" not in sys.modules, args
analyze = ["analyze", "--corpus", corpus, "--framework", framework, "--out", out + "-all"]
assert salience.cli.main(analyze) == 0
assert "_hashlib" in sys.modules, "analyze hashes its artifacts"
"""
    argv = [sys.executable, "-c", code, str(corpus), str(framework), str(tmp_path / "out"), topic]
    run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize(
    "command, loaded",
    [
        ("analyze", ["numpy", "pipeline", "ngrams", "topics"]),
        ("trends", ["numpy", "pipeline", "ngrams"]),
        ("similarity", ["numpy", "pipeline", "ngrams", "topics"]),
        ("associate", ["numpy", "pipeline"]),
        ("salience", ["numpy", "pipeline", "topics"]),
        ("render", ["render"]),
        ("synth", ["synth"]),
        ("--help", []),
        ("--version", []),
    ],
)
def test_each_subcommand_loads_only_the_modules_it_runs(workspace, tmp_path, command, loaded):
    # Every CLI process pays for importing (without cached bytecode, compiling)
    # what it loads. Of the modules below, each subcommand must load only
    # what it calls: numpy only where a stage of the pipeline runs, and
    # numpy.ma (which np.percentile imports) nowhere. A fresh interpreter:
    # pytest's own holds them all.
    _, corpus, framework = workspace
    out = tmp_path / "out"
    run_analyze(RunConfig(corpus=corpus, framework=framework, out_dir=out, min_total=1))
    spec = tmp_path / "spec.json"
    fields = dict(seed=1, bin_count=3, docs_per_bin=2, background_vocab=8)
    fields.update(sentence_length=[4, 6], sentences_per_doc=[2, 3])
    spec.write_text(json.dumps(fields), encoding="utf-8")
    args = {
        "analyze": ["--corpus", corpus, "--framework", framework, "--out", tmp_path / "again"],
        "trends": ["--corpus", corpus, "--min-count", "1", "--out", out],
        "similarity": ["--in", out, "--corpus", corpus, "--framework", framework],
        "associate": ["--in", out],
        "salience": ["--in", out, "--framework", framework],
        "render": ["--in", out, "--topics", "harbor_trade"],
        "synth": ["--spec", spec, "--out", tmp_path / "synth.jsonl"],
        "--help": [],
        "--version": [],
    }[command]
    # --help and --version exit through SystemExit(0) once they have printed.
    code = """
import sys
import salience.cli
try:
    code = salience.cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
assert code == 0, code
watched = ("numpy", "numpy.ma", "salience.pipeline", "salience.ngrams", "salience.topics",
           "salience.synth", "salience.render")
print([m.removeprefix("salience.") for m in watched if m in sys.modules])
"""
    paths = [str(Path(pipeline.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    argv = [sys.executable, "-c", code, command, *map(str, args)]
    run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == str(loaded)


def test_topic_id_with_a_carriage_return_exits_one(workspace, tmp_path, capsys):
    # No CSV artifact can carry the id back: the readers take a CR for a
    # line end. The framework is refused before anything is written.
    _, corpus, _ = workspace
    payload = {
        "name": "cr",
        "topics": [
            {"id": "x\ry", "definition": "harbor trade shipping"},
            {"id": "z", "definition": "election parliament vote"},
        ],
    }
    framework = tmp_path / "framework.json"
    framework.write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "out"
    args = ["--corpus", str(corpus), "--framework", str(framework), "--min-count", "1"]
    capsys.readouterr()
    assert main(["analyze", *args, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ingest: framework 'cr': topic id 'x\\ry' holds a carriage return")
    assert [p for p in out.rglob("*") if p.is_file()] == []


def test_associate_refuses_mismatched_ngram_sets(workspace, tmp_path, capsys):
    _, corpus, framework = workspace
    out = tmp_path / "out"
    run_analyze(RunConfig(corpus=corpus, framework=framework, out_dir=out, min_total=1))
    similarity = out / "similarity.csv"
    lines = similarity.read_text(encoding="utf-8").splitlines(keepends=True)
    dropped = lines[-1].split(",")[0]
    similarity.write_text(
        "".join(line for line in lines if line.split(",")[0] != dropped), encoding="utf-8"
    )
    capsys.readouterr()
    assert main(["associate", "--in", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: associate: ")
    assert f"different n-gram sets (e.g. {dropped!r})" in err
    # The failed stage took the earlier associations.json with it, so the
    # salience stage cannot run on associations that match neither input.
    assert not (out / "associations.json").exists()
    assert main(["salience", "--in", str(out), "--framework", str(framework)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: salience: associations not found: {out / 'associations.json'}")


def test_topic_order_only_permutes_the_artifacts(workspace, tmp_path):
    # Every order of the framework's topics gives the same artifacts up to
    # that order: the topic rows of the trend CSVs, each n-gram's rows of
    # similarity.csv, the topics of associations.json and of each matrix.
    # At the 50th percentile three topics get members, and a zscore summed
    # in topic order moved cells of salience_normalized.csv by an ulp. The
    # order of a topic's keywords and ground-truth texts moves nothing: each
    # permuted framework also lists them in reverse.
    _, corpus, _ = workspace
    framework = disjoint_framework()
    count = len(framework.topics)

    def analyze(name, topics):
        permuted = dataclasses.replace(framework, topics=tuple(topics))
        path = framework_file(tmp_path, permuted, name + ".json")
        out = tmp_path / name
        run_analyze(
            RunConfig(corpus=corpus, framework=path, out_dir=out, min_total=1, percentile=50.0)
        )
        artifacts = read_all(out)
        del artifacts["manifest.json"]
        return artifacts

    base = analyze("base", framework.topics)
    assert_some_topic_has_members(tmp_path / "base")
    for order in itertools.permutations(range(count)):
        back = [order.index(i) for i in range(count)]

        def restore(items):
            return [items[i] for i in back]

        topics = [
            dataclasses.replace(t, keywords=t.keywords[::-1], ground_truth=t.ground_truth[::-1])
            for t in (framework.topics[i] for i in order)
        ]
        for name, data in analyze("".join(map(str, order)), topics).items():
            if name.endswith(".csv") and name != "ngram_trends.csv":
                header, *lines = data.decode("utf-8").splitlines(keepends=True)
                width = count if name == "similarity.csv" else len(lines)
                blocks = [restore(lines[i : i + width]) for i in range(0, len(lines), width)]
                data = "".join([header, *itertools.chain(*blocks)]).encode("utf-8")
            elif name == "associations.json" or name.startswith("matrices"):
                payload = json.loads(data)
                if name == "associations.json":
                    payload = dict(restore(list(payload.items())))
                else:
                    payload["topics"] = restore(payload["topics"])
                    payload["values"] = [restore(row) for row in payload["values"]]
                data = (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")
            assert data == base[name], (order, name)


def test_ngram_trends_loader_inverts_the_writer(workspace, tmp_path):
    _, corpus, framework = workspace
    out = tmp_path / "out"
    run_analyze(RunConfig(corpus=corpus, framework=framework, out_dir=out, min_total=1))
    keys, usage, labels = load_ngram_trends_csv(out / "ngram_trends.csv")
    table = json.loads((out / "ngram_table.json").read_text(encoding="utf-8"))
    assert labels == table["bin_labels"]
    totals = table["bin_totals"]
    assert usage.shape == (len(keys), len(labels))
    assert dict(zip(keys, usage.tolist())) == {
        text: [c / t if t else 0.0 for c, t in zip(entry["counts"], totals)]
        for text, entry in table["ngrams"].items()
    }


def test_similarity_csv_is_csv_writer_output(tmp_path):
    topic_ids = ["plain", "comma, id", 'say "hi"', 'both, "x"', "two\nlines", "çé"]
    keys = ["2017 Echo", "émile Ünï"]
    sims = np.array([(0.5, 0.25, 1e-300, 0.3, 0.7, 0.9), (0.1, 1 / 3, 0.0, 2.5e-17, 1.0, -0.0)])
    path = tmp_path / "similarity.csv"
    write_similarity_csv(path, keys, sims, topic_ids)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["ngram", "topic_id", "similarity"])
    for key, row in zip(keys, sims.tolist()):
        writer.writerows([key, tid, repr(v)] for tid, v in zip(topic_ids, row))
    assert path.read_bytes() == expected.getvalue().encode("utf-8")
    loaded, loaded_ids = load_similarity_csv(path, keys)
    assert loaded_ids == topic_ids
    assert loaded.tolist() == sims.tolist()
    assert np.signbit(loaded[1, 5])


def test_table_write_then_load_round_trips(workspace, tmp_path):
    # The loaded table is the built one field by field, its header (n,
    # min_total, the binning and include_titles) included, for every
    # granularity: the loader scans with the header's options. It keeps the
    # scan's token rows for the kernel.
    _, corpus, _ = workspace
    options = ((2, "month", True), (3, "week", False), (1, "day", True))
    for n, granularity, include_titles in options:
        table = build_ngram_table(
            read_corpus(corpus), n, 2, granularity=granularity, include_titles=include_titles
        )
        assert table.binning == build_binning(load_corpus(corpus), granularity)
        path = tmp_path / f"{granularity}.json"
        write_table_json(path, table)
        loaded = load_table_json(path, corpus)
        assert_same_table(loaded, table)
        for got, expected in zip(loaded.sentence_tokens, table.sentence_tokens):
            assert np.array_equal(got, expected)
        assert json.loads(path.read_text(encoding="utf-8"))["version"] == 3


# An older table's sentence texts stand in as "sentence <id>": the version
# alone refuses it, so no text is read.
def _version_1(table):
    # Each context holds its sentence's text.
    table["version"] = 1
    for entry in table["ngrams"].values():
        entry["contexts"] = [[t, f"sentence {sid}"] for t, sid in entry["contexts"]]


def _version_2(table):
    # The header, then each context sentence once, then the n-grams.
    ngrams = table.pop("ngrams")
    sids = {sid for entry in ngrams.values() for _, sid in entry["contexts"]}
    table.update(version=2, sentences=[f"sentence {sid}" for sid in range(len(sids))])
    table["ngrams"] = ngrams


def _sentence_id_out_of_range(table):
    entry = next(iter(table["ngrams"].values()))
    entry["contexts"][0][1] = 1 + max(
        sid for other in table["ngrams"].values() for _, sid in other["contexts"]
    )


def _negative_sentence_id(table):
    entry = next(iter(table["ngrams"].values()))
    entry["contexts"][-1][1] = -1


def _non_integer_bin(table):
    entry = next(iter(table["ngrams"].values()))
    entry["contexts"][0][0] = 0.5


def _bool_bin(table):
    entry = next(iter(table["ngrams"].values()))
    entry["contexts"][0][0] = True


def _comma_in_ngram(table):
    first = next(iter(table["ngrams"]))
    table["ngrams"][first.replace(" ", ",", 1)] = table["ngrams"].pop(first)


def _swapped_ngrams(table):
    first, second, *rest = table["ngrams"].items()
    table["ngrams"] = dict([second, first, *rest])


def _compact(value) -> str:
    """The text json.dumps writes with no whitespace, as the table writer does."""
    return json.dumps(value, separators=(",", ":"))


def _repeated_ngram(table):
    # A dict cannot hold a repeated name, so the JSON text is edited.
    first, entry = next(iter(table["ngrams"].items()))
    pair = _compact({first: entry})[1:-1]
    return _compact(table).replace(pair, f"{pair},{pair}", 1) + "\n"


def _short_counts_row(table):
    entry = next(iter(table["ngrams"].values()))
    entry["counts"].pop()


def _counts_off_by_one(table):
    entry = next(iter(table["ngrams"].values()))
    entry["counts"][entry["contexts"][0][0]] += 1


def _header(**fields):
    def corrupt(table):
        for name, value in fields.items():
            table[name] = value(table[name]) if callable(value) else value

    return corrupt


def _spaced(table):
    # The same table, as json.dumps writes it by default.
    return json.dumps(table) + "\n"


def _not_utf8(table):
    return (_compact(table) + "\n").encode("utf-8").replace(b'["', b'["\xff', 1)


# A message of None: the file is refused as not the table of the corpus, at
# the first character where it differs from the file the writer wrote.
@pytest.mark.parametrize(
    "corrupt, message",
    [
        pytest.param(_version_1, "version 1, .*; re-run the trends stage", id="version-1"),
        pytest.param(_version_2, "version 2, .*; re-run the trends stage", id="version-2"),
        pytest.param(_sentence_id_out_of_range, None, id="sentence-id"),
        pytest.param(_negative_sentence_id, None, id="negative-sentence-id"),
        pytest.param(_non_integer_bin, None, id="non-integer-bin"),
        pytest.param(_bool_bin, None, id="bool-bin"),
        pytest.param(_comma_in_ngram, None, id="ngram-text"),
        pytest.param(_swapped_ngrams, None, id="unsorted-ngrams"),
        pytest.param(_repeated_ngram, None, id="repeated-ngram"),
        pytest.param(_short_counts_row, None, id="short-counts"),
        pytest.param(_counts_off_by_one, None, id="wrong-counts"),
        pytest.param(_header(bin_labels=lambda labels: labels[:3]), None, id="labels-cut-to-3"),
        pytest.param(
            _header(bin_labels=lambda labels: ["2015-12", *labels[1:]]), None, id="labels-differ"
        ),
        pytest.param(
            _header(bin_totals=lambda totals: totals[:7]), None, id="totals-shorter-than-labels"
        ),
        pytest.param(_header(bin_labels=[], bin_totals=[]), None, id="no-bins"),
        pytest.param(
            _header(granularity="fortnight"),
            "bad table header: granularity 'fortnight' is not one of month, week, day",
            id="granularity",
        ),
        pytest.param(_header(origin="not a date"), None, id="origin-not-a-date"),
        pytest.param(_header(origin=None), None, id="origin-null"),
        pytest.param(_header(origin="2016-01-15"), None, id="origin-mid-month"),
        pytest.param(_header(origin="20160101"), None, id="origin-not-iso"),
        pytest.param(
            _header(include_titles="maybe"),
            "bad table header: include_titles 'maybe' is not true or false",
            id="include-titles",
        ),
        pytest.param(_header(n="2"), "bad table header: n '2' is not an integer >= 1", id="n-text"),
        pytest.param(_header(n=0), "bad table header: n 0 is not an integer >= 1", id="n-zero"),
        pytest.param(_header(n=True), "bad table header: n True is not an integer", id="n-bool"),
        pytest.param(
            _header(min_total=-3),
            "bad table header: min_total -3 is not an integer >= 1",
            id="min-total-negative",
        ),
        pytest.param(
            _header(bin_totals=lambda totals: ["x", *totals[1:]]), None, id="bin-total-text"
        ),
        pytest.param(
            _header(bin_totals=lambda totals: [0] * len(totals)), None, id="bin-totals-zero"
        ),
        # The scan takes min_total from the header and keeps no n-gram, so
        # the text differs later, where the n-grams begin.
        pytest.param(
            _header(min_total=10**6),
            "not the n-gram table of .* \\(it differs at character \\d+: the file has '\"",
            id="min-total-above-counts",
        ),
        pytest.param(_spaced, None, id="spaced"),
        pytest.param(_not_utf8, None, id="not-utf8"),
        pytest.param(lambda table: _compact(table), None, id="no-final-newline"),
        pytest.param(lambda table: _compact(table) + "\n\n", None, id="extra-newline"),
    ],
)
def test_similarity_refuses_bad_table(workspace, tmp_path, capsys, corrupt, message):
    _, corpus, framework = workspace
    out = tmp_path / "out"
    run_analyze(RunConfig(corpus=corpus, framework=framework, out_dir=out, min_total=1))
    path = out / "ngram_table.json"
    written = path.read_text(encoding="utf-8")
    table = json.loads(written)
    assert _compact(table) + "\n" == written
    text = corrupt(table) or _compact(table) + "\n"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    capsys.readouterr()
    args = ["--in", str(out), "--corpus", str(corpus), "--framework", str(framework)]
    assert main(["similarity", *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: similarity: {path}: ")
    if message is None:
        text = path.read_text(encoding="utf-8", errors="replace")
        at = len(os.path.commonprefix([text, written])) + 1
        message = (
            f"not the n-gram table of {re.escape(str(corpus))} \\(it differs at character "
            f"{at}: the file has '.*' where the table has '.*'\\); re-run the trends stage$"
        )
    assert re.search(message, err)
    # The failed stage removes the similarity.csv of the earlier run.
    assert not (out / "similarity.csv").exists()


def test_version_1_table_is_refused_from_its_first_block(tmp_path, capsys):
    # A version-1 table lists no sentences: each context holds its text. A
    # version-2 table lists each sentence once, between its header and its
    # n-grams, so its n-grams begin past the first block. Either's first
    # block names its version, and nothing after that block is read.
    texts = [f"w{i} w{i + 1} and more words" for i in range(60_000)]
    corpus = corpus_file(tmp_path, [{"id": "d0", "date": "2016-01-01", "text": texts[0]}])
    framework = framework_file(tmp_path, disjoint_framework())
    for version in (1, 2):
        header = dict(version=version, n=2, min_total=1, include_titles=True, granularity="month")
        header.update(origin="2016-01-01", bin_labels=["2016-01"], bin_totals=[60_000])
        if version == 2:
            header["sentences"] = texts
        entries = {
            f"w{i} w{i + 1}": {"counts": [1], "contexts": [[0, i if version == 2 else texts[i]]]}
            for i in range(60_000)
        }
        out = tmp_path / f"version-{version}"
        out.mkdir()
        path = out / "ngram_table.json"
        path.write_text(_compact({**header, "ngrams": entries}) + "\n", encoding="utf-8")
        assert path.stat().st_size > 4_000_000
        message = (
            f"{path}: n-gram table version {version}, this program reads version 3; "
            "re-run the trends stage"
        )
        chars = []
        with path.open(encoding="utf-8") as fh:

            def read(size):
                chars.append(len(block := fh.read(size)))
                return block

            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                pipeline._table_options(path, SimpleNamespace(read=read))
        assert 0 < sum(chars) <= runs._READ_CHARS
        capsys.readouterr()
        args = ["--in", str(out), "--corpus", str(corpus), "--framework", str(framework)]
        assert main(["similarity", *args]) == 1
        assert capsys.readouterr().err == f"error: similarity: {message}\n"


@pytest.mark.parametrize("n", [2**31, 10**12])
def test_n_of_2_to_the_31_or_more_exits_one(workspace, tmp_path, capsys, n):
    # The scan counts a sentence's tokens in an int32, so an n of 2**31 or
    # more is refused before a document is read: from the command line, and
    # from a table's header, where the message names the file. Both once
    # subtracted n - 1 from an int32 array and exited 2 on its OverflowError.
    _, corpus, framework = workspace
    out = tmp_path / "out"
    assert main(["trends", "--corpus", str(corpus), "--n", str(n), "--out", str(out)]) == 1
    limit = "2147483648"
    expected = f"error: trends: n must be below {limit}: no sentence holds that many tokens\n"
    assert capsys.readouterr().err == expected
    assert not out.exists()
    assert main(["trends", "--corpus", str(corpus), "--out", str(out)]) == 0
    path = out / "ngram_table.json"
    table = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(_compact({**table, "n": n}) + "\n", encoding="utf-8")
    capsys.readouterr()
    args = ["--in", str(out), "--corpus", str(corpus), "--framework", str(framework)]
    assert main(["similarity", *args]) == 1
    expected = f"error: similarity: {path}: bad table header: n {n} is not below {limit}\n"
    assert capsys.readouterr().err == expected


def _perfbench_corpora(monkeypatch):
    """perfbench/corpora.py, the benchmark's corpus generators, imported for
    one test (its dataclass needs its module in sys.modules)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpora.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpora", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["demo", "zipf5k"])
def test_manifest_counts_the_sentence_ids_of_the_table(tmp_path, monkeypatch, name):
    # The manifest's sentence count is the number of distinct sentence ids
    # in the table's contexts (perfbench's check reports it as
    # unique_contexts), and the ids are 0 ... S - 1 by first use along the
    # sorted keys: on the demo corpus and on perfbench's zipf5k (seed 1).
    corpus = tmp_path / f"{name}.jsonl"
    if name == "demo":
        docs, _ = generate_corpus(news_scale_spec(seed=7))
        corpus.write_text(corpus_to_jsonl(docs), encoding="utf-8")
    else:
        _perfbench_corpora(monkeypatch).write_zipf(corpus, 1)
    framework = tmp_path / "pmesii_ascope.json"
    framework.write_bytes((Path(pipeline.__file__).parent / "data" / framework.name).read_bytes())
    out = tmp_path / "out"
    manifest = run_analyze(RunConfig(corpus=corpus, framework=framework, out_dir=out))
    assert manifest["corpus"]["sentences"] > 0
    assert_ids_number_the_sentences(out / "ngram_table.json", manifest["corpus"]["sentences"])


def test_similarity_refuses_the_table_of_another_corpus(workspace, tmp_path, capsys):
    # A table scanned from the corpus with one word of one document changed.
    _, corpus, framework = workspace
    records = [json.loads(line) for line in corpus.read_text(encoding="utf-8").splitlines()]
    word = records[5]["text"].split()[2]
    records[5]["text"] = records[5]["text"].replace(word, word + "x", 1)
    other = corpus_file(tmp_path, records, name="other.jsonl")
    out = tmp_path / "out"
    run_analyze(RunConfig(corpus=other, framework=framework, out_dir=out, min_total=1))
    capsys.readouterr()
    args = ["--in", str(out), "--corpus", str(corpus), "--framework", str(framework)]
    assert main(["similarity", *args]) == 1
    err = capsys.readouterr().err
    path = out / "ngram_table.json"
    assert err.startswith(f"error: similarity: {path}: not the n-gram table of {corpus} (")
    assert err.rstrip().endswith("; re-run the trends stage")
    assert not (out / "similarity.csv").exists()
    # The table of the corpus it was scanned from passes.
    args[3] = str(other)
    assert main(["similarity", *args]) == 0


# One corrupted cell in the second line of an artifact, the stage that
# reads it, and what it must say about the value.
_CORRUPT_CELLS = {
    "similarity-nan": ("similarity.csv", 2, "nan", "associate", "nan is not in [0, 1]"),
    "similarity-2": ("similarity.csv", 2, "2.0", "associate", "2.0 is not in [0, 1]"),
    "usage-inf": ("ngram_trends.csv", 3, "inf", "associate", "inf is not in [0, 1]"),
    "usage-negative": ("ngram_trends.csv", 3, "-0.5", "associate", "-0.5 is not in [0, 1]"),
    "usage-inf-salience": ("ngram_trends.csv", 3, "inf", "salience", "inf is not in [0, 1]"),
    "salience-nan": ("salience.csv", 1, "nan", "render", "nan is not finite"),
    "normalized-inf": ("salience_normalized.csv", 1, "-inf", "render", "-inf is not finite"),
}


@pytest.mark.parametrize(
    "artifact, cell, value, command, message",
    list(_CORRUPT_CELLS.values()),
    ids=list(_CORRUPT_CELLS),
)
def test_corrupt_number_exits_one(
    workspace, tmp_path, capsys, artifact, cell, value, command, message
):
    # A value the writers cannot write: before, nan similarities silently
    # emptied a topic, inf usage passed, negative usage exited 2 and render
    # drew nan.
    _, corpus, framework = workspace
    out = tmp_path / "out"
    run_analyze(RunConfig(corpus=corpus, framework=framework, out_dir=out, min_total=1))
    path = out / artifact
    lines = path.read_text(encoding="utf-8").split("\n")
    cells = lines[1].split(",")
    column = cells[1] if artifact == "similarity.csv" else lines[0].split(",")[cell]
    row = cells[0]
    cells[cell] = value
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines), encoding="utf-8")
    args = {
        "associate": ["associate", "--in", str(out)],
        "salience": ["salience", "--in", str(out), "--framework", str(framework)],
        "render": ["render", "--in", str(out), "--topics", "harbor_trade"],
    }[command]
    capsys.readouterr()
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == f"error: {command}: {path}: {row!r} at {column!r}: {message}\n"


@pytest.mark.parametrize(
    "loader, header, where, good, bad",
    [
        pytest.param(
            functools.partial(load_similarity_csv, keys=["a b"]),
            "ngram,topic_id,similarity\na b,t1,",
            "'a b' at 't1'",
            ["0.0", "-0.0", "1.0", "5e-324"],
            ["nan", "-nan", "inf", "-inf", "-5e-324", "1.0000000000000002", "2.0", "-1"],
            id="similarity",
        ),
        pytest.param(
            load_ngram_trends_csv,
            # A usage row needs a positive cell besides the one tried.
            "ngram,total,2016-01,2016-02\na b,1,1.0,",
            "'a b' at '2016-02'",
            ["0.0", "-0.0", "1.0", "5e-324"],
            ["nan", "inf", "-inf", "-5e-324", "1.0000000000000002", "-0.5"],
            id="usage",
        ),
        pytest.param(
            load_trend_csv,
            "topic_id,2016-01\nt1,",
            "'t1' at '2016-01'",
            ["0.0", "-1e300", "1e300", "-5e-324"],
            ["nan", "inf", "-inf", "1e999"],
            id="trend",
        ),
    ],
)
def test_loaders_refuse_numbers_the_writers_cannot_write(
    tmp_path, loader, header, where, good, bad
):
    path = tmp_path / "artifact.csv"
    for value in good:
        path.write_text(f"{header}{value}\n", encoding="utf-8")
        loaded = loader(path)
        if loader is load_trend_csv:
            got = loaded[0]["t1"][-1]
        else:
            got = next(v for v in loaded if isinstance(v, np.ndarray))[0, -1]
        assert got == float(value)
    for value in bad:
        path.write_text(f"{header}{value}\n", encoding="utf-8")
        message = re.escape(f"{path}: {where}: {float(value)!r} is not")
        with pytest.raises(InputError, match=message):
            loader(path)


_TOPIC = {"id": "a", "definition": "harbor freight"}
_SPEC = {
    "seed": 1,
    "bin_count": 3,
    "docs_per_bin": 2,
    "background_vocab": 8,
    "sentence_length": [4, 6],
    "sentences_per_doc": [2, 3],
}
_EVENT = {"topic_id": "t", "phrases": ["alpha beta"], "start_bin": 0, "duration": 1}
_EVENT["intensity"] = 0.5
_EXTRA_TOPIC = framework_to_dict(disjoint_framework())
_EXTRA_TOPIC["topics"].append({"id": "extra", "definition": "words"})


def _fw(topics, **grid):
    return {"name": "fw", **grid, "topics": topics}


def _events(**fields):
    return {**_SPEC, "events": [{**_EVENT, **fields}]}


# (what the input is, the input, the message). A framework is refused by
# analyze's ingest stage, a lexicon too, and a synth spec by synth; the
# other inputs go to a stage subcommand over an analyze output.
_REFUSALS = [
    ("framework", _fw([]), "ingest: framework 'fw' declares no topics"),
    ("framework", [_TOPIC], "ingest: framework file must hold a JSON object"),
    ("framework", {"topics": [_TOPIC]}, "ingest: framework needs a non-empty 'name'"),
    ("framework", _fw({}), "ingest: framework 'fw': 'topics' must be a list"),
    ("framework", _fw(["a"]), "ingest: framework 'fw': topic #0 is not an object"),
    (
        "framework",
        _fw([{**_TOPIC, "id": 5}]),
        "ingest: framework: topic #0 id must be a non-empty string",
    ),
    (
        "framework",
        _fw([{**_TOPIC, "keywords": "harbor"}]),
        "ingest: framework: keywords must be a list of strings",
    ),
    (
        "framework",
        _fw([{**_TOPIC, "definition": 5}]),
        "ingest: framework: topic #0 definition must be a string or null",
    ),
    (
        "framework",
        _fw([{**_TOPIC, "definition": ["a", "b"]}]),
        "ingest: framework: topic #0 definition must be a string or null",
    ),
    (
        "framework",
        _fw([{**_TOPIC, "row": "X", "column": "C"}], rows=["R"], columns=["C"]),
        "ingest: topic 'a' has row/column outside the declared grid",
    ),
    (
        "framework",
        _fw(
            [
                {**_TOPIC, "row": "R", "column": "C1"},
                {**_TOPIC, "id": "b", "row": "R", "column": "C1"},
            ],
            rows=["R"],
            columns=["C1", "C2"],
        ),
        "ingest: grid cell ('R', 'C1') assigned to more than one topic",
    ),
    ("lexicon", ["a"], "ingest: {input}: lexicon must be a JSON object"),
    ("lexicon", {"a": "b"}, "ingest: {input}: synonyms of 'a' must be a list of strings"),
    ("lexicon", {"A": [], "a": []}, "ingest: {input}: duplicate lexicon term 'a'"),
    ("spec", {**_SPEC, "bin_count": 0}, "bin_count must be >= 1"),
    (
        "spec",
        {**_SPEC, "docs_per_bin": [2, 2]},
        "docs_per_bin list length must equal bin_count",
    ),
    ("spec", {**_SPEC, "docs_per_bin": [2, 0, 2]}, "docs_per_bin must be >= 1 everywhere"),
    ("spec", {**_SPEC, "background_vocab": 1}, "background_vocab must be >= 2"),
    ("spec", {**_SPEC, "sentence_length": [5, 4]}, "length ranges must satisfy 1 <= lo <= hi"),
    ("spec", {**_SPEC, "granularity": "year"}, "unknown granularity 'year'"),
    ("spec", _events(topic_id=""), "planted event needs a topic_id"),
    ("spec", _events(phrases=[]), "event for 't' has no phrases"),
    ("spec", _events(phrases=["alpha"]), "burst phrase 'alpha' must tokenize to >= 2 tokens"),
    (
        "spec",
        _events(intensity=1.5),
        "event for 't': intensity 1.5 is infeasible (must be in (0, 1])",
    ),
    ("spec", _events(duration=0), "event duration must be >= 1"),
    ("spec", _events(start_bin=3), "event for 't' spills outside bins [0, 3)"),
    (
        "spec",
        {**_SPEC, "seed": "one"},
        "bad synth spec: invalid literal for int() with base 10: 'one'",
    ),
    ("render", ["--topics", ","], "--topics needs at least one topic id"),
    (
        "render",
        ["--topics", "harbor_trade", "--bin", "nosuch"],
        "render: no matrix for bin 'nosuch' at {out}/matrices/nosuch.json",
    ),
    ("salience", _EXTRA_TOPIC, "salience: associations missing for topics: extra"),
    (
        "associate",
        "ngram,topic_id,similarity\n",
        "associate: {out}/similarity.csv: line 2: no similarity rows",
    ),
]


@pytest.mark.parametrize(
    "kind, payload, message",
    _REFUSALS,
    ids=[f"{kind}-{i}" for i, (kind, _, _) in enumerate(_REFUSALS)],
)
def test_refusal_exits_one_with_its_message(workspace, tmp_path, capsys, kind, payload, message):
    _, corpus, framework = workspace
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "out"
    if kind in ("render", "salience", "associate"):
        run_analyze(RunConfig(corpus=corpus, framework=framework, out_dir=out, min_total=1))
    if kind == "associate":
        (out / "similarity.csv").write_text(payload, encoding="utf-8")
    analyze = ["analyze", "--corpus", corpus, "--out", out]
    argv = {
        "framework": [*analyze, "--framework", path],
        "lexicon": [*analyze, "--framework", framework, "--lexicon", path],
        "spec": ["synth", "--spec", path, "--out", tmp_path / "synth.jsonl"],
        "render": ["render", "--in", out, *payload],
        "salience": ["salience", "--in", out, "--framework", path],
        "associate": ["associate", "--in", out],
    }[kind]
    capsys.readouterr()
    assert main(list(map(str, argv))) == 1
    assert capsys.readouterr().err == f"error: {message.format(input=path, out=out)}\n"
