"""scripts/artifact_diff.py on two runs of one small corpus and on a copy of
one with a trend cell nudged."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

from salience.pipeline import RunConfig, run_analyze

from conftest import TOPIC_WORDS, corpus_file, disjoint_framework, framework_file

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "artifact_diff.py"


def _diff(a: Path, b: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(a), str(b)], capture_output=True, text=True
    )


def test_reports_identical_runs_and_names_a_nudged_cell(tmp_path):
    words = [w for ws in TOPIC_WORDS.values() for w in ws[:3]]
    texts = [f"{words[i % 12]} {words[i % 5]}." for i in range(24)]
    records = [
        {"id": f"d{i}", "date": f"2017-{1 + i % 4:02d}-01", "text": text}
        for i, text in enumerate(texts)
    ]
    corpus = corpus_file(tmp_path, records)
    framework = framework_file(tmp_path, disjoint_framework())
    for name in ("a", "b"):
        config = RunConfig(corpus=corpus, framework=framework, out_dir=tmp_path / name, min_total=1)
        run_analyze(config)

    same = _diff(tmp_path / "a", tmp_path / "b")
    assert same.returncode == 0, same.stdout
    assert "manifest.json: identical" in same.stdout
    assert same.stdout.splitlines()[-1] == "0 of 12 artifacts differ"

    # One usage cell of the second n-gram, in the third bin, moves by 1e-9.
    nudged = tmp_path / "c"
    shutil.copytree(tmp_path / "b", nudged)
    trends = nudged / "ngram_trends.csv"
    header, first, second, *rest = trends.read_text(encoding="utf-8").splitlines()
    cells = second.split(",")
    cells[4] = repr(float(cells[4]) + 1e-9)
    trends.write_text("\n".join([header, first, ",".join(cells), *rest]) + "\n", encoding="utf-8")
    bin_label = header.split(",")[4]

    changed = _diff(tmp_path / "a", nudged)
    assert changed.returncode == 1
    lines = changed.stdout.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("ngram_trends.csv:"))
    assert lines[at].startswith("ngram_trends.csv: 1 of ")
    assert "largest difference 1e-09 absolute" in lines[at]
    assert lines[at + 1].startswith(f"  {cells[0]} / {bin_label}: ")
    # The manifest's digest of the nudged file no longer matches it.
    assert any(line.startswith("manifest.json: 1 of") for line in lines)
    assert lines[-1] == "2 of 12 artifacts differ"
