"""Golden digests: the sha256 of every artifact `analyze` writes, the manifest
aside, on two fixed corpora, pinned in tests/data/golden.sha256.

The corpora are the demo corpus (`generate_corpus(news_scale_spec(7))`, as
scripts/run_news_scale.py builds it, analyzed with the bundled framework and
default options) and its mixed variant (`_mixed`), whose every third
document gets curly quotes, accented words and sentence ends at non-ASCII
whitespace; the CI script step analyzes the same mixed corpus. A change that
moves any artifact byte fails here; one that does so on purpose rewrites the
file with

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from importlib import resources
from pathlib import Path

from salience.pipeline import RunConfig, run_analyze
from salience.synth import corpus_to_jsonl, generate_corpus, news_scale_spec

GOLDEN = Path(__file__).resolve().parent / "data" / "golden.sha256"


def _mixed(text: str) -> str:
    """The corpus with curly quotes and accents in every third document,
    where one sentence also ends at an ideographic space (U+3000) and
    another at a blank line that holds one. CI's script step builds its
    mixed corpus with this function."""
    lines = []
    for i, line in enumerate(io.StringIO(text)):
        doc = json.loads(line)
        if i % 3 == 0:
            text = doc["text"].replace(". ", ".\u3000", 1).replace(". ", ".\n\u3000\n", 1)
            doc["text"] = "“" + text.replace(". ", ". “").replace("e", "é", 5)
        lines.append(json.dumps(doc, ensure_ascii=False) + "\n")
    return "".join(lines)


def digests(work: Path) -> list[str]:
    """`sha256sum` lines, `<hex>  <corpus>/<artifact>`, of analyze on both
    corpora, run in `work`."""
    framework = work / "pmesii_ascope.json"
    bundled = resources.files("salience").joinpath("data/pmesii_ascope.json")
    framework.write_bytes(bundled.read_bytes())
    demo = corpus_to_jsonl(generate_corpus(news_scale_spec(seed=7))[0])
    lines = []
    for name, text in (("demo", demo), ("mixed", _mixed(demo))):
        corpus, out = work / f"{name}.jsonl", work / name
        corpus.write_text(text, encoding="utf-8")
        run_analyze(RunConfig(corpus=corpus, framework=framework, out_dir=out))
        for path in sorted(out.rglob("*")):
            if path.is_file() and path.name != "manifest.json":
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{digest}  {name}/{path.relative_to(out).as_posix()}")
    return lines


def test_analyze_artifacts_match_the_golden_digests(tmp_path):
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert digests(tmp_path) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        lines = digests(Path(work))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} digests to {GOLDEN}", file=sys.stderr)
