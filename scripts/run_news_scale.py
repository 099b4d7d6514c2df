#!/usr/bin/env python3
"""End-to-end demo at realistic scale.

Generates a synthetic news-like corpus (2,760 documents over 33 monthly
bins) with three planted topical bursts, runs the full analysis against the
bundled PMESII-ASCOPE framework, renders charts for the planted topics, and
prints where each planted topic's salience actually peaked.
"""

from __future__ import annotations

import argparse
import json
import time
from importlib import resources
from pathlib import Path

from salience.cli import main as salience_cli
from salience.pipeline import RunConfig, load_trend_csv, run_analyze
from salience.synth import corpus_to_jsonl, generate_corpus, news_scale_spec


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="news_scale_run", help="working directory")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--min-count", type=int, default=RunConfig._field_defaults["min_total"])
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    spec = news_scale_spec(seed=args.seed)
    docs, truth = generate_corpus(spec)
    corpus_path = out / "corpus.jsonl"
    corpus_path.write_text(corpus_to_jsonl(docs), encoding="utf-8")
    (out / "corpus.truth.json").write_text(json.dumps(truth, indent=2) + "\n", "utf-8")

    # The bundled framework's own bytes, for the CLI stages to read.
    framework_path = out / "pmesii_ascope.json"
    bundled = resources.files("salience").joinpath("data/pmesii_ascope.json")
    framework_path.write_bytes(bundled.read_bytes())

    run_dir = out / "analysis"
    started = time.perf_counter()
    manifest = run_analyze(
        RunConfig(
            corpus=corpus_path,
            framework=framework_path,
            out_dir=run_dir,
            min_total=args.min_count,
        )
    )
    elapsed = time.perf_counter() - started
    stats = manifest["corpus"]
    print(
        f"analyzed {stats['documents']} docs / {stats['bins']} bins "
        f"({stats['ngrams']} n-grams kept) in {elapsed:.1f}s"
    )

    salience, labels = load_trend_csv(run_dir / "salience.csv")
    print("\nplanted events vs detected salience peaks:")
    for event in truth["events"]:
        values = salience[event["topic_id"]]
        peak = max(range(len(values)), key=values.__getitem__)
        planted = event["start_bin"]
        print(
            f"  {event['topic_id']:32s} planted at {labels[planted]} "
            f"-> peak at {labels[peak]}"
        )

    planted_topics = ",".join(e["topic_id"] for e in truth["events"])
    salience_cli(["render", "--in", str(run_dir), "--topics", planted_topics])
    salience_cli(
        ["render", "--in", str(run_dir), "--topics", planted_topics, "--bin", labels[19]]
    )
    print(f"\nartifacts in {run_dir}, charts in {run_dir / 'render'}")


if __name__ == "__main__":
    main()
