"""Output check for one analysis directory.

Every artifact is recomputed or cross-checked from inputs the benchmark owns:
the generator's own per-bin instance totals, the package's brute-force
n-gram scanner (`salience.synth.oracle_count_many`), and numpy recomputations
of trends, the association quadrant and salience. A failed check raises
`CheckError` naming the artifact.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

from salience.synth import oracle_count_many

from corpora import MIN_COUNT, N, Corpus

ORACLE_SAMPLE = 24  # kept n-grams re-counted by the oracle, besides planted ones
SALIENCE_TOL = 1e-12  # absolute, on salience and usage trends
NORMALIZED_TOL = 1e-9  # absolute, on per-bin normalized salience
THRESHOLD_RTOL = 1e-12  # relative, where a value sits next to a threshold
UPSTREAM = ("ngram_table.json", "ngram_trends.csv", "similarity.csv")


class CheckError(Exception):
    pass


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def artifact_files(out: Path) -> dict[str, Path]:
    """Every file under `out` except the manifest, by relative path."""
    return {
        p.relative_to(out).as_posix(): p
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def artifact_hashes(out: Path) -> dict[str, str]:
    return {rel: sha256(p) for rel, p in artifact_files(out).items()}


def artifact_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in artifact_files(out).values())


def _require(ok, what: str) -> None:
    if not ok:
        raise CheckError(what)


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    _require(path.is_file(), f"{path.name}: missing")
    with path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows, f"{path.name}: empty")
    return rows[0], rows[1:]


def _read_trends(path: Path, topic_ids: list[str], labels: list[str]) -> np.ndarray:
    header, rows = _read_csv(path)
    _require(header == ["topic_id", *labels], f"{path.name}: header")
    _require([r[0] for r in rows] == topic_ids, f"{path.name}: topic rows")
    return np.array([[float(v) for v in r[1:]] for r in rows])


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= THRESHOLD_RTOL * max(1.0, abs(a), abs(b))


def read_framework(path: Path) -> dict:
    data = json.loads(path.read_text(encoding="utf-8"))
    return {
        "ids": [t["id"] for t in data["topics"]],
        "cells": {(t.get("row"), t.get("column")): t["id"] for t in data["topics"]},
        "rows": data.get("rows"),
        "columns": data.get("columns"),
    }


def check_output(
    out: Path,
    corpus: Corpus,
    framework: dict,
    *,
    seed: int,
    percentile: float = 75.0,
    norm: str = "zscore",
    restaged: bool = False,
    rendered: tuple[list[str], str] | None = None,
) -> dict:
    """Check an `analyze` output directory; returns input statistics.

    `restaged`: the associate and salience stages were rerun in place, so only
    the upstream artifacts still match the manifest. `rendered`: the topics
    and bin label passed to `render`.
    """
    labels = [corpus.binning.label(t) for t in range(corpus.binning.bin_count)]
    topic_ids = framework["ids"]
    files = artifact_files(out)

    # Manifest: the hashes it records match the files on disk.
    manifest_path = out / "manifest.json"
    _require(manifest_path.is_file(), "manifest.json: missing")
    recorded = json.loads(manifest_path.read_text(encoding="utf-8"))["artifacts"]
    expected = set(UPSTREAM) | {"associations.json", "topic_usage.csv", "salience.csv"}
    expected |= {"salience_normalized.csv"} | {f"matrices/{label}.json" for label in labels}
    _require(set(recorded) == expected, "manifest.json: artifact list")
    for rel in UPSTREAM if restaged else sorted(expected):
        _require(rel in files and sha256(files[rel]) == recorded[rel], f"{rel}: hash differs from manifest")
    svgs = set()
    if rendered is not None:
        svgs = {"render/salience_absolute.svg", "render/salience_normalized.svg"}
        svgs.add(f"render/matrix_{rendered[1]}.svg")
    _require(set(files) == expected | svgs, "output directory: unexpected or missing files")

    # Table: per-bin counts and contexts, against the generator and the oracle.
    table = json.loads(files["ngram_table.json"].read_text(encoding="utf-8"))
    _require(table["n"] == N and table["min_total"] == MIN_COUNT, "ngram_table.json: config")
    _require(table["bin_labels"] == labels, "ngram_table.json: bin labels")
    _require(table["bin_totals"] == corpus.bin_totals, "ngram_table.json: bin totals")
    keys = list(table["ngrams"])
    _require(keys == sorted(keys, key=lambda k: tuple(k.split(" "))), "ngram_table.json: order")
    counts = np.array([table["ngrams"][k]["counts"] for k in keys], dtype=np.int64)
    _require(counts.shape == (len(keys), len(labels)), "ngram_table.json: counts shape")
    _require(bool((counts.sum(axis=1) >= MIN_COUNT).all()), "ngram_table.json: below min-count")
    sentences = set()
    contexts = 0
    for key, row in zip(keys, counts):
        ctx = table["ngrams"][key]["contexts"]
        contexts += len(ctx)
        per_bin = np.bincount([t for t, _ in ctx], minlength=len(labels))
        _require(np.array_equal(per_bin, row), f"ngram_table.json: contexts of {key!r}")
        sentences.update(s for _, s in ctx)
    sample = random.Random(seed).sample(keys, min(ORACLE_SAMPLE, len(keys)))
    planted = [" ".join(g) for g in corpus.planted]
    _require(all(g in table["ngrams"] for g in planted), "ngram_table.json: planted n-gram missing")
    wanted = sorted(set(sample) | set(planted))
    oracle = oracle_count_many(corpus.path, [g.split(" ") for g in wanted], corpus.binning)
    for g in wanted:
        _require(oracle[g] == table["ngrams"][g]["counts"], f"ngram_table.json: oracle counts of {g!r}")
    del table

    # Trends: each value is count / bin total.
    header, rows = _read_csv(files["ngram_trends.csv"])
    _require(header == ["ngram", "total", *labels], "ngram_trends.csv: header")
    _require([r[0] for r in rows] == keys, "ngram_trends.csv: rows")
    _require([int(r[1]) for r in rows] == counts.sum(axis=1).tolist(), "ngram_trends.csv: totals")
    trends = np.array([[float(v) for v in r[2:]] for r in rows])
    totals = np.array(corpus.bin_totals, dtype=np.int64)
    expected_trends = np.divide(counts, totals, out=np.zeros(counts.shape), where=totals > 0)
    _require(np.array_equal(trends, expected_trends), "ngram_trends.csv: value != count / bin total")

    # Similarity: one value in [0, 1] per n-gram and topic, in sorted order.
    header, rows = _read_csv(files["similarity.csv"])
    _require(header == ["ngram", "topic_id", "similarity"], "similarity.csv: header")
    _require(len(rows) == len(keys) * len(topic_ids), "similarity.csv: row count")
    _require([r[0] for r in rows[:: len(topic_ids)]] == keys, "similarity.csv: n-gram order")
    _require(topic_ids * len(keys) == [r[1] for r in rows], "similarity.csv: topic order")
    sims = np.array([float(r[2]) for r in rows]).reshape(len(keys), len(topic_ids))
    _require(bool(((sims >= 0) & (sims <= 1)).all()), "similarity.csv: value outside [0, 1]")

    # Associations: the strict upper-right quadrant of (variability, similarity).
    mean = trends.mean(axis=1)
    _require(bool((mean > 0).all()), "ngram_trends.csv: n-gram with no instances")
    rsd = trends.std(axis=1) / mean
    rsd_threshold = float(np.percentile(rsd, percentile))
    assoc = json.loads(files["associations.json"].read_text(encoding="utf-8"))
    _require(list(assoc) == topic_ids, "associations.json: topics")
    index = {k: i for i, k in enumerate(keys)}
    members: dict[str, list[int]] = {}
    for j, tid in enumerate(topic_ids):
        entry = assoc[tid]
        sim_threshold = float(np.percentile(sims[:, j], percentile))
        _require(_close(entry["rsd_threshold"], rsd_threshold), f"associations.json: {tid} rsd threshold")
        _require(_close(entry["sim_threshold"], sim_threshold), f"associations.json: {tid} sim threshold")
        got = [index.get(m["ngram"], -1) for m in entry["members"]]
        _require(-1 not in got, f"associations.json: {tid} member is not a kept n-gram")
        for m, i in zip(entry["members"], got):
            _require(m["similarity"] == sims[i, j] and _close(m["rsd"], rsd[i]), f"associations.json: {tid} member values")
        order = sorted(got, key=lambda i: (-sims[i, j], tuple(keys[i].split(" "))))
        _require(got == order, f"associations.json: {tid} member order")
        # Values within rounding of a threshold may fall either side.
        s_eps = THRESHOLD_RTOL * max(1.0, abs(sim_threshold))
        r_eps = THRESHOLD_RTOL * max(1.0, abs(rsd_threshold))
        surely_in = (sims[:, j] > sim_threshold + s_eps) & (rsd > rsd_threshold + r_eps)
        surely_out = (sims[:, j] <= sim_threshold - s_eps) | (rsd <= rsd_threshold - r_eps)
        chosen = np.zeros(len(keys), dtype=bool)
        chosen[got] = True
        _require(not (surely_in & ~chosen).any(), f"associations.json: {tid} misses a quadrant n-gram")
        _require(not (surely_out & chosen).any(), f"associations.json: {tid} admits an n-gram outside the quadrant")
        members[tid] = got

    # Salience: mean of members' backward differences; usage: sum of members.
    diffs = np.diff(trends, axis=1, prepend=trends[:, :1])
    usage = _read_trends(files["topic_usage.csv"], topic_ids, labels)
    salience = _read_trends(files["salience.csv"], topic_ids, labels)
    for j, tid in enumerate(topic_ids):
        rows_of = members[tid]
        want_usage = trends[rows_of].sum(axis=0) if rows_of else np.zeros(len(labels))
        want_sal = diffs[rows_of].mean(axis=0) if rows_of else np.zeros(len(labels))
        _require(np.abs(usage[j] - want_usage).max() <= SALIENCE_TOL, f"topic_usage.csv: {tid}")
        _require(np.abs(salience[j] - want_sal).max() <= SALIENCE_TOL, f"salience.csv: {tid}")
    if norm == "zscore":
        center, spread = salience.mean(axis=0), salience.std(axis=0)
    else:
        center = salience.min(axis=0)
        spread = salience.max(axis=0) - center
    want = np.where(spread == 0, 0.0, (salience - center) / np.where(spread == 0, 1.0, spread))
    normalized = _read_trends(files["salience_normalized.csv"], topic_ids, labels)
    _require(np.abs(normalized - want).max() <= NORMALIZED_TOL, "salience_normalized.csv: values")

    # Matrices: one per bin, the salience column laid out on the grid.
    for t, label in enumerate(labels):
        payload = json.loads(files[f"matrices/{label}.json"].read_text(encoding="utf-8"))
        column = dict(zip(topic_ids, salience[:, t].tolist()))
        grid = [[column[framework["cells"][(r, c)]] for c in framework["columns"]] for r in framework["rows"]]
        _require(payload["bin"] == label and payload["values"] == grid, f"matrices/{label}.json: values")

    for rel in sorted(svgs):
        try:
            ET.parse(files[rel])
        except ET.ParseError as exc:
            raise CheckError(f"{rel}: not XML: {exc}") from exc

    return {
        "kept": len(keys),
        "instances": int(totals.sum()),
        "contexts": contexts,
        "unique_contexts": len(sentences),
        "members": sum(len(v) for v in members.values()),
        "empty_topics": sum(not v for v in members.values()),
    }
