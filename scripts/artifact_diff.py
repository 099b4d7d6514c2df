#!/usr/bin/env python3
"""Compare two `salience` output directories artifact by artifact.

    python3 scripts/artifact_diff.py A B

For each file under either directory it prints one line: "identical", or
the count of changed cells with the largest absolute and relative
difference between the numbers among them, followed by the first changed
cells. A cell is one value of an artifact:

- in a CSV file, a cell of a row, the row named by its `ngram` and
  `topic_id` cells and the cell by its column's header;
- in a JSON file, a leaf of the tree, named by its path of keys and list
  indices;
- any other file is one cell, its bytes.

A cell whose text differs is changed, even when both texts spell the same
number; a cell on one side only is changed too. `manifest.json` is compared
without its `timings` and `config.out_dir`, and without the digests under
`artifacts`, each of which is checked against its file instead: the
artifacts themselves are compared above it. Exits 0 only when every
artifact is identical, 1 otherwise, and 2 when A or B is not a directory.
Needs no package import.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from pathlib import Path

SHOWN = 5  # changed cells listed per artifact
ROW_KEYS = ("ngram", "topic_id")  # the CSV columns that name a row


def _csv_cells(text: str) -> dict[tuple, str]:
    rows = csv.reader(io.StringIO(text, newline=""))
    header = next(rows, [])
    keyed = [i for i, name in enumerate(header) if name in ROW_KEYS]
    cells: dict[tuple, str] = {("header",): ",".join(header)}
    for line, row in enumerate(rows, 2):
        name = tuple(row[i] for i in keyed if i < len(row)) or (f"line {line}",)
        for i, value in enumerate(row):
            if i not in keyed:
                cells[name + (header[i] if i < len(header) else f"column {i + 1}",)] = value
    return cells


def _json_cells(value, path: tuple = ()) -> dict[tuple, str]:
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {path: json.dumps(value)}
    cells: dict[tuple, str] = {}
    for key, item in items:
        cells.update(_json_cells(item, path + (key,)))
    return cells if cells else {path: json.dumps(value)}


def _manifest_cells(path: Path) -> dict[tuple, str]:
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest.pop("timings", None)
    manifest.get("config", {}).pop("out_dir", None)
    for name, digest in manifest.pop("artifacts", {}).items():
        target = path.parent / name
        actual = hashlib.sha256(target.read_bytes()).hexdigest() if target.is_file() else None
        manifest.setdefault("digest checks", {})[name] = "ok" if actual == digest else "mismatch"
    return _json_cells(manifest)


def cells(path: Path, name: str) -> dict[tuple, str]:
    """The cells of one artifact, by name."""
    if name == "manifest.json":
        return _manifest_cells(path)
    if path.suffix == ".csv":
        return _csv_cells(path.read_text(encoding="utf-8"))
    if path.suffix == ".json":
        return _json_cells(json.loads(path.read_text(encoding="utf-8")))
    return {(): hashlib.sha256(path.read_bytes()).hexdigest()}


def _number(text: str | None) -> float | None:
    try:
        value = float(text)
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


def compare(a: dict[tuple, str], b: dict[tuple, str]) -> tuple[list[tuple], float, float]:
    """The names of the cells that differ, in A's order then B's, and the
    largest absolute and relative difference between changed numbers."""
    changed = [key for key in a if a[key] != b.get(key)]
    changed += [key for key in b if key not in a]
    largest_abs = largest_rel = 0.0
    for key in changed:
        x, y = _number(a.get(key)), _number(b.get(key))
        if x is None or y is None:
            continue
        gap = abs(x - y)
        largest_abs = max(largest_abs, gap)
        if gap:
            largest_rel = max(largest_rel, gap / max(abs(x), abs(y)))
    return changed, largest_abs, largest_rel


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    for root in (args.a, args.b):
        if not root.is_dir():
            print(f"{root}: not a directory", file=sys.stderr)
            return 2
    in_a, in_b = _files(args.a), _files(args.b)
    # The manifest last: its digests are checked after the artifacts.
    names = sorted(in_a | in_b, key=lambda name: (name == "manifest.json", name))
    different = 0
    for name in names:
        if name not in in_b or name not in in_a:
            print(f"{name}: only in {args.a if name in in_a else args.b}")
            different += 1
            continue
        a, b = args.a / name, args.b / name
        same = name != "manifest.json" and a.read_bytes() == b.read_bytes()
        x, y = ({}, {}) if same else (cells(a, name), cells(b, name))
        changed, largest_abs, largest_rel = compare(x, y)
        if not changed:
            print(f"{name}: identical")
            continue
        different += 1
        print(
            f"{name}: {len(changed)} of {len(x.keys() | y.keys())} cells changed, "
            f"largest difference {largest_abs:.3g} absolute, {largest_rel:.3g} relative"
        )
        for key in changed[:SHOWN]:
            where = " / ".join(map(str, key)) or "bytes"
            print(f"  {where}: {x.get(key, '(absent)')} -> {y.get(key, '(absent)')}")
        if len(changed) > SHOWN:
            print(f"  ... and {len(changed) - SHOWN} more")
    print(f"{different} of {len(names)} artifacts differ")
    return 1 if different else 0


if __name__ == "__main__":
    sys.exit(main())
