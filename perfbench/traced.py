"""Traced in-process run of one CLI command, and the per-layer metrics of a
traced session.

Run as a child process:

    python3 perfbench/traced.py SPANS.json -- <salience CLI arguments>

It wraps every public function of the program's modules that the CLI path
calls, wherever a module has bound it (the defining module and every
`from ... import` site), then calls `salience.cli.main` with the arguments.
The program runs its own code path, so its artifacts must equal those of an
untraced CLI run byte for byte. Spans (name, start, end, parent) are kept in
memory and written to SPANS.json when the command ends.

`cosine` runs once per n-gram and topic, about half a million times on the
Zipfian corpus, so its calls are aggregated per parent span (count and total
time) instead of being recorded one by one.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# Span name -> (module, function): the layer boundaries that are traced.
TRACED = {
    "corpus": ("load_corpus", "build_binning", "bin_documents"),
    "ngrams": ("build_ngram_table", "relative_usage_trend"),
    "topics": (
        "load_framework",
        "build_vector_space",
        "similarity_matrix",
        "ngram_vector",
        "cosine",
    ),
    "association": ("relative_std_dev", "percentile", "associate"),
    "salience": ("topic_usage_trend", "topic_salience_trend", "normalize_salience", "salience_matrix"),
    "pipeline": (
        "run_analyze",
        "compute_similarities",
        "compute_associations",
        "write_ngram_trends_csv",
        "write_table_json",
        "write_similarity_csv",
        "write_associations_json",
        "write_trend_csv",
        "write_matrix_json",
        "load_table_json",
        "load_similarity_csv",
        "load_associations_json",
        "load_trend_csv",
    ),
    "render": ("render_trend_svg", "render_grid_svg"),
}
AGGREGATED = {"topics.cosine"}
MODULES = tuple(TRACED)

# Per-layer timers: metric name -> the spans whose durations it sums.
TIMERS = {
    "corpus.load_s": ("corpus.load_corpus",),
    "corpus.bin_s": ("corpus.build_binning", "corpus.bin_documents"),
    "ngrams.table_s": ("ngrams.build_ngram_table",),
    "ngrams.trend_s": ("ngrams.relative_usage_trend",),
    "topics.space_s": ("topics.build_vector_space",),
    "topics.vectorize_s": ("topics.ngram_vector",),
    "topics.cosine_s": ("topics.cosine",),
    "association.rsd_s": ("association.relative_std_dev",),
    "association.associate_s": ("association.associate",),
    "salience.trend_s": ("salience.topic_usage_trend", "salience.topic_salience_trend"),
    "salience.normalize_s": ("salience.normalize_salience",),
    "salience.matrix_s": ("salience.salience_matrix",),
    "pipeline.write_trends_s": ("pipeline.write_ngram_trends_csv",),
    "pipeline.write_table_s": ("pipeline.write_table_json",),
    "pipeline.write_similarity_s": ("pipeline.write_similarity_csv",),
    "pipeline.write_associations_s": ("pipeline.write_associations_json",),
    "pipeline.write_salience_s": ("pipeline.write_trend_csv", "pipeline.write_matrix_json"),
    "pipeline.load_table_s": ("pipeline.load_table_json",),
    "pipeline.load_similarity_s": ("pipeline.load_similarity_csv",),
    "pipeline.load_associations_s": ("pipeline.load_associations_json",),
    "render.trend_svg_s": ("render.render_trend_svg",),
    "render.grid_svg_s": ("render.render_grid_svg",),
}


class Tracer:
    """Spans in memory: `spans[i] = [name, start, end, parent index]`."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack = [-1]
        # (name, parent index) -> [calls, seconds] for aggregated leaves.
        self.leaves: dict[tuple[str, int], list] = defaultdict(lambda: [0, 0.0])
        self.failed: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._counted: set[int] = set()

    def _fail(self, name: str, exc: BaseException) -> None:
        # An exception propagating through nested spans counts once, at the
        # innermost call that raised it.
        if id(exc) not in self._counted:
            self._counted.add(id(exc))
            self.failed[name.split(".")[0]] += 1

    def wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        if name in AGGREGATED:
            leaves = self.leaves

            def traced(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                except Exception as exc:
                    self._fail(name, exc)
                    raise
                finally:
                    entry = leaves[(name, stack[-1])]
                    entry[0] += 1
                    entry[1] += clock() - start

        else:

            def traced(*args, **kwargs):
                index = len(spans)
                span = [name, 0.0, 0.0, stack[-1]]
                spans.append(span)
                stack.append(index)
                span[1] = clock()
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    self._fail(name, exc)
                    raise
                finally:
                    span[2] = clock()
                    stack.pop()
                self._count(name, result)
                return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, result) -> None:
        if name == "topics.ngram_vector":
            self.counts["topics.nnz"] += len(result)
        elif name == "topics.build_vector_space":
            self.counts["topics.vocab"] = len(result[0].vocabulary)
        elif name == "association.associate":
            self.counts["association.members"] += len(result.members)
            self.counts["association.empty_topics"] += not result.members

    def install(self) -> None:
        """Replace each traced function at its definition and at every site in
        the package that imported it by name."""
        import importlib

        wrappers = {}
        for module_name, functions in TRACED.items():
            module = importlib.import_module(f"salience.{module_name}")
            for fn_name in functions:
                fn = getattr(module, fn_name)
                wrappers[id(fn)] = self.wrap(fn, f"{module_name}.{fn_name}")
        for name, module in list(sys.modules.items()):
            if name != "salience" and not name.startswith("salience."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(module, attr, wrapper)

    def run(self, argv: list[str]) -> int:
        from salience import cli

        self.install()
        root = [f"cli.{argv[0]}", time.perf_counter(), 0.0, -1]
        self.spans.append(root)
        self.stack.append(0)
        try:
            return cli.main(argv)
        finally:
            root[2] = time.perf_counter()
            self.stack.pop()

    def record(self, argv: list[str], code: int | None) -> dict:
        return {
            "argv": argv,
            "exit": code,
            "spans": self.spans,
            "leaves": [[name, parent, calls, secs] for (name, parent), (calls, secs) in self.leaves.items()],
            "failed": dict(self.failed),
            "counts": dict(self.counts),
        }


def self_times(record: dict) -> dict[str, float]:
    """Self time per span name: each span's duration minus the time its child
    spans and aggregated leaf calls cover. Children of one span never overlap:
    the traced program runs on one thread."""
    spans = record["spans"]
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for name, parent, _, secs in record["leaves"]:
        if parent >= 0:
            covered[parent] += secs
        out[name] += secs
    for (name, start, end, _), inner in zip(spans, covered):
        out[name] += end - start - inner
    return out


def layer_metrics(records: list[dict]) -> dict[str, float]:
    """Per-layer timers, self times and failure counts over a traced session
    (one record per traced child)."""
    total: dict[str, float] = defaultdict(float)
    selfs: dict[str, float] = defaultdict(float)
    failed: Counter[str] = Counter()
    for record in records:
        for name, start, end, _ in record["spans"]:
            total[name] += end - start
        for name, _, _, secs in record["leaves"]:
            total[name] += secs
        for name, secs in self_times(record).items():
            selfs[name] += secs
        failed.update(record["failed"])
    metrics = {metric: sum(total[s] for s in spans) for metric, spans in TIMERS.items()}
    for module in MODULES:
        metrics[f"{module}.self_s"] = sum(v for k, v in selfs.items() if k.startswith(module + "."))
        metrics[f"{module}.failed"] = failed[module]
    metrics["cli.self_s"] = sum(v for k, v in selfs.items() if k.startswith("cli."))
    return metrics


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: traced.py SPANS.json -- <salience CLI arguments>", file=sys.stderr)
        return 2
    tracer, code = Tracer(), None
    try:
        code = tracer.run(argv[2:])
    finally:
        # Written even when the command raised, so its failure counts survive.
        with open(argv[0], "w", encoding="utf-8") as fh:
            json.dump(tracer.record(argv[2:], code), fh)
    return code

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
