"""Benchmark of the salience CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
`./src`, and all inputs, outputs and logs go to `./.perfbench-work/`, which
is removed at the end. One child process runs at a time, with no threads in
the benchmark and `SALIENCE_THREADS` unset. Children are spawned by a small
launcher process (`launcher.py`), so each child's peak RSS is its own.

With `--trace 0` it builds the workload's inputs from the seed, measures
set-up time, then runs the workload's operation back to back through
`python3 -m salience.cli` until the operations' summed wall time reaches
`--seconds` (at least one operation). Each operation's children are timed
with `os.wait4`, and its output directory is checked (`check.py`). With
`--trace 1` it runs the analyst session (analyze, then the rerun chain) once
untraced and once traced in-process (`traced.py`), checks that both wrote the
same bytes, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. See METRICS.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench-work"

SETUP_SAMPLES = 9  # fresh interpreters per run, at least; setup_s is their median
RUN_LIMIT_S = 170  # a child still running this long after the start is killed
RERUN_PERCENTILE = 90.0
RERUN_NORM = "minmax"
RENDER_TOPICS = 3

# Workload name -> (corpus generator, bin granularity, operation).
WORKLOADS = {
    "zipf5k": ("zipf", "month", "analyze"),
    "news-day": ("news", "day", "analyze"),
    "zipf5k-rerun": ("zipf", "month", "rerun"),
}

# Children get the environment the benchmark started with. The benchmark
# itself keeps numpy's BLAS pool to one thread, so it runs no threads.
CHILD_ENV = dict(os.environ)
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_CODE = """\
import sys, time
import salience.cli
from salience.topics import build_vector_space, load_framework
build_vector_space(load_framework(sys.argv[1]))
print(repr(time.perf_counter()))
"""


class Timeout(Exception):
    pass


@dataclass
class Child:
    code: int
    start: float  # perf_counter at spawn
    end: float  # perf_counter at exit
    cpu: float
    rss_mb: float

    @property
    def wall(self) -> float:
        return self.end - self.start


class Runner:
    """Runs children one at a time through `launcher.py`, which must be
    started before the benchmark loads any data (see its docstring)."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.children = 0
        self.env = dict(CHILD_ENV, PYTHONPATH=str(SRC))
        self.env.pop("SALIENCE_THREADS", None)
        launcher = [sys.executable, str(BENCH / "launcher.py")]
        self.launcher = subprocess.Popen(launcher, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()

    def run(self, argv: list[str]) -> tuple[Child, Path]:
        self.children += 1
        log = self.work / "logs" / f"{self.children:04d}.log"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise Timeout()
        request = {"argv": argv, "log": str(log), "env": self.env, "cwd": str(ROOT), "timeout": timeout}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process exited")
        child = json.loads(reply)
        if child["code"] is None:
            raise Timeout()
        return Child(**child), log

    def cli(self, args: list[str]) -> Child:
        return self._checked([sys.executable, "-m", "salience.cli", *args], args[0])

    def traced(self, args: list[str], spans: Path) -> Child:
        return self._checked([sys.executable, str(BENCH / "traced.py"), str(spans), "--", *args], args[0])

    def _checked(self, argv: list[str], what: str) -> Child:
        child, log = self.run(argv)
        if child.code != 0:
            tail = log.read_text(errors="replace")[-2000:]
            print(f"{what} exited {child.code}:\n{tail}", file=sys.stderr)
        return child

    def setup_time(self, framework: Path) -> float:
        """Seconds from launching an interpreter to the CLI imported and the
        topic vector space built."""
        child, log = self.run([sys.executable, "-c", SETUP_CODE, str(framework)])
        if child.code != 0:
            raise RuntimeError(f"set-up child exited {child.code}: {log.read_text()[-2000:]}")
        return float(log.read_text().split()[-1]) - child.start


def environment() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree; git does not look
    above the checkout for one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, env=env)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def analyze_args(corpus: Path, framework: Path, out: Path, granularity: str) -> list[str]:
    return ["analyze", "--corpus", str(corpus), "--framework", str(framework), "--bin", granularity, "--out", str(out)]


def rerun_args(out: Path, framework: Path, topics: list[str], label: str) -> list[list[str]]:
    return [
        ["associate", "--in", str(out), "--percentile", str(RERUN_PERCENTILE)],
        ["salience", "--in", str(out), "--framework", str(framework), "--norm", RERUN_NORM],
        ["render", "--in", str(out), "--topics", ",".join(topics), "--bin", label],
    ]


def op_totals(children: list[Child]) -> dict:
    return {
        "ok": all(c.code == 0 for c in children),
        "wall_s": children[-1].end - children[0].start,
        "cpu_s": sum(c.cpu for c in children),
        "peak_rss_mb": max(c.rss_mb for c in children),
    }


@dataclass
class Inputs:
    """What a run works on, all made from the seed."""

    corpus: "corpora.Corpus"
    framework: Path
    fw: dict  # check.read_framework(framework)
    granularity: str
    op: str  # "analyze" or "rerun"
    topics: list[str]  # rendered by the rerun chain
    label: str  # bin rendered by the rerun chain
    stats: dict = field(default_factory=dict)

    def analyze(self, out: Path) -> list[str]:
        return analyze_args(self.corpus.path, self.framework, out, self.granularity)

    def rerun(self, out: Path) -> list[list[str]]:
        return rerun_args(out, self.framework, self.topics, self.label)


def measure(args, work: Path, runner: Runner) -> tuple[dict, int, int, bool]:
    """End-to-end run: returns (metrics, attempted, failed, correct)."""
    import check

    inputs = prepare(args, work)
    base = work / "base"
    if inputs.op == "rerun" and runner.cli(inputs.analyze(base)).code != 0:
        raise RuntimeError("set-up analyze failed")

    # Set-up samples are spread over the run, so that their median sees the
    # same machine-speed drift as the operations: half before the first
    # operation, one before each later one, the rest after the last.
    runner.setup_time(inputs.framework)  # warm-up: a fresh checkout compiles bytecode here
    setups = [runner.setup_time(inputs.framework) for _ in range(SETUP_SAMPLES // 2)]
    ops = []
    verified: dict[str, str] | None = None
    spent = 0.0
    while not ops or spent + ops[-1]["wall_s"] <= args.seconds:
        if ops:
            setups.append(runner.setup_time(inputs.framework))
        if inputs.op == "rerun":
            out, steps = base, inputs.rerun(base)
        else:
            out = work / f"op{len(ops)}"
            steps = [inputs.analyze(out)]
        op = op_totals([runner.cli(step) for step in steps])
        spent += op["wall_s"]
        if op["ok"]:
            op["output_mb"] = check.artifact_bytes(out) / 1e6
            try:
                if verified is None:
                    inputs.stats = check_dir(inputs, out, args.seed, restaged=inputs.op == "rerun")
                    verified = check.artifact_hashes(out)
                elif check.artifact_hashes(out) != verified:
                    raise check.CheckError("output differs from the first, verified operation")
            except check.CheckError as exc:
                print(f"operation {len(ops)}: output check failed: {exc}", file=sys.stderr)
                op["ok"] = False
        ops.append(op)
        if out != base:
            shutil.rmtree(out, ignore_errors=True)
    setups += [runner.setup_time(inputs.framework) for _ in range(max(SETUP_SAMPLES - len(setups), 1))]

    done = [op for op in ops if op["ok"]]
    failed = len(ops) - len(done)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(op["wall_s"] for op in ops),
        "cpu_s": statistics.median(op["cpu_s"] for op in ops),
        "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in ops),
        "output_mb": statistics.median(op["output_mb"] for op in done) if done else None,
        "ok_ratio": len(done) / len(ops),
    }
    report(inputs, {"operations": len(ops), "fail_ratio": failed / len(ops), "setup_samples": setups})
    return metrics, len(ops), failed, failed == 0


def check_dir(inputs: Inputs, out: Path, seed: int, restaged: bool) -> dict:
    import check

    manifest = json.loads((out / "manifest.json").read_text())["corpus"]
    corpus = inputs.corpus
    if (manifest["documents"], manifest["bins"]) != (corpus.docs, corpus.binning.bin_count):
        raise check.CheckError("manifest.json: document or bin count")
    kwargs = {}
    if restaged:
        kwargs = {
            "percentile": RERUN_PERCENTILE,
            "norm": RERUN_NORM,
            "restaged": True,
            "rendered": (inputs.topics, inputs.label),
        }
    stats = check.check_output(out, corpus, inputs.fw, seed=seed, **kwargs)
    return {"docs": corpus.docs, "bins": corpus.binning.bin_count, **stats}


def trace(args, work: Path, runner: Runner) -> tuple[dict, int, int, bool]:
    """Traced run: per-layer metrics of the analyst session."""
    import check
    import traced

    inputs = prepare(args, work)
    cli_dir, traced_dir = work / "cli", work / "traced"
    steps = [inputs.analyze(cli_dir), *inputs.rerun(cli_dir)]
    # The workload's own operation within the session, for the overhead ratio.
    op_steps = {0} if inputs.op == "analyze" else {1, 2, 3}

    records, untraced, traced_walls = [], [], []
    failures = []
    for i, cli_args in enumerate(steps):
        child = runner.cli(cli_args)
        untraced.append(child.wall)
        spans = work / f"spans{i}.json"
        t_args = [str(traced_dir) if a == str(cli_dir) else a for a in cli_args]
        t_child = runner.traced(t_args, spans)
        traced_walls.append(t_child.wall)
        if spans.is_file():
            records.append(json.loads(spans.read_text()))
        if child.code or t_child.code:
            failures.append(f"step {cli_args[0]} exited {child.code} untraced, {t_child.code} traced")
            break
        if i == 0:
            recorded = json.loads((cli_dir / "manifest.json").read_text())["artifacts"]
            if check.artifact_hashes(traced_dir) != recorded or check.artifact_hashes(cli_dir) != recorded:
                failures.append("traced analyze artifacts differ from the CLI run's manifest")
    if not failures and check.artifact_hashes(traced_dir) != check.artifact_hashes(cli_dir):
        failures.append("traced rerun artifacts differ from the CLI run's")
    if not failures:
        try:
            inputs.stats = check_dir(inputs, cli_dir, args.seed, restaged=True)
        except check.CheckError as exc:
            failures.append(f"output check failed: {exc}")
    metrics = traced.layer_metrics(records)
    for failure in failures:
        print(failure, file=sys.stderr)
    if failures:
        return metrics, 1, 1, False

    analyze = records[0]
    cosine_calls = sum(calls for name, _, calls, _ in analyze["leaves"] if name == "topics.cosine")
    stats = inputs.stats
    metrics.update(
        {
            "corpus.docs": stats["docs"],
            "corpus.bins": stats["bins"],
            "ngrams.instances": stats["instances"],
            "ngrams.kept": stats["kept"],
            "ngrams.contexts": stats["contexts"],
            "ngrams.context_unique_ratio": stats["unique_contexts"] / stats["contexts"],
            "topics.vocab": analyze["counts"].get("topics.vocab", 0),
            "topics.nnz": analyze["counts"].get("topics.nnz", 0),
            "topics.dots": cosine_calls,
            "association.members": analyze["counts"].get("association.members", 0),
            "association.empty_topics": analyze["counts"].get("association.empty_topics", 0),
            "pipeline.table_bytes": (cli_dir / "ngram_table.json").stat().st_size,
            "pipeline.similarity_bytes": (cli_dir / "similarity.csv").stat().st_size,
            "pipeline.files_written": len(check.artifact_files(traced_dir)) + 1,
            "trace.spans": sum(len(r["spans"]) for r in records),
            "trace.overhead_ratio": sum(traced_walls[i] for i in op_steps) / sum(untraced[i] for i in op_steps) - 1,
        }
    )
    report(inputs, {"session_untraced_s": untraced, "session_traced_s": traced_walls})
    return metrics, 1, 0, True


def prepare(args, work: Path) -> Inputs:
    from importlib import resources

    import check
    import corpora

    generator, granularity, op = WORKLOADS[args.workload]
    corpus_path = work / "corpus.jsonl"
    if generator == "zipf":
        corpus = corpora.write_zipf(corpus_path, args.seed)
    else:
        corpus = corpora.write_news(corpus_path, args.seed)
    framework = work / "framework.json"
    framework.write_bytes(resources.files("salience").joinpath("data/pmesii_ascope.json").read_bytes())
    fw = check.read_framework(framework)
    rng = random.Random(args.seed)
    topics = rng.sample(fw["ids"], RENDER_TOPICS)
    label = corpus.binning.label(rng.randrange(corpus.binning.bin_count))
    return Inputs(corpus, framework, fw, granularity, op, topics, label)


def report(inputs: Inputs, extra: dict) -> None:
    info = {"corpus_sha256": inputs.corpus.sha256, **inputs.stats, **extra, "environment": environment()}
    print("info " + json.dumps(info, sort_keys=True))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "salience" / "cli.py").is_file():
        print(f"no program source at {SRC / 'salience'}: run from the root of a checkout", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)
    runner = Runner(work, time.monotonic() + RUN_LIMIT_S)  # before anything is loaded
    os.environ.update(dict.fromkeys(BLAS_THREADS, "1"))
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    try:
        if args.trace:
            metrics, attempted, failed, correct = trace(args, work, runner)
        else:
            metrics, attempted, failed, correct = measure(args, work, runner)
    except Timeout:
        print(f"run exceeded {RUN_LIMIT_S} s", file=sys.stderr)
        return 1
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    units = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = units["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]} for m in declared},
    }
    for name, entry in result["metrics"].items():
        print(f"{name:32s} {entry['value']!r} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
