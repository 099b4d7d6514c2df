"""Batch command-line interface.

`salience analyze` runs the whole pipeline. The stage subcommands (trends,
similarity, associate, salience) load the artifacts a previous stage left in
the output directory and call the same stage functions, so individual
stages can be rerun without repeating the rest; similarity also scans the
corpus that trends scanned, and refuses an ngram_table.json that is not
that scan's table. render draws charts from the artifacts. Exit codes: 0
success, 1 input error, 2 internal consistency error.
"""

from __future__ import annotations

import os

# numpy starts its BLAS library's thread pool as it loads, one thread per
# core, although no stage makes a BLAS call; on a 2-core machine that cost
# each CLI process about 0.09 s of CPU. So the CLI asks for one thread,
# before a stage command loads numpy, unless the environment names a count.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

import argparse
import ctypes
import json
import sys
from pathlib import Path

from . import __version__
from .errors import ConsistencyError, InputError
from .runs import GRANULARITIES, NORMALIZATIONS, STAGES, RunConfig, make_dir, stage_run

# mallopt's parameter for the request size from which glibc maps memory.
_M_MMAP_THRESHOLD = -3


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are input errors (exit 1), not argparse's default exit 2.
    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="salience", description=__doc__)
    parser.add_argument("--version", action="version", version=f"salience {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run the full pipeline")
    _add_options(analyze, dict.fromkeys(name for s in STAGES.values() for name in s.options))
    analyze.set_defaults(func=_cmd_analyze)

    synth = sub.add_parser("synth", help="generate a synthetic corpus with planted bursts")
    synth.add_argument("--spec", required=True, type=Path, help="synth spec JSON file")
    synth.add_argument("--out", required=True, type=Path, help="corpus JSONL output path")
    synth.set_defaults(func=_cmd_synth)

    for name, stage in STAGES.items():
        command = sub.add_parser(name, help=stage.help)
        if "out_dir" not in stage.options:
            command.add_argument(
                "--in", dest="in_dir", required=True, type=Path, help="stage directory"
            )
        _add_options(command, stage.options)
        command.set_defaults(func=_cmd_stage)

    render = sub.choices["render"]
    render.add_argument("--topics", required=True, help="comma-separated topic ids")
    render.add_argument("--bin", dest="bin_label", help="also render this bin's salience matrix")
    render.set_defaults(func=_cmd_render)

    return parser


# One flag per RunConfig field, by its name: the option string and its
# argparse options. The flag sets the field its dest names and takes its
# default from there.
_FLAGS = {
    "corpus": ("--corpus", dict(required=True, type=Path, help="corpus JSONL file")),
    "out_dir": ("--out", dict(required=True, type=Path, help="output directory")),
    "n": ("--n", dict(type=int, help="n-gram size (default %(default)s)")),
    "granularity": ("--bin", dict(choices=GRANULARITIES)),
    "min_total": ("--min-count", dict(type=int, help="drop n-grams with fewer total instances")),
    "include_titles": (
        "--no-titles",
        dict(action="store_false", help="exclude document titles from the analyzed text"),
    ),
    "framework": ("--framework", dict(required=True, type=Path, help="topic framework JSON file")),
    "lexicon": ("--lexicon", dict(type=Path, help="optional synonym lexicon JSON file")),
    "percentile": (
        "--percentile", dict(type=float, help="association percentile (default %(default)s)")
    ),
    "normalization": ("--norm", dict(choices=NORMALIZATIONS)),
}


def _add_options(parser, names) -> None:
    for name in names:
        flag, options = _FLAGS[name]
        default = RunConfig._field_defaults.get(name)
        parser.add_argument(flag, dest=name, default=default, **options)


def _config(args) -> RunConfig:
    """The RunConfig of a command's flags, with a stage subcommand's `--in`
    as `out_dir`; a field with no flag keeps its default, or else None."""
    defaults = RunConfig._field_defaults
    values = {name: getattr(args, name, defaults.get(name)) for name in _FLAGS}
    return RunConfig(**{**values, "out_dir": getattr(args, "in_dir", values["out_dir"])})


# Each command imports the functions it calls when it runs, so a process
# loads only the modules of its own subcommand. What the parser needs comes
# from salience.runs, which loads no numpy: `render`, `synth`, `--help` and
# `--version` run without it.


def _cmd_analyze(args) -> int:
    from .pipeline import run_analyze

    manifest = run_analyze(_config(args))
    print(
        f"analyzed {manifest['corpus']['documents']} documents over "
        f"{manifest['corpus']['bins']} bins; "
        f"{len(manifest['artifacts'])} artifacts in {args.out_dir}"
    )
    return 0


def _cmd_stage(args) -> int:
    from .pipeline import run_stage

    print(run_stage(args.command, _config(args)))
    return 0


def _cmd_synth(args) -> int:
    from .synth import corpus_to_jsonl, generate_corpus, load_synth_spec

    docs, truth = generate_corpus(load_synth_spec(args.spec))
    out = args.out
    make_dir(out.parent)
    truth_path = out.with_name(out.name.removesuffix(".jsonl") + ".truth.json")
    try:
        out.write_text(corpus_to_jsonl(docs), encoding="utf-8")
        truth_path.write_text(json.dumps(truth, indent=2) + "\n", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {exc.filename}: {exc.strerror}") from exc
    print(f"wrote {len(docs)} documents to {out} (ground truth: {truth_path})")
    return 0


def _cmd_render(args) -> int:
    from .render import render_grid_svg, render_trend_svg
    from .runs import load_matrix_json, load_trend_csv

    in_dir = args.in_dir
    wanted = [tid for tid in args.topics.split(",") if tid]
    if not wanted:
        raise InputError("--topics needs at least one topic id")
    with stage_run(in_dir, "render") as run:
        absolute, labels = load_trend_csv(in_dir / "salience.csv")
        normalized_path = in_dir / "salience_normalized.csv"
        normalized, normalized_labels = load_trend_csv(normalized_path)
        unknown = [tid for tid in wanted if tid not in absolute]
        if unknown:
            raise InputError(f"unknown topic ids: {', '.join(unknown)}")
        # The salience stage writes both files with one set of topics and bins.
        if normalized.keys() != absolute.keys():
            differ = sorted(normalized.keys() ^ absolute.keys())
            raise InputError(
                f"{normalized_path}: topics are not those of salience.csv (e.g. {differ[0]!r})"
            )
        if normalized_labels != labels:
            raise InputError(f"{normalized_path}: bin labels are not those of salience.csv")
        matrix = None
        if args.bin_label:
            matrix_path = in_dir / "matrices" / f"{args.bin_label}.json"
            if not matrix_path.is_file():
                raise InputError(f"no matrix for bin {args.bin_label!r} at {matrix_path}")
            matrix = load_matrix_json(matrix_path)
            if matrix["rows"] is None:
                raise InputError("matrix has no grid layout; render the values as a list instead")

        for kind, trends, title in (
            ("absolute", absolute, "topic salience"),
            ("normalized", normalized, "topic salience (normalized per bin)"),
        ):
            svg = render_trend_svg([(tid, trends[tid]) for tid in wanted], labels, title=title)
            run.target("render", f"salience_{kind}.svg").write_text(svg, encoding="utf-8")
        if matrix is not None:
            title = f"topic salience at {matrix['bin']}"
            svg = render_grid_svg(matrix["values"], matrix["rows"], matrix["columns"], title=title)
            run.target("render", f"matrix_{args.bin_label}.svg").write_text(svg, encoding="utf-8")
    print(f"wrote {len(run.written)} SVG charts to {in_dir / 'render'}")
    return 0


def _pin_mmap_threshold() -> None:
    """Hold glibc's mmap threshold at its 128 KiB default in this process.

    glibc raises the threshold to the size of each larger mapped block that
    is freed, so after the first big numpy temporary goes, arrays up to that
    size come from the heap, and freed heap memory goes back to the system
    only from the heap's top. Peak RSS then hangs on where the last live
    array landed. Pinned, every block of 128 KiB or more is mapped and
    unmapped on its own. In six alternating pairs of `analyze` (seed 1,
    2-core x86_64, Python 3.11, numpy 2.4), unpinned against pinned:
    perfbench's news-day corpus with day bins peaked at 41.4-41.5 against
    38.2-38.3 MiB, 8% more, past its 5% bound on peak RSS; its Zipf corpus
    of 5,000 documents at 56.7-56.8 against 54.9-55.1 MiB. Nothing happens
    where the C library has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 128 * 1024)


def main(argv: list[str] | None = None) -> int:
    _pin_mmap_threshold()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (InputError, ConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, InputError) else 2


if __name__ == "__main__":
    sys.exit(main())
