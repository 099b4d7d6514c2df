"""Batch command-line interface.

`salience analyze` runs the whole pipeline. The stage subcommands (trends,
similarity, associate, salience) load the artifacts a previous stage left in
the output directory and call the same stage functions, so individual
stages can be rerun without repeating the rest; render draws charts from
the artifacts. Exit codes: 0 success, 1 input error, 2 internal
consistency error.
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
from dataclasses import fields
from pathlib import Path

from . import __version__
from .errors import ConsistencyError, InputError
from .runs import GRANULARITIES, NORMALIZATIONS, RunConfig, stage_run

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
    _add_corpus_args(analyze)
    _add_framework_args(analyze)
    _add_percentile_arg(analyze)
    _add_norm_arg(analyze)
    analyze.set_defaults(func=_cmd_analyze)

    synth = sub.add_parser("synth", help="generate a synthetic corpus with planted bursts")
    synth.add_argument("--spec", required=True, type=Path, help="synth spec JSON file")
    synth.add_argument("--out", required=True, type=Path, help="corpus JSONL output path")
    synth.set_defaults(func=_cmd_synth)

    trends = sub.add_parser("trends", help="stage: n-gram table and usage trends")
    _add_corpus_args(trends)
    trends.set_defaults(func=_cmd_trends)

    similarity = sub.add_parser("similarity", help="stage: n-gram/topic similarity")
    similarity.add_argument("--in", dest="in_dir", required=True, type=Path, help="stage directory")
    _add_framework_args(similarity)
    similarity.set_defaults(func=_cmd_similarity)

    assoc = sub.add_parser("associate", help="stage: bivariate topic association")
    assoc.add_argument("--in", dest="in_dir", required=True, type=Path, help="stage directory")
    _add_percentile_arg(assoc)
    assoc.set_defaults(func=_cmd_associate)

    sal = sub.add_parser("salience", help="stage: topic salience trends and matrices")
    sal.add_argument("--in", dest="in_dir", required=True, type=Path, help="stage directory")
    _add_framework_args(sal)
    _add_norm_arg(sal)
    sal.set_defaults(func=_cmd_salience)

    render = sub.add_parser("render", help="stage: SVG charts from prior artifacts")
    render.add_argument("--in", dest="in_dir", required=True, type=Path, help="stage directory")
    render.add_argument("--topics", required=True, help="comma-separated topic ids")
    render.add_argument("--bin", dest="bin_label", help="also render this bin's salience matrix")
    render.set_defaults(func=_cmd_render)

    return parser


# Each option of an analyze run sets the RunConfig field its dest names and
# takes its default from there.


def _add_corpus_args(parser) -> None:
    """The corpus, the scan's options and the output directory, which
    `analyze` and `trends` share."""
    parser.add_argument("--corpus", required=True, type=Path, help="corpus JSONL file")
    parser.add_argument("--out", dest="out_dir", required=True, type=Path, help="output directory")
    parser.add_argument(
        "--n", type=int, default=RunConfig.n, help="n-gram size (default %(default)s)"
    )
    parser.add_argument(
        "--bin", dest="granularity", default=RunConfig.granularity, choices=GRANULARITIES
    )
    parser.add_argument(
        "--min-count",
        dest="min_total",
        type=int,
        default=RunConfig.min_total,
        help="drop n-grams with fewer total instances",
    )
    parser.add_argument(
        "--no-titles",
        dest="include_titles",
        action="store_false",
        help="exclude document titles from the analyzed text",
    )


def _add_framework_args(parser) -> None:
    parser.add_argument("--framework", required=True, type=Path, help="topic framework JSON file")
    parser.add_argument("--lexicon", type=Path, help="optional synonym lexicon JSON file")


def _add_percentile_arg(parser) -> None:
    parser.add_argument(
        "--percentile",
        type=float,
        default=RunConfig.percentile,
        help="association percentile (default %(default)s)",
    )


def _add_norm_arg(parser) -> None:
    parser.add_argument(
        "--norm", dest="normalization", default=RunConfig.normalization, choices=NORMALIZATIONS
    )


# Each command imports the functions it calls when it runs, so a process
# loads only the modules of its own subcommand. What the parser needs comes
# from salience.runs, which loads no numpy: `render`, `synth`, `--help` and
# `--version` run without it.


def _cmd_analyze(args) -> int:
    from .pipeline import run_analyze

    manifest = run_analyze(RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)}))
    print(
        f"analyzed {manifest['corpus']['documents']} documents over "
        f"{manifest['corpus']['bins']} bins; "
        f"{len(manifest['artifacts'])} artifacts in {args.out_dir}"
    )
    return 0


def _cmd_synth(args) -> int:
    from .synth import corpus_to_jsonl, generate_corpus, load_synth_spec

    docs, truth = generate_corpus(load_synth_spec(args.spec))
    out = args.out
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(corpus_to_jsonl(docs), encoding="utf-8")
    truth_path = _truth_path(out)
    truth_path.write_text(json.dumps(truth, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(docs)} documents to {out} (ground truth: {truth_path})")
    return 0


def _truth_path(out: Path) -> Path:
    if out.name.endswith(".jsonl"):
        return out.with_name(out.name[: -len(".jsonl")] + ".truth.json")
    return out.with_name(out.name + ".truth.json")


def _cmd_trends(args) -> int:
    from .corpus import read_corpus
    from .ngrams import build_ngram_table
    from .pipeline import write_trends

    args.out_dir.mkdir(parents=True, exist_ok=True)
    with stage_run(args.out_dir, "trends") as run:
        options = dict(granularity=args.granularity, include_titles=args.include_titles)
        table = build_ngram_table(read_corpus(args.corpus), args.n, args.min_total, **options)
        write_trends(run, table)
    print(f"wrote {len(table.keys)} n-gram trends to {args.out_dir}")
    return 0


def _cmd_similarity(args) -> int:
    from .pipeline import load_table_json, run_similarity
    from .topics import load_framework, load_lexicon

    with stage_run(args.in_dir, "similarity") as run:
        table = load_table_json(args.in_dir / "ngram_table.json")
        framework = load_framework(args.framework)
        lexicon = load_lexicon(args.lexicon) if args.lexicon else None
        sims = run_similarity(run, table, framework, lexicon)
    print(f"wrote similarity for {len(sims)} n-grams x {len(framework.topics)} topics")
    return 0


def _cmd_associate(args) -> int:
    from .association import relative_std_devs
    from .pipeline import load_ngram_trends_csv, load_similarity_csv, run_associate

    with stage_run(args.in_dir, "associate") as run:
        keys, usage, _ = load_ngram_trends_csv(args.in_dir / "ngram_trends.csv")
        rsd = relative_std_devs(usage)
        # The usage goes before the similarities come: the two are never held at once.
        del usage
        sims, topic_ids = load_similarity_csv(args.in_dir / "similarity.csv", keys)
        associations = run_associate(run, keys, rsd, sims, topic_ids, args.percentile)
    total = sum(len(a.members) for a in associations.values())
    print(f"wrote associations for {len(associations)} topics ({total} memberships)")
    return 0


def _cmd_salience(args) -> int:
    from .pipeline import load_associations_json, load_ngram_trends_csv, run_salience
    from .topics import load_framework

    with stage_run(args.in_dir, "salience") as run:
        keys, usage, labels = load_ngram_trends_csv(args.in_dir / "ngram_trends.csv")
        associations = load_associations_json(args.in_dir / "associations.json", keys)
        framework = load_framework(args.framework)
        run_salience(run, framework, associations, usage, labels, args.normalization)
    print(f"wrote salience trends for {len(framework.topics)} topics over {len(labels)} bins")
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
                raise InputError(
                    "matrix has no grid layout; render the values as a list instead"
                )

        (in_dir / "render").mkdir(exist_ok=True)
        run.target("render", "salience_absolute.svg").write_text(
            render_trend_svg(
                [(tid, absolute[tid]) for tid in wanted], labels, title="topic salience"
            ),
            encoding="utf-8",
        )
        run.target("render", "salience_normalized.svg").write_text(
            render_trend_svg(
                [(tid, normalized[tid]) for tid in wanted],
                labels,
                title="topic salience (normalized per bin)",
            ),
            encoding="utf-8",
        )
        if matrix is not None:
            run.target("render", f"matrix_{args.bin_label}.svg").write_text(
                render_grid_svg(
                    matrix["values"],
                    matrix["rows"],
                    matrix["columns"],
                    title=f"topic salience at {matrix['bin']}",
                ),
                encoding="utf-8",
            )
    print(f"wrote {len(run.written)} SVG charts to {in_dir / 'render'}")
    return 0


def _pin_mmap_threshold() -> None:
    """Hold glibc's mmap threshold at its 128 KiB default in this process.

    glibc raises the threshold to the size of each larger mapped block that
    is freed, so after the first big numpy temporary goes, arrays up to that
    size come from the heap, and freed heap memory goes back to the system
    only from the heap's top. Peak RSS then hung on where the last live
    array landed: `analyze` on 5,000-document corpora peaked at 98 or at
    115 MiB by corpus, and for one corpus by the size of the environment.
    Pinned, every block of 128 KiB or more is mapped and unmapped on its
    own. Nothing happens where the C library has no mallopt.
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
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
