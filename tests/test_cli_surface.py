"""The command-line surface, pinned: every subcommand's options, in order,
with their option strings, dest, default, type, choices, required flag and
action. A flag added, lost, renamed or re-defaulted fails here."""

import argparse
from pathlib import Path

from salience import cli

GRANULARITIES = ("month", "week", "day")
NORMALIZATIONS = ("zscore", "minmax")

# (option strings, dest, default, type, choices, required, action)
CORPUS = [
    (("--corpus",), "corpus", None, Path, None, True, "store"),
    (("--out",), "out_dir", None, Path, None, True, "store"),
    (("--n",), "n", 2, int, None, False, "store"),
    (("--bin",), "granularity", "month", None, GRANULARITIES, False, "store"),
    (("--min-count",), "min_total", 5, int, None, False, "store"),
    (("--no-titles",), "include_titles", True, None, None, False, "store_false"),
]
FRAMEWORK = [
    (("--framework",), "framework", None, Path, None, True, "store"),
    (("--lexicon",), "lexicon", None, Path, None, False, "store"),
]
PERCENTILE = [(("--percentile",), "percentile", 75.0, float, None, False, "store")]
NORM = [(("--norm",), "normalization", "zscore", None, NORMALIZATIONS, False, "store")]
IN_DIR = [(("--in",), "in_dir", None, Path, None, True, "store")]

SURFACE = {
    "analyze": CORPUS + FRAMEWORK + PERCENTILE + NORM,
    "synth": [
        (("--spec",), "spec", None, Path, None, True, "store"),
        (("--out",), "out", None, Path, None, True, "store"),
    ],
    "trends": CORPUS,
    "similarity": IN_DIR + FRAMEWORK,
    "associate": IN_DIR + PERCENTILE,
    "salience": IN_DIR + FRAMEWORK[:1] + NORM,
    "render": IN_DIR
    + [
        (("--topics",), "topics", None, None, None, True, "store"),
        (("--bin",), "bin_label", None, None, None, False, "store"),
    ],
}

ACTIONS = {
    argparse._StoreAction: "store",
    argparse._StoreFalseAction: "store_false",
    argparse._VersionAction: "version",
}


def _options(parser: argparse.ArgumentParser) -> list[tuple]:
    return [
        (
            tuple(action.option_strings),
            action.dest,
            action.default,
            action.type,
            None if action.choices is None else tuple(action.choices),
            action.required,
            ACTIONS.get(type(action), type(action).__name__),
        )
        for action in parser._actions
        if not isinstance(action, (argparse._HelpAction, argparse._SubParsersAction))
    ]


def test_top_level_takes_only_version():
    parser = cli.build_parser()
    assert _options(parser) == [
        (("--version",), "version", argparse.SUPPRESS, None, None, False, "version")
    ]


def test_every_subcommand_has_exactly_the_pinned_options():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sub.required and sub.dest == "command"
    assert list(sub.choices) == list(SURFACE)
    for name, subparser in sub.choices.items():
        assert _options(subparser) == SURFACE[name], name
