"""The scripts' command lines: each script's parser, caught as its main()
parses, gives every option a default of the option's own type. argparse
converts a string default by the option's type but leaves any other default
as it is, so a default read from a library object that is not a plain value
would reach the library unconverted."""

from __future__ import annotations

import argparse
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


class _Parsed(Exception):
    def __init__(self, parser: argparse.ArgumentParser) -> None:
        self.parser = parser


def _parser_of(script: Path, monkeypatch) -> argparse.ArgumentParser:
    spec = importlib.util.spec_from_file_location(f"script_{script.stem}", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def caught(parser, *args, **kwargs):
        raise _Parsed(parser)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", caught)
    with pytest.raises(_Parsed) as parsed:
        module.main()
    return parsed.value.parser


def test_scripts_found():
    assert [s.name for s in SCRIPTS] == [
        "artifact_diff.py", "burst_sweep.py", "run_news_scale.py",
    ]


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda s: s.stem)
def test_every_default_is_a_plain_value_of_its_option_type(script, monkeypatch):
    parser = _parser_of(script, monkeypatch)
    for action in parser._actions:
        default = action.default
        if default is None or default is argparse.SUPPRESS:
            continue
        assert isinstance(default, (str, int, float, bool)), (action.dest, default)
        if action.type is not None and not isinstance(default, str):
            assert isinstance(default, action.type), (action.dest, default)
