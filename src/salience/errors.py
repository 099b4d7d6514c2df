"""Exception types shared across the package, and the JSON input reader that
raises them."""

import json
from pathlib import Path


class SalienceError(Exception):
    """Base class for every error this package raises deliberately."""


class InputError(SalienceError):
    """Bad user-supplied input: files, schemas, configuration. CLI exit code 1."""


class ConsistencyError(SalienceError):
    """Pipeline state violated an internal invariant. CLI exit code 2."""


def load_json(path, what: str, hint: str = "", **options):
    """The JSON document in the UTF-8 file `path`, read by json.loads with
    `options`. A missing file is an InputError "<what> not found: <path>"
    followed by `hint`; text that is not UTF-8 or not JSON is one naming the
    file."""
    path = Path(path)
    if not path.is_file():
        raise InputError(f"{what} not found: {path}{hint}")
    try:
        return json.loads(path.read_text(encoding="utf-8"), **options)
    except ValueError as exc:
        raise InputError(f"{path}: malformed JSON: {exc}") from exc
