"""The options of a run, the bookkeeping of its stages, and the artifact
readers that need no numpy.

`salience.cli` imports this module and nothing heavier, so a process whose
subcommand runs no stage of the pipeline (`render`, `synth`, `--help`,
`--version`) loads neither numpy nor the stage modules. It holds:

- `RunConfig`, the options of one `analyze` run, and the choices of two of
  them, `GRANULARITIES` and `NORMALIZATIONS`;
- `STAGES`, the one declaration of each stage: the artifacts it reads and
  writes and the fields its subcommand takes;
- `stage_run` and `_Run`, which time each stage, name it in its errors,
  make its folders and remove what it wrote and made when it fails;
- the CSV reader every CSV loader opens its file with (`_read_csv`,
  `_CsvArtifact`), including the record reader of the two large CSVs;
- the readers of the artifacts `render` draws: `load_trend_csv` and
  `load_matrix_json`.

`salience.pipeline` re-exports `RunConfig` and `load_trend_csv`.
"""

from __future__ import annotations

import csv
import itertools
import math
import operator
import re
import sys
import time
from array import array
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Iterator, NamedTuple

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from .errors import ConsistencyError, InputError, SalienceError, load_json

GRANULARITIES = ("month", "week", "day")
NORMALIZATIONS = ("zscore", "minmax")


class RunConfig(NamedTuple):
    """The options of one `analyze` run, as an immutable named tuple
    (`_replace` makes a changed copy). The CLI's flags set these fields by
    name and take their defaults from `_field_defaults`."""

    corpus: Path
    framework: Path
    out_dir: Path
    lexicon: Path | None = None
    n: int = 2
    granularity: str = "month"
    min_total: int = 5
    percentile: float = 75.0
    normalization: str = "zscore"
    include_titles: bool = True

    def validate(self) -> None:
        # The scan refuses n, min_total and granularity before it reads.
        if not 0.0 <= self.percentile <= 100.0:
            raise InputError("percentile must lie in [0, 100]")
        if self.normalization not in NORMALIZATIONS:
            raise InputError(f"unknown normalization {self.normalization!r}")

    def echo(self) -> dict:
        """The fields as the manifest records them, each path as text."""
        return {name: str(v) if isinstance(v, Path) else v for name, v in self._asdict().items()}


class Stage(NamedTuple):
    """One stage of the pipeline, as names and globs. A subcommand whose
    options hold no `out_dir` names its directory by `--in`."""

    help: str  # what its subcommand does
    reads: tuple[str, ...] = ()  # artifacts it reads from the output directory
    writes: tuple[str, ...] = ()  # globs of those it writes there
    options: tuple[str, ...] = ()  # the RunConfig fields its subcommand takes


# The stages in run order. `analyze` runs all but render and takes every
# stage's options, each field once. render is hand-wired in the CLI; it is
# declared for its subcommand's `--in` and its cleanup.
STAGES = {
    "trends": Stage(
        "stage: n-gram table and usage trends",
        writes=("ngram_trends.csv", "ngram_table.json"),
        options=("corpus", "out_dir", "n", "granularity", "min_total", "include_titles"),
    ),
    "similarity": Stage(
        "stage: n-gram/topic similarity",
        reads=("ngram_table.json",),
        writes=("similarity.csv",),
        options=("framework", "lexicon"),
    ),
    "associate": Stage(
        "stage: bivariate topic association",
        reads=("ngram_trends.csv", "similarity.csv"),
        writes=("associations.json",),
        options=("percentile",),
    ),
    "salience": Stage(
        "stage: topic salience trends and matrices",
        reads=("ngram_trends.csv", "associations.json"),
        writes=("topic_usage.csv", "salience.csv", "salience_normalized.csv", "matrices/*.json"),
        options=("framework", "normalization"),
    ),
    "render": Stage(
        "stage: SVG charts from prior artifacts",
        reads=("salience.csv", "salience_normalized.csv", "matrices/<bin>.json"),
        writes=("render/*.svg",),
    ),
}


# --- CSV artifacts ----------------------------------------------------------

# A number as the CSV writers write it, a float's repr, or as float() reads
# one with no sign, dot or exponent spelled otherwise: "-1", "1e999" and
# "-nan" parse, and the loaders refuse what the writers cannot write.
_NUMBER = r"-?(?:[0-9]+(?:\.[0-9]+)?(?:e[-+]?[0-9]+)?|inf|nan)"
# Number texts, each followed by a comma.
_NUMBERS = re.compile(rf"(?:{_NUMBER},)*")
# The record reader reads at most this many characters at a time.
_READ_CHARS = 1 << 16


class _CsvArtifact:
    """A CSV artifact open for reading: its header and first rows through
    csv.reader (`header`, `rows`), then, for the two large artifacts, all
    rows after the header as records of a fixed number of rows, each matched
    by one compiled pattern (`records`). `line` is the first physical line
    of the row or record being read."""

    def __init__(self, fh, path: Path):
        self.fh, self.path = fh, path
        self.line = self.body = 1
        self.unread: list[str] = []  # lines after the header, read by `rows`

    def _lines(self) -> Iterator[str]:
        for text in iter(self.fh.readline, ""):
            self.unread.append(text)
            yield text

    def header(self) -> list[str]:
        row = next(csv.reader(self._lines()), [])
        self.line = self.body = 1 + len(self.unread)
        self.unread = []
        return row

    def rows(self) -> Iterator[list[str]]:
        """The rows after the header. `records` reads them again."""
        for row in csv.reader(self._lines()):
            yield row
            self.line = self.body + len(self.unread)

    def records(
        self,
        pattern: str,
        rows: list[str],
        expected: list[str],
        width: int,
        lines: int,
        keys: list[str] | None = None,
    ) -> tuple[list[str], array]:
        """The n-grams and the numbers of the records from the first row
        after the header to the end of the file. A record is `width` numbers
        under an n-gram, in `lines` physical lines of CSV rows, which `rows`
        match and `expected` describes, one each. `pattern` finds records
        fast: it matches what `rows` joined match, any text where a number
        goes; its first group is the n-gram, and each other group holds one
        number or, if there is only one, all of them comma-separated. The
        n-grams must come in sorted key order.

        Given `keys`, the n-grams of the usage trends, the records must
        carry exactly those, in order, and `keys` is what is returned: the
        first record whose n-gram is not the next key, once its form and
        order have passed, or the first key left over at the end of the
        file, is a ConsistencyError naming the smaller of the two n-grams,
        the smallest that one file has and the other lacks.

        The text is matched a block of at most _READ_CHARS characters, plus
        the record that straddles its end, at a time. Each distinct number
        text of a block is checked and parsed once. A last line may lack its
        newline."""
        compiled = re.compile(pattern)
        match, groups = compiled.match, compiled.groups
        read: list[str] = []  # the n-grams, when no `keys` are given
        done, last = 0, ""  # records read, and the last one's n-gram
        # Given `keys`, the values fill an array of their final size.
        values = array("d", [0.0]) * (width * len(keys or ()))
        text, end = "".join(self.unread), False
        self.line, self.unread = self.body, []
        while not end:
            block = self.fh.read(_READ_CHARS)
            end = not block
            if end and text and not text.endswith("\n"):
                block = "\n"  # the last line's missing newline
            text += block
            cells, count, at = [], 0, 0
            while record := match(text, at):
                cells += record.groups()
                count += 1
                at = record.end()
            if count:
                names = cells[::groups]
                if groups == 2:
                    cells = ",".join(cells).split(",")
                # A record with more or fewer numbers moves the n-grams.
                if len(cells) != count * (width + 1) or cells[:: width + 1] != names:
                    raise self._refusal(text, rows, expected, lines)
                del cells[:: width + 1]
                distinct = set(cells)
                if not _NUMBERS.fullmatch(",".join(distinct) + ","):
                    raise self._refusal(text, rows, expected, lines)
                floats = dict(zip(distinct, map(float, distinct)))
                parsed = array("d", list(map(floats.__getitem__, cells)))
                values[done * width : (done + count) * width] = parsed
                if not all(map(operator.lt, [last, *names], names)):
                    seen = [last]
                    for name in names:  # to name the first out of order
                        _append_key(seen, name)
                        self.line += lines
                if keys is None:
                    read += names
                elif names != keys[done : done + count]:
                    raise _different_ngrams(names, keys[done : done + count])
                done, last = done + count, names[-1]
                self.line += lines * count
            text = text[at:]
            # A record cut by the block's end matches once the next block
            # is read; a whole one that does not match is refused.
            if text and (end or text.count("\n") >= lines):
                raise self._refusal(text, rows, expected, lines)
        if keys is None:
            return read, values
        if done < len(keys):
            raise _different_ngrams([], keys[done:])
        return keys, values

    def _refusal(self, text: str, rows: list[str], expected: list[str], lines: int):
        """The InputError for the first record of `text` (which starts at
        `line`) that does not match `rows` joined: it names the first of its
        rows that does not match, after the rows before it, and quotes it."""
        at = 0
        whole = re.compile("".join(rows)).match
        while record := whole(text, at):
            at = record.end()
            self.line += lines
        start = at
        for prefix, wanted in zip(itertools.accumulate(rows), expected):
            record = re.compile(prefix).match(text, start)
            if record is None:
                break
            at = record.end()
        line = self.line + text.count("\n", start, at)
        found = "the end of the file"
        if at < len(text):
            found = repr(text[at : text.find("\n", at)][:80])
        return InputError(f"{self.path}: line {line}: expected {wanted}, found {found}")


@contextmanager
def _read_csv(path: Path, what: str, stage: str) -> Iterator[_CsvArtifact]:
    """Open a CSV artifact, reading CR and CRLF line ends, inside quoted
    cells too, as LF. A ValueError or csv.Error raised while it is read (an
    n-gram out of order, a byte that is not UTF-8) becomes an InputError
    naming the file and the line being read."""
    if not path.is_file():
        raise InputError(f"{what} not found: {path} (run the {stage} stage first)")
    with path.open("r", encoding="utf-8") as fh:
        artifact = _CsvArtifact(fh, path)
        try:
            yield artifact
        except (csv.Error, ValueError) as exc:
            raise InputError(f"{path}: line {artifact.line}: {exc}") from exc


def _append_key(keys: list[str], text: str) -> None:
    """Append the n-gram `text`, which must follow the last one in sorted key
    order: row order stands for key order."""
    if keys and text <= keys[-1]:
        raise ValueError(f"n-gram {text!r} repeats or is out of sorted order")
    keys.append(text)


def _different_ngrams(read: list[str], wanted: list[str]) -> ConsistencyError:
    """The refusal of similarities whose n-grams `read` are not the usage
    trends' n-grams `wanted` at the same rows. It names the smaller n-gram
    of the first pair that differs, or else the first past the shorter
    list's end: with both lists sorted, the smallest n-gram only one has."""
    sample = next((min(a, b) for a, b in zip(read, wanted) if a != b), None)
    if sample is None:
        sample = (read[len(wanted) :] + wanted[len(read) :])[0]
    return ConsistencyError(
        "ngram_trends.csv and similarity.csv cover different n-gram sets "
        f"(e.g. {sample!r})"
    )


# --- the artifacts render draws ----------------------------------------------


def load_trend_csv(path: Path) -> tuple[dict[str, list[float]], list[str]]:
    """Inverse of `write_trend_csv`: per-topic values plus the bin labels.
    Refuses a row whose length differs from the header's, a topic id that
    repeats, a cell that is not a number as the writer spells one, and a
    value that is not finite, naming its topic and bin."""
    trends: dict[str, list[float]] = {}
    with _read_csv(path, "trend table", "salience") as artifact:
        header = artifact.header()
        if header[:1] != ["topic_id"]:
            raise InputError(f"{path}: line 1: unexpected header {header}")
        for row in artifact.rows():
            if len(row) != len(header):
                raise ValueError(f"{len(row)} cells, header has {len(header)}")
            topic_id, *values = row
            if topic_id in trends:
                raise ValueError(f"topic {topic_id!r} repeats")
            if not _NUMBERS.fullmatch(",".join([*values, ""])):
                bad = next(v for v in values if not _NUMBERS.fullmatch(v + ","))
                raise ValueError(f"expected a number for each bin, found {bad!r}")
            trends[topic_id] = [float(v) for v in values]
    for topic_id, values in trends.items():
        for label, value in zip(header[1:], values):
            if not math.isfinite(value):
                raise InputError(f"{path}: {topic_id!r} at {label!r}: {value!r} is not finite")
    return trends, header[1:]


def load_matrix_json(path: Path) -> dict:
    """A salience matrix that `write_matrix_json` wrote, as its payload.
    Refuses a bin that is not the label the file is named by
    (matrices/<label>.json), labels that are not lists of strings, and
    values that are not one row of finite numbers per grid row, one per grid
    column, or, without a grid, one row of finite numbers, one per topic."""
    payload = load_json(path, "salience matrix", " (run the salience stage first)")
    if not isinstance(payload, dict) or not {"bin", "rows", "columns", "values"} <= payload.keys():
        raise InputError(f"{path}: bad salience matrix payload")
    label = payload["bin"]
    if not (isinstance(label, str) and path.name == f"{label}.json"):
        raise InputError(f"{path}: matrix bin {label!r} is not the bin the file is named by")
    rows, columns = payload["rows"], payload["columns"]
    if rows is None and columns is None:
        # No grid: one row of values, one per topic.
        topics = payload.get("topics")
        shape = (1, len(topics)) if _is_strings(topics) else None
    else:
        shape = (len(rows), len(columns)) if _is_strings(rows) and _is_strings(columns) else None
    if shape is None:
        raise InputError(f"{path}: matrix rows, columns and topics must be lists of strings")
    height, width = shape
    values = payload["values"]
    if not (
        isinstance(values, list)
        and len(values) == height
        and all(isinstance(row, list) and len(row) == width for row in values)
        and all(_is_finite_number(v) for row in values for v in row)
    ):
        raise InputError(f"{path}: matrix values must be {height} rows of {width} finite numbers")
    return payload


def _is_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _is_finite_number(value) -> bool:
    """Whether a value json.loads returned is a finite number: an int or a
    float (a bool is neither) of at most the largest float's size."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


# --- stage runs ---------------------------------------------------------------


def make_dir(path: Path) -> None:
    """Make the output directory `path` and any missing parents; a path that
    cannot be one is an InputError naming it."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot make output directory {path}: {exc.strerror}") from exc


def _peak_rss_mib() -> float | None:
    """This process's RSS high-water mark in MiB, or None without `resource`."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in bytes on macOS and in KiB elsewhere.
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


class _Run:
    """The one owner of a run's folders: tracks the artifacts it writes and
    the folders it makes, so a failed run removes only what it made, and
    each stage's wall and CPU time and its end's RSS high-water mark."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.written: list[Path] = []
        self.made: list[Path] = []  # folders the run made, innermost first
        self.folder: Path | None = None  # the last target's folder
        self.timings: dict[str, dict[str, float | None]] = {}

    def target(self, *relative: str) -> Path:
        """An artifact's path; its folder is made, parents too, if new."""
        path = self.out_dir.joinpath(*relative)
        if path.parent != self.folder:
            self.folder = folder = path.parent
            self.made[:0] = itertools.takewhile(lambda f: not f.exists(), [folder, *folder.parents])
            make_dir(folder)
        self.written.append(path)
        return path

    def cleanup(self) -> None:
        """Remove what the run wrote, then each folder it made once empty."""
        for path in self.written:
            with suppress(OSError):
                path.unlink(missing_ok=True)
        for folder in self.made:
            with suppress(OSError):
                folder.rmdir()

    @contextmanager
    def stage(self, name: str):
        started, cpu = time.perf_counter(), time.process_time()
        try:
            yield
        except SalienceError as exc:
            raise type(exc)(f"{name}: {exc}") from exc
        except OSError as exc:  # a path the stage cannot read or write
            where = f"{exc.filename}: " if exc.filename else ""
            raise InputError(f"{name}: {where}{exc.strerror or exc}") from exc
        except Exception as exc:  # unexpected bug: report as internal, named stage
            raise ConsistencyError(f"{name}: {type(exc).__name__}: {exc}") from exc
        finally:
            self.timings[name] = {
                "wall_s": time.perf_counter() - started,
                "cpu_s": time.process_time() - cpu,
                "peak_rss_mib": _peak_rss_mib(),
            }


@contextmanager
def stage_run(out_dir: Path, name: str) -> Iterator[_Run]:
    """Rerun one stage over an output directory, as the stage subcommands do.

    Errors name the stage. On failure the stage's outputs are removed, an
    earlier run's included, so none is left looking current, and so are the
    folders the run made, `--out` included. The manifest is left as it is.
    """
    stage = STAGES[name]
    run = _Run(out_dir)
    try:
        with run.stage(name):
            yield run
    except BaseException:
        run.written += [path for glob in stage.writes for path in out_dir.glob(glob)]
        run.cleanup()
        raise
