"""Read, validate, and time-bin a corpus of time-stamped documents.

`read_corpus` is the one record reader: it yields validated Documents one
at a time, so that `analyze` and the trends stage stream the file through
the n-gram scan and hold no document list. `span_binning` gives the time
axis spanning two dates; the scan fixes it from the dates it read.
`load_corpus`, `build_binning` and `bin_documents` hold a whole corpus,
binned as (bin index, document) pairs: the tests' reference for the scan.

The time axis defined here (contiguous, uniform bins covering the full date
span, empty bins retained) is shared by every downstream trend computation.
"""

from __future__ import annotations

import datetime as dt
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .errors import ConsistencyError, InputError
from .runs import GRANULARITIES


@dataclass(frozen=True)
class Document:
    id: str
    date: dt.date
    text: str
    title: str | None = None


def analysis_text(doc: Document, include_title: bool = True) -> str:
    """Text a document contributes to analysis; the title, when present and
    requested, is prepended with a sentence break."""
    if include_title and doc.title and doc.title.strip():
        return doc.title.strip() + "\n\n" + doc.text
    return doc.text


def read_corpus(path: str | Path) -> Iterator[Document]:
    """Yield a JSONL corpus file's validated Documents one at a time, in
    file order. Each record holds an `id`, a `date` as YYYY-MM-DD, a `text`
    and an optional `title`.

    Raises InputError, naming the file and line, on a malformed line, a
    duplicate id, an unparseable date or empty text; and, once the file is
    read to its end, on a file with no records at all. Between records it
    keeps only the ids seen so far and the date each distinct date string
    parsed to.
    """
    path = Path(path)
    if not path.is_file():
        raise InputError(f"corpus file not found: {path}")

    seen: set[str] = set()
    # Dates repeat across records, and strptime is slow: parse each once.
    dates: dict[str, dt.date] = {}
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                doc = _parse_line(line, seen, dates)
            except InputError as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from exc
            yield doc

    if not seen:
        raise InputError(f"{path}: corpus is empty (no valid records)")


def load_corpus(path: str | Path) -> list[Document]:
    """Every Document of a JSONL corpus file, in file order, refused as
    `read_corpus` refuses them."""
    return list(read_corpus(path))


def _parse_line(line: str, seen: set[str], dates: dict[str, dt.date]) -> Document:
    """One line's Document. `seen` holds the ids of the lines before it and
    `dates` the dates they parsed."""
    try:
        record = json.loads(line)
    except ValueError as exc:
        raise InputError(f"malformed JSON record: {exc}") from exc
    if not isinstance(record, dict):
        raise InputError("record is not a JSON object")

    doc_id = record.get("id")
    if not isinstance(doc_id, str) or not doc_id.strip():
        raise InputError("missing or empty 'id'")
    if doc_id in seen:
        raise InputError(f"duplicate document id {doc_id!r}")

    raw_date = record.get("date")
    if not isinstance(raw_date, str):
        raise InputError(f"record {doc_id!r}: missing 'date'")
    date = dates.get(raw_date)
    if date is None:
        try:
            date = dates[raw_date] = dt.datetime.strptime(raw_date, "%Y-%m-%d").date()
        except ValueError as exc:
            raise InputError(f"record {doc_id!r}: unparseable date {raw_date!r}: {exc}") from exc

    text = record.get("text")
    if not isinstance(text, str) or not text.strip():
        raise InputError(f"record {doc_id!r}: missing or empty 'text'")

    title = record.get("title")
    if title is not None and not isinstance(title, str):
        raise InputError(f"record {doc_id!r}: 'title' must be a string")

    seen.add(doc_id)
    return Document(id=doc_id, date=date, text=text, title=title)


def _add_months(day: dt.date, k: int) -> dt.date:
    year, month0 = divmod(day.year * 12 + (day.month - 1) + k, 12)
    return dt.date(year, month0 + 1, 1)


@dataclass(frozen=True)
class TimeBinning:
    """Contiguous, ordered, non-overlapping time bins covering a date span."""

    granularity: str
    origin: dt.date
    bin_count: int

    def __post_init__(self) -> None:
        if self.granularity not in GRANULARITIES:
            raise InputError(f"unknown granularity {self.granularity!r}")
        if self.bin_count < 1:
            raise InputError("bin_count must be >= 1")

    def index_of(self, day: dt.date) -> int:
        """Bin index for a date; raises InputError when the date is out of span."""
        if self.granularity == "month":
            idx = (day.year * 12 + day.month) - (self.origin.year * 12 + self.origin.month)
        elif self.granularity == "week":
            idx = (day - self.origin).days // 7
        else:
            idx = (day - self.origin).days
        if not 0 <= idx < self.bin_count:
            raise InputError(f"date {day.isoformat()} is outside the binning span")
        return idx

    def bin_start(self, index: int) -> dt.date:
        if not 0 <= index < self.bin_count:
            raise InputError(f"bin index {index} out of range [0, {self.bin_count})")
        if self.granularity == "month":
            return _add_months(self.origin, index)
        if self.granularity == "week":
            return self.origin + dt.timedelta(days=7 * index)
        return self.origin + dt.timedelta(days=index)

    def label(self, index: int) -> str:
        start = self.bin_start(index)
        if self.granularity == "month":
            return f"{start.year:04d}-{start.month:02d}"
        return start.isoformat()

    def labels(self) -> list[str]:
        return [self.label(t) for t in range(self.bin_count)]


def build_binning(docs: list[Document], granularity: str = "month") -> TimeBinning:
    """Derive the binning that spans the corpus: from the bin holding the
    earliest date through the bin holding the latest, empty bins included."""
    if not docs:
        raise InputError("cannot build a binning from an empty document list")
    return span_binning(min(d.date for d in docs), max(d.date for d in docs), granularity)


def span_binning(lo: dt.date, hi: dt.date, granularity: str = "month") -> TimeBinning:
    """The binning from the bin holding date lo through the bin holding
    date hi, empty bins included. TimeBinning refuses an unknown granularity."""
    if granularity == "month":
        origin = dt.date(lo.year, lo.month, 1)
        count = (hi.year * 12 + hi.month) - (lo.year * 12 + lo.month) + 1
    elif granularity == "week":
        origin = lo - dt.timedelta(days=lo.weekday())  # Monday of the first week
        count = (hi - origin).days // 7 + 1
    else:
        origin = lo
        count = (hi - lo).days + 1
    return TimeBinning(granularity=granularity, origin=origin, bin_count=count)


def bin_documents(docs: list[Document], binning: TimeBinning) -> list[tuple[int, Document]]:
    """(bin index, document) pairs in bin order, input order within a bin.
    Raises ConsistencyError on a duplicate id and InputError, naming the
    document, on a date outside the binning."""
    seen: set[str] = set()
    pairs = []
    for doc in docs:
        if doc.id in seen:
            raise ConsistencyError(f"duplicate document id {doc.id!r} during binning")
        try:
            pairs.append((binning.index_of(doc.date), doc))
        except InputError as exc:
            raise InputError(f"document {doc.id!r}: {exc}") from exc
        seen.add(doc.id)
    return sorted(pairs, key=lambda pair: pair[0])
