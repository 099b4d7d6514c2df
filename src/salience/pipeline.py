"""End-to-end batch pipeline and file-based artifact exchange.

Each stage of `runs.STAGES` is one function here (`trends_stage`,
`similarity_stage`, `associate_stage`, `salience_stage`) that writes its
artifacts and returns its summary line. `run_analyze` calls the four in
order, each handed what the ones before it made (`_Handoff`), and writes a
manifest hashing every artifact. `run_stage`, behind each stage
subcommand, hands a stage nothing: it reads each input from its artifact
(the `load_*` readers invert the `write_*` writers, and refuse what they
cannot have written). Errors name the failing stage, and its partial
outputs are removed; a failed subcommand also removes what an earlier run
of its stage wrote. The corpus is never held: the JSONL file streams
through the n-gram scan (`build_ngram_table`) once, in `analyze`'s ingest
stage. Modules that only some stages run (`salience.corpus`, `.ngrams`,
`.topics`, `.salience`) are imported when they run, so `associate`, for
one, loads none of them. `salience.runs`, which loads no numpy, holds
`RunConfig`, `stage_run`, the CSV reader and the readers `render` needs;
`RunConfig` and `load_trend_csv` are re-exported here.

Between stages each quantity is one numpy array whose row i is the i-th
n-gram in sorted key order (K n-grams, B bins, T topics, M kept
instances):

- the n-gram table: the K sorted keys, each an n-gram's text as every
  artifact names it, (K × B) int32 counts, and the contexts in CSR form,
  (K + 1,) int64 starts into one (M, 2) int32 array of (bin, sentence id)
  pairs; in memory it also holds its sentences' token ids for the
  similarity kernel, which `ngram_table.json` does not store (its loader
  tokenizes the sentences) and the kernel releases once it has used them;
- usage: (K × B) floats, count / bin total, 0 in empty bins;
- similarities: (K × T) floats, columns in framework topic order;
- variability: (K,) floats, each row's relative standard deviation;
- associations: per topic, member row indices in member order;
- topic usage and salience: (T × B) floats, rows in topic order, and the
  salience matrices: the same with rows in grid order.

The loaders return the same arrays, so `analyze` and the stage subcommands
share one representation. Every bounded pass over them takes its rows in
the blocks of `association._blocks`, each the longest run of rows within a
budget or else one row: `_BLOCK` (2**14) elements, integers as in the
counts and the similarity kernel, or cells rendered to text or reduced in
float temporaries. The CSV and table writers render
straight from the arrays a block at a time, each block by a function call
whose strings are freed before the next block's are made, so what a writer
holds does not grow with the table; their bytes are those of csv.writer
and of one compact json.dumps of the whole payload. The
associations writer fills line templates a topic at a time, and the matrix
writer fills one template for every bin, a block of bins at a time, with
the bytes of json.dumps(payload, indent=2). The loaders of
the two large CSVs read the header (and the first n-gram's similarity
rows) with csv.reader and the rest as records of one compiled pattern, a
bounded block of text at a time (`_CsvArtifact.records`), so they accept
the writers' layout only. The similarity loader takes the usage trends'
keys and checks each record's n-gram against them as it reads, so the
associate stage holds one key list.

All exports are deterministic: rows follow sorted n-gram order and
framework topic order, floats are rendered as shortest round-trip decimals
(their repr, made once per distinct value in a block), and reruns with
identical inputs and config are byte-identical except for the manifest's
timings.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import itertools
import json
import os
import re
from contextlib import suppress
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .association import (
    _BLOCK,
    TopicAssociation,
    _blocks,
    associate,
    percentile,
    relative_std_devs,
)
from .errors import ConsistencyError, InputError, load_json

# Defined in salience.runs, which needs no numpy. RunConfig and
# load_trend_csv are re-exported here.
from .runs import (
    _NUMBER,
    RunConfig,
    _append_key,
    _is_finite_number,
    _read_csv,
    _Run,
    load_trend_csv,
    stage_run,
)

if TYPE_CHECKING:
    from .corpus import TimeBinning
    from .ngrams import NgramTable
    from .topics import TopicFramework, VectorSpace

# The ngram_table.json layout that write_table_json writes and load_table_json reads.
TABLE_VERSION = 2
# An n-gram's text: tokenizer tokens joined by single spaces.
_NGRAM_TEXT = re.compile(r"[^\W_]+(?: [^\W_]+)*")


def _csv_cell(value: str) -> str:
    """`value` as csv.writer writes it between two other cells."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(["", value, ""])
    return buffer.getvalue()[1:-2]


# json.dumps spells the floats that have no decimal form so.
_JSON_SPECIALS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _distinct_texts(block: np.ndarray, json_floats: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The repr of each distinct value of a 2-D block of floats or integers,
    as an object array, and each cell's index into it, shaped as the block;
    given `json_floats`, NaN and infinities as json.dumps spells them. Each
    distinct bit pattern, found by sorting the block's bits, is rendered
    once, so -0.0 keeps its sign."""
    bits = np.ascontiguousarray(block).view(f"u{block.itemsize}").ravel()
    ordered = np.sort(bits)
    first = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    distinct = ordered[first]
    texts = [repr(v) for v in distinct.view(block.dtype).tolist()]
    if json_floats:
        texts = [_JSON_SPECIALS.get(text, text) for text in texts]
    return np.array(texts, dtype=object), np.searchsorted(distinct, bits).reshape(block.shape)


def _cell_texts(block: np.ndarray, json_floats: bool = False) -> list[list[str]]:
    """The repr of every cell of a 2-D block, as rows of strings
    (`_distinct_texts`)."""
    texts, index = _distinct_texts(block, json_floats)
    return texts[index].tolist()


def _check_cells(path: Path, values: np.ndarray, rows: list, columns: list, unit: bool):
    """Refuse a loaded array holding a value that is not finite or, given
    `unit`, not in [0, 1], naming its row (n-gram or topic) and column. The
    array's min and max decide, with no temporary array; NaN reaches both."""
    lo, hi = values.min(initial=0.0), values.max(initial=0.0)
    if (0.0 <= lo and hi <= 1.0) if unit else np.isfinite([lo, hi]).all():
        return
    ok = (values >= 0.0) & (values <= 1.0) if unit else np.isfinite(values)
    i, j = divmod(int(ok.argmin()), values.shape[1])
    bound = "in [0, 1]" if unit else "finite"
    raise InputError(f"{path}: {rows[i]!r} at {columns[j]!r}: {values.item(i, j)!r} is not {bound}")


def _json_block(brackets: str, items: list[str], indent: str) -> str:
    """A list or object laid out as json.dumps(indent=2) lays it out, from
    its rendered items; `brackets` is "[]" or "{}" and `indent` the indent
    of the line the block opens on."""
    if not items:
        return brackets
    inner = "\n" + indent + "  "
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}\n{indent}{brackets[1]}"


def _json_strings(texts) -> str:
    """A list of strings as a field of a top-level JSON object."""
    return _json_block("[]", list(map(encode_basestring_ascii, texts)), "  ")


def _sha256(path: Path) -> str:
    # Imported here: hashlib maps OpenSSL (~3.6 MiB), which only the manifest needs.
    import hashlib

    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


# --- artifact writers / readers --------------------------------------------


def _write_wide_csv(path: Path, header: list[str], heads, values: np.ndarray) -> None:
    """A csv.writer header, then a line per row of `values`: its head, from
    `heads(rows)` for each block of rows, and the repr of each of its cells,
    rendered _BLOCK cells at a time. No repr needs quoting."""

    def block(rows: slice) -> str:
        lines = zip(heads(rows), _cell_texts(values[rows]))
        return "".join([f"{head},{','.join(row)}\n" for head, row in lines])

    with path.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for rows in _blocks(values.shape[1] * np.arange(1, len(values) + 1), _BLOCK):
            fh.write(block(rows))


def write_ngram_trends_csv(
    path: Path, table: NgramTable, usage: np.ndarray, bin_labels: list[str]
) -> None:
    """One row per n-gram: its name, total and usage trend, floats as their
    shortest round-trip repr (`_write_wide_csv`). An n-gram's text is word
    tokens joined by spaces, and neither it nor a count needs quoting."""

    def heads(rows: slice) -> list[str]:
        totals = np.diff(table.context_start[rows.start : rows.stop + 1]).tolist()
        return [f"{name},{total}" for name, total in zip(table.keys[rows], totals)]

    _write_wide_csv(path, ["ngram", "total", *bin_labels], heads, usage)


def load_ngram_trends_csv(path: Path) -> tuple[list[str], np.ndarray, list[str]]:
    """Inverse of `write_ngram_trends_csv`: the n-gram keys, their usage as one
    (n-grams × bins) array, and the bin labels. Each row after the header is
    one record: an n-gram, a positive integer total and one number per bin.
    Refuses an n-gram that repeats or breaks sorted key order, a bin whose
    usage sums above 1, and a row with no positive usage: every tabled
    n-gram occurs at least once."""
    with _read_csv(path, "n-gram trends", "trends") as artifact:
        header = artifact.header()
        bins = len(header) - 2
        if header[:2] != ["ngram", "total"] or bins < 1:
            raise InputError(f"{path}: line 1: unexpected header {header}")
        head = rf"({_NGRAM_TEXT.pattern}),[1-9][0-9]*,"
        row = rf"{head}({_NUMBER}(?:,{_NUMBER}){{{bins - 1}}})\n"
        expected = f"an n-gram, a positive integer total and a number for each of {bins} bins"
        keys, values = artifact.records(rf"{head}(.*)\n", [row], [expected], bins, 1)
        if not keys:
            raise ValueError("no n-gram rows")
    usage = np.frombuffer(values).reshape(len(keys), bins)
    _check_cells(path, usage, keys, header[2:], unit=True)
    # Each cell is its count / the bin's total rounded once, so a bin's cells
    # sum exactly to at most 1 + 2**-53. Summing K of them in floats, in any
    # order, errs by at most about K * 2**-53, so a sum above 1 + K * 2**-52
    # cannot come from the writer.
    sums = usage.sum(axis=0)
    over = sums > 1.0 + len(keys) * 2.0**-52
    if over.any():
        t = int(over.argmax())
        label, total = header[2 + t], sums.item(t)
        raise InputError(f"{path}: usage sum at {label!r}: {total!r} is not at most 1")
    unused = usage.max(axis=1) <= 0.0
    if unused.any():
        i = int(unused.argmax())
        raise InputError(
            f"{path}: line {artifact.body + i}: n-gram {keys[i]!r} has no "
            "positive usage, but every tabled n-gram occurs at least once"
        )
    return keys, usage, header[2:]


def write_table_json(path: Path, table: NgramTable) -> None:
    """Persist the n-gram table for the similarity stage: version 2 lists each
    context sentence once and gives each n-gram's per-bin counts and its
    contexts as [bin, sentence id] pairs.

    The bytes are those of one compact json.dumps of the whole table: names
    and sentences go through the encoder's own ASCII escaper and integers
    through str. Sentences and n-grams are rendered _BLOCK cells at a
    time, a sentence holding one cell per character, since its text is far
    longer than a number's, and an n-gram one cell per bin and one per
    context.
    """
    header = {
        "version": TABLE_VERSION,
        "n": table.n,
        "min_total": table.min_total,
        "include_titles": table.include_titles,
        "granularity": table.binning.granularity,
        "origin": table.binning.origin.isoformat(),
        "bin_labels": table.binning.labels(),
        "bin_totals": table.bin_totals,
    }
    starts = table.context_start
    cells = starts[1:] - starts[0] + len(table.bin_totals) * np.arange(1, len(starts))
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, separators=(",", ":"))[:-1] + ',"sentences":[')
        lengths = np.fromiter(map(len, table.sentences), np.int64, len(table.sentences))
        for rows in _blocks(np.cumsum(lengths), _BLOCK):
            fh.write("," if rows.start else "")
            fh.write(",".join(map(encode_basestring_ascii, table.sentences[rows])))
        fh.write('],"ngrams":{')
        for rows in _blocks(cells, _BLOCK):
            fh.write("," if rows.start else "")
            fh.write(_table_entries(table, rows))
        fh.write("}}\n")


def _table_entries(table: NgramTable, rows: slice) -> str:
    """The ngram_table.json entries of the n-grams in `rows`, joined by commas."""
    ends = table.context_start[rows.start : rows.stop + 1]
    pairs = slice(ends[0], ends[-1])
    bins, sids = table.context_bins[pairs].tolist(), table.context_sids[pairs].tolist()
    contexts = [f"[{t},{sid}]" for t, sid in zip(bins, sids)]
    offsets = (ends - ends[0]).tolist()
    names = map(encode_basestring_ascii, table.keys[rows])
    entries = zip(names, _cell_texts(table.count_rows(rows)), offsets, offsets[1:])
    return ",".join(
        [
            f'{name}:{{"counts":[{",".join(counts)}],"contexts":[{",".join(contexts[a:b])}]}}'
            for name, counts, a, b in entries
        ]
    )


class _Pairs(list):
    """A JSON object's (name, value) pairs in file order, repeats kept."""


def load_table_json(path: Path) -> NgramTable:
    """The n-gram table that `write_table_json` wrote. Refuses any other
    version, a header `_table_header` refuses, an n-gram that is not words
    joined by single spaces or out of sorted order, contexts whose bin or
    sentence id is out of range, counts that differ from the contexts', and
    counts the header cannot hold: a bin's above its total, or an n-gram's
    total below min_total."""
    from .ngrams import NgramTable, intern_sentences

    hint = " (run the trends stage first)"
    raw = load_json(path, "n-gram table", hint, object_pairs_hook=_Pairs)
    payload = dict(raw) if isinstance(raw, _Pairs) else {}
    if payload.get("version") != TABLE_VERSION:
        raise InputError(
            f"{path}: n-gram table version {payload.get('version')!r}, this program reads "
            f"version {TABLE_VERSION}; re-run the trends stage"
        )
    try:
        sentences = payload["sentences"]
        if not isinstance(sentences, list) or not all(isinstance(s, str) for s in sentences):
            raise InputError(f"{path}: sentences must be a list of strings")
        n, min_total, include_titles, binning = _table_header(path, payload)
        bins = binning.bin_count
        keys: list[str] = []
        rows: list[list[int]] = []
        pairs: list[list[int]] = []
        context_start = [0]
        for text, entry in payload["ngrams"]:
            if not _NGRAM_TEXT.fullmatch(text):
                raise InputError(f"{path}: n-gram {text!r} is not words joined by single spaces")
            _append_key(keys, text)
            entry = dict(entry)
            for t, sid in entry["contexts"]:
                if type(t) is not int or not 0 <= t < bins:
                    raise InputError(f"{path}: n-gram {text!r}: bin {t!r} is not one of {bins}")
                if type(sid) is not int or not 0 <= sid < len(sentences):
                    raise InputError(
                        f"{path}: n-gram {text!r}: sentence id {sid!r} is not one of "
                        f"{len(sentences)}"
                    )
            rows.append(entry["counts"])
            pairs += entry["contexts"]
            context_start.append(len(pairs))
        contexts = np.array(pairs, dtype=np.int32).reshape(-1, 2)
        table = NgramTable(
            n=n,
            min_total=min_total,
            include_titles=include_titles,
            binning=binning,
            keys=keys,
            bin_totals=payload["bin_totals"],
            sentences=sentences,
            context_start=np.array(context_start, dtype=np.int64),
            context_bins=contexts[:, 0],
            context_sids=contexts[:, 1],
        )
        for key, row, expected in zip(keys, rows, table.counts.tolist()):
            if row != expected:
                raise InputError(
                    f"{path}: n-gram {key!r}: counts {row!r} are not the "
                    f"{bins} per-bin counts of its contexts"
                )
        in_bins, totals = table.counts.sum(axis=0), np.array(table.bin_totals)
        if (in_bins > totals).any():
            t = int((in_bins > totals).argmax())
            raise InputError(
                f"{path}: bad table header: bin {binning.label(t)!r} holds {in_bins[t]} "
                f"kept instances, above its total {totals[t]}"
            )
        in_ngrams = table.counts.sum(axis=1)
        if (in_ngrams < min_total).any():
            i = int(in_ngrams.argmin())
            raise InputError(
                f"{path}: bad table header: n-gram {keys[i]!r} has "
                f"{in_ngrams[i]} instances, below min_total {min_total}"
            )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: bad n-gram table payload: {exc}") from exc
    del raw, payload, rows, pairs  # freed before tokenizing, which would add to their peak
    table.sentence_tokens = intern_sentences(sentences)
    return table


def _table_header(path: Path, payload: dict) -> tuple[int, int, bool, TimeBinning]:
    """n, min_total, include_titles and the binning of a table's header,
    refused unless n and min_total are integers >= 1, `bin_totals` are
    integers >= 0, the flag is a boolean, `origin` is the first day of a bin
    as ISO text and `bin_labels` are the labels of len(bin_totals) bins from
    it."""
    from .corpus import TimeBinning, span_binning

    titles, granularity, origin = (payload[k] for k in ("include_titles", "granularity", "origin"))
    n, min_total, totals = payload["n"], payload["min_total"], payload["bin_totals"]
    try:
        for name, value in (("n", n), ("min_total", min_total)):
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} {value!r} is not an integer >= 1")
        if not isinstance(totals, list):
            raise ValueError("bin_totals is not a list")
        for total in totals:
            if type(total) is not int or total < 0:
                raise ValueError(f"bin total {total!r} is not an integer >= 0")
        if type(titles) is not bool:
            raise ValueError(f"include_titles {titles!r} is not true or false")
        start = dt.date.fromisoformat(origin)
        binning = TimeBinning(granularity, start, len(totals))
        if span_binning(start, start, granularity).origin.isoformat() != origin:
            raise ValueError(f"origin {origin!r} is not the first day of a {granularity} bin")
        if payload["bin_labels"] != binning.labels():
            raise ValueError(f"bin_labels are not those of {binning.bin_count} bins from {origin}")
    except (InputError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: bad table header: {exc}") from exc
    return n, min_total, titles, binning


def write_similarity_csv(
    path: Path, keys: list[str], sims: np.ndarray, topic_ids: list[str]
) -> None:
    """One row per n-gram and topic, in sorted n-gram order and topic order,
    rendered _BLOCK similarities at a time.

    The bytes are those of csv.writer. Rows are joined by hand: an n-gram's
    text is word tokens joined by spaces and a float repr holds no comma
    or quote, so neither needs quoting; topic ids are arbitrary strings and
    are quoted once each by csv.writer.
    """
    cells = [_csv_cell(topic_id) for topic_id in topic_ids]
    topics = len(topic_ids)

    def block(rows: slice) -> str:
        # Each line is two pieces: its n-gram and a comma, made once per row,
        # and its topic cell, value and line end, made once per distinct
        # (topic, value) pair of the block. A row's text is its tails, each
        # led by the row's n-gram piece.
        texts, index = _distinct_texts(sims[rows])
        pair = index + len(texts) * np.arange(topics)
        distinct, which = np.unique(pair, return_inverse=True)
        column, value = np.divmod(distinct, len(texts))
        tails = [f"{cells[j]},{text}\n" for j, text in zip(column.tolist(), texts[value])]
        lines = zip(keys[rows], np.array(tails, dtype=object)[which.reshape(index.shape)].tolist())
        return "".join([f"{name},{f'{name},'.join(row)}" for name, row in lines])

    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write("ngram,topic_id,similarity\n")
        for rows in _blocks(topics * np.arange(1, len(keys) + 1), _BLOCK):
            fh.write(block(rows))


def load_similarity_csv(path: Path, keys: list[str]) -> tuple[np.ndarray, list[str]]:
    """Inverse of `write_similarity_csv` for the n-grams `keys` of the usage
    trends: their similarities as one (n-grams × topics) array, and the
    topic ids. Every n-gram's rows must be contiguous, the n-grams must come
    in sorted key order, and each must list the topics in the order of the
    first n-gram's. A record's n-gram that is not the next of `keys`, or a
    key with no record, is a ConsistencyError (see `_CsvArtifact.records`).

    csv.reader reads the header and the first n-gram's rows, which give the
    topic ids. From then on each n-gram's rows are one record, matched by
    one pattern: the n-gram, then each topic's cell as the writer quotes it,
    the n-gram repeated on every row, and one number per row."""
    with _read_csv(path, "similarity table", "similarity") as artifact:
        header = artifact.header()
        if header != ["ngram", "topic_id", "similarity"]:
            raise InputError(f"{path}: line 1: unexpected header {header}")
        first: list[list[str]] = []
        for row in artifact.rows():
            if len(row) != 3 or (first and row[0] != first[0][0]):
                break
            first.append(row)
        if not first:
            raise ValueError(
                "expected an n-gram, a topic id and a similarity"
                if artifact.unread
                else "no similarity rows"
            )
        topic_ids = [topic_id for _, topic_id, _ in first]
        quoted = [_csv_cell(topic_id) for topic_id in topic_ids]
        cells = list(map(re.escape, quoted))
        expected = [
            f"{'an' if column == 0 else 'the same'} n-gram, topic {topic_id!r} and a number"
            for column, topic_id in enumerate(topic_ids)
        ]

        def rows(number: str) -> list[str]:
            head = rf"(?P<ngram>{_NGRAM_TEXT.pattern}),{cells[0]},({number})\n"
            return [head, *(rf"(?P=ngram),{cell},({number})\n" for cell in cells[1:])]

        # Only a quoted topic id holds a newline.
        lines = len(quoted) + "".join(quoted).count("\n")
        fast = "".join(rows(r"[^,\n]*"))
        _, values = artifact.records(fast, rows(_NUMBER), expected, len(topic_ids), lines, keys)
    sims = np.frombuffer(values).reshape(len(keys), len(topic_ids))
    _check_cells(path, sims, keys, topic_ids, unit=True)
    return sims, topic_ids


def write_associations_json(
    path: Path,
    associations: dict[str, TopicAssociation],
    keys: list[str],
    sims: np.ndarray,
    rsd: np.ndarray,
) -> None:
    """Each topic's thresholds and members, with each member's n-gram,
    similarity and variability. `associations` lists the topics in the
    column order of `sims`.

    The bytes are those of json.dumps(payload, indent=2) and a newline,
    rendered by line templates: topic ids and n-grams go through the
    encoder's ASCII escaper, floats are spelled as json spells them. Each
    topic's block is written as soon as it is made, so the writer holds one
    topic's text at a time.
    """
    with path.open("w", encoding="utf-8") as fh:
        opening = "{\n  "
        for column, (topic_id, assoc) in enumerate(associations.items()):
            rows = list(assoc.members)
            names = map(encode_basestring_ascii, map(keys.__getitem__, rows))
            values = np.stack([sims[rows, column], rsd[rows]])
            sim_texts, rsd_texts = _cell_texts(values, json_floats=True)
            members = [
                f'{{\n        "ngram": {name},\n        "similarity": {sim},\n'
                f'        "rsd": {var}\n      }}'
                for name, sim, var in zip(names, sim_texts, rsd_texts)
            ]
            thresholds = np.array([[assoc.sim_threshold, assoc.rsd_threshold]])
            sim_threshold, rsd_threshold = _cell_texts(thresholds, json_floats=True)[0]
            fh.write(
                f'{opening}{encode_basestring_ascii(topic_id)}: {{\n'
                f'    "sim_threshold": {sim_threshold},\n'
                f'    "rsd_threshold": {rsd_threshold},\n'
                f'    "members": {_json_block("[]", members, "    ")}\n  }}'
            )
            opening = ",\n  "
        fh.write("\n}\n" if associations else "{}\n")


def load_associations_json(path: Path, keys: list[str]) -> dict[str, TopicAssociation]:
    """Inverse of `write_associations_json`: each topic's members as row
    indices into `keys`, the n-grams of the usage trends. A member outside
    `keys` is a ConsistencyError; a member listed twice in one topic, and a
    threshold that is not a finite JSON number, are refused."""
    payload = load_json(path, "associations", " (run the associate stage first)")
    if not isinstance(payload, dict):
        raise InputError(f"{path}: associations must be a JSON object of topics")
    row_of = {key: row for row, key in enumerate(keys)}
    out: dict[str, TopicAssociation] = {}
    try:
        for topic_id, entry in payload.items():
            members: dict[int, None] = {}  # the rows, in member order
            for member in entry["members"]:
                ngram = member["ngram"]
                row = row_of.get(ngram)
                if row is None:
                    raise ConsistencyError(
                        f"topic {topic_id!r}: no usage trend for member {ngram!r}"
                    )
                if row in members:
                    raise InputError(
                        f"{path}: topic {topic_id!r}: member {ngram!r} is listed twice"
                    )
                members[row] = None
            thresholds = entry["sim_threshold"], entry["rsd_threshold"]
            if not all(map(_is_finite_number, thresholds)):
                raise InputError(
                    f"{path}: topic {topic_id!r}: thresholds must be finite numbers "
                    f"(sim_threshold {thresholds[0]!r}, rsd_threshold {thresholds[1]!r})"
                )
            out[topic_id] = TopicAssociation(
                topic_id=topic_id,
                members=tuple(members),
                sim_threshold=float(thresholds[0]),
                rsd_threshold=float(thresholds[1]),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: bad associations payload: {exc}") from exc
    return out


def write_trend_csv(
    path: Path, topic_ids: list[str], values: np.ndarray, bin_labels: list[str]
) -> None:
    """One row per topic of a (topics × bins) array (`_write_wide_csv`);
    the topic ids are quoted once each by csv.writer."""
    cells = [_csv_cell(topic_id) for topic_id in topic_ids]
    _write_wide_csv(path, ["topic_id", *bin_labels], cells.__getitem__, values)


def write_matrix_json(
    paths: list[Path], framework: TopicFramework, matrix: np.ndarray, bin_labels: list[str]
) -> None:
    """Every bin's salience matrix, bin t's to paths[t]: its bin label, the
    framework's grid labels and column t of `matrix` (`salience_matrix`),
    row by row over the grid or, for a framework without a grid, null
    labels, the topic ids and one row of values in topic order.

    The bytes are those of json.dumps(payload, indent=2) and a newline,
    rendered as `write_associations_json` renders them, from one template
    whose labels are encoded once; the values are rendered _BLOCK
    cells, whole bins, at a time.
    """
    if framework.has_grid:
        fields = {"rows": _json_strings(framework.rows), "columns": _json_strings(framework.columns)}
    else:
        fields = {"rows": "null", "columns": "null", "topics": _json_strings(framework.topic_ids())}
    width = len(framework.columns or framework.topics)
    labels = "".join(f',\n  "{name}": {text}' for name, text in fields.items())
    height = len(matrix)
    for bins in _blocks(height * np.arange(1, len(bin_labels) + 1), _BLOCK):
        for t, cells in enumerate(_cell_texts(matrix[:, bins].T, json_floats=True), bins.start):
            rows = [_json_block("[]", cells[at : at + width], "    ") for at in range(0, height, width)]
            label, values = encode_basestring_ascii(bin_labels[t]), _json_block("[]", rows, "  ")
            text = f'{{\n  "bin": {label}{labels},\n  "values": {values}\n}}\n'
            paths[t].write_text(text, encoding="utf-8")


# --- pipeline stages --------------------------------------------------------


def compute_similarities(table: NgramTable, space: VectorSpace, topics: np.ndarray) -> np.ndarray:
    """Similarity of every tabled n-gram to every topic row of `topics`, as
    one (n-grams × topics) array in sorted key order, scored by the batch
    kernel from the sentences' token ids, which it sets to None once it
    has counted their terms, before it scores."""
    from .topics import score_terms, sentence_terms

    terms = sentence_terms(space, *table.sentence_tokens)
    table.sentence_tokens = None
    return score_terms(space, topics, terms, table.context_start, table.context_sids)


def compute_associations(
    sims: np.ndarray, rsd: np.ndarray, topic_ids: list[str], p: float
) -> dict[str, TopicAssociation]:
    """One association per topic (column of `sims`): the variability
    threshold is the p-th percentile over every n-gram, the similarity
    threshold the p-th percentile of the topic's own column."""
    rsd_threshold = percentile(rsd, p)
    # A column at a time: numpy partitions a copy of what it is given.
    return {
        topic_id: associate(
            topic_id, sims[:, column], rsd, percentile(sims[:, column], p), rsd_threshold
        )
        for column, topic_id in enumerate(topic_ids)
    }


class _Handoff:
    """What one run's stages hand each other: in `analyze`, what the ingest
    stage and each stage made; in a subcommand, nothing, so each input is
    read from its artifact and not held past the stage that reads it."""

    table: NgramTable | None = None
    framework: TopicFramework | None = None
    lexicon: dict | None = None
    usage: np.ndarray | None = None
    similarities: tuple[np.ndarray, list[str]] | None = None
    associations: dict[str, TopicAssociation] | None = None

    def __init__(self, config: RunConfig):
        self.config, self.out_dir = config, Path(config.out_dir)
        self.documents = itertools.count()  # drawn once per scanned document

    def scan(self) -> NgramTable:
        """The n-gram table, from one streaming pass over the corpus file."""
        from .corpus import read_corpus
        from .ngrams import build_ngram_table

        config = self.config
        docs = (doc for doc, _ in zip(read_corpus(config.corpus), self.documents))
        options = dict(granularity=config.granularity, include_titles=config.include_titles)
        return build_ngram_table(docs, config.n, config.min_total, **options)

    def load_topics(self) -> TopicFramework:
        """The framework and any configured lexicon, each read once."""
        from .topics import load_framework, load_lexicon

        self.framework = self.framework or load_framework(self.config.framework)
        if self.lexicon is None and self.config.lexicon:
            self.lexicon = load_lexicon(self.config.lexicon)
        return self.framework

    def usage_trends(self) -> tuple[list[str], np.ndarray, list[str]]:
        """The n-gram keys, their usage and the bin labels: from the held
        table, the usage made once and held, or else from ngram_trends.csv."""
        if self.table is None:
            return load_ngram_trends_csv(self.out_dir / "ngram_trends.csv")
        from .ngrams import usage_matrix

        self.usage = usage_matrix(self.table) if self.usage is None else self.usage
        return self.table.keys, self.usage, self.table.binning.labels()


def trends_stage(run: _Run, held: _Handoff) -> str:
    """Trends stage: writes the n-gram table, scanned from the corpus unless
    held, to ngram_table.json and its usage array to ngram_trends.csv. The
    usage is made after the table is written and dropped once it is, and
    the sentence texts once the table is written: no later stage reads
    them, as the similarity kernel reads the token rows the scan left."""
    from .ngrams import usage_matrix

    table = held.table or held.scan()
    if not table.keys:
        raise InputError(
            f"no n-gram reached min-count {table.min_total}; lower --min-count or supply more text"
        )
    write_table_json(run.target("ngram_table.json"), table)
    table.sentences = None
    usage = usage_matrix(table)
    write_ngram_trends_csv(run.target("ngram_trends.csv"), table, usage, table.binning.labels())
    return f"wrote {len(table.keys)} n-gram trends to {run.out_dir}"


def similarity_stage(run: _Run, held: _Handoff) -> str:
    """Similarity stage: the (n-grams × topics) similarity array, from the
    contexts in the table (held, or read from ngram_table.json). Writes
    similarity.csv and hands the array on."""
    from .topics import build_vector_space

    table = held.table or load_table_json(held.out_dir / "ngram_table.json")
    framework = held.load_topics()
    sims = compute_similarities(table, *build_vector_space(framework, held.lexicon))
    topic_ids = framework.topic_ids()
    write_similarity_csv(run.target("similarity.csv"), table.keys, sims, topic_ids)
    held.similarities = sims, topic_ids
    return f"wrote similarity for {len(sims)} n-grams x {len(framework.topics)} topics"


def associate_stage(run: _Run, held: _Handoff) -> str:
    """Associate stage: each topic's members, from the variability of the
    usage trends (`relative_std_devs`) and the similarities. Writes
    associations.json. `analyze` makes the usage here, after the kernel has
    run; a subcommand frees it before it reads the similarities."""
    keys, usage, _ = held.usage_trends()
    rsd = relative_std_devs(usage)
    del usage
    path = held.out_dir / "similarity.csv"
    sims, topic_ids = held.similarities or load_similarity_csv(path, keys)
    held.similarities = None  # dropped after this stage
    associations = compute_associations(sims, rsd, topic_ids, held.config.percentile)
    write_associations_json(run.target("associations.json"), associations, keys, sims, rsd)
    held.associations = associations
    total = sum(len(a.members) for a in associations.values())
    return f"wrote associations for {len(associations)} topics ({total} memberships)"


def salience_stage(run: _Run, held: _Handoff) -> str:
    """Salience stage: the (topics × bins) salience array. Writes each
    topic's usage and salience trends (topic_usage.csv, salience.csv), the
    per-bin normalized salience (salience_normalized.csv) and one salience
    matrix per bin (matrices/<bin>.json). A bin's matrix file is
    overwritten in place; only the files of labels outside this binning are
    removed."""
    from .salience import normalize_salience, salience_matrix
    from .salience import topic_salience_trend, topic_usage_trend

    keys, usage, labels = held.usage_trends()
    path = held.out_dir / "associations.json"
    associations = held.associations or load_associations_json(path, keys)
    framework = held.load_topics()
    topic_ids = framework.topic_ids()
    missing = [tid for tid in topic_ids if tid not in associations]
    if missing:
        raise InputError(f"associations missing for topics: {', '.join(missing)}")
    extra = [tid for tid in associations if tid not in topic_ids]
    if extra:
        raise InputError(f"associations for topics not in the framework: {', '.join(extra)}")
    members = [associations[tid].members for tid in topic_ids]
    topic_usage = np.array([topic_usage_trend(rows, usage) for rows in members])
    salience = np.array([topic_salience_trend(rows, usage) for rows in members])
    normalized = normalize_salience(salience, held.config.normalization)
    write_trend_csv(run.target("topic_usage.csv"), topic_ids, topic_usage, labels)
    write_trend_csv(run.target("salience.csv"), topic_ids, salience, labels)
    write_trend_csv(run.target("salience_normalized.csv"), topic_ids, normalized, labels)
    current = {f"{label}.json" for label in labels}
    for stale in (run.out_dir / "matrices").glob("*.json"):
        if stale.name not in current:
            stale.unlink()
    paths = [run.target("matrices", f"{label}.json") for label in labels]
    write_matrix_json(paths, framework, salience_matrix(framework, salience), labels)
    return f"wrote salience trends for {len(framework.topics)} topics over {len(labels)} bins"


# The stages `analyze` runs, in run order, by their names in runs.STAGES.
STAGE_FUNCTIONS = {
    "trends": trends_stage,
    "similarity": similarity_stage,
    "associate": associate_stage,
    "salience": salience_stage,
}


def run_stage(name: str, config: RunConfig) -> str:
    """Rerun one stage over `config.out_dir` inside `stage_run`, as its
    subcommand does, each input read from its artifact; returns its summary."""
    with stage_run(Path(config.out_dir), name) as run:
        return STAGE_FUNCTIONS[name](run, _Handoff(config))


def run_analyze(config: RunConfig) -> dict:
    """Execute the full pipeline and write every artifact; returns the manifest.

    On any stage failure the partial outputs and the folders the run made
    are removed, and the error names the failing stage. Ingest writes
    nothing; an earlier run's manifest goes once it has passed, and the
    first artifact makes the output directory. The new manifest comes into
    place by one rename after the last artifact, so a run killed at any
    point leaves no manifest that disagrees with the artifacts. A run killed
    during that last write can leave `manifest.json.partial`, which the next
    run removes.
    """
    config.validate()
    out_dir = Path(config.out_dir)
    manifest_path, partial = out_dir / "manifest.json", out_dir / "manifest.json.partial"
    run = _Run(out_dir)
    held = _Handoff(config)
    try:
        with run.stage("ingest"):
            # The corpus file is read once, by the n-gram scan, so ingest
            # covers the scan; no document is held past it.
            held.load_topics()
            held.table = table = held.scan()
        # The counts the manifest records, taken before the trends stage
        # drops the table's sentence texts.
        corpus = {
            "documents": next(held.documents),
            "bins": table.binning.bin_count,
            "ngrams": len(table.keys),
            "instances": sum(table.bin_totals),
            "sentences": len(table.sentences),
        }
        for path in (manifest_path, partial):
            with suppress(FileNotFoundError, NotADirectoryError):
                path.unlink()

        for name, stage in STAGE_FUNCTIONS.items():
            with run.stage(name):
                stage(run, held)

        # The manifest stage then hashes the artifacts without holding the
        # table, usage or associations.
        associations = held.associations.items()
        corpus["empty_topics"] = sorted(tid for tid, assoc in associations if not assoc.members)
        del held, table, associations

        with run.stage("manifest"):
            manifest = {
                "tool": "salience",
                "version": __version__,
                "config": config.echo(),
                "corpus": corpus,
                "inputs": {
                    "corpus": _sha256(Path(config.corpus)),
                    "framework": _sha256(Path(config.framework)),
                    "lexicon": _sha256(Path(config.lexicon)) if config.lexicon else None,
                },
                "artifacts": {
                    str(path.relative_to(out_dir)).replace(os.sep, "/"): _sha256(path)
                    for path in run.written
                },
                # Filled in as the stage closes: the manifest times itself.
                "timings": run.timings,
            }
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        run.target(partial.name).write_text(text, encoding="utf-8")
        os.replace(partial, manifest_path)
    except BaseException:
        run.cleanup()
        raise
    return manifest
