"""End-to-end batch pipeline and file-based artifact exchange.

Each stage is one function: `run_trends`, `run_similarity`, `run_associate`
and `run_salience` take typed inputs, write their artifacts into the output
directory and return their outputs. `run_analyze` chains them after corpus
ingestion and writes a manifest hashing every artifact. A stage subcommand
loads the artifacts its stage needs (the `load_*` readers invert the
`write_*` writers) and calls the same function inside `stage_run`, so
failures name the stage and remove its partial outputs either way.
`ngram_trends.csv` carries the usage trends to the associate and salience
stages; `ngram_table.json` carries the contexts to the similarity stage.

All exports are deterministic: rows follow sorted n-gram order and
framework topic order, floats are rendered as shortest round-trip decimals,
and reruns with identical inputs and config are byte-identical except for
the manifest's timings.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import os
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterator

from . import __version__
from .association import Member, TopicAssociation, associate, percentile, relative_std_dev
from .corpus import (
    GRANULARITIES,
    TimeBinnedCorpus,
    TimeBinning,
    bin_documents,
    build_binning,
    load_corpus,
)
from .errors import ConsistencyError, InputError, SalienceError
from .ngrams import (
    NgramKey,
    NgramRecord,
    NgramTable,
    build_ngram_table,
    parse_ngram,
    relative_usage_trend,
    render_ngram,
)
from .salience import (
    NORMALIZATIONS,
    SalienceTrend,
    normalize_salience,
    salience_matrix,
    topic_salience_trend,
    topic_usage_trend,
)
from .topics import (
    TopicFramework,
    batch_similarities,
    build_vector_space,
    load_framework,
    load_lexicon,
)

SIM_SCOPES = ("per_topic", "global")
# The ngram_table.json layout that write_table_json writes and load_table_json reads.
TABLE_VERSION = 2
# A rendered n-gram: tokenizer tokens joined by single spaces.
_NGRAM_TEXT = re.compile(r"[^\W_]+(?: [^\W_]+)*")


@dataclass
class RunConfig:
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
    sim_scope: str = "per_topic"

    def validate(self) -> None:
        if self.n < 1:
            raise InputError("n must be >= 1")
        if self.min_total < 1:
            raise InputError("min-count must be >= 1")
        if not 0.0 <= self.percentile <= 100.0:
            raise InputError("percentile must lie in [0, 100]")
        if self.granularity not in GRANULARITIES:
            raise InputError(f"unknown bin granularity {self.granularity!r}")
        if self.normalization not in NORMALIZATIONS:
            raise InputError(f"unknown normalization {self.normalization!r}")
        if self.sim_scope not in SIM_SCOPES:
            raise InputError(f"unknown similarity scope {self.sim_scope!r}")

    def echo(self) -> dict:
        return {
            "corpus": str(self.corpus),
            "framework": str(self.framework),
            "out_dir": str(self.out_dir),
            "lexicon": str(self.lexicon) if self.lexicon else None,
            "n": self.n,
            "granularity": self.granularity,
            "min_total": self.min_total,
            "percentile": self.percentile,
            "normalization": self.normalization,
            "include_titles": self.include_titles,
            "sim_scope": self.sim_scope,
        }


def _fmt(x: float) -> str:
    # Shortest decimal that round-trips to the same float.
    return repr(float(x))


def _csv_cell(value: str) -> str:
    """`value` as csv.writer writes it between two other cells."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(["", value, ""])
    return buffer.getvalue()[1:-2]


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


@contextmanager
def _read_csv(path: Path, what: str, stage: str):
    """Yield a CSV artifact's header and an iterator over its non-blank rows.

    A row whose length differs from the header's, and a ValueError raised
    while a row is being read (a non-numeric cell), become an InputError
    naming the file and line.
    """
    if not path.is_file():
        raise InputError(f"{what} not found: {path} (run the {stage} stage first)")
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None) or []

        def rows():
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise InputError(
                        f"{path}: line {reader.line_num}: {len(row)} cells, header has {len(header)}"
                    )
                yield row

        try:
            yield header, rows()
        except ValueError as exc:
            raise InputError(f"{path}: line {reader.line_num}: {exc}") from exc


def _write_json(path: Path, payload, *, sort_keys: bool = False) -> None:
    with path.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def _load_json(path: Path, what: str, stage: str):
    if not path.is_file():
        raise InputError(f"{what} not found: {path} (run the {stage} stage first)")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise InputError(f"{path}: malformed JSON: {exc}") from exc


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


# --- artifact writers / readers --------------------------------------------


def write_ngram_trends_csv(
    path: Path, table: NgramTable, trends: dict[NgramKey, list[float]], bin_labels: list[str]
) -> None:
    rows = (
        [render_ngram(key), table.records[key].total] + [_fmt(v) for v in trends[key]]
        for key in table.sorted_keys()
    )
    _write_csv(path, ["ngram", "total"] + list(bin_labels), rows)


def load_ngram_trends_csv(path: Path) -> tuple[dict[NgramKey, list[float]], list[str]]:
    """Inverse of `write_ngram_trends_csv`: each n-gram's usage trend, in file
    order, plus the bin labels."""
    with _read_csv(path, "n-gram trends", "trends") as (header, rows):
        if header[:2] != ["ngram", "total"]:
            raise InputError(f"{path}: unexpected header {header[:2]}")
        trends = {parse_ngram(row[0]): [float(v) for v in row[2:]] for row in rows}
    if not trends:
        raise InputError(f"{path}: no n-gram rows")
    return trends, header[2:]


def write_table_json(
    path: Path, table: NgramTable, binning: TimeBinning, include_titles: bool
) -> None:
    """Persist the n-gram table for the similarity stage: version 2 lists each
    context sentence once and gives contexts as [bin, sentence id] pairs, in
    compact JSON."""
    payload = {
        "version": TABLE_VERSION,
        "n": table.n,
        "min_total": table.min_total,
        "include_titles": include_titles,
        "granularity": binning.granularity,
        "origin": binning.origin.isoformat(),
        "bin_labels": binning.labels(),
        "bin_totals": table.bin_totals,
        "sentences": table.sentences,
        "ngrams": {
            render_ngram(key): {
                "counts": table.records[key].counts,
                "contexts": table.records[key].contexts,
            }
            for key in table.sorted_keys()
        },
    }
    # json.dumps without indent runs the C encoder in one shot; json.dump to
    # a file always takes the pure-Python one.
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, separators=(",", ":")))
        fh.write("\n")


def load_table_json(path: Path) -> NgramTable:
    """The n-gram table that `write_table_json` wrote. Refuses any other
    version, an n-gram that is not words joined by single spaces, and
    contexts whose bin or sentence id is out of range."""
    payload = _load_json(path, "n-gram table", "trends")
    version = payload.get("version") if isinstance(payload, dict) else None
    if version != TABLE_VERSION:
        raise InputError(
            f"{path}: n-gram table version {version!r}, this program reads version "
            f"{TABLE_VERSION}; re-run the trends stage"
        )
    try:
        sentences = payload["sentences"]
        if not isinstance(sentences, list) or not all(isinstance(s, str) for s in sentences):
            raise InputError(f"{path}: sentences must be a list of strings")
        bins = len(payload["bin_totals"])
        records: dict[NgramKey, NgramRecord] = {}
        for text, entry in payload["ngrams"].items():
            if not _NGRAM_TEXT.fullmatch(text):
                raise InputError(f"{path}: n-gram {text!r} is not words joined by single spaces")
            contexts = [(t, sid) for t, sid in entry["contexts"]]
            for t, sid in contexts:
                if type(t) is not int or not 0 <= t < bins:
                    raise InputError(f"{path}: n-gram {text!r}: bin {t!r} is not one of {bins}")
                if type(sid) is not int or not 0 <= sid < len(sentences):
                    raise InputError(
                        f"{path}: n-gram {text!r}: sentence id {sid!r} is not one of "
                        f"{len(sentences)}"
                    )
            key = parse_ngram(text)
            records[key] = NgramRecord(
                key=key, counts=entry["counts"], total=sum(entry["counts"]), contexts=contexts
            )
        return NgramTable(
            n=int(payload["n"]),
            min_total=int(payload["min_total"]),
            bin_totals=payload["bin_totals"],
            records=records,
            sentences=sentences,
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: bad n-gram table payload: {exc}") from exc


def write_similarity_csv(path: Path, sims: dict[NgramKey, tuple[float, ...]], topic_ids) -> None:
    """One row per n-gram and topic, in sorted n-gram order and topic order.

    The bytes are those of csv.writer. Rows are joined by hand: a rendered
    n-gram is word tokens joined by spaces and a float repr holds no comma
    or quote, so neither needs quoting; topic ids are arbitrary strings and
    are quoted once each by csv.writer.
    """
    cells = [_csv_cell(topic_id) for topic_id in topic_ids]
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write("ngram,topic_id,similarity\n")
        for key in sorted(sims):
            name = render_ngram(key)
            rows = [f"{name},{cell},{value!r}\n" for cell, value in zip(cells, sims[key])]
            fh.write("".join(rows))


def load_similarity_csv(path: Path) -> tuple[dict[NgramKey, tuple[float, ...]], list[str]]:
    """Inverse of `write_similarity_csv`: each n-gram's similarities in topic
    order, plus the topic ids. Every n-gram's rows must be contiguous and list
    the topics in the order of the first n-gram's."""
    sims: dict[NgramKey, tuple[float, ...]] = {}
    topic_ids: list[str] = []
    with _read_csv(path, "similarity table", "similarity") as (header, rows):
        if header != ["ngram", "topic_id", "similarity"]:
            raise InputError(f"{path}: unexpected header {header}")
        for text, group in itertools.groupby(rows, key=itemgetter(0)):
            topics, values = [], []
            for _, topic_id, value in group:
                topics.append(topic_id)
                values.append(float(value))
            key = parse_ngram(text)
            if key in sims:
                raise InputError(f"{path}: rows of n-gram {text!r} are not contiguous")
            if not topic_ids:
                topic_ids = topics
            elif topics != topic_ids:
                raise InputError(f"{path}: n-gram {text!r} lists topics {topics}, not {topic_ids}")
            sims[key] = tuple(values)
    if not sims:
        raise InputError(f"{path}: no similarity rows")
    return sims, topic_ids


def write_associations_json(path: Path, associations: dict[str, TopicAssociation]) -> None:
    payload = {
        topic_id: {
            "sim_threshold": assoc.sim_threshold,
            "rsd_threshold": assoc.rsd_threshold,
            "members": [
                {"ngram": render_ngram(m.ngram), "similarity": m.similarity, "rsd": m.rsd}
                for m in assoc.members
            ],
        }
        for topic_id, assoc in associations.items()
    }
    _write_json(path, payload)


def load_associations_json(path: Path) -> dict[str, TopicAssociation]:
    payload = _load_json(path, "associations", "associate")
    out: dict[str, TopicAssociation] = {}
    try:
        for topic_id, entry in payload.items():
            out[topic_id] = TopicAssociation(
                topic_id=topic_id,
                members=tuple(
                    Member(parse_ngram(m["ngram"]), float(m["similarity"]), float(m["rsd"]))
                    for m in entry["members"]
                ),
                sim_threshold=float(entry["sim_threshold"]),
                rsd_threshold=float(entry["rsd_threshold"]),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: bad associations payload: {exc}") from exc
    return out


def write_trend_csv(path: Path, rows: dict[str, list[float]], bin_labels: list[str]) -> None:
    _write_csv(
        path,
        ["topic_id"] + list(bin_labels),
        ([topic_id] + [_fmt(v) for v in values] for topic_id, values in rows.items()),
    )


def load_trend_csv(path: Path) -> tuple[dict[str, list[float]], list[str]]:
    """Inverse of `write_trend_csv`: per-topic values plus the bin labels."""
    with _read_csv(path, "trend table", "salience") as (header, rows):
        if header[:1] != ["topic_id"]:
            raise InputError(f"{path}: unexpected header {header}")
        trends = {row[0]: [float(v) for v in row[1:]] for row in rows}
    return trends, header[1:]


def write_matrix_json(path: Path, matrix) -> None:
    framework: TopicFramework = matrix.framework
    if framework.has_grid:
        payload = {
            "bin": matrix.bin_label,
            "rows": list(framework.rows),
            "columns": list(framework.columns),
            "values": matrix.grid(),
        }
    else:
        # No declared grid: one row holding the flat framework-order values.
        payload = {
            "bin": matrix.bin_label,
            "rows": None,
            "columns": None,
            "topics": framework.topic_ids(),
            "values": [list(matrix.values)],
        }
    _write_json(path, payload)


def load_matrix_json(path: Path) -> dict:
    """A salience matrix that `write_matrix_json` wrote, as its payload."""
    payload = _load_json(path, "salience matrix", "salience")
    if not isinstance(payload, dict) or not {"bin", "rows", "columns", "values"} <= payload.keys():
        raise InputError(f"{path}: bad salience matrix payload")
    return payload


# --- pipeline stages --------------------------------------------------------


class _Run:
    """Tracks written artifacts so a failed run can remove partial outputs."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.written: list[Path] = []
        self.timings: dict[str, float] = {}

    def target(self, *relative: str) -> Path:
        path = self.out_dir.joinpath(*relative)
        self.written.append(path)
        return path

    def cleanup(self) -> None:
        for path in self.written:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
        for name in ("matrices", "render"):
            folder = self.out_dir / name
            if folder.is_dir() and not any(folder.iterdir()):
                folder.rmdir()

    @contextmanager
    def stage(self, name: str):
        started = time.perf_counter()
        try:
            yield
        except SalienceError as exc:
            raise type(exc)(f"{name}: {exc}") from exc
        except Exception as exc:  # unexpected bug: report as internal, named stage
            raise ConsistencyError(f"{name}: {type(exc).__name__}: {exc}") from exc
        finally:
            self.timings[name] = time.perf_counter() - started


def compute_similarities(
    table: NgramTable,
    framework: TopicFramework,
    space,
    topic_vectors,
) -> dict[NgramKey, tuple[float, ...]]:
    """Similarity values for every tabled n-gram, in framework topic order,
    scored in one pass by the batch kernel."""
    keys = table.sorted_keys()
    values = batch_similarities(
        space,
        topic_vectors,
        framework.topic_ids(),
        table.sentences,
        ([sid for _, sid in table.records[key].contexts] for key in keys),
    )
    return dict(zip(keys, map(tuple, values.tolist())))


def compute_associations(
    sims: dict[NgramKey, tuple[float, ...]],
    rsd: dict[NgramKey, float],
    topic_ids: list[str],
    p: float,
    sim_scope: str = "per_topic",
) -> dict[str, TopicAssociation]:
    """One association per topic. The variability threshold is always global;
    the similarity threshold is per-topic unless sim_scope is 'global'."""
    rsd_threshold = percentile(list(rsd.values()), p)
    global_sim: float | None = None
    if sim_scope == "global":
        pooled = [v for values in sims.values() for v in values]
        global_sim = percentile(pooled, p)
    out: dict[str, TopicAssociation] = {}
    for i, topic_id in enumerate(topic_ids):
        column = {key: values[i] for key, values in sims.items()}
        out[topic_id] = associate(
            topic_id,
            column,
            rsd,
            p,
            sim_threshold=global_sim,
            rsd_threshold=rsd_threshold,
        )
    return out


@contextmanager
def stage_run(out_dir: Path, name: str) -> Iterator[_Run]:
    """Rerun one stage over an output directory, as the stage subcommands do.

    Errors name the stage, and the stage's partial outputs are removed on
    failure. The manifest is left as it is.
    """
    run = _Run(out_dir)
    try:
        with run.stage(name):
            yield run
    except BaseException:
        run.cleanup()
        raise


def load_binned_corpus(path: Path, granularity: str) -> TimeBinnedCorpus:
    docs = load_corpus(path)
    return bin_documents(docs, build_binning(docs, granularity))


def run_trends(
    run: _Run, corpus: TimeBinnedCorpus, n: int, min_total: int, include_titles: bool
) -> tuple[NgramTable, dict[NgramKey, list[float]]]:
    """Trends stage: the n-gram table and each kept n-gram's relative usage
    trend. Writes ngram_trends.csv and ngram_table.json."""
    table = build_ngram_table(corpus, n, min_total, include_titles=include_titles)
    if not table.records:
        raise InputError(
            f"no n-gram reached min-count {min_total}; lower --min-count or supply more text"
        )
    trends = {
        key: relative_usage_trend(rec, table.bin_totals) for key, rec in table.records.items()
    }
    write_ngram_trends_csv(run.target("ngram_trends.csv"), table, trends, corpus.binning.labels())
    write_table_json(run.target("ngram_table.json"), table, corpus.binning, include_titles)
    return table, trends


def run_similarity(
    run: _Run, table: NgramTable, framework: TopicFramework, lexicon: dict | None
) -> dict[NgramKey, tuple[float, ...]]:
    """Similarity stage: each n-gram's similarity to every topic, from the
    contexts in the table. Writes similarity.csv."""
    space, topic_vectors = build_vector_space(framework, lexicon)
    sims = compute_similarities(table, framework, space, topic_vectors)
    write_similarity_csv(run.target("similarity.csv"), sims, framework.topic_ids())
    return sims


def run_associate(
    run: _Run,
    trends: dict[NgramKey, list[float]],
    sims: dict[NgramKey, tuple[float, ...]],
    topic_ids: list[str],
    p: float,
    sim_scope: str,
) -> dict[str, TopicAssociation]:
    """Associate stage: each topic's members, from the usage trends'
    variability and the similarities. Writes associations.json."""
    rsd = {key: relative_std_dev(trend) for key, trend in trends.items()}
    associations = compute_associations(sims, rsd, topic_ids, p, sim_scope)
    write_associations_json(run.target("associations.json"), associations)
    return associations


def run_salience(
    run: _Run,
    framework: TopicFramework,
    associations: dict[str, TopicAssociation],
    trends: dict[NgramKey, list[float]],
    labels: list[str],
    normalization: str,
) -> dict[str, SalienceTrend]:
    """Salience stage: each topic's usage and salience trends, normalized
    salience and one salience matrix per bin. Writes topic_usage.csv,
    salience.csv, salience_normalized.csv and matrices/<bin>.json."""
    topic_ids = framework.topic_ids()
    missing = [tid for tid in topic_ids if tid not in associations]
    if missing:
        raise InputError(f"associations missing for topics: {', '.join(missing)}")
    m = len(labels)
    usage = {tid: topic_usage_trend(associations[tid], trends, m) for tid in topic_ids}
    sal = {tid: topic_salience_trend(associations[tid], trends, m) for tid in topic_ids}
    normalized = normalize_salience([sal[tid] for tid in topic_ids], normalization)
    write_trend_csv(
        run.target("topic_usage.csv"), {tid: usage[tid].values for tid in topic_ids}, labels
    )
    write_trend_csv(run.target("salience.csv"), {tid: sal[tid].values for tid in topic_ids}, labels)
    write_trend_csv(
        run.target("salience_normalized.csv"),
        {trend.topic_id: trend.values for trend in normalized},
        labels,
    )
    matrices_dir = run.out_dir / "matrices"
    matrices_dir.mkdir(exist_ok=True)
    for stale in matrices_dir.glob("*.json"):
        stale.unlink()
    for t, label in enumerate(labels):
        matrix = salience_matrix(framework, sal, t, label)
        write_matrix_json(run.target("matrices", f"{label}.json"), matrix)
    return sal


def run_analyze(config: RunConfig) -> dict:
    """Execute the full pipeline and write every artifact; returns the manifest.

    On any stage failure the partial outputs written so far are removed and
    the error names the failing stage.
    """
    config.validate()
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    run = _Run(out_dir)

    try:
        with run.stage("ingest"):
            corpus = load_binned_corpus(config.corpus, config.granularity)
            framework = load_framework(config.framework)
            lexicon = load_lexicon(config.lexicon) if config.lexicon else None

        with run.stage("trends"):
            table, trends = run_trends(
                run, corpus, config.n, config.min_total, config.include_titles
            )

        with run.stage("similarity"):
            sims = run_similarity(run, table, framework, lexicon)

        with run.stage("associate"):
            associations = run_associate(
                run, trends, sims, framework.topic_ids(), config.percentile, config.sim_scope
            )

        with run.stage("salience"):
            sal = run_salience(
                run, framework, associations, trends, corpus.binning.labels(), config.normalization
            )

        with run.stage("manifest"):
            manifest = {
                "tool": "salience",
                "version": __version__,
                "config": config.echo(),
                "corpus": {
                    "documents": corpus.doc_count,
                    "bins": corpus.binning.bin_count,
                    "ngrams": len(table.records),
                    "instances": sum(table.bin_totals),
                    "sentences": len(table.sentences),
                    "empty_topics": sorted(
                        tid for tid in framework.topic_ids() if sal[tid].empty
                    ),
                },
                "inputs": {
                    "corpus": _sha256(Path(config.corpus)),
                    "framework": _sha256(Path(config.framework)),
                    "lexicon": _sha256(Path(config.lexicon)) if config.lexicon else None,
                },
                "artifacts": {
                    str(path.relative_to(out_dir)).replace(os.sep, "/"): _sha256(path)
                    for path in run.written
                },
                "timings": run.timings,
            }
            _write_json(out_dir / "manifest.json", manifest, sort_keys=True)
    except BaseException:
        run.cleanup()
        (out_dir / "manifest.json").unlink(missing_ok=True)
        raise
    return manifest
