"""Synthetic corpora with planted topical bursts, plus a brute-force oracle.

The generator draws background sentences from a closed synthetic vocabulary
(tokens like "bg042") disjoint from any real topic text, then plants burst
phrases into a target fraction of sentences during each event window. The
oracle re-counts n-grams with its own tokenizer implementation (a character
walk, deliberately sharing no code with the table builder) so divergence in
either implementation shows up as a count mismatch.
"""

from __future__ import annotations

import datetime as dt
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import GRANULARITIES, Document, TimeBinning, _add_months
from .errors import InputError, load_json


@dataclass(frozen=True)
class PlantedEvent:
    """A burst of topic phrases: during bins [start_bin, start_bin + duration)
    a target fraction of each document's sentences carries one phrase."""

    topic_id: str
    phrases: tuple[str, ...]
    start_bin: int
    duration: int
    intensity: float


@dataclass(frozen=True)
class SynthSpec:
    seed: int
    bin_count: int
    docs_per_bin: int | tuple[int, ...]
    background_vocab: int
    sentence_length: tuple[int, int]
    sentences_per_doc: tuple[int, int]
    events: tuple[PlantedEvent, ...] = ()
    granularity: str = "month"
    start: dt.date = field(default_factory=lambda: dt.date(2016, 1, 1))

    def per_bin_docs(self) -> list[int]:
        if isinstance(self.docs_per_bin, int):
            return [self.docs_per_bin] * self.bin_count
        return list(self.docs_per_bin)


def validate_spec(spec: SynthSpec) -> None:
    if spec.bin_count < 1:
        raise InputError("bin_count must be >= 1")
    docs = spec.per_bin_docs()
    if len(docs) != spec.bin_count:
        raise InputError("docs_per_bin list length must equal bin_count")
    if any(d < 1 for d in docs):
        raise InputError("docs_per_bin must be >= 1 everywhere")
    if spec.background_vocab < 2:
        raise InputError("background_vocab must be >= 2")
    for lo, hi in (spec.sentence_length, spec.sentences_per_doc):
        if not 1 <= lo <= hi:
            raise InputError("length ranges must satisfy 1 <= lo <= hi")
    if spec.granularity not in GRANULARITIES:
        raise InputError(f"unknown granularity {spec.granularity!r}")
    for event in spec.events:
        if not event.topic_id:
            raise InputError("planted event needs a topic_id")
        if not event.phrases:
            raise InputError(f"event for {event.topic_id!r} has no phrases")
        for phrase in event.phrases:
            if len(_phrase_tokens(phrase)) < 2:
                raise InputError(f"burst phrase {phrase!r} must tokenize to >= 2 tokens")
        if not 0.0 < event.intensity <= 1.0:
            raise InputError(
                f"event for {event.topic_id!r}: intensity {event.intensity} "
                "is infeasible (must be in (0, 1])"
            )
        if event.duration < 1:
            raise InputError("event duration must be >= 1")
        if event.start_bin < 0 or event.start_bin + event.duration > spec.bin_count:
            raise InputError(
                f"event for {event.topic_id!r} spills outside bins [0, {spec.bin_count})"
            )


def spec_from_dict(data: dict) -> SynthSpec:
    if not isinstance(data, dict):
        raise InputError("synth spec must be a JSON object")
    try:
        events = tuple(
            PlantedEvent(
                topic_id=e["topic_id"],
                phrases=tuple(e["phrases"]),
                start_bin=int(e["start_bin"]),
                duration=int(e["duration"]),
                intensity=float(e["intensity"]),
            )
            for e in data.get("events", [])
        )
        docs_per_bin = data["docs_per_bin"]
        if isinstance(docs_per_bin, list):
            docs_per_bin = tuple(int(d) for d in docs_per_bin)
        else:
            docs_per_bin = int(docs_per_bin)
        spec = SynthSpec(
            seed=int(data["seed"]),
            bin_count=int(data["bin_count"]),
            docs_per_bin=docs_per_bin,
            background_vocab=int(data["background_vocab"]),
            sentence_length=(int(data["sentence_length"][0]), int(data["sentence_length"][1])),
            sentences_per_doc=(
                int(data["sentences_per_doc"][0]),
                int(data["sentences_per_doc"][1]),
            ),
            events=events,
            granularity=data.get("granularity", "month"),
            start=dt.date.fromisoformat(data.get("start", "2016-01-01")),
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise InputError(f"bad synth spec: {exc}") from exc
    validate_spec(spec)
    return spec


def load_synth_spec(path: str | Path) -> SynthSpec:
    return spec_from_dict(load_json(path, "synth spec file"))


def _phrase_tokens(phrase: str) -> list[str]:
    # Phrases are plain space-separated words; keep only alphanumeric runs.
    tokens: list[str] = []
    current: list[str] = []
    for ch in phrase:
        if ch.isalnum() and ch != "_":
            current.append(ch)
        elif current:
            tokens.append("".join(current))
            current = []
    if current:
        tokens.append("".join(current))
    return tokens


def _bin_date(spec: SynthSpec, t: int, doc_in_bin: int) -> dt.date:
    if spec.granularity == "month":
        start = _add_months(dt.date(spec.start.year, spec.start.month, 1), t)
        return start.replace(day=1 + doc_in_bin % 28)
    if spec.granularity == "week":
        return spec.start + dt.timedelta(days=7 * t + doc_in_bin % 7)
    return spec.start + dt.timedelta(days=t)


def generate_corpus(spec: SynthSpec) -> tuple[list[Document], dict]:
    """Generate documents plus a ground-truth record of planted counts.

    Deterministic given the seed (one sequential PRNG stream). The truth
    dict records, per burst phrase and per constituent bigram, how many
    instances were planted in each bin.
    """
    validate_spec(spec)
    rng = random.Random(spec.seed)
    vocab = [f"bg{i:03d}" for i in range(spec.background_vocab)]
    m = spec.bin_count

    phrase_counts: dict[str, list[int]] = {
        p: [0] * m for e in spec.events for p in e.phrases
    }
    ngram_counts: dict[str, list[int]] = {}
    for event in spec.events:
        for phrase in event.phrases:
            toks = _phrase_tokens(phrase)
            for i in range(len(toks) - 1):
                ngram_counts.setdefault(" ".join(toks[i : i + 2]), [0] * m)

    docs: list[Document] = []
    doc_index = 0
    for t in range(m):
        active = [e for e in spec.events if e.start_bin <= t < e.start_bin + e.duration]
        for d in range(spec.per_bin_docs()[t]):
            n_sentences = rng.randint(*spec.sentences_per_doc)
            burst_of: dict[int, PlantedEvent] = {}
            needed = [(e, round(e.intensity * n_sentences)) for e in active]
            total_bursts = sum(k for _, k in needed)
            if total_bursts > n_sentences:
                raise InputError(
                    f"bin {t}: planted events need {total_bursts} burst sentences "
                    f"but the document has only {n_sentences}"
                )
            if total_bursts:
                slots = rng.sample(range(n_sentences), total_bursts)
                pos = 0
                for event, k in needed:
                    for slot in slots[pos : pos + k]:
                        burst_of[slot] = event
                    pos += k

            sentences: list[str] = []
            for s in range(n_sentences):
                length = rng.randint(*spec.sentence_length)
                words = [rng.choice(vocab) for _ in range(length)]
                event = burst_of.get(s)
                if event is not None:
                    phrase = rng.choice(event.phrases)
                    toks = _phrase_tokens(phrase)
                    keep = max(length - len(toks), 2)
                    words = words[:keep]
                    at = rng.randint(0, len(words))
                    words = words[:at] + [phrase] + words[at:]
                    phrase_counts[phrase][t] += 1
                    for i in range(len(toks) - 1):
                        ngram_counts[" ".join(toks[i : i + 2])][t] += 1
                sentences.append(" ".join(words) + ".")

            docs.append(
                Document(
                    id=f"doc-{doc_index:05d}",
                    date=_bin_date(spec, t, d),
                    text=" ".join(sentences),
                )
            )
            doc_index += 1

    truth = {
        "bin_count": m,
        "phrases": phrase_counts,
        "ngrams": ngram_counts,
        "events": [
            {
                "topic_id": e.topic_id,
                "phrases": list(e.phrases),
                "start_bin": e.start_bin,
                "duration": e.duration,
                "intensity": e.intensity,
            }
            for e in spec.events
        ],
    }
    return docs, truth


def corpus_to_jsonl(docs: Sequence[Document]) -> str:
    """Serialize documents to the corpus JSONL wire format."""
    lines = []
    for doc in docs:
        record: dict = {"id": doc.id, "date": doc.date.isoformat()}
        if doc.title is not None:
            record["title"] = doc.title
        record["text"] = doc.text
        lines.append(json.dumps(record, ensure_ascii=False))
    return "\n".join(lines) + "\n"


def news_scale_spec(seed: int = 7) -> SynthSpec:
    """A corpus at the scale of a multi-year news collection: 2,760
    documents over 33 monthly bins, with three planted events keyed to the
    bundled PMESII-ASCOPE framework."""
    return SynthSpec(
        seed=seed,
        bin_count=33,
        docs_per_bin=tuple([84] * 21 + [83] * 12),
        background_vocab=400,
        sentence_length=(6, 12),
        sentences_per_doc=(4, 8),
        events=(
            PlantedEvent(
                topic_id="infrastructure_capabilities",
                phrases=("power grid", "water supply"),
                start_bin=7,
                duration=2,
                intensity=0.25,
            ),
            PlantedEvent(
                topic_id="political_events",
                phrases=("general election", "campaign rallies", "cast ballots"),
                start_bin=19,
                duration=3,
                intensity=0.3,
            ),
            PlantedEvent(
                topic_id="economic_events",
                phrases=("poor harvest",),
                start_bin=27,
                duration=2,
                intensity=0.2,
            ),
        ),
        start=dt.date(2016, 1, 1),
    )


# --- brute-force oracle ---------------------------------------------------
#
# Independent reimplementation of the tokenization rules: alphanumeric runs
# (underscore excluded), sentence boundaries after ./!/? followed by
# whitespace or at blank lines. No regex, no shared code with ngrams.py.


def _oracle_sentences(text: str) -> list[list[str]]:
    sentences: list[list[str]] = []
    tokens: list[str] = []
    current: list[str] = []
    i, n = 0, len(text)

    def end_token():
        if current:
            tokens.append("".join(current))
            current.clear()

    def end_sentence():
        end_token()
        if tokens:
            sentences.append(list(tokens))
            tokens.clear()

    while i < n:
        ch = text[i]
        if ch.isalnum() and ch != "_":
            current.append(ch)
            i += 1
            continue
        end_token()
        if ch in ".!?":
            if i + 1 >= n or text[i + 1].isspace():
                end_sentence()
            i += 1
            continue
        if ch == "\n":
            # A blank line: only whitespace, of any kind, up to the next \n.
            j = i + 1
            while j < n and text[j] != "\n" and text[j].isspace():
                j += 1
            if j < n and text[j] == "\n":
                end_sentence()
                i = j + 1
                continue
        i += 1
    end_sentence()
    return sentences


def _iter_jsonl(source: str | Path | Iterable[str]) -> Iterable[str]:
    # str/Path name a file; any other iterable supplies raw JSONL lines.
    if isinstance(source, (str, Path)):
        with Path(source).open("r", encoding="utf-8") as fh:
            yield from fh
    else:
        yield from source


def oracle_count_many(
    source: str | Path | Iterable[str],
    ngrams: Sequence[Sequence[str]],
    binning: TimeBinning,
    *,
    include_titles: bool = True,
) -> dict[str, list[int]]:
    """Naive window-compare scan over raw JSONL for several n-grams at once.

    Returns rendered n-gram -> per-bin counts. One pass over the corpus;
    every sentence window is compared against the wanted set.
    """
    wanted = {tuple(g) for g in ngrams}
    lengths = {len(g) for g in wanted}
    counts: dict[str, list[int]] = {" ".join(g): [0] * binning.bin_count for g in wanted}

    for line in _iter_jsonl(source):
        if not line.strip():
            continue
        record = json.loads(line)
        t = binning.index_of(dt.date.fromisoformat(record["date"]))
        text = record["text"]
        title = record.get("title")
        if include_titles and isinstance(title, str) and title.strip():
            text = title.strip() + "\n\n" + text
        for sentence in _oracle_sentences(text):
            for size in lengths:
                for i in range(len(sentence) - size + 1):
                    window = tuple(sentence[i : i + size])
                    if window in wanted:
                        counts[" ".join(window)][t] += 1
    return counts

