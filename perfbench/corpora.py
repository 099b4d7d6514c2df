"""Seeded corpus generators for the benchmark workloads.

Both generators write plain JSONL in the program's corpus format and return
the per-bin n-gram instance totals implied by the words they drew, so the
output check has a count that does not come from the program's tokenizer.
The same seed always gives the same bytes.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

from salience.corpus import TimeBinning
from salience.synth import corpus_to_jsonl, generate_corpus, news_scale_spec
from salience.topics import build_vector_space, load_pmesii_ascope

# The CLI's default n-gram size and min-count, which every workload uses.
N = 2
MIN_COUNT = 5

# Shape of the Zipfian corpus: ROADMAP's baseline corpus.
ZIPF_DOCS = 5000
ZIPF_MONTHS = 33
ZIPF_SYNTHETIC_WORDS = 20_000
ZIPF_SENTENCES = (5, 15)
ZIPF_WORDS = (8, 25)
ZIPF_START = dt.date(2016, 1, 1)
ZIPF_END = dt.date(2018, 10, 1)  # ZIPF_MONTHS after ZIPF_START
# Rank order of the vocabulary is fixed across seeds so that every seed draws
# from the same distribution; the seed only changes the draws.
ZIPF_RANK_SEED = 0


@dataclass(frozen=True)
class Corpus:
    path: Path
    sha256: str
    docs: int
    binning: TimeBinning
    bin_totals: list[int]  # n-gram instances of size N per bin
    planted: list[tuple[str, ...]]  # n-grams planted by the generator


def zipf_vocabulary() -> list[str]:
    """The 708 bundled topic terms plus synthetic words, in Zipf rank order."""
    space, _ = build_vector_space(load_pmesii_ascope())
    words = list(space.vocabulary) + [f"w{i:05d}" for i in range(ZIPF_SYNTHETIC_WORDS)]
    random.Random(ZIPF_RANK_SEED).shuffle(words)
    return words


def zipf_records(seed: int) -> list[tuple[dt.date, list[list[str]]]]:
    """Documents as (date, sentences of words), sorted by date."""
    rng = random.Random(seed)
    vocab = zipf_vocabulary()
    # Zipf(1/rank) via cumulative weights: one bisect per draw.
    cum_weights = list(itertools.accumulate(1.0 / rank for rank in range(1, len(vocab) + 1)))
    span_days = (ZIPF_END - ZIPF_START).days
    docs = []
    for i in range(ZIPF_DOCS):
        # The first and last documents pin the span to exactly ZIPF_MONTHS bins.
        day = 0 if i == 0 else span_days - 1 if i == 1 else rng.randrange(span_days)
        lengths = [rng.randint(*ZIPF_WORDS) for _ in range(rng.randint(*ZIPF_SENTENCES))]
        words = rng.choices(vocab, cum_weights=cum_weights, k=sum(lengths))
        bounds = list(itertools.accumulate(lengths, initial=0))
        sentences = [words[a:b] for a, b in zip(bounds, bounds[1:])]
        docs.append((ZIPF_START + dt.timedelta(days=day), sentences))
    docs.sort(key=lambda doc: doc[0])
    return docs


def write_zipf(path: Path, seed: int) -> Corpus:
    binning = TimeBinning("month", ZIPF_START, ZIPF_MONTHS)
    totals = [0] * binning.bin_count
    lines = []
    for i, (date, sentences) in enumerate(zipf_records(seed)):
        totals[binning.index_of(date)] += sum(max(len(s) - N + 1, 0) for s in sentences)
        text = " ".join(" ".join(s) + "." for s in sentences)
        lines.append(json.dumps({"id": f"doc-{i:05d}", "date": date.isoformat(), "text": text}))
    data = ("\n".join(lines) + "\n").encode("utf-8")
    path.write_bytes(data)
    return Corpus(path, hashlib.sha256(data).hexdigest(), ZIPF_DOCS, binning, totals, [])


def write_news(path: Path, seed: int) -> Corpus:
    """The package's news-scale synthetic corpus, in daily bins."""
    docs, truth = generate_corpus(news_scale_spec(seed))
    origin = min(d.date for d in docs)
    binning = TimeBinning("day", origin, (max(d.date for d in docs) - origin).days + 1)
    totals = [0] * binning.bin_count
    for doc in docs:
        # Generated text is words separated by spaces, each sentence ending in
        # '.', with no other punctuation.
        words_per_sentence = (len(s.split()) for s in doc.text.split("."))
        totals[binning.index_of(doc.date)] += sum(max(k - N + 1, 0) for k in words_per_sentence)
    data = corpus_to_jsonl(docs).encode("utf-8")
    path.write_bytes(data)
    planted = [tuple(g.split(" ")) for g in truth["ngrams"]]
    return Corpus(path, hashlib.sha256(data).hexdigest(), len(docs), binning, totals, planted)
