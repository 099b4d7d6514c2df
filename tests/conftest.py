"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import datetime as dt
import json
from collections import defaultdict

import numpy as np
import pytest

from salience.corpus import Document, analysis_text
from salience.ngrams import sentences_with_tokens
from salience.topics import Topic, TopicFramework

# Four topics with pairwise-disjoint vocabularies. Burst phrases built from
# the leading words appear contiguously in the ground truth, so a planted
# phrase always scores against exactly one topic.
TOPIC_WORDS = {
    "harbor_trade": [
        "harbor", "freight", "cargo", "shipping", "docks", "tariff", "exports", "wharf",
    ],
    "mountain_weather": [
        "summit", "snowfall", "avalanche", "glacier", "altitude", "blizzard", "ridge", "frost",
    ],
    "desert_wildlife": [
        "lizard", "cactus", "dunes", "scorpion", "oasis", "camel", "mirage", "nomads",
    ],
    "city_transit": [
        "subway", "commuter", "railcar", "turnstile", "metro", "tramline", "platform", "fares",
    ],
}


def disjoint_framework() -> TopicFramework:
    topics = []
    for tid, words in TOPIC_WORDS.items():
        topics.append(
            Topic(
                id=tid,
                definition=" ".join(words[:4]),
                keywords=tuple(words[4:6]),
                ground_truth=(" ".join(words), " ".join(reversed(words))),
            )
        )
    return TopicFramework(name="quadrants", topics=tuple(topics))


def burst_phrases(topic_id: str) -> tuple[str, str]:
    words = TOPIC_WORDS[topic_id]
    return (f"{words[0]} {words[1]}", f"{words[2]} {words[3]}")


def corpus_file(tmp_path, records, name="corpus.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
    return path


def make_docs(items):
    """items: (date, text) pairs -> Documents with sequential ids."""
    return [Document(id=f"d{i}", date=date, text=text) for i, (date, text) in enumerate(items)]


@pytest.fixture
def quadrant_framework():
    return disjoint_framework()


def day(year: int, month: int, dom: int = 1) -> dt.date:
    return dt.date(year, month, dom)


def framework_to_dict(fw: TopicFramework) -> dict:
    payload: dict = {"name": fw.name}
    if fw.has_grid:
        payload["rows"] = list(fw.rows)
        payload["columns"] = list(fw.columns)
    payload["topics"] = [
        {
            "id": t.id,
            "definition": t.definition,
            "keywords": list(t.keywords),
            "ground_truth": list(t.ground_truth),
            **({"row": t.row, "column": t.column} if t.row is not None else {}),
        }
        for t in fw.topics
    ]
    return payload


def framework_file(tmp_path, fw: TopicFramework, name="framework.json"):
    path = tmp_path / name
    path.write_text(json.dumps(framework_to_dict(fw), indent=1), encoding="utf-8")
    return path


def assert_same_table(a, b) -> None:
    """NgramTable holds arrays and has no ==: compare it field by field,
    arrays by shape, dtype and value."""
    fields = ("n", "min_total", "include_titles", "binning", "keys", "bin_totals")
    for name in fields:
        assert getattr(a, name) == getattr(b, name), name
    for name in ("counts", "context_start", "context_bins", "context_sids"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def sentence_texts(table, docs) -> list[str]:
    """The text of each sentence id of `table`, a scan of `docs`: the
    documents rescanned with `sentences_with_tokens` in bin order (input
    order within a bin), each kept n-gram's instances listed in that order,
    and the distinct texts numbered by first use along the sorted keys. A
    test oracle: the table and ngram_table.json hold no sentence text."""
    hosts, n = defaultdict(list), table.n
    for doc in sorted(docs, key=lambda doc: table.binning.index_of(doc.date)):
        for raw, tokens in sentences_with_tokens(analysis_text(doc, table.include_titles)):
            for i in range(len(tokens) - n + 1):
                hosts[" ".join(tokens[i : i + n])].append(raw)
    ids: dict[str, int] = {}
    for key in table.keys:
        for raw in hosts[key]:
            ids.setdefault(raw, len(ids))
    return list(ids)
