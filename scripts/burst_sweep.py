#!/usr/bin/env python3
"""Burst-detection sweep: how reliably does a planted event become the
salience peak of its topic?

For each seed, plants one two-bin burst at a random position in a 24-bin
corpus, runs the pipeline against four vocabulary-disjoint demo topics, and
checks whether the planted topic's salience argmax lands on the event.
"""

from __future__ import annotations

import argparse
import random
import time

import numpy as np

from salience.association import relative_std_devs
from salience.ngrams import build_ngram_table, usage_matrix
from salience.pipeline import compute_associations, compute_similarities
from salience.salience import topic_salience_trend
from salience.synth import PlantedEvent, SynthSpec, generate_corpus
from salience.topics import Topic, TopicFramework, build_vector_space

DEMO_TOPICS = {
    "harbor_trade": ["harbor", "freight", "cargo", "shipping", "docks", "tariff"],
    "mountain_weather": ["summit", "snowfall", "avalanche", "glacier", "altitude", "blizzard"],
    "desert_wildlife": ["lizard", "cactus", "dunes", "scorpion", "oasis", "camel"],
    "city_transit": ["subway", "commuter", "railcar", "turnstile", "metro", "tramline"],
}


def demo_framework() -> TopicFramework:
    topics = tuple(
        Topic(
            id=tid,
            definition=" ".join(words[:3]),
            keywords=tuple(words[3:5]),
            ground_truth=(" ".join(words), " ".join(reversed(words))),
        )
        for tid, words in DEMO_TOPICS.items()
    )
    return TopicFramework(name="demo", topics=topics)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=100)
    parser.add_argument("--bins", type=int, default=24)
    parser.add_argument("--intensity", type=float, default=0.35)
    parser.add_argument("--docs-per-bin", type=int, default=3)
    args = parser.parse_args()

    framework = demo_framework()
    space, topics = build_vector_space(framework)
    topic_ids = framework.topic_ids()

    hits = exact = 0
    started = time.perf_counter()
    for seed in range(args.runs):
        rng = random.Random(seed)
        topic = topic_ids[seed % len(topic_ids)]
        words = DEMO_TOPICS[topic]
        t_star = rng.randint(2, args.bins - 4)
        spec = SynthSpec(
            seed=seed,
            bin_count=args.bins,
            docs_per_bin=args.docs_per_bin,
            background_vocab=20,
            sentence_length=(6, 9),
            sentences_per_doc=(5, 5),
            events=(
                PlantedEvent(
                    topic_id=topic,
                    phrases=(f"{words[0]} {words[1]}", f"{words[2]} {words[3]}"),
                    start_bin=t_star,
                    duration=2,
                    intensity=args.intensity,
                ),
            ),
        )
        docs, _ = generate_corpus(spec)
        table = build_ngram_table(docs, n=2, min_total=1, granularity="month")
        usage = usage_matrix(table)
        sims = compute_similarities(table, space, topics)
        associations = compute_associations(sims, relative_std_devs(usage), topic_ids, 75.0)
        salience = topic_salience_trend(associations[topic].members, usage)
        peak = int(np.argmax(salience))
        exact += peak == t_star
        hits += peak in (t_star, t_star + 1)

    elapsed = time.perf_counter() - started
    print(
        f"{args.runs} runs, intensity {args.intensity}: peak on the event bin "
        f"{exact}/{args.runs}, within one bin {hits}/{args.runs} ({elapsed:.1f}s)"
    )


if __name__ == "__main__":
    main()
