"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers once its assertions hold."""

import json
import random
import time

import numpy as np

from salience.association import percentile, relative_std_dev, relative_std_devs
from salience.corpus import build_binning
from salience.ngrams import build_ngram_table, usage_matrix
from salience.pipeline import RunConfig, compute_associations, compute_similarities, run_analyze
from salience.salience import normalize_salience, time_derivative, topic_salience_trend
from salience.synth import (
    PlantedEvent,
    SynthSpec,
    corpus_to_jsonl,
    generate_corpus,
    oracle_count_many,
    news_scale_spec,
)
from salience.topics import (
    build_vector_space,
    cosine,
    load_pmesii_ascope,
    similarity_matrix,
)

from conftest import TOPIC_WORDS, burst_phrases, disjoint_framework, framework_file


def _quadrant_space():
    framework = disjoint_framework()
    space, vectors = build_vector_space(framework)
    return framework, space, vectors


def _varied_spec(seed: int) -> SynthSpec:
    rng = random.Random(seed * 7919 + 13)
    events = ()
    if seed % 2:
        topic = list(TOPIC_WORDS)[seed % 4]
        start = rng.randint(0, 3)
        events = (
            PlantedEvent(
                topic_id=topic,
                phrases=burst_phrases(topic),
                start_bin=start,
                duration=rng.randint(1, 2),
                intensity=0.4,
            ),
        )
    return SynthSpec(
        seed=seed,
        bin_count=6,
        docs_per_bin=rng.randint(1, 3),
        background_vocab=rng.randint(8, 16),
        sentence_length=(4, 8),
        sentences_per_doc=(2, 5),
        events=events,
    )


def test_criterion_1_partition_invariant():
    started = time.perf_counter()
    bins_checked = 0
    for seed in range(50):
        docs, _ = generate_corpus(_varied_spec(seed))
        table = build_ngram_table(docs, n=2, min_total=1)
        usage = usage_matrix(table)
        for t, total in enumerate(table.bin_totals):
            if total == 0:
                continue
            bins_checked += 1
            share = sum(usage[:, t].tolist())
            assert abs(share - 1.0) < 1e-9, f"seed {seed} bin {t}: sum {share}"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"partition sweep took {elapsed:.1f}s"
    print(
        f"\nACCEPTANCE 1 (partition invariant): PASS - 50 corpora, "
        f"{bins_checked} non-empty bins sum to 1 within 1e-9 in {elapsed:.1f}s"
    )


def test_criterion_2_oracle_equivalence():
    checked = 0
    for seed in (3, 17, 42):
        spec = _varied_spec(seed)
        docs, _ = generate_corpus(spec)
        assert len(docs) <= 100
        table = build_ngram_table(docs, n=2, min_total=1)
        assert table.binning == build_binning(docs, "month")
        lines = corpus_to_jsonl(docs).splitlines()
        oracle = oracle_count_many(lines, [key.split(" ") for key in table.keys], table.binning)
        rows = table.counts.tolist()
        for key, counts in zip(table.keys, rows):
            assert oracle[key] == counts, key
        checked += len(table.keys)
        # The table is the full vocabulary: per-bin counts add up to every
        # instance the oracle could ever see.
        for t, total in enumerate(table.bin_totals):
            assert sum(row[t] for row in rows) == total
    print(
        f"\nACCEPTANCE 2 (oracle equivalence): PASS - {checked} n-grams match "
        "the brute-force oracle exactly on 3 corpora"
    )


def test_criterion_3_burst_detection():
    started = time.perf_counter()
    framework, space, vectors = _quadrant_space()
    topic_ids = framework.topic_ids()
    hits = 0
    for seed in range(100):
        rng = random.Random(seed)
        topic = topic_ids[seed % 4]
        t_star = rng.randint(2, 20)
        spec = SynthSpec(
            seed=seed,
            bin_count=24,
            docs_per_bin=3,
            background_vocab=20,
            sentence_length=(6, 9),
            sentences_per_doc=(5, 5),
            events=(
                PlantedEvent(
                    topic_id=topic,
                    phrases=burst_phrases(topic),
                    start_bin=t_star,
                    duration=2,
                    intensity=0.35,
                ),
            ),
        )
        docs, _ = generate_corpus(spec)
        table = build_ngram_table(docs, n=2, min_total=1)
        usage = usage_matrix(table)
        sims = compute_similarities(table, space, vectors)
        associations = compute_associations(sims, relative_std_devs(usage), topic_ids, 75.0)
        salience = topic_salience_trend(associations[topic].members, usage)
        if int(np.argmax(salience)) in (t_star, t_star + 1):
            hits += 1

        # Emergent phrase: exactly zero usage before the event starts.
        keys = table.keys
        for phrase in burst_phrases(topic):
            trend = usage[keys.index(phrase)].tolist()
            assert all(v == 0.0 for v in trend[:t_star]), (seed, phrase)
            assert any(v > 0.0 for v in trend[t_star : t_star + 2])
    elapsed = time.perf_counter() - started
    assert hits >= 95, f"salience argmax hit the event window in only {hits}/100 runs"
    assert elapsed < 120.0, f"burst sweep took {elapsed:.1f}s"
    print(
        f"\nACCEPTANCE 3 (burst detection): PASS - argmax in {{t*, t*+1}} in "
        f"{hits}/100 runs, pre-event trends exactly zero, {elapsed:.1f}s"
    )


def test_criterion_4_discrimination():
    framework, space, vectors = _quadrant_space()
    worst_on = 1.0
    worst_ratio = 0.0
    for i, topic in enumerate(framework.topics):
        values = similarity_matrix(list(topic.ground_truth), space, vectors)
        on_target = values[i]
        off_targets = values[:i] + values[i + 1 :]
        assert on_target >= 0.9, f"{topic.id}: on-target {on_target}"
        assert all(v <= 0.05 for v in off_targets), f"{topic.id}: {off_targets}"
        ratio = max(off_targets) / on_target
        assert ratio < 0.06, f"{topic.id}: skew ratio {ratio}"
        worst_on = min(worst_on, on_target)
        worst_ratio = max(worst_ratio, ratio)
    print(
        f"\nACCEPTANCE 4 (discrimination): PASS - on-target cosine >= "
        f"{worst_on:.3f}, max off/on ratio {worst_ratio:.4f} over 4 disjoint topics"
    )


def test_criterion_5_formula_unit_suite():
    assert abs(relative_std_dev([0.2, 0.4]) - 1 / 3) < 1e-12
    assert percentile(list(range(1, 9)), 75) == 6.25
    assert abs(cosine(np.array([1.0, 1.0]), np.array([1.0, 0.0])) - 1 / np.sqrt(2)) < 1e-12

    rng = np.random.default_rng(0)
    for _ in range(200):
        trend = list(rng.uniform(0, 1, size=rng.integers(1, 40)))
        assert abs(sum(time_derivative(trend)) - (trend[-1] - trend[0])) < 1e-12

    argmax_checked = 0
    for i in range(1000):
        n_topics, n_bins = int(rng.integers(2, 9)), int(rng.integers(1, 12))
        raw = rng.normal(size=(n_topics, n_bins))
        out = normalize_salience(raw)
        assert np.all(np.abs(out.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(out.std(axis=0) - 1.0) < 1e-9)
        assert (out.argmax(axis=0) == raw.argmax(axis=0)).all()
        argmax_checked += n_bins
    print(
        "\nACCEPTANCE 5 (formula unit suite): PASS - rsd, percentile, cosine, "
        f"telescoping, and per-bin normalization over {argmax_checked} random bins"
    )


def test_criterion_6_association_geometry():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        size = int(rng.integers(4, 160))
        sims = rng.uniform(0, 1, size)
        rsds = rng.lognormal(0, 1, size)
        result = compute_associations(sims[:, None], rsds, ["topic"], 75)["topic"]
        sim_cut = np.percentile(sims, 75)
        rsd_cut = np.percentile(rsds, 75)
        quadrant = {i for i in range(size) if sims[i] > sim_cut and rsds[i] > rsd_cut}
        assert set(result.members) == quadrant
        tighter = set(compute_associations(sims[:, None], rsds, ["topic"], 90)["topic"].members)
        assert tighter <= quadrant
    print(
        "\nACCEPTANCE 6 (association geometry): PASS - member set equals the "
        "strict upper-right quadrant on 1000 random populations; p=90 never adds"
    )


def test_criterion_7_determinism_and_scale(tmp_path):
    docs, _ = generate_corpus(news_scale_spec())
    assert len(docs) == 2760
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text(corpus_to_jsonl(docs), encoding="utf-8")
    framework_path = framework_file(tmp_path, load_pmesii_ascope())

    out = tmp_path / "out"
    config = RunConfig(corpus=corpus_path, framework=framework_path, out_dir=out)

    def snapshot() -> tuple[dict[str, bytes], float]:
        started = time.perf_counter()
        manifest = run_analyze(config)
        elapsed = time.perf_counter() - started
        assert manifest["corpus"]["bins"] == 33
        files = {
            str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file()
        }
        return files, elapsed

    runs = [snapshot(), snapshot()]
    durations = [elapsed for _, elapsed in runs]
    assert all(elapsed < 60.0 for elapsed in durations), durations
    assert len(sorted((out / "matrices").glob("*.json"))) == 33

    baseline = runs[0][0]
    for files, _ in runs[1:]:
        assert set(files) == set(baseline)
        for rel, content in files.items():
            if rel == "manifest.json":
                a = json.loads(baseline[rel])
                b = json.loads(content)
                a.pop("timings"), b.pop("timings")
                assert a == b
            else:
                assert content == baseline[rel], rel
    print(
        "\nACCEPTANCE 7 (determinism and scale): PASS - 2760 docs / 33 bins, "
        "byte-identical across reruns; "
        f"runs took {', '.join(f'{d:.1f}s' for d in durations)}"
    )
