import datetime as dt
import json

import pytest

from salience.corpus import build_binning
from salience.errors import InputError
from salience.ngrams import build_ngram_table
from salience.synth import (
    PlantedEvent,
    SynthSpec,
    corpus_to_jsonl,
    generate_corpus,
    load_synth_spec,
    oracle_count_many,
    spec_from_dict,
)

from conftest import burst_phrases


def small_spec(seed=0, events=()):
    return SynthSpec(
        seed=seed,
        bin_count=6,
        docs_per_bin=2,
        background_vocab=10,
        sentence_length=(4, 7),
        sentences_per_doc=(3, 5),
        events=tuple(events),
    )


def one_event(topic_id="harbor_trade", start=2, duration=2, intensity=0.5):
    return PlantedEvent(
        topic_id=topic_id,
        phrases=burst_phrases(topic_id),
        start_bin=start,
        duration=duration,
        intensity=intensity,
    )


class TestGenerate:
    def test_same_seed_is_byte_identical(self):
        a, _ = generate_corpus(small_spec(seed=3, events=[one_event()]))
        b, _ = generate_corpus(small_spec(seed=3, events=[one_event()]))
        assert corpus_to_jsonl(a) == corpus_to_jsonl(b)

    def test_different_seeds_differ(self):
        a, _ = generate_corpus(small_spec(seed=1))
        b, _ = generate_corpus(small_spec(seed=2))
        assert corpus_to_jsonl(a) != corpus_to_jsonl(b)

    def test_no_events_means_all_zero_truth(self):
        docs, truth = generate_corpus(small_spec())
        assert truth["phrases"] == {} and truth["ngrams"] == {}
        assert len(docs) == 12

    def test_documents_cover_every_bin(self):
        docs, _ = generate_corpus(small_spec())
        binning = build_binning(docs, "month")
        assert binning.bin_count == 6

    def test_planted_counts_respect_the_window(self):
        event = one_event(start=2, duration=2, intensity=0.5)
        _, truth = generate_corpus(small_spec(seed=5, events=[event]))
        for counts in truth["phrases"].values():
            assert counts[0] == counts[1] == 0 and counts[4] == counts[5] == 0
        window_total = sum(
            counts[t] for counts in truth["phrases"].values() for t in (2, 3)
        )
        assert window_total > 0

    def test_intensity_sets_the_burst_sentence_count(self):
        # 10 sentences per doc at intensity 0.5 -> 5 burst sentences per doc.
        spec = SynthSpec(
            seed=9,
            bin_count=1,
            docs_per_bin=4,
            background_vocab=10,
            sentence_length=(12, 12),
            sentences_per_doc=(10, 10),
            events=(one_event(start=0, duration=1, intensity=0.5),),
        )
        _, truth = generate_corpus(spec)
        planted = sum(counts[0] for counts in truth["phrases"].values())
        assert planted == 4 * 5

    def test_infeasible_combined_intensity(self):
        events = [
            one_event("harbor_trade", start=0, duration=1, intensity=0.9),
            one_event("desert_wildlife", start=0, duration=1, intensity=0.9),
        ]
        spec = SynthSpec(
            seed=0,
            bin_count=1,
            docs_per_bin=1,
            background_vocab=10,
            sentence_length=(6, 6),
            sentences_per_doc=(4, 4),
            events=tuple(events),
        )
        with pytest.raises(InputError, match="burst sentences"):
            generate_corpus(spec)

    def test_intensity_above_one_rejected(self):
        with pytest.raises(InputError, match="infeasible"):
            generate_corpus(small_spec(events=[one_event(intensity=1.5)]))

    def test_event_outside_bins_rejected(self):
        with pytest.raises(InputError):
            generate_corpus(small_spec(events=[one_event(start=5, duration=2)]))

    def test_short_phrase_rejected(self):
        event = PlantedEvent(
            topic_id="t", phrases=("single",), start_bin=0, duration=1, intensity=0.5
        )
        with pytest.raises(InputError, match="tokenize"):
            generate_corpus(small_spec(events=[event]))

    def test_spec_file_roundtrip(self, tmp_path):
        payload = {
            "seed": 11,
            "bin_count": 4,
            "docs_per_bin": [1, 2, 1, 2],
            "background_vocab": 8,
            "sentence_length": [4, 6],
            "sentences_per_doc": [2, 3],
            "start": "2017-03-01",
            "events": [
                {
                    "topic_id": "harbor_trade",
                    "phrases": ["harbor freight"],
                    "start_bin": 1,
                    "duration": 2,
                    "intensity": 0.4,
                }
            ],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        spec = load_synth_spec(path)
        assert spec == spec_from_dict(payload)
        assert spec.start == dt.date(2017, 3, 1)
        docs, _ = generate_corpus(spec)
        assert len(docs) == 6


class TestOracle:
    def test_single_document(self, tmp_path):
        from salience.corpus import load_corpus

        docs_path = tmp_path / "c.jsonl"
        docs_path.write_text(
            json.dumps({"id": "d0", "date": "2017-01-05", "text": "a b c"}) + "\n",
            encoding="utf-8",
        )
        binning = build_binning(load_corpus(docs_path))
        assert oracle_count_many(docs_path, [["a", "b"]], binning)["a b"] == [1]

    def test_absent_ngram_is_all_zero(self):
        lines = [json.dumps({"id": "d0", "date": "2017-01-05", "text": "a b c"})]
        from salience.corpus import Document

        binning = build_binning([Document("d0", dt.date(2017, 1, 5), "a b c")])
        assert oracle_count_many(lines, [["x", "y"]], binning)["x y"] == [0]

    def test_title_prepending_matches_engine_convention(self):
        lines = [
            json.dumps(
                {"id": "d0", "date": "2017-01-05", "title": "top story", "text": "a b"}
            )
        ]
        from salience.corpus import Document

        binning = build_binning([Document("d0", dt.date(2017, 1, 5), "a b")])
        assert oracle_count_many(lines, [["top", "story"]], binning)["top story"] == [1]
        assert oracle_count_many(lines, [["top", "story"]], binning, include_titles=False)[
            "top story"
        ] == [0]
        # No window across the title/body sentence break either.
        assert oracle_count_many(lines, [["story", "a"]], binning)["story a"] == [0]

    def test_oracle_matches_generator_truth(self):
        spec = small_spec(seed=13, events=[one_event(intensity=0.6)])
        docs, truth = generate_corpus(spec)
        lines = corpus_to_jsonl(docs).splitlines()
        binning = build_binning(docs, "month")
        for ngram_text, expected in truth["ngrams"].items():
            got = oracle_count_many(lines, [ngram_text.split(" ")], binning)[ngram_text]
            assert got == expected

    def test_oracle_matches_engine_on_full_vocabulary(self):
        spec = small_spec(seed=21, events=[one_event()])
        docs, _ = generate_corpus(spec)
        table = build_ngram_table(docs, n=2, min_total=1)
        lines = corpus_to_jsonl(docs).splitlines()
        ngrams = [key.split(" ") for key in table.keys]
        counts = oracle_count_many(lines, ngrams, build_binning(docs, "month"))
        for key, row in zip(table.keys, table.counts.tolist()):
            assert counts[key] == row
