import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salience.corpus import (
    Document,
    analysis_text,
    bin_documents,
    build_binning,
    load_corpus,
    read_corpus,
)
from salience.errors import ConsistencyError, InputError
from salience.ngrams import build_ngram_table

from conftest import corpus_file, day


class TestLoadCorpus:
    def test_three_records_in_file_order(self, tmp_path):
        path = corpus_file(
            tmp_path,
            [
                {"id": "a", "date": "2016-01-15", "text": "first article"},
                {"id": "b", "date": "2016-02-01", "text": "second article"},
                {"id": "c", "date": "2016-01-01", "text": "third article"},
            ],
        )
        docs = load_corpus(path)
        assert [d.id for d in docs] == ["a", "b", "c"]
        assert docs[0].date == day(2016, 1, 15)

    def test_empty_file_is_an_error(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(InputError, match="empty"):
            load_corpus(path)

    def test_bad_calendar_date_names_the_record(self, tmp_path):
        path = corpus_file(
            tmp_path,
            [
                {"id": "ok", "date": "2017-01-01", "text": "fine"},
                {"id": "bad-date", "date": "2017-13-01", "text": "oops"},
            ],
        )
        with pytest.raises(InputError, match="bad-date"):
            load_corpus(path)

    def test_duplicate_id_names_the_id(self, tmp_path):
        path = corpus_file(
            tmp_path,
            [
                {"id": "dup", "date": "2017-01-01", "text": "one"},
                {"id": "dup", "date": "2017-02-01", "text": "two"},
            ],
        )
        with pytest.raises(InputError, match="dup"):
            load_corpus(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            json.dumps({"id": "a", "date": "2017-01-01", "text": "x"}) + "\nnot json\n",
            encoding="utf-8",
        )
        with pytest.raises(InputError, match=":2"):
            load_corpus(path)

    def test_empty_text_rejected(self, tmp_path):
        path = corpus_file(tmp_path, [{"id": "a", "date": "2017-01-01", "text": "   "}])
        with pytest.raises(InputError, match="text"):
            load_corpus(path)

    def test_unknown_keys_ignored(self, tmp_path):
        path = corpus_file(
            tmp_path,
            [{"id": "a", "date": "2017-01-01", "text": "body", "source": "feed", "lang": "en"}],
        )
        assert load_corpus(path)[0].text == "body"

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="not found"):
            load_corpus(tmp_path / "nope.jsonl")


_GOOD = {"id": "ok", "date": "2017-01-01", "text": "fine"}


@pytest.mark.parametrize(
    "line, fragment",
    [
        pytest.param("not json", "malformed JSON record", id="malformed-json"),
        pytest.param("[1, 2]", "record is not a JSON object", id="not-an-object"),
        pytest.param({"date": "2017-01-01", "text": "x"}, "missing or empty 'id'", id="missing-id"),
        pytest.param(_GOOD, "duplicate document id 'ok'", id="duplicate-id"),
        pytest.param({"id": "b", "text": "x"}, "record 'b': missing 'date'", id="missing-date"),
        pytest.param(
            {"id": "b", "date": "2017-13-01", "text": "x"},
            "record 'b': unparseable date '2017-13-01'",
            id="bad-date",
        ),
        pytest.param(
            {"id": "b", "date": "2017-01-01"}, "record 'b': missing or empty 'text'", id="no-text"
        ),
        pytest.param(
            {"id": "b", "date": "2017-01-01", "text": " \n"},
            "record 'b': missing or empty 'text'",
            id="blank-text",
        ),
        pytest.param(
            {"id": "b", "date": "2017-01-01", "text": "x", "title": 3},
            "record 'b': 'title' must be a string",
            id="title-not-a-string",
        ),
    ],
)
def test_every_refusal_names_file_and_line(tmp_path, line, fragment):
    # A blank line before the bad record: line numbers count every line.
    bad = line if isinstance(line, str) else json.dumps(line)
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(_GOOD) + "\n\n" + bad + "\n", encoding="utf-8")
    with pytest.raises(InputError, match=re.escape(f"{path}:3: {fragment}")):
        load_corpus(path)
    # The n-gram scan reads the file through read_corpus and passes its
    # refusals on as they are.
    with pytest.raises(InputError, match=re.escape(f"{path}:3: {fragment}")):
        build_ngram_table(read_corpus(path))


class TestAnalysisText:
    def test_title_prepended_with_sentence_break(self):
        doc = Document(id="a", date=day(2017, 1), text="Body here.", title="The Title")
        assert analysis_text(doc) == "The Title\n\nBody here."

    def test_title_excluded_on_request(self):
        doc = Document(id="a", date=day(2017, 1), text="Body here.", title="The Title")
        assert analysis_text(doc, include_title=False) == "Body here."

    def test_no_title(self):
        doc = Document(id="a", date=day(2017, 1), text="Body here.")
        assert analysis_text(doc) == "Body here."


def _docs(*dates):
    return [Document(id=f"d{i}", date=d, text="words here") for i, d in enumerate(dates)]


class TestBuildBinning:
    def test_month_span_inclusive(self):
        # Jan 2016 through Sep 2018, counted by hand: 12 + 12 + 9 months.
        binning = build_binning(_docs(day(2016, 1, 15), day(2018, 9, 2)))
        assert binning.bin_count == 33
        assert binning.origin == day(2016, 1, 1)
        assert binning.labels()[0] == "2016-01"
        assert binning.labels()[-1] == "2018-09"

    def test_single_month(self):
        binning = build_binning(_docs(day(2017, 3, 1), day(2017, 3, 28)))
        assert binning.bin_count == 1

    def test_intermediate_empty_month_kept(self):
        binning = build_binning(_docs(day(2017, 1, 31), day(2017, 3, 1)))
        assert binning.bin_count == 3
        assert binning.labels() == ["2017-01", "2017-02", "2017-03"]

    def test_week_origin_is_monday(self):
        binning = build_binning(_docs(day(2021, 6, 10)), granularity="week")  # a Thursday
        assert binning.origin.weekday() == 0
        assert binning.bin_count == 1

    def test_day_granularity(self):
        binning = build_binning(_docs(day(2017, 1, 1), day(2017, 1, 4)), granularity="day")
        assert binning.bin_count == 4
        assert binning.labels() == ["2017-01-01", "2017-01-02", "2017-01-03", "2017-01-04"]

    def test_empty_docs_error(self):
        with pytest.raises(InputError):
            build_binning([])

    def test_unknown_granularity(self):
        with pytest.raises(InputError):
            build_binning(_docs(day(2017, 1, 1)), granularity="fortnight")


def _binned_ids(docs, binning):
    return [(t, doc.id) for t, doc in bin_documents(docs, binning)]


class TestBinDocuments:
    def test_one_doc_one_bin(self):
        docs = _docs(day(2017, 5, 10))
        assert _binned_ids(docs, build_binning(docs)) == [(0, "d0")]

    def test_same_month_preserves_input_order(self):
        docs = _docs(day(2017, 5, 20), day(2017, 5, 3))
        assert _binned_ids(docs, build_binning(docs)) == [(0, "d0"), (0, "d1")]

    def test_bin_order_then_input_order(self):
        docs = _docs(day(2017, 6, 9), day(2017, 5, 20), day(2017, 6, 1), day(2017, 5, 3))
        pairs = _binned_ids(docs, build_binning(docs))
        assert pairs == [(0, "d1"), (0, "d3"), (1, "d0"), (1, "d2")]

    def test_duplicate_id_is_a_consistency_error(self):
        docs = _docs(day(2017, 5, 1), day(2017, 5, 2))
        with pytest.raises(ConsistencyError, match="'d0'"):
            bin_documents(docs + docs[:1], build_binning(docs))

    def test_out_of_span_names_document(self):
        docs = _docs(day(2017, 5, 1))
        binning = build_binning(docs)
        early = Document(id="early", date=day(2016, 1, 1), text="x")
        with pytest.raises(InputError, match="early"):
            bin_documents(docs + [early], binning)

    def test_empty_bins_retained(self):
        docs = _docs(day(2017, 1, 1), day(2017, 4, 1))
        binning = build_binning(docs)
        assert binning.bin_count == 4
        assert _binned_ids(docs, binning) == [(0, "d0"), (3, "d1")]


dates_strategy = st.dates(min_value=day(2015, 1, 1), max_value=day(2019, 12, 31))


@settings(max_examples=50)
@given(st.lists(dates_strategy, min_size=1, max_size=30))
def test_partition_every_doc_in_exactly_one_bin(dates):
    docs = _docs(*dates)
    binning = build_binning(docs)
    pairs = bin_documents(docs, binning)
    ids = [doc.id for _, doc in pairs]
    assert sorted(ids) == sorted(d.id for d in docs)
    assert len(set(ids)) == len(ids)
    assert all(t == binning.index_of(doc.date) for t, doc in pairs)
    assert [t for t, _ in pairs] == sorted(t for t, _ in pairs)


@settings(max_examples=50)
@given(
    st.lists(dates_strategy, min_size=2, max_size=15),
    st.randoms(use_true_random=False),
    st.sampled_from(["month", "week", "day"]),
)
def test_axis_depends_only_on_dates_not_order(dates, rnd, granularity):
    docs = _docs(*dates)
    shuffled = list(docs)
    rnd.shuffle(shuffled)
    assert build_binning(docs, granularity) == build_binning(shuffled, granularity)


@settings(max_examples=25)
@given(st.lists(dates_strategy, min_size=1, max_size=15))
def test_rebinning_is_deterministic(dates):
    docs = _docs(*dates)
    binning = build_binning(docs)
    assert bin_documents(docs, binning) == bin_documents(docs, binning)
