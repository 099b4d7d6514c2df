"""The readers of the smaller artifacts, `load_trend_csv` (the three topic
trend CSVs), `load_associations_json` and `load_matrix_json`, against
corrupted copies of what `analyze` wrote.

A copy has one number changed, is cut at a byte, or has one line (of a CSV
file) or the text between two commas (of a JSON file) dropped or repeated.
Its loader must refuse it with an InputError whose message starts with the
file's path (for associations, a ConsistencyError naming a member that has
no usage trend is also allowed), or return what csv.reader or json.loads
reads from it. Any other exception is a bug.

Explicit cases cover what a changed number may not reach: thresholds that
json.loads reads but the writer cannot write, and a matrix whose bin is not
the one its file is named by.

`load_table_json` reads nothing back: it scans the corpus again and checks
that ngram_table.json holds that scan's text, so a copy of the table with
one byte cut, changed, dropped or repeated must be refused, with an
InputError whose message starts with the file's path."""

import csv
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from salience.errors import ConsistencyError, InputError
from salience.pipeline import (
    RunConfig,
    load_associations_json,
    load_ngram_trends_csv,
    load_table_json,
    load_trend_csv,
    run_analyze,
)
from salience.runs import load_matrix_json
from salience.synth import PlantedEvent, SynthSpec, corpus_to_jsonl, generate_corpus
from salience.topics import load_pmesii_ascope

from conftest import burst_phrases, disjoint_framework, framework_file

TRENDS = ("topic_usage.csv", "salience.csv", "salience_normalized.csv")
# A number as the compact JSON artifacts lay one out: after its key (group
# 1), or as a list item, and before a comma or a closing bracket.
JSON_NUMBER = re.compile(
    r'(?:"(\w+)":|(?<=[\[,]))(-?(?:[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?|Infinity)|NaN)(?=[,\]}])'
)
CORRUPT_NUMBERS = ["nan", "NaN", "inf", "Infinity", "-1", "2", "", "x", "null", '"0.5"', "true"]


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """The artifacts of two analyze runs, by name: one with a framework
    without a grid, at the 50th percentile so that topics have members, and
    the matrix of one bin from a run with the PMESII-ASCOPE grid. A matrix
    is named as a matrix is read, by its bin, in a folder per run; and the
    corpus with the n-gram table scanned from it. Also the n-grams of the
    usage trends, which associations are read against."""
    tmp = tmp_path_factory.mktemp("fuzz")
    spec = SynthSpec(
        seed=3,
        bin_count=6,
        docs_per_bin=3,
        background_vocab=12,
        sentence_length=(5, 9),
        sentences_per_doc=(3, 5),
        events=(PlantedEvent("harbor_trade", burst_phrases("harbor_trade"), 2, 2, 0.5),),
    )
    corpus = tmp / "corpus.jsonl"
    corpus.write_text(corpus_to_jsonl(generate_corpus(spec)[0]), encoding="utf-8")
    files = {}
    for name, framework in (("plain", disjoint_framework()), ("grid", load_pmesii_ascope())):
        out = tmp / name
        fw = framework_file(tmp, framework, name=f"{name}.json")
        run_analyze(RunConfig(corpus=corpus, framework=fw, out_dir=out, min_total=1, percentile=50))
        files[f"{name}/2016-03.json"] = (out / "matrices" / "2016-03.json").read_bytes()
        if name == "plain":
            files.update({trend: (out / trend).read_bytes() for trend in TRENDS})
            files["associations.json"] = (out / "associations.json").read_bytes()
            files["ngram_table.json"] = (out / "ngram_table.json").read_bytes()
            files["corpus.jsonl"] = corpus.read_bytes()
            keys = load_ngram_trends_csv(out / "ngram_trends.csv")[0]
    assert any(entry["members"] for entry in json.loads(files["associations.json"]).values())
    return files, keys


@st.composite
def corruptions(draw, files, names):
    """One of the artifacts `names` and a corrupted copy of its bytes. A
    number of a JSON artifact is drawn by its key first, so that the few
    thresholds are drawn as often as the many member values."""
    name = draw(st.sampled_from(names))
    data = files[name]
    kind = draw(st.sampled_from(["number", "cut", "drop", "repeat"]))
    if kind == "cut":
        return name, data[: draw(st.integers(0, len(data) - 1))]
    text = data.decode("utf-8")
    if kind == "number":
        if name.endswith(".csv"):
            lines = text.split("\n")
            at = draw(st.integers(1, len(lines) - 2))
            cells = lines[at].split(",")
            cells[draw(st.integers(1, len(cells) - 1))] = draw(st.sampled_from(CORRUPT_NUMBERS))
            lines[at] = ",".join(cells)
            return name, "\n".join(lines).encode("utf-8")
        by_key: dict[str | None, list[re.Match]] = {}
        for number in JSON_NUMBER.finditer(text):
            by_key.setdefault(number.group(1), []).append(number)
        number = draw(st.sampled_from(draw(st.sampled_from(list(by_key.values())))))
        wrong = draw(st.sampled_from(CORRUPT_NUMBERS))
        text = text[: number.start(2)] + wrong + text[number.end(2) :]
        return name, text.encode("utf-8")
    # A line of a CSV file, or the text between two commas of a JSON file's
    # one line, is dropped or repeated; the final newline stays.
    separator = "\n" if name.endswith(".csv") else ","
    pieces = text[:-1].split(separator)
    at = draw(st.integers(0, len(pieces) - 1))
    if kind == "drop":
        del pieces[at]
    else:
        pieces.insert(at, pieces[at])
    return name, (separator.join(pieces) + "\n").encode("utf-8")


def _csv_reading(path: Path):
    """What csv.reader makes of a trend CSV, as `load_trend_csv` returns it."""
    with path.open(encoding="utf-8", newline="") as fh:
        header, *rows = [row for row in csv.reader(fh) if row]
    return {row[0]: [float(v) for v in row[1:]] for row in rows}, header[1:]


def _json_reading(path: Path, keys: list[str]):
    """What json.loads makes of associations.json, as the fields that
    `load_associations_json` keeps: each topic's members, as rows of `keys`,
    and its thresholds."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    return {
        topic_id: (
            tuple(keys.index(member["ngram"]) for member in entry["members"]),
            repr(float(entry["sim_threshold"])),
            repr(float(entry["rsd_threshold"])),
        )
        for topic_id, entry in payload.items()
    }


@pytest.mark.parametrize(
    "names",
    [TRENDS, ("associations.json",), ("plain/2016-03.json", "grid/2016-03.json")],
    ids=["trends", "associations", "matrix"],
)
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_corrupted_artifact_is_refused_or_read_as_csv_or_json_reads_it(written, names, data):
    files, keys = written
    name, corrupted = data.draw(corruptions(files, names))
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / name
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(corrupted)
        try:
            if name in TRENDS:
                assert load_trend_csv(path) == _csv_reading(path)
            elif name == "associations.json":
                loaded = load_associations_json(path, keys)
                assert {
                    topic_id: (a.members, repr(a.sim_threshold), repr(a.rsd_threshold))
                    for topic_id, a in loaded.items()
                } == _json_reading(path, keys)
            else:
                assert load_matrix_json(path) == json.loads(corrupted)
        except InputError as exc:
            assert str(exc).startswith(f"{path}: "), exc
        except ConsistencyError as exc:
            assert name == "associations.json", exc
            assert re.fullmatch(r"topic .+: no usage trend for member .+", str(exc)), exc


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_changed_table_is_refused(written, data):
    files, _ = written
    table = files["ngram_table.json"]
    at = data.draw(st.integers(0, len(table) - 1))
    kind = data.draw(st.sampled_from(["cut", "change", "drop", "repeat"]))
    if kind == "cut":
        changed = table[:at]
    elif kind == "change":
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != table[at]))
        changed = table[:at] + bytes([byte]) + table[at + 1 :]
    elif kind == "drop":
        changed = table[:at] + table[at + 1 :]
    else:
        changed = table[: at + 1] + table[at:]
    with tempfile.TemporaryDirectory() as folder:
        corpus, path = Path(folder) / "corpus.jsonl", Path(folder) / "ngram_table.json"
        corpus.write_bytes(files["corpus.jsonl"])
        path.write_bytes(changed)
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}: "):
            load_table_json(path, corpus)


# A threshold as associations.json spells it, and values that json.loads
# reads but the writer cannot write: float() took each of them.
NOT_FINITE_NUMBERS = [
    "true", "false", '"0.5"', "null", "[0.5]", "NaN", "-Infinity", "1e999",
    pytest.param("9" * 400, id="int-above-the-largest-float"),
]


@pytest.mark.parametrize("key", ["sim_threshold", "rsd_threshold"])
@pytest.mark.parametrize("value", NOT_FINITE_NUMBERS)
def test_threshold_that_is_not_a_finite_number_is_refused(tmp_path, key, value):
    path = tmp_path / "associations.json"
    entry = {"sim_threshold": 0.25, "rsd_threshold": 0.5, "members": []}
    path.write_text(json.dumps({"t1": entry, "t2": {**entry, key: "@"}}).replace('"@"', value))
    message = f"{path}: topic 't2': thresholds must be finite numbers"
    with pytest.raises(InputError, match=re.escape(message)):
        load_associations_json(path, [])


@pytest.mark.parametrize("value", ["0", "-1", "5e-324", "1.7976931348623157e+308"])
def test_threshold_that_is_a_finite_number_is_read(tmp_path, value):
    path = tmp_path / "associations.json"
    entry = {"sim_threshold": "@", "rsd_threshold": 0.5, "members": []}
    path.write_text(json.dumps({"t1": entry}).replace('"@"', value))
    assert load_associations_json(path, [])["t1"].sim_threshold == float(value)


@pytest.mark.parametrize("label", [7, None, True, ["2016-03"], "2016-04", "2016-03.json", ""])
def test_matrix_of_a_bin_other_than_its_file_name_is_refused(written, tmp_path, label):
    files, _ = written
    path = tmp_path / "2016-03.json"
    payload = json.loads(files["plain/2016-03.json"])
    path.write_text(json.dumps({**payload, "bin": label}))
    with pytest.raises(InputError, match=re.escape(f"{path}: matrix bin {label!r} is not")):
        load_matrix_json(path)
    path.write_text(json.dumps(payload))
    assert load_matrix_json(path) == payload
