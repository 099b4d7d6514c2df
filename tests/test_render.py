import os
import subprocess
import sys
from pathlib import Path
from xml.sax.saxutils import escape as sax_escape

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import salience
from salience.errors import InputError
from salience.render import escape, render_grid_svg, render_trend_svg
from salience.salience import salience_matrix
from salience.topics import build_vector_space, load_pmesii_ascope, similarity_matrix


class TestTrendSvg:
    def test_constant_series_is_one_polyline(self):
        svg = render_trend_svg([("flat", [0.5, 0.5, 0.5])], ["a", "b", "c"])
        assert svg.count("<polyline") == 1
        assert svg.startswith("<svg") and svg.endswith("</svg>")

    def test_two_series_two_polylines_two_legend_entries(self):
        svg = render_trend_svg(
            [("one", [0.1, 0.2]), ("two", [0.3, 0.1])], ["a", "b"], title="pair"
        )
        assert svg.count("<polyline") == 2
        assert svg.count('class="legend"') == 2
        assert ">one</text>" in svg and ">two</text>" in svg

    def test_single_bin_uses_markers_not_segments(self):
        svg = render_trend_svg([("point", [0.4])], ["only"])
        assert "<polyline" not in svg
        assert "<circle" in svg

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            render_trend_svg([("bad", [0.1, 0.2])], ["a", "b", "c"])

    def test_no_series(self):
        with pytest.raises(InputError):
            render_trend_svg([], ["a"])

    def test_no_external_resources(self):
        svg = render_trend_svg([("s", [0.0, 1.0])], ["a", "b"])
        assert "http://www.w3.org/2000/svg" in svg
        assert "href" not in svg and "<script" not in svg

    def test_label_escaping(self):
        svg = render_trend_svg([("a<b", [0.1])], ["x&y"])
        assert "a&lt;b" in svg and "x&amp;y" in svg


class TestGridSvg:
    def test_full_grid_has_all_cells_and_labels(self):
        values = [[float(r * 6 + c) for c in range(6)] for r in range(6)]
        rows = [f"R{i}" for i in range(6)]
        cols = [f"C{i}" for i in range(6)]
        svg = render_grid_svg(values, rows, cols, title="grid")
        assert svg.count("<rect") >= 36
        for label in rows + cols:
            assert f">{label}</text>" in svg

    def test_zero_matrix_legend_shows_zero(self):
        svg = render_grid_svg([[0.0, 0.0]], ["r"], ["c1", "c2"])
        assert ">min 0</text>" in svg and ">max 0</text>" in svg

    def test_single_cell(self):
        svg = render_grid_svg([[1.5]], ["r"], ["c"])
        assert "<svg" in svg and "1.5" in svg

    def test_ragged_grid_rejected(self):
        with pytest.raises(InputError):
            render_grid_svg([[1.0, 2.0], [3.0]], ["r1", "r2"], ["c1", "c2"])

    def test_legend_annotates_value_range(self):
        svg = render_grid_svg([[-2.0, 4.0]], ["r"], ["c1", "c2"])
        assert ">min -2</text>" in svg and ">max 4</text>" in svg


class TestMatrixSvg:
    def test_salience_matrix_renders_via_framework_grid(self):
        fw = load_pmesii_ascope()
        salience = np.array([[0.1 * i] for i in range(len(fw.topics))])
        grid = salience_matrix(fw, salience)[:, 0].reshape(len(fw.rows), len(fw.columns))
        svg = render_grid_svg(
            grid.tolist(), list(fw.rows), list(fw.columns), title="topic salience at 2016-01"
        )
        assert "2016-01" in svg
        assert svg.count("<rect") >= 36

    def test_similarity_matrix_titled_by_ngram(self):
        fw = load_pmesii_ascope()
        space, vectors = build_vector_space(fw)
        values = similarity_matrix(["election ballot"], space, vectors)
        grid = np.array(values)[fw.grid_order()].reshape(len(fw.rows), -1)
        svg = render_grid_svg(grid.tolist(), list(fw.rows), list(fw.columns), title="ballot count")
        assert "ballot count" in svg
        assert svg.count("<rect") >= 36


@given(st.text(alphabet=st.sampled_from("&<>;\"'a é#x0123amp")) | st.text())
def test_escape_matches_saxutils(text):
    assert escape(text) == sax_escape(text)


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child(code: str, **env: str) -> str:
    """What `python -c code` prints, in a fresh interpreter that finds this
    package and has none of BLAS_THREADS set except as `env` sets them."""
    paths = [str(Path(salience.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    env = {**base, "PYTHONPATH": os.pathsep.join(filter(None, paths)), **env}
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return out.stdout.strip()


def test_cli_import_loads_no_network_modules():
    # Every CLI child pays for what `import salience.cli` loads;
    # xml.sax.saxutils alone would bring in urllib, http, email and socket.
    code = (
        "import sys, salience.cli; "
        "print(sorted(m for m in ('urllib.request', 'http.client', 'email', 'ssl', 'socket') "
        "if m in sys.modules))"
    )
    assert _child(code) == "[]"


def test_package_import_loads_no_module_until_a_name_is_used():
    # The CLI sets BLAS_THREADS before numpy loads; `import salience` runs
    # first in every CLI process, so it must not load numpy, and as a
    # library import it leaves the environment alone. RunConfig's module,
    # which every CLI process loads, loads no numpy either.
    code = (
        "import os, sys; env = dict(os.environ); import salience; "
        "print('numpy' in sys.modules, dict(os.environ) == env, "
        "salience.RunConfig.__module__, 'numpy' in sys.modules, end=' '); "
        "salience.run_analyze; print('numpy' in sys.modules)"
    )
    assert _child(code) == "False True salience.runs False True"
    assert all(hasattr(salience, name) for name in salience.__all__)


@pytest.mark.parametrize(
    "env, threads",
    [({}, ["1", "1", "1"]), ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"])],
    ids=["unset", "user-set"],
)
def test_cli_runs_numpy_with_one_blas_thread_unless_told_otherwise(env, threads):
    code = f"import os, salience.cli; print([os.environ.get(v) for v in {BLAS_THREADS}])"
    assert _child(code, **env) == str(threads)
