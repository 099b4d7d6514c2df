"""The benchmark's tracer (`perfbench/traced.py`) wraps program functions
named as strings in its `TRACED` table. A function renamed or deleted in the
program would only fail the traced benchmark run; here it fails at once."""

import importlib
import importlib.util
from pathlib import Path

TRACED_PY = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def _traced_table() -> dict[str, tuple[str, ...]]:
    # Executing the module defines its tables and classes; no function of
    # the program is wrapped until a Tracer is installed, which this never does.
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_function_resolves():
    table = _traced_table()
    assert table
    missing = [
        f"salience.{module}.{name}"
        for module, names in table.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"salience.{module}"), name, None))
    ]
    assert missing == []
