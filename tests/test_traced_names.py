"""The benchmark (`perfbench/`) names program functions: its tracer
(`perfbench/traced.py`) wraps those named as strings in its `TRACED` table,
and its modules and tests import others. A name renamed or deleted in the
program would only fail the benchmark run; here it fails at once."""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACED_PY = PERFBENCH / "traced.py"


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


def _resolves(module: str, name: str | None = None) -> bool:
    """Whether `import module` works and, given `name`, `from module import
    name` does: an attribute of the module or a submodule of it."""
    try:
        found = importlib.import_module(module)
    except ImportError:
        return False
    return name is None or hasattr(found, name) or _resolves(f"{module}.{name}")


def test_every_name_perfbench_imports_from_the_package_resolves():
    imports = []
    for path in sorted(PERFBENCH.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                imports += [(path, alias.name, None) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imports += [(path, node.module, alias.name) for alias in node.names]
    ours = [entry for entry in imports if entry[1].split(".")[0] == "salience"]
    assert len({path for path, _, _ in ours}) >= 3  # the parse found the imports
    missing = [
        f"{path.relative_to(PERFBENCH.parent)}: {module}" + (f".{name}" if name else "")
        for path, module, name in ours
        if not _resolves(module, name)
    ]
    assert missing == []
