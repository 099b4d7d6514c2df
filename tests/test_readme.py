"""README's stage table, `| subcommand | reads | writes |`, is the
declaration in `salience.runs.STAGES`: the artifacts each stage reads and
the globs it writes, in order, and the input files it names among its
options."""

import re
from pathlib import Path

from salience.runs import STAGES

README = Path(__file__).resolve().parents[1] / "README.md"
HEADER = "| subcommand | reads | writes |"


def _stage_table() -> dict[str, tuple[list[str], list[str]]]:
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(HEADER) + 2  # past the header and its rule
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        name, reads, writes = (cell.strip() for cell in line.strip("|").split("|"))
        table[name.strip("`")] = (reads.split(", "), writes.split(", "))
    return table


def _artifacts(cells: list[str]) -> list[str]:
    return [cell.strip("`") for cell in cells if cell.startswith("`")]


def test_readme_stage_table_is_the_declaration():
    table = _stage_table()
    assert list(table) == list(STAGES)
    for name, (reads, writes) in table.items():
        stage = STAGES[name]
        assert _artifacts(reads) == list(stage.reads), name
        assert _artifacts(writes) == list(stage.writes), name
        assert all(cell.startswith("`") for cell in writes), name
        # What else it reads is an input file that its subcommand names.
        for cell in reads:
            if not cell.startswith("`"):
                assert re.fullmatch(r"the (\w+)", cell), (name, cell)
                assert cell.removeprefix("the ") in stage.options, (name, cell)
