"""The README against the code it documents: the kind table (scenarios,
settings sections, params) against ``experiments.KINDS``, the param value
table against ``config._PARAM_CHECKS``, the schema's solver section against
``SolverConfig``, and the library example, which is run."""

import json
import re
from pathlib import Path

from gaussbsde.config import _PARAM_CHECKS
from gaussbsde.experiments import KINDS
from gaussbsde.solver import SolverConfig

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_kind_table_matches_kinds():
    rows = {}
    for line in README.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0] in KINDS:
            rows[cells[0]] = (int(cells[1]), *(re.findall(r"`(\w+)`", cell) for cell in cells[2:]))
    assert set(rows) == set(KINDS)
    for name, kind in KINDS.items():
        assert rows[name] == (kind.scenarios, list(kind.settings), list(kind.required)), name


def test_param_table_matches_param_checks():
    # the rows after the "| param | value |" header, up to the blank line
    table = README.split("| param | value |\n")[1].split("\n\n")[0]
    rows = {}
    for line in table.splitlines()[1:]:  # past the |---| rule
        keys, text = (cell.strip() for cell in line.strip().strip("|").split("|"))
        for key in re.findall(r"`(\w+)`", keys):
            rows[key] = text.replace("`", "")
    assert set(rows) == set(_PARAM_CHECKS)
    for key, (_, message) in _PARAM_CHECKS.items():
        assert rows[key] == message.removeprefix("must be "), key


def test_library_entry_points_run():
    block = README.split("## Library entry points\n")[1].split("```python\n")[1].split("```")[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    clock, paths = namespace["clock"], namespace["paths"]
    assert paths.samples.shape == (100_000, clock.grid_t.size)
    assert isinstance(namespace["y"], float) and isinstance(namespace["z"], float)
    assert namespace["report"].passed


def test_schema_solver_section_matches_solver_config():
    section = re.search(r'"solver": (\{[^}]*\})', README).group(1)
    assert json.loads(section) == SolverConfig().payload()
