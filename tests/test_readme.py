"""The README's configuration schema against the code it documents: the kind
table against ``experiments.KINDS`` and the schema's solver section against
``SolverConfig``."""

import json
import re
from pathlib import Path

from gaussbsde.experiments import KINDS
from gaussbsde.solver import SolverConfig

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_kind_table_matches_kinds():
    rows = {}
    for line in README.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0] in KINDS:
            rows[cells[0]] = (int(cells[1]), set(re.findall(r"`(\w+)`", cells[2])))
    assert set(rows) == set(KINDS)
    for name, kind in KINDS.items():
        assert rows[name] == (kind.scenarios, set(kind.required + kind.optional)), name


def test_schema_solver_section_matches_solver_config():
    section = re.search(r'"solver": (\{[^}]*\})', README).group(1)
    assert json.loads(section) == SolverConfig().payload()
