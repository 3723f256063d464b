"""``tools/seed_sweep.py`` runs suite entries in this process, through the
runners alone."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "seed_sweep.py"


def test_one_seed_of_two_entries(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts src/ first
    spec = importlib.util.spec_from_file_location("seed_sweep", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main(["--seeds", "1", "--only", "t2", "lsi"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "suite seeds 1-1",
        "t2: verdict failed 0/1 []; not asserted 0 []; raised 0 []",
        "lsi: verdict failed 0/1 []; not asserted 0 []; raised 0 []",
    ]
