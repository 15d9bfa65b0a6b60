import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from leecodes.codes import BudgetError

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("script", ["verify_constructions.py"])
def test_script_exits_0(script, tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPTS / script)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_characterize_sweep_prints_the_verdicts(tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPTS / "characterize_sweep.py"), "--n-max", "2"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    assert {theorem: report["verdict"] for theorem, report in doc.items()} == {
        "shiromoto": "EQUAL", "z4_singleton": "EQUAL", "rank_sb": "EXTRA",
        "alderson_huntemann": "EQUAL", "plotkin_rank": "EQUAL"}
    assert {theorem: report["examined"] for theorem, report in doc.items()} == {
        "shiromoto": 97, "z4_singleton": 16, "rank_sb": 97,
        "alderson_huntemann": 0, "plotkin_rank": 40}
    socle = ["(Z/3^2, n=2, subtype=(0, 1)): [(3, 3)]"]
    assert doc["rank_sb"]["extra"] == doc["shiromoto"]["ceiling_form_extras"] == socle


def test_characterize_sweep_at_n4_matches_the_stored_output(tmp_path):
    # the whole --n-max 4 document: verdicts, every extra, missing and
    # ceiling-form entry, and the codes examined per theorem
    proc = subprocess.run([sys.executable, str(SCRIPTS / "characterize_sweep.py"), "--n-max", "4"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout) == json.loads((DATA / "characterize_sweep_n4.json").read_text())


def test_characterize_sweep_refuses_a_length_below_1(tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPTS / "characterize_sweep.py"), "--n-max", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and "--n-max" in proc.stderr


@pytest.mark.parametrize("exc, code", [(BudgetError("space over the budget"), 2),
                                       (ValueError("space over the budget"), 1)])
def test_characterize_sweep_turns_a_failure_into_one_error_line(monkeypatch, capsys, exc, code):
    spec = importlib.util.spec_from_file_location("characterize_sweep",
                                                  SCRIPTS / "characterize_sweep.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    def refuse(*args):
        raise exc

    monkeypatch.setattr(script, "check_characterization", refuse)
    assert script.main(["--n-max", "1"]) == code
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: space over the budget\n")
