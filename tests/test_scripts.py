import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script", ["reproduce_figures.py", "reproduce_table1.py",
                                    "verify_constructions.py"])
def test_script_exits_0(script, tmp_path):
    args = [str(tmp_path)] if script == "reproduce_figures.py" else []
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    if script == "reproduce_figures.py":
        assert sorted(f.name for f in tmp_path.iterdir()) == \
            ["figure1.csv", "figure2.csv", "figure3.csv"]
