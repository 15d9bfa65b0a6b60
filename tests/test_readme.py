"""The README's examples run as written."""

import ast
import re
import shlex
from pathlib import Path

from click.testing import CliRunner

from leecodes.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading: str, language: str) -> list[str]:
    """The lines of the first `language` code block under `heading`."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1).splitlines()


def test_readme_command_lines_exit_0(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    made = CliRunner().invoke(main, shlex.split("construct mld --p 2 --s 3 --n 4 -o mycode.code"))
    assert made.exit_code == 0 and (tmp_path / "mycode.code").exists()
    lines = _block("Command line", "bash")
    assert len(lines) == 9
    for line in lines:
        words = shlex.split(line, comments=True)
        assert words[0] == "leecodes", line
        res = CliRunner().invoke(main, words[1:])
        assert res.exit_code == 0, (line, res.output)
        assert res.output, line


def test_readme_python_example_gives_its_commented_values():
    namespace, checked = {}, 0
    for line in _block("Library", "python"):
        code, _, value = line.partition("#")
        if not value:
            exec(code, namespace)
            continue
        assert eval(code, namespace) == ast.literal_eval(value.strip()), line
        checked += 1
    assert checked == 3
