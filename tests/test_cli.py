import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from leecodes.cli import main
from leecodes.codes import BudgetError, parse_code_text

DATA = Path(__file__).resolve().parent / "data"


def run(*args, **kw):
    return CliRunner().invoke(main, list(args), **kw)


def test_bounds_from_parameters():
    res = run("bounds", "--p", "3", "--s", "5", "--n", "20", "--subtype", "10,0,0,0,0")
    assert res.exit_code == 0
    out = res.output
    assert "chiang_wolf" in out and "671" in out
    assert "891" in out      # rank averaging bound
    assert "1214" in out     # Wyner-Graham
    assert "1331" in out     # Shiromoto max-d form
    assert "1210" in out     # Alderson-Huntemann


def test_bounds_z4_row():
    res = run("bounds", "--p", "2", "--s", "2", "--n", "2", "--subtype", "0,1",
              "--json")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["shiromoto_rank"]["floored"] == 4
    assert doc["z4_singleton"]["floored"] == 4


def test_bounds_from_file_reports_attainment(tmp_path):
    path = tmp_path / "c2.code"
    path.write_text("5 1 2\n1 2\n")
    res = run("bounds", "--file", str(path), "--json")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["shiromoto"]["attained"] is True


def test_bounds_input_errors():
    assert run("bounds", "--p", "4", "--s", "1", "--n", "2", "--subtype", "1").exit_code == 1
    assert run("bounds").exit_code == 1


def test_bounds_names_a_subtype_one_way_only():
    # a subtype is --subtype alone, with all s entries: no flag takes a part
    # of it, and none is left at zero by default
    _fails_cleanly(run("bounds", "--p", "3", "--n", "4"))
    assert run("bounds", "--p", "3", "--n", "4").stderr == \
        "error: need --file, or --p/--n with a subtype\n"
    for command in ("bounds", "census"):
        res = run(command, "--p", "5", "--n", "2", "--subtype", "1", "--k1", "2")
        assert res.exit_code == 2 and "No such option" in res.output
    res = run("census", "--p", "5", "--n", "2")
    assert res.exit_code == 2 and "Missing option '--subtype'" in res.output
    res = run("bounds", "--p", "2", "--s", "6", "--n", "3", "--subtype", "1,0,0,0,0,0")
    assert res.exit_code == 0
    assert res.output.startswith("parameters over Z/2^6, n=3, subtype=(1, 0, 0, 0, 0, 0), k=1\n")


def test_bounds_refuses_a_file_with_parameters(tmp_path):
    path = tmp_path / "c.code"
    path.write_text("5 1 2\n1 2\n")
    alone = run("bounds", "--file", str(path))
    assert alone.exit_code == 0
    assert alone.output.startswith("code over Z/5, n=2, subtype=(1,), d_L=3\n")
    for flags in (["--p", "3", "--n", "7", "--subtype", "2"], ["--p", "5"], ["--n", "2"],
                  ["--subtype", "1"]):
        res = run("bounds", "--file", str(path), *flags)
        _fails_cleanly(res)
        assert res.stderr.startswith("error: --file takes no --p, --n or --subtype"), flags



def test_bounds_refuses_a_file_with_an_explicit_s(tmp_path):
    # --s defaults to None, read as 1 in parameter mode, so next to --file
    # any given --s is refused, even one equal to 1
    path = tmp_path / "c.code"
    path.write_text("5 1 2\n1 2\n")
    alone = run("bounds", "--file", str(path))
    assert alone.exit_code == 0
    assert alone.output.startswith("code over Z/5, n=2, subtype=(1,), d_L=3\n")
    for s in ("3", "1"):
        res = run("bounds", "--file", str(path), "--s", s)
        _fails_cleanly(res)
        assert res.stderr.startswith("error: --file takes no "), s
        assert "--s" in res.stderr, s


def test_a_subtype_that_is_no_integer_list_names_the_option():
    for text in ("1,a", "", "1.5", "1,,0"):
        for command in ("bounds", "census"):
            res = run(command, "--p", "5", "--n", "2", "--subtype", text)
            _fails_cleanly(res)
            assert res.stderr == \
                f"error: --subtype takes comma-separated integers, got {text!r}\n", command

def test_a_code_file_of_length_below_1_exits_1(tmp_path):
    path = tmp_path / "c.code"
    for n, rows in (("0", ""), ("-2", "1 2\n")):
        path.write_text(f"5 1 {n}\n{rows}")
        for args in (["inspect", str(path)], ["bounds", "--file", str(path)]):
            res = run(*args)
            _fails_cleanly(res)
            assert res.stderr == f"error: the code length n = {n} is below 1 (line 1)\n", args


def test_inspect(tmp_path):
    path = tmp_path / "c.code"
    path.write_text("2 2 2\n2 2\n")
    res = run("inspect", str(path))
    assert res.exit_code == 0
    assert "type_k: 1/2" in res.output
    assert "rank: 1" in res.output
    assert "min_lee_distance: 4" in res.output

    path.write_text("5 1 4\n1 2 1 3\n")
    res = run("inspect", str(path))
    assert "lee_equidistant: True" in res.output
    assert "min_lee_distance: 6" in res.output

    path.write_text("5 1 2\n0 0\n")
    res = run("inspect", str(path))
    assert res.exit_code == 0
    assert "trivial: True" in res.output


def test_inspect_missing_file():
    assert run("inspect", "/nonexistent.code").exit_code == 1


def _fails_cleanly(res):
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit)   # no traceback
    assert res.stderr.startswith("error: ") and len(res.stderr.splitlines()) == 1


def test_unreadable_and_unwritable_paths_exit_1(tmp_path):
    _fails_cleanly(run("inspect", str(tmp_path)))   # a directory
    _fails_cleanly(run("bounds", "--file", str(tmp_path)))
    missing = str(tmp_path / "missing" / "x")
    _fails_cleanly(run("construct", "equidistant", "--p", "3", "--s", "2", "--i", "1",
                       "--rank", "1", "-o", missing))
    _fails_cleanly(run("construct", "mld", "--p", "2", "--s", "3", "--n", "4", "-o", missing))
    _fails_cleanly(run("table1", "--no-census", "--csv", missing))
    for ell in ("0", "-3"):   # a replication count below 1
        _fails_cleanly(run("construct", "equidistant", "--p", "3", "--s", "2", "--i", "1",
                           "--rank", "1", "--ell", ell))


def test_construct_equidistant_round_trip():
    res = run("construct", "equidistant", "--p", "3", "--s", "2", "--i", "1",
              "--rank", "1")
    assert res.exit_code == 0
    code = parse_code_text(res.output)
    assert code.n == 11
    assert code.min_lee_distance() == 27
    assert "weight=27" in res.output
    assert "lee_equidistant=True" in res.output

    res = run("construct", "equidistant", "--p", "3", "--s", "2", "--i", "1",
              "--rank", "2")
    code = parse_code_text(res.output)
    assert code.n == 12 and len(code.given_rows) == 2


def test_construct_equidistant_rejects_p2():
    res = run("construct", "equidistant", "--p", "2", "--s", "2", "--i", "1",
              "--rank", "2")
    assert res.exit_code == 1


def test_construct_mld():
    res = run("construct", "mld", "--p", "2", "--s", "3", "--n", "4")
    assert res.exit_code == 0
    code = parse_code_text(res.output)
    assert code.given_rows == ((4, 4, 4, 4),)
    assert "d_L=16" in res.output
    assert run("construct", "mld", "--p", "7", "--s", "1", "--n", "3").exit_code == 1
    # the second witness over Z/4 at n=20, the dual of the repetition code,
    # has 2^39 codewords: its d_L is refused
    res = run("construct", "mld", "--p", "2", "--s", "2", "--n", "20", "--index", "1")
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)   # no traceback
    assert res.stderr.startswith("error: ") and len(res.stderr.splitlines()) == 1
    # over Z/4 at n = 1 <(2)> is its own dual, listed once, so index 1 is refused
    res = run("construct", "mld", "--p", "2", "--s", "2", "--n", "1")
    assert res.exit_code == 0 and "catalog witness 1 of 1" in res.output
    res = run("construct", "mld", "--p", "2", "--s", "2", "--n", "1", "--index", "1")
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.stderr.startswith("error: ") and len(res.stderr.splitlines()) == 1


def test_construct_mld_refuses_a_length_below_1():
    res = run("construct", "mld", "--p", "2", "--s", "2", "--n", "-2")
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)   # no traceback
    assert res.stderr == "error: the code length n = -2 is below 1\n"


def test_census_command():
    res = run("census", "--p", "2", "--s", "2", "--n", "3", "--subtype", "1,1")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["max_lee_distance"] == 2

    res = run("census", "--p", "5", "--n", "2", "--subtype", "1")
    doc = json.loads(res.output)
    assert doc["max_lee_distance"] == 3
    assert len(doc["optimal_generators"]) == 1  # one class, led by <(1,2)>

    # budget refusal is exit code 2
    res = run("census", "--p", "3", "--s", "2", "--n", "4", "--subtype", "2,1",
              "--budget", "10")
    assert res.exit_code == 2
    # a zero budget refuses every space, it does not lift the budget
    res = run("census", "--p", "5", "--n", "2", "--subtype", "1", "--budget", "0")
    assert res.exit_code == 2
    assert "has 6 codes" in res.stderr
    # so is a code past the codeword budget: the one code of Z/9 n=12 (12,0)
    # has 9^12 codewords, and the scan refuses it before building its grid
    res = run("census", "--p", "3", "--s", "2", "--n", "12", "--subtype", "12,0")
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)   # no traceback
    assert res.stderr.startswith("error: ") and "enumeration budget" in res.stderr
    assert len(res.stderr.splitlines()) == 1


def test_bounds_and_census_refuse_parameters_no_code_has():
    # a negative subtype entry, or a length below 1, is refused by the one
    # subtype check that both commands reach
    for flags in (["--n", "3", "--subtype", "1,-1,1"], ["--n", "0", "--subtype", "0,0,0"]):
        for command in ("bounds", "census"):
            res = run(command, "--p", "2", "--s", "3", *flags)
            assert res.exit_code == 1, (command, flags)
            assert isinstance(res.exception, SystemExit)   # no traceback
            assert res.stderr.startswith("error: no code over Z/2^3 has length"), (command, flags)
            assert len(res.stderr.splitlines()) == 1


def test_census_of_many_equivalent_optima():
    # 32 optimal codes in one class; a pairwise search once refused this
    res = run("census", "--p", "3", "--n", "6", "--subtype", "5")
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["max_lee_distance"] == 2 and len(doc["optimal_generators"]) == 1


def _python_m(*args):
    """Run `python -m leecodes` in a real interpreter on this checkout's src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "leecodes", *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_python_m_runs_from_a_checkout():
    proc = _python_m("census", "--p", "5", "--n", "2", "--subtype", "1")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["max_lee_distance"] == 3


def test_python_m_characterize_runs_from_a_checkout():
    proc = _python_m("characterize", "--n-max", "1")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["shiromoto"]["verdict"] == "EQUAL"


def test_census_past_q_to_the_n_2_63_scales_the_z8_census():
    # over Z/2^16 at n = 4, q^n = 2^64; x -> 2^13 x embeds Z/8 in Z/2^16 and
    # multiplies every Lee weight by 2^13, so the optima of subtype
    # (0^13, 1, 1, 1) are those of Z/8 n=4 (1,1,1) scaled, all 49 classes
    big = run("census", "--p", "2", "--s", "16", "--n", "4",
              "--subtype", "0,0,0,0,0,0,0,0,0,0,0,0,0,1,1,1")
    small = run("census", "--p", "2", "--s", "3", "--n", "4", "--subtype", "1,1,1")
    assert big.exit_code == small.exit_code == 0, big.output + small.output
    big, small = json.loads(big.output), json.loads(small.output)
    assert big["max_lee_distance"] == 2**13 * small["max_lee_distance"]
    assert big["codes_examined"] == small["codes_examined"]
    assert len(big["optimal_generators"]) == 49
    assert big["optimal_generators"] == [[[2**13 * x for x in row] for row in code]
                                         for code in small["optimal_generators"]]


def test_table1_command(tmp_path):
    out = tmp_path / "table.csv"
    res = run("table1", "--no-census", "--csv", str(out))
    assert res.exit_code == 0, res.output
    assert "documented" in res.output
    assert "UNDOCUMENTED" not in res.output
    assert out.read_text().startswith("n,K,k,k1,max_d")


def test_figure_command_stable():
    a = run("figure", "1")
    b = run("figure", "1")
    assert a.exit_code == 0 and a.output == b.output
    assert a.output.splitlines()[0] == "k2,bound_id,value"
    assert "0,chiang_wolf,671" in a.output
    assert "0,shiromoto,1331" in a.output


def test_characterize_prints_the_verdicts():
    res = run("characterize", "--n-max", "2")
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert {theorem: report["verdict"] for theorem, report in doc.items()} == {
        "shiromoto": "EQUAL", "z4_singleton": "EQUAL", "rank_sb": "EXTRA",
        "alderson_huntemann": "VACUOUS", "plotkin_rank": "EQUAL"}
    assert {theorem: report["examined"] for theorem, report in doc.items()} == {
        "shiromoto": 97, "z4_singleton": 16, "rank_sb": 97,
        "alderson_huntemann": 0, "plotkin_rank": 40}
    socle = ["(Z/3^2, n=2, subtype=(0, 1)): [(3, 3)]"]
    assert doc["rank_sb"]["extra"] == doc["shiromoto"]["ceiling_form_extras"] == socle


def test_characterize_at_n4_matches_the_stored_output():
    # the whole --n-max 4 document: verdicts, every extra, missing and
    # ceiling-form entry, and the codes examined per theorem
    res = run("characterize", "--n-max", "4")
    assert res.exit_code == 0, res.output
    assert json.loads(res.output) == json.loads((DATA / "characterize_sweep_n4.json").read_text())


def test_characterize_refuses_a_length_below_1():
    res = run("characterize", "--n-max", "0")
    assert res.exit_code == 2 and "--n-max" in res.stderr


@pytest.mark.parametrize("exc, code", [(BudgetError("space over the budget"), 2),
                                       (ValueError("space over the budget"), 1)])
def test_characterize_turns_a_failure_into_one_error_line(monkeypatch, exc, code):
    def refuse(*args):
        raise exc

    monkeypatch.setattr("leecodes.cli.check_characterizations", refuse)
    res = run("characterize", "--n-max", "1")
    assert res.exit_code == code
    assert (res.stdout, res.stderr) == ("", "error: space over the budget\n")
