"""Command-line surface: bound evaluation, code inspection, constructions,
censuses, the characterization sweep, and reproduction of the published
table and figure data.

Exit codes: 0 success, 1 input error, 2 budget refusal, 3 reference mismatch.
"""

from __future__ import annotations

import functools
import json
import sys

import click

from . import report as report_mod
from .bounds import CodeParams, evaluate_bounds
from .codes import BudgetError, LinearCode, format_code_text, parse_code_text
from .constructions import (EquidistantSpec, catalog_mld, equidistant_rank1,
                            equidistant_rank2, predict_support_subtype)
from .ring import Modulus
from .search import (CENSUS_BUDGET, SearchSpace, check_characterization,
                     max_lee_distance_census)

SWEEP_RINGS = [Modulus(2, 2), Modulus(5, 1), Modulus(7, 1), Modulus(2, 3), Modulus(3, 2)]
SWEEP_THEOREMS = ["shiromoto", "z4_singleton", "rank_sb", "alderson_huntemann", "plotkin_rank"]
SWEEP_KEYS = ["verdict", "extra", "missing", "ceiling_form_extras", "examined"]


def _fail(message: str, code: int = 1):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _exit_codes(command):
    """Run a command, mapping a budget refusal to exit 2 and an input error
    to exit 1, each reported as one `error:` line."""
    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except BudgetError as exc:
            _fail(str(exc), 2)
        except ValueError as exc:
            _fail(str(exc))
    return run


def _load_code(path: str) -> LinearCode:
    try:
        with open(path) as fh:
            text = fh.read()
    except FileNotFoundError:
        _fail(f"no such file: {path}")
    except OSError as exc:
        _fail(f"cannot read {path}: {exc.strerror}")
    return parse_code_text(text)


def _emit(text: str, path: str | None):
    """Write text to the file at path, or to stdout when no path is given."""
    if not path:
        click.echo(text, nl=False)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        _fail(f"cannot write {path}: {exc.strerror}")


def _subtype(text: str) -> tuple[int, ...]:
    """The comma-separated integer entries of --subtype; `CodeParams` and
    `SearchSpace` check them."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"--subtype takes comma-separated integers, got {text!r}") from None


@click.group()
def main():
    """Linear codes over Z/p^s Z in the Lee metric."""


@main.command("bounds")
@click.option("--file", "path", type=str, default=None, help="code file to evaluate")
@click.option("--p", type=int, default=None)
@click.option("--s", type=int, default=None, help="[default: 1]")
@click.option("--n", type=int, default=None)
@click.option("--subtype", default=None, help="comma-separated k_1,...,k_s")
@click.option("--json", "as_json", is_flag=True, help="emit JSON instead of a table")
@_exit_codes
def cmd_bounds(path, p, s, n, subtype, as_json):
    """Evaluate every bound for a parameter set or a concrete code."""
    if path is not None:
        if (p, s, n, subtype) != (None, None, None, None):
            raise ValueError("--file takes no --p, --n or --subtype, nor --s: the code sets them")
        code = _load_code(path)
        cells = evaluate_bounds(code)
        header = f"code over {code.modulus}, n={code.n}, subtype={code.subtype}, d_L={code.min_lee_distance()}"
    else:
        if p is None or n is None or subtype is None:
            raise ValueError("need --file, or --p/--n with a subtype")
        m = Modulus(p, 1 if s is None else s)
        st = _subtype(subtype)
        params = CodeParams.from_subtype(m, n, st)
        cells = evaluate_bounds(params)
        header = f"parameters over {m}, n={n}, subtype={st}, k={params.k}"
    if as_json:
        doc = {name: {"value": str(c.value) if c.value is not None else None,
                      "floored": c.floored, "applicable": c.applicable,
                      "attained": c.attained,
                      **({"stated": c.stated} if c.stated is not None else {})}
               for name, c in cells.items()}
        click.echo(json.dumps(doc, indent=2))
        return
    click.echo(header)
    for name, c in cells.items():
        if not c.applicable:
            click.echo(f"  {name:<20} -")
            continue
        extra = "" if c.attained is None else f"  attained={c.attained}"
        shown = f"{c.floored}" if c.value == c.floored else f"{c.floored} (= floor {c.value})"
        if c.stated is not None and c.stated != c.floored:
            shown += f", stated form {c.stated}"
        click.echo(f"  {name:<20} {shown}{extra}")


@main.command("inspect")
@click.argument("path")
@_exit_codes
def cmd_inspect(path):
    """Structural report for a code file."""
    info = report_mod.inspect_code(_load_code(path))
    for key, value in info.items():
        click.echo(f"{key}: {value}")


@main.group("construct")
def cmd_construct():
    """Emit a named construction in the text code format."""


@cmd_construct.command("equidistant")
@click.option("--p", type=int, required=True)
@click.option("--s", type=int, required=True)
@click.option("--i", "level", type=int, required=True, help="level of the non-socle generator")
@click.option("--rank", type=click.Choice(["1", "2"]), required=True)
@click.option("--ell", type=int, default=1, show_default=True, help="replication factor")
@click.option("-o", "--out", type=str, default=None, help="write to a file instead of stdout")
@_exit_codes
def construct_equidistant(p, s, level, rank, ell, out):
    spec = EquidistantSpec(Modulus(p, s), level, int(rank))
    code = equidistant_rank1(spec) if spec.rank == 1 else equidistant_rank2(spec)
    if ell != 1:
        code = code.replicate(ell)  # refuses ell < 1
    comments = [
        f"shortest Lee-equidistant construction: rank {rank}, level i={level}"
        + (f", replicated {ell}-fold" if ell > 1 else ""),
        f"codewords={code.cardinality} lee_equidistant={code.is_lee_equidistant()} "
        f"weight={code.min_lee_distance()}",
        f"support_subtype={code.support_subtype()}",
    ]
    if ell == 1:
        comments.append(f"predicted_support_subtype={predict_support_subtype(spec)}")
    _emit(format_code_text(code, comments), out)


@cmd_construct.command("mld")
@click.option("--p", type=int, required=True)
@click.option("--s", type=int, required=True)
@click.option("--n", type=int, required=True)
@click.option("--index", type=int, default=0, show_default=True,
              help="which catalog witness to emit (they are listed in a footer)")
@click.option("-o", "--out", type=str, default=None)
@_exit_codes
def construct_mld(p, s, n, index, out):
    codes = catalog_mld(Modulus(p, s), n)
    if not codes:
        raise ValueError(f"no catalog witness for p={p}, s={s}, n={n}")
    if not (0 <= index < len(codes)):
        raise ValueError(f"catalog holds {len(codes)} witnesses; --index out of range")
    code = codes[index]
    comments = [f"catalog witness {index + 1} of {len(codes)}, "
                f"d_L={code.min_lee_distance()}"]
    _emit(format_code_text(code, comments), out)


@main.command("census")
@click.option("--p", type=int, required=True)
@click.option("--s", type=int, default=1, show_default=True)
@click.option("--n", type=int, required=True)
@click.option("--subtype", required=True, help="comma-separated k_1,...,k_s")
@click.option("--budget", type=int, default=CENSUS_BUDGET, show_default=True,
              help="refuse (exit 2) a space of more codes than this")
@_exit_codes
def cmd_census(p, s, n, subtype, budget):
    """Exhaustive max-d_L census over one (p, s, n, subtype) space."""
    space = SearchSpace(Modulus(p, s), n, _subtype(subtype), budget)
    click.echo(max_lee_distance_census(space).to_json())


@main.command("characterize")
@click.option("--n-max", type=click.IntRange(min=1), required=True, help="largest code length")
@_exit_codes
def cmd_characterize(n_max):
    """Run the five scanning characterization checks (all but
    rank2_equidistant) over Z/4, Z/5, Z/7, Z/8 and Z/9 at every length up to
    --n-max; print each verdict, its extra, missing and ceiling-form lists
    where the check keeps them, and the codes examined, as JSON."""
    doc = {}
    for theorem in SWEEP_THEOREMS:
        report = check_characterization(theorem, SWEEP_RINGS, n_max)
        doc[theorem] = {key: report[key] for key in SWEEP_KEYS if key in report}
    click.echo(json.dumps(doc, indent=2))


@main.command("table1")
@click.option("--csv", "csv_path", type=str, default=None, help="also write the CSV here")
@click.option("--no-census", is_flag=True, help="skip the max-d column (bounds only)")
def cmd_table1(csv_path, no_census):
    """Recompute the Z/4 comparison table and diff it against the published
    reference; exits 3 on any undocumented cell mismatch."""
    rep = report_mod.table_report(run_census=not no_census)
    _emit(report_mod.table_csv(rep), csv_path)
    click.echo("\n".join(report_mod.mismatch_lines(rep)))
    if rep.undocumented:
        sys.exit(3)


@main.command("figure")
@click.argument("fig_id", type=click.Choice(["1", "2", "3"]))
def cmd_figure(fig_id):
    """Emit the five bound curves of one comparison figure as CSV."""
    click.echo(report_mod.figure_csv(int(fig_id)), nl=False)


if __name__ == "__main__":
    main()
