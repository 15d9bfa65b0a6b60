"""Reproduction of the published Z/4 comparison table and the three bound
comparison figures, with exact-rational arithmetic throughout.

Each figure curve and each table column is one reading of a `bounds`
evaluator, pinned in `FIGURE_CURVES` and `TABLE_COLUMNS`; the figure
readings were reverse-engineered from the published plotted integers (see
README, "Reproduction notes").  Verification anchors at the first figure's
origin: 671 = 61*11 (Chiang-Wolf, A(3,5,5) = 61), 891 = 81*11 (rank averaging
bound, A(3,5,1) = 81) and 1331 = 121*11 (Shiromoto, M = 121).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import resources

from .bounds import (CodeParams, alderson_huntemann, chiang_wolf_k1, rank_plotkin,
                     shiromoto_rank_max_d, type_form, type_form_max_d, wyner_graham,
                     z4_singleton)
from .codes import LinearCode
from .ring import Modulus
from .search import SearchSpace, scan_space

__all__ = [
    "FIGURE_SPECS",
    "FIGURE_CURVES",
    "figure_points",
    "figure_csv",
    "TABLE_COLUMNS",
    "table_rows",
    "table_report",
    "table_csv",
    "mismatch_lines",
    "reference_table",
]

# (modulus, fixed free rank); the second subtype entry sweeps 0..15 and the
# length is twice the rank.
FIGURE_SPECS = {
    1: (Modulus(3, 5), 10),
    2: (Modulus(5, 2), 15),
    3: (Modulus(5, 5), 10),
}


def _floored(evaluate):
    return lambda params: math.floor(evaluate(params))


# The plotted reading of each curve.
FIGURE_CURVES = {
    "chiang_wolf": _floored(chiang_wolf_k1),        # the free-rank form
    "rank_plotkin": lambda params: rank_plotkin(params)["plotted"],  # floor of the product
    "wyner_graham": _floored(wyner_graham),
    "shiromoto": shiromoto_rank_max_d,              # tracks K, not ceil(k)
    "alderson_huntemann": _floored(type_form),      # rational k, no integer-type gate
}

K2_RANGE = range(16)


def _figure_params(m: Modulus, k1: int, k2: int) -> CodeParams:
    subtype = [0] * m.s
    subtype[0] = k1
    if m.s > 1:
        subtype[1] = k2
    K = k1 + k2
    return CodeParams.from_subtype(m, 2 * K, subtype)


def figure_points(fig_id: int) -> dict[str, list[int]]:
    """The five plotted curves of one figure, 16 integer points each.  A
    figure id other than 1, 2 and 3 raises ValueError."""
    if fig_id not in FIGURE_SPECS:
        raise ValueError(f"unknown figure id {fig_id!r}: the figures are 1, 2 and 3")
    m, k1 = FIGURE_SPECS[fig_id]
    points = [_figure_params(m, k1, k2) for k2 in K2_RANGE]
    return {name: [read(params) for params in points]
            for name, read in FIGURE_CURVES.items()}


def figure_csv(fig_id: int) -> str:
    pts = figure_points(fig_id)
    lines = ["k2,bound_id,value"]
    for name in FIGURE_CURVES:
        for k2, v in zip(K2_RANGE, pts[name]):
            lines.append(f"{k2},{name},{v}")
    return "\n".join(lines) + "\n"


# -- the Z/4 table ---------------------------------------------------------------

# The published reading of each column; None leaves the cell empty.
TABLE_COLUMNS = {
    "z4_singleton": z4_singleton,
    "shiromoto": type_form_max_d,  # original type-k form
    "shiromoto_rank": shiromoto_rank_max_d,
    "alderson_huntemann": alderson_huntemann,
    "wyner_graham": _floored(wyner_graham),
    # the free-rank form on every free row, k = 1 included
    "chiang_wolf": lambda params: math.floor(chiang_wolf_k1(params)) if params.is_free else None,
    # level s on free rows, level 1 otherwise
    "rank_plotkin": lambda params: rank_plotkin(
        replace(params, ell=params.modulus.s if params.is_free else 1))["plotted"],
}


def reference_table() -> dict:
    with resources.files("leecodes.data").joinpath("z4_reference_table.json").open() as fh:
        return json.load(fh)


def _row_subtype(row: dict) -> tuple[int, int]:
    k1 = row["k1"]
    return (k1, row["K"] - k1)


@dataclass
class TableMismatch:
    row: int                 # 1-based row index in the reference table
    column: str
    computed: int | None
    published: int | None
    documented: bool


@dataclass
class TableReport:
    rows: list[dict]
    mismatches: list[TableMismatch]

    @property
    def undocumented(self) -> list[TableMismatch]:
        return [mm for mm in self.mismatches if not mm.documented]


def table_rows(run_census: bool = True) -> list[dict]:
    """Recompute every table row; `max_d` is the largest d_L of an
    exhaustive scan of the row's space."""
    m = Modulus(2, 2)
    rows = []
    for ref in reference_table()["rows"]:
        params = CodeParams.from_subtype(m, ref["n"], _row_subtype(ref))
        row = {"n": ref["n"], "K": ref["K"], "k": str(Fraction(ref["k"])),
               "k1": ref["k1"]}
        if run_census:
            space = SearchSpace(m, ref["n"], _row_subtype(ref))
            row["max_d"] = max(int(d.max()) for _, d in scan_space(space))
        row.update((col, read(params)) for col, read in TABLE_COLUMNS.items())
        rows.append(row)
    return rows


def table_report(run_census: bool = True) -> TableReport:
    ref = reference_table()
    documented = {(a["row"], a["column"]) for a in ref["documented_anomalies"]}
    rows = table_rows(run_census=run_census)
    mismatches = []
    for idx, (computed, published) in enumerate(zip(rows, ref["rows"]), start=1):
        keys = [*TABLE_COLUMNS, *(("max_d",) if run_census else ())]
        for col in keys:
            if computed[col] != published[col]:
                mismatches.append(TableMismatch(
                    idx, col, computed[col], published[col],
                    (idx, col) in documented))
    return TableReport(rows, mismatches)


def table_csv(report: TableReport) -> str:
    header = ["n", "K", "k", "k1", "max_d", *TABLE_COLUMNS]
    lines = [",".join(header)]
    for row in report.rows:
        cells = [str(row.get(c, "")) if row.get(c) is not None else "-" for c in header]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def mismatch_lines(report: TableReport) -> list[str]:
    """The comment lines that list the table's cells that differ from the
    published reference, each tagged documented or UNDOCUMENTED."""
    if not report.mismatches:
        return ["# every cell matches the published table"]
    lines = [f"# {len(report.mismatches)} cells differ from the published table:"]
    for mm in report.mismatches:
        tag = "documented" if mm.documented else "UNDOCUMENTED"
        lines.append(f"#   row {mm.row:2d} {mm.column:<18} computed={mm.computed} "
                     f"published={mm.published} [{tag}]")
    return lines


# -- structural report used by the CLI inspect command ----------------------------

def inspect_code(code: LinearCode) -> dict:
    m = code.modulus
    info = {
        "ring": str(m),
        "n": code.n,
        "type_k": str(code.type_k),
        "subtype": list(code.subtype),
        "rank": code.rank,
        "free_rank": code.free_rank,
        "cardinality": code.cardinality,
        "support_subtype": list(code.support_subtype()),
        "socle_generators": [list(r) for r in code.socle().rows],
        "dual_generators": [list(r) for r in code.dual().rows],
    }
    if code.cardinality >= 2:
        info["min_hamming_distance"] = code.min_hamming_distance()
        info["min_lee_distance"] = code.min_lee_distance()
        info["lee_equidistant"] = code.is_lee_equidistant()
        info["average_lee_weight"] = str(code.average_lee_weight())
    else:
        info["trivial"] = True
    return info
