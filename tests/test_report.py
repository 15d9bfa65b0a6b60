import json
from pathlib import Path

import pytest

from leecodes.report import (FIGURE_CURVES, figure_csv, figure_points,
                             reference_table, table_csv, table_report)

GOLDEN = json.loads((Path(__file__).parent / "data" / "figure_points.json").read_text())

# the full set of cells where the published table deviates from the pinned
# recomputation conventions (all published values are exactly one below)
KNOWN_TABLE_ANOMALIES = {
    (8, "shiromoto"), (9, "shiromoto"), (16, "shiromoto"),
    (17, "shiromoto"), (20, "shiromoto"),
    (8, "shiromoto_rank"), (15, "shiromoto_rank"),
    (16, "shiromoto_rank"), (20, "shiromoto_rank"),
    (8, "rank_plotkin"), (15, "rank_plotkin"),
    (16, "rank_plotkin"), (20, "rank_plotkin"),
}


def test_figures_match_published_points():
    for fig_id in (1, 2, 3):
        pts = figure_points(fig_id)
        for curve in FIGURE_CURVES:
            assert pts[curve] == GOLDEN[str(fig_id)][curve], (fig_id, curve)


def test_figure_spot_checks():
    assert figure_points(1)["rank_plotkin"][5] == 1296
    assert figure_points(2)["chiang_wolf"][15] == 299
    assert figure_points(3)["wyner_graham"][0] == 15624


def test_figure_csv_shape_and_stability():
    text = figure_csv(2)
    assert text == figure_csv(2)
    lines = text.strip().splitlines()
    assert lines[0] == "k2,bound_id,value"
    assert len(lines) == 1 + 5 * 16
    assert "0,chiang_wolf,104" in lines


@pytest.mark.parametrize("fig_id", [0, 4, "1"])
def test_an_unknown_figure_id_is_refused(fig_id):
    for emit in (figure_points, figure_csv):
        with pytest.raises(ValueError, match="the figures are 1, 2 and 3"):
            emit(fig_id)


def test_table_bound_columns_and_anomalies():
    rep = table_report(run_census=False)
    found = {(mm.row, mm.column) for mm in rep.mismatches}
    assert found == KNOWN_TABLE_ANOMALIES
    assert all(mm.documented for mm in rep.mismatches)
    assert rep.undocumented == []
    # every anomalous published value is exactly one below the recomputation
    assert all(mm.computed == mm.published + 1 for mm in rep.mismatches)


def test_table_census_column_matches_published():
    rep = table_report(run_census=True)
    ref_rows = reference_table()["rows"]
    for row, ref in zip(rep.rows, ref_rows):
        assert row["max_d"] == ref["max_d"], (ref["n"], ref["K"], ref["k"])
    assert not any(mm.column == "max_d" for mm in rep.mismatches)


def test_table_csv_render():
    rep = table_report(run_census=False)
    text = table_csv(rep)
    lines = text.strip().splitlines()
    assert lines[0].startswith("n,K,k,k1,max_d,")
    assert len(lines) == 22
    assert lines[1].startswith("2,1,1/2,0,")


def test_reference_table_is_consistent():
    ref = reference_table()
    assert len(ref["rows"]) == 21
    documented = {(a["row"], a["column"]) for a in ref["documented_anomalies"]}
    assert documented == KNOWN_TABLE_ANOMALIES
