"""Write the oracle files under perfbench/golden/ from one pass of each
fixed workload.

    python3 perfbench/make_golden.py

The files were written once, from a commit whose outputs the tier-1 suite
verifies, and are frozen since: the program's results may not change, so a
benchmark run that disagrees with them is a failure of the program.  The
library oracle is taken from the published reference table shipped with the
package, not from computed output.
"""

import json
import sys
from pathlib import Path

sys.path.insert(1, str(Path.cwd() / "src"))

import leecodes.report as report  # noqa: E402
from workloads import (GOLDEN, census_pass, census_spaces,  # noqa: E402
                       characterize_pass, code_invariant, listed_code_invariants,
                       space_key)
from leecodes.ring import Modulus  # noqa: E402


def characterize() -> dict:
    result, _ = characterize_pass()
    return {
        "verdict": result["verdict"],
        "missing": result["missing"],
        "extra": listed_code_invariants(result["extra"]),
        "ceiling_form_extras": listed_code_invariants(result["ceiling_form_extras"]),
        "space_max": {space_key(Modulus(r["p"], r["s"]), r["n"], r["subtype"]): r["max_d"]
                      for r in result["space_max"]},
    }


def census() -> dict:
    spaces = census_spaces()
    results, _ = census_pass(spaces)
    return {space_key(space.modulus, space.n, space.subtype): {
                "max_d": r.max_d,
                "classes": sorted(code_invariant(space.modulus, c.rows)
                                  for c in r.optimal_codes)}
            for space, r in zip(spaces, results)}


def library() -> dict:
    ref = report.reference_table()
    return {"table_max_d": [row["max_d"] for row in ref["rows"]],
            "documented_cells": sorted([a["row"], a["column"]]
                                       for a in ref["documented_anomalies"])}


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    for name, build in (("library", library), ("census", census),
                        ("characterize", characterize)):
        (GOLDEN / f"{name}.json").write_text(json.dumps(build(), separators=(",", ":")) + "\n")
        print(f"wrote {GOLDEN / name}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
