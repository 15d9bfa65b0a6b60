#!/usr/bin/env python3
"""Run the five scanning characterization checks over Z/4, Z/5, Z/7, Z/8 and
Z/9 up to a given length and print one deterministic JSON document: for each
theorem its verdict, its extra (and, where the check keeps them, missing and
ceiling-form extra) lists and the number of codes examined.

    python scripts/characterize_sweep.py --n-max 5

Each check scans every space of the five rings once; at n = 5 that is about
ten million codes per check (see README, "Characterization sweep at n = 5").
A failure prints one `error:` line, as the leecodes CLI does: exit 2 for a
budget refusal (BudgetError), exit 1 for a refused input (ValueError)."""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from leecodes.codes import BudgetError
from leecodes.ring import Modulus
from leecodes.search import check_characterization

RINGS = [Modulus(2, 2), Modulus(5, 1), Modulus(7, 1), Modulus(2, 3), Modulus(3, 2)]
THEOREMS = ["shiromoto", "z4_singleton", "rank_sb", "alderson_huntemann", "plotkin_rank"]
KEYS = ["verdict", "extra", "missing", "ceiling_form_extras", "examined"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-max", type=int, required=True, help="largest code length")
    args = parser.parse_args(argv)
    if args.n_max < 1:
        parser.error("--n-max must be at least 1")
    doc = {}
    try:
        for theorem in THEOREMS:
            report = check_characterization(theorem, RINGS, args.n_max)
            doc[theorem] = {key: report[key] for key in KEYS if key in report}
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(doc, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
