#!/usr/bin/env python3
"""Recompute the Z/4 comparison table (bounds + exhaustive maxima) and diff
it against the published reference values."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from leecodes.report import mismatch_lines, table_csv, table_report


def main():
    rep = table_report(run_census=True)
    print(table_csv(rep), end="")
    print("\n".join(mismatch_lines(rep)))
    return 3 if rep.undocumented else 0


if __name__ == "__main__":
    sys.exit(main())
