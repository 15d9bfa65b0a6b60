"""The benchmark workloads: inputs, one timed pass, and the output oracles.

Each workload calls only the public API of ``leecodes``, always through a
module or class attribute looked up at call time, so the tracer's rebinding
reaches the benchmark's own calls too.  A pass returns the raw outputs and
the per-item latencies; `check` compares the outputs against oracles that do
not depend on how the program enumerates (candidate and ``examined`` counts
are never compared).  Every operation that raises is recorded, not re-raised.
"""

from __future__ import annotations

import ast
import json
import random
import re
from pathlib import Path

import numpy as np

import leecodes.bounds as bounds
import leecodes.constructions as constructions
import leecodes.report as report
import leecodes.search as search
from leecodes.codes import LinearCode
from leecodes.ring import Modulus

from refclock import now as perf
from tracer import rebind_aliases, restore

GOLDEN = Path(__file__).resolve().parent / "golden"

# The tier-1 acceptance fixture for the Shiromoto characterization.
CHARACTERIZE_RINGS = [Modulus(2, 2), Modulus(5, 1), Modulus(7, 1),
                      Modulus(2, 3), Modulus(3, 2)]
CHARACTERIZE_N_MAX = 4

# Spaces that keep many optimal candidates, so pairwise dedup dominates.
CENSUS_LARGE = [(Modulus(3, 2), 4, (1, 1)), (Modulus(3, 2), 4, (2, 0)),
                (Modulus(3, 2), 4, (1, 2)), (Modulus(5, 1), 5, (2,))]
# Every subtype of these rings up to the given length: enough small spaces
# that the per-space latency has a 90th percentile with ten samples above it.
CENSUS_SMALL = [(Modulus(2, 2), 4), (Modulus(5, 1), 4), (Modulus(7, 1), 4),
                (Modulus(2, 3), 3), (Modulus(3, 2), 3), (Modulus(2, 4), 2),
                (Modulus(5, 2), 2), (Modulus(3, 3), 2)]

LIBRARY_RINGS = [Modulus(2, 2), Modulus(2, 3), Modulus(5, 1), Modulus(7, 1),
                 Modulus(3, 2), Modulus(5, 2), Modulus(3, 3)]
LIBRARY_LENGTHS = range(4, 11)
LIBRARY_ROWS = (1, 2, 3)
LIBRARY_CODES_PER_SHAPE = 14      # 7 rings x 7 lengths x 3 row counts x 14 = 2058
HAMMING_BOUNDS = ("singleton_hamming", "singleton_rank")


# -- independent oracles --------------------------------------------------------

def span_words(q: int, rows) -> np.ndarray:
    """Every codeword of the row span of `rows` over Z/q, by closure."""
    gens = np.array(rows, dtype=np.int64).reshape(len(rows), -1) % q
    n = gens.shape[1]
    place = q ** np.arange(n, dtype=np.int64)
    words = np.zeros((1, n), dtype=np.int64)
    for g in gens:
        multiples = (np.arange(q, dtype=np.int64)[:, None] * g) % q
        words = ((words[:, None, :] + multiples[None, :, :]) % q).reshape(-1, n)
        _, first = np.unique(words @ place, return_index=True)
        words = words[first]
    return words


def lee_distribution(q: int, words: np.ndarray) -> list[list[int]]:
    """The sorted Lee weight enumerator as [weight, multiplicity] pairs."""
    weights = np.minimum(words, q - words).sum(axis=1)
    values, counts = np.unique(weights, return_counts=True)
    return [[int(v), int(c)] for v, c in zip(values, counts)]


def valuation(m: Modulus, a: int) -> int:
    a %= m.q
    v = 0
    while v < m.s and a % m.p ** (v + 1) == 0:
        v += 1
    return v


def support_subtype(m: Modulus, rows) -> list[int]:
    """Coordinates counted by the ideal their projection generates."""
    counts = [0] * (m.s + 1)
    for column in zip(*rows):
        counts[min(valuation(m, e) for e in column)] += 1
    return counts


def code_invariant(m: Modulus, rows) -> list:
    """(Lee weight distribution, support subtype): equal on equivalent codes."""
    return [lee_distribution(m.q, span_words(m.q, rows)), support_subtype(m, rows)]


def _ring(text: str) -> Modulus:
    found = re.search(r"Z/(\d+)(?:\^(\d+))?", text)
    return Modulus(int(found.group(1)), int(found.group(2) or 1))


def listed_code_invariants(entries: list[str]) -> list:
    """Invariants of report entries ``"<space>: [rows]"``, order-free, so a
    different representative of the same class still compares equal."""
    out = []
    for entry in entries:
        where, rows = entry.rsplit(": ", 1)
        out.append([where, code_invariant(_ring(where), ast.literal_eval(rows))])
    return sorted(out)


def space_key(m: Modulus, n: int, subtype) -> str:
    return f"{m.p},{m.s},{n},{','.join(map(str, subtype))}"


def load_golden(name: str):
    return json.loads((GOLDEN / f"{name}.json").read_text())


class Outcome:
    """Tally of one pass's checks: attempted operations and failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str, weight: int = 1) -> None:
        self.attempted += weight
        if not ok:
            self.failures.extend([what] * weight)


# -- characterize ---------------------------------------------------------------

def characterize_pass(tracer=None):
    """One sweep; item boundaries are the first scan of each new space."""
    marks: list[tuple[float, object]] = []
    scan = search.scan_space

    def marked(space, *args, **kwargs):
        if not marks or marks[-1][1] != space:
            marks.append((perf(), space))
            if tracer is not None:
                tracer.run_id = len(marks) - 1
        return scan(space, *args, **kwargs)

    undo = rebind_aliases(scan, marked)
    try:
        result = search.check_characterization(
            "shiromoto", CHARACTERIZE_RINGS, CHARACTERIZE_N_MAX)
    except Exception as exc:
        result = exc
    finally:
        end = perf()
        restore(undo)
    starts = [t for t, _ in marks] + [end]
    return result, [b - a for a, b in zip(starts, starts[1:])]


class Characterize:
    """The Shiromoto characterization sweep; an item is one search space."""

    name = "characterize"
    reference = "scan"            # the scan kernel does ~90% of the work

    def __init__(self, seed: int):
        self.golden = load_golden("characterize")

    def run(self, tracer=None):
        return characterize_pass(tracer)

    def check(self, result) -> Outcome:
        golden = self.golden
        out = Outcome()
        spaces = len(golden["space_max"])
        if isinstance(result, Exception):
            out.check(False, f"check_characterization raised {result!r}", spaces)
            return out
        report_ok = (result["verdict"] == golden["verdict"]
                     and result["missing"] == golden["missing"]
                     and listed_code_invariants(result["extra"]) == golden["extra"]
                     and listed_code_invariants(result["ceiling_form_extras"])
                     == golden["ceiling_form_extras"])
        if not report_ok:
            out.check(False, "verdict or extra/missing/ceiling lists differ", spaces)
            return out
        found = {space_key(Modulus(r["p"], r["s"]), r["n"], r["subtype"]): r["max_d"]
                 for r in result["space_max"]}
        for key, max_d in golden["space_max"].items():
            out.check(found.get(key) == max_d, f"max_d of space {key}")
        return out


# -- census ---------------------------------------------------------------------

def census_spaces() -> list:
    spaces = [search.SearchSpace(m, n, subtype) for m, n, subtype in CENSUS_LARGE]
    for m, n_max in CENSUS_SMALL:
        for n in range(1, n_max + 1):
            spaces.extend(search.SearchSpace(m, n, subtype)
                          for subtype in search.all_subtypes(m, n))
    return spaces


def census_pass(spaces, tracer=None):
    results, times = [], []
    for i, space in enumerate(spaces):
        if tracer is not None:
            tracer.run_id = i
        t = perf()
        try:
            results.append(search.max_lee_distance_census(space))
        except Exception as exc:
            results.append(exc)
        times.append(perf() - t)
    return results, times


class Census:
    """Maximum-Lee-distance censuses; an item is one search space."""

    name = "census"
    reference = "small"           # dedup makes many numpy calls on small arrays

    def __init__(self, seed: int):
        self.spaces = census_spaces()
        self.golden = load_golden("census")

    def run(self, tracer=None):
        return census_pass(self.spaces, tracer)

    def check(self, results) -> Outcome:
        out = Outcome()
        for space, result in zip(self.spaces, results):
            key = space_key(space.modulus, space.n, space.subtype)
            if isinstance(result, Exception):
                out.check(False, f"census {key} raised {result!r}")
                continue
            expected = self.golden[key]
            m = space.modulus
            ok = (result.max_d == expected["max_d"]
                  and len(result.optimal_codes) == len(expected["classes"])
                  and sorted(code_invariant(m, c.rows) for c in result.optimal_codes)
                  == expected["classes"])
            out.check(ok, f"census {key}")
        return out


# -- library --------------------------------------------------------------------

def random_generators(seed: int) -> list:
    """Seeded random generator matrices, never all zero.

    Every (ring, length, row count) shape gets the same number of codes and
    only the entries are drawn from the seed, so the mix of code sizes, and
    with it the latency tail, is the same for every seed."""
    rng = random.Random(seed)
    out = []
    for m in LIBRARY_RINGS:
        for n in LIBRARY_LENGTHS:
            for k in LIBRARY_ROWS:
                drawn = 0
                while drawn < LIBRARY_CODES_PER_SHAPE:
                    rows = [[rng.randrange(m.q) for _ in range(n)] for _ in range(k)]
                    if any(any(row) for row in rows):
                        out.append((m, rows))
                        drawn += 1
    rng.shuffle(out)
    return out


def equidistant_specs() -> list:
    return [constructions.EquidistantSpec(Modulus(p, s), i, rank)
            for p in (3, 5, 7) for s in (2, 3)
            for i in range(1, s + 1) for rank in (1, 2)]


class Library:
    """The paper path plus the per-code API; an item is one random code."""

    name = "library"
    reference = "small"           # so does the per-code API

    def __init__(self, seed: int):
        self.inputs = random_generators(seed)
        self.specs = equidistant_specs()
        self.golden = load_golden("library")
        figures = Path.cwd() / "tests" / "data" / "figure_points.json"
        self.figures = json.loads(figures.read_text())
        self._oracle: list | None = None

    @staticmethod
    def _attempt(fn, *args):
        try:
            return fn(*args)
        except Exception as exc:
            return exc

    def run(self, tracer=None):
        table = self._attempt(report.table_report, True)
        figures = {f: self._attempt(report.figure_points, f) for f in (1, 2, 3)}
        built = []
        for spec in self.specs:
            build = (constructions.equidistant_rank1 if spec.rank == 1
                     else constructions.equidistant_rank2)
            code = self._attempt(build, spec)
            if not isinstance(code, Exception):
                code = self._attempt(lambda c: (c.is_lee_equidistant(),
                                                c.min_lee_distance()), code)
            built.append(code)
        codes, times = [], []
        for i, (m, rows) in enumerate(self.inputs):
            if tracer is not None:
                tracer.run_id = i
            t = perf()
            try:
                code = LinearCode.from_generator(m, rows)
                d = code.min_lee_distance()
                cells = bounds.evaluate_bounds(code)
                dual = code.dual()
                support = code.support_subtype()
            except Exception as exc:
                times.append(perf() - t)
                codes.append(exc)
                continue
            times.append(perf() - t)
            # Keep a summary, not the codes and their cached codewords, so the
            # benchmark's own storage does not inflate the peak RSS.
            codes.append((code.cardinality, d,
                          [(name, cell.floored) for name, cell in cells.items()
                           if cell.applicable],
                          dual.cardinality, dual.rows, support))
        return (table, figures, built, codes), times

    def _oracles(self) -> list:
        """Per random code: |C|, d_L, d_H and the support subtype, from the
        closure of the given rows.  Computed once; every pass reuses them."""
        if self._oracle is None:
            self._oracle = []
            for m, rows in self.inputs:
                words = span_words(m.q, rows)
                nonzero = words[words.any(axis=1)]
                lee = np.minimum(nonzero, m.q - nonzero).sum(axis=1)
                self._oracle.append((len(words), int(lee.min()),
                                     int((nonzero != 0).sum(axis=1).min()),
                                     tuple(support_subtype(m, rows))))
        return self._oracle

    def check(self, outputs) -> Outcome:
        table, figures, built, codes = outputs
        golden = self.golden
        out = Outcome()
        if isinstance(table, Exception):
            out.check(False, f"table_report raised {table!r}")
        else:
            cells = sorted([mm.row, mm.column] for mm in table.mismatches)
            out.check([row["max_d"] for row in table.rows] == golden["table_max_d"]
                      and cells == golden["documented_cells"]
                      and all(mm.documented for mm in table.mismatches),
                      "table maxima or documented mismatches")
        for f, points in figures.items():
            out.check(points == self.figures[str(f)], f"figure {f} points")
        for spec, got in zip(self.specs, built):
            m = spec.modulus
            weight = m.p ** (2 * m.s - spec.i) * (m.p ** 2 - 1) // 8
            out.check(got == (True, weight), f"equidistant construction {spec}")
        for (m, rows), got, oracle in zip(self.inputs, codes, self._oracles()):
            if isinstance(got, Exception):
                out.check(False, f"random code {rows} over {m} raised {got!r}")
            else:
                out.check(self._code_ok(m, rows, got, oracle), f"random code {rows} over {m}")
        return out

    @staticmethod
    def _code_ok(m: Modulus, rows, got, oracle) -> bool:
        size, d, cells, dual_size, dual_rows, support = got
        if (size, d, support) != oracle[:2] + oracle[3:]:
            return False
        if size * dual_size != m.q ** len(rows[0]):
            return False
        G = np.array(rows, dtype=np.int64)
        H = np.array(dual_rows, dtype=np.int64).reshape(-1, G.shape[1])
        if ((G @ H.T) % m.q).any():
            return False
        d_ham = oracle[2]
        return all(floored >= (d_ham if name in HAMMING_BOUNDS else d)
                   for name, floored in cells)


WORKLOADS = {w.name: w for w in (Characterize, Census, Library)}
