"""Outside-in spans over the public functions of ``leecodes``.

The wrappers are installed by rebinding module and class attributes from the
benchmark's own code; the package source is never edited.  Every alias of a
wrapped function inside the package is rebound as well, so names pulled in
with ``from .x import y`` (``leecodes.report.max_lee_distance_census``,
``leecodes.search.evaluate_bounds``, the re-exports in ``leecodes``) are
covered at their internal call sites.

Spans are kept in memory as ``[name, start, end, parent, run_id]`` and written
out once the traced pass is over.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

perf = time.perf_counter


def rebind_aliases(current, replacement) -> list[tuple[object, str, object]]:
    """Point every ``leecodes`` module attribute bound to `current` at
    `replacement`; returns the undo list for `restore`."""
    undo = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "leecodes" or name.startswith("leecodes.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is current:
                setattr(module, attr, replacement)
                undo.append((module, attr, current))
    if not undo:
        raise LookupError(f"no leecodes attribute is bound to {current!r}")
    return undo


def restore(undo) -> None:
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)


def _space_cardinality(space) -> int:
    """|C| of every code in a search space: the product of its row orders."""
    m = space.modulus
    card = 1
    for i, k in enumerate(space.subtype, start=1):
        card *= (m.p ** (m.s + 1 - i)) ** k
    return card


class Tracer:
    """Span recorder with per-name call counts, busy time and self time.

    `busy` counts a name's outermost spans only, so a function that reaches
    itself again is not counted twice; `self_time` is a span's duration minus
    the time covered by its child spans.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = 0
        self.enabled = True
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []            # [span index, child time]
        self._depth: dict[str, int] = defaultdict(int)
        self._undo: list = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([len(self.spans), 0.0])
        self._depth[name] += 1
        self.spans.append([name, perf(), 0.0, parent, self.run_id])

    def _close(self) -> None:
        end = perf()
        index, child = self._stack.pop()
        span = self.spans[index]
        span[2] = end
        name, duration = span[0], end - span[1]
        self._depth[name] -= 1
        if not self._depth[name]:
            self.busy[name] += duration
        self.self_time[name] += duration - child
        if self._stack:
            self._stack[-1][1] += duration

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[name + ".raised"] += 1
                raise
            finally:
                tracer._close()
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    def _wrap_scan(self, name: str, fn):
        """A generator wrapper whose spans cover each next() only, so busy time
        excludes the caller's work between chunks."""
        tracer = self

        def chunks(gen, cells_per_candidate):
            while True:
                tracer._open(name)
                try:
                    G, d = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer._close()
                tracer.counts["scan.chunks"] += 1
                tracer.counts["scan.candidates"] += len(d)
                tracer.counts["scan.cells"] += len(d) * cells_per_candidate
                yield G, d

        @functools.wraps(fn)
        def traced(space, *args, **kwargs):
            gen = fn(space, *args, **kwargs)
            if not tracer.enabled:
                return gen
            tracer.calls[name] += 1
            return chunks(gen, _space_cardinality(space) * space.n)

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced boundary; `uninstall` puts the originals back."""
        import leecodes.bounds as bounds
        import leecodes.constructions as constructions
        import leecodes.report as report
        import leecodes.search as search
        from leecodes.codes import LinearCode

        def dedup_seen(t, args, result):
            t.counts["dedup.codes_in"] += len(args[0])
            t.counts["dedup.classes_out"] += len(result)

        def equivalence_seen(t, args, result):
            t.counts["equivalence.true"] += bool(result)

        functions = [
            (search, "scan_space", None),
            (search, "dedup_codes", dedup_seen),
            (search, "signed_perm_equivalent", equivalence_seen),
            (search, "max_lee_distance_census", None),
            (search, "check_characterization", None),
            (report, "table_report", None),
            (report, "figure_points", None),
            (bounds, "evaluate_bounds", None),
            (bounds, "attainment_check", None),
            (constructions, "equidistant_rank1", None),
            (constructions, "equidistant_rank2", None),
        ]
        for module, attr, observe in functions:
            layer = module.__name__.split(".")[-1]
            name = f"{layer}.{attr}"
            current = getattr(module, attr)
            wrapped = (self._wrap_scan(name, current) if attr == "scan_space"
                       else self._wrap(name, current, observe))
            self._undo.extend(rebind_aliases(current, wrapped))

        classmethod_ = LinearCode.__dict__["from_generator"]
        setattr(LinearCode, "from_generator",
                classmethod(self._wrap("codes.from_generator", classmethod_.__func__)))
        self._undo.append((LinearCode, "from_generator", classmethod_))
        for attr in ("codeword_array", "min_lee_distance", "dual"):
            method = LinearCode.__dict__[attr]
            setattr(LinearCode, attr, self._wrap(f"codes.{attr}", method))
            self._undo.append((LinearCode, attr, method))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    # -- output --------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\trun_id\n")
            for name, start, end, parent, run_id in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{run_id}\n")

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of one traced pass, by benchmark name."""
        calls, busy, counts = self.calls, self.busy, self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        scan_busy = busy["search.scan_space"]
        candidates = counts["scan.candidates"]
        codes_in = counts["dedup.codes_in"]
        dedup_busy = busy["search.dedup_codes"]
        equivalence_calls = calls["search.signed_perm_equivalent"]
        return {
            "search.scan_space.calls": calls["search.scan_space"],
            "search.scan_space.busy_s": scan_busy,
            "search.scan_space.candidates": candidates,
            "search.scan_space.chunks": counts["scan.chunks"],
            "search.scan_space.candidates_per_s": ratio(candidates, scan_busy),
            "search.scan_space.cells_per_s": ratio(counts["scan.cells"], scan_busy),
            "search.scan_space.hit_frac": ratio(codes_in, candidates),
            "search.dedup_codes.calls": calls["search.dedup_codes"],
            "search.dedup_codes.busy_s": dedup_busy,
            "search.dedup_codes.codes_in": codes_in,
            "search.dedup_codes.classes_out": counts["dedup.classes_out"],
            "search.dedup_codes.useful_frac": ratio(counts["dedup.classes_out"], codes_in),
            "search.dedup_codes.s_per_code": ratio(dedup_busy, codes_in),
            "search.signed_perm_equivalent.calls": equivalence_calls,
            "search.signed_perm_equivalent.busy_s": busy["search.signed_perm_equivalent"],
            "search.signed_perm_equivalent.true_frac":
                ratio(counts["equivalence.true"], equivalence_calls),
            "search.signed_perm_equivalent.failed":
                counts["search.signed_perm_equivalent.raised"],
            "search.max_lee_distance_census.self_s":
                self.self_time["search.max_lee_distance_census"],
            "search.check_characterization.self_s":
                self.self_time["search.check_characterization"],
            "report.table_report.self_s": self.self_time["report.table_report"],
            "report.figure_points.busy_s": busy["report.figure_points"],
            "codes.from_generator.calls": calls["codes.from_generator"],
            "codes.from_generator.busy_s": busy["codes.from_generator"],
            "codes.from_generator.us_per_call":
                1e6 * ratio(busy["codes.from_generator"], calls["codes.from_generator"]),
            "codes.codeword_array.calls": calls["codes.codeword_array"],
            "codes.codeword_array.busy_s": busy["codes.codeword_array"],
            "codes.min_lee_distance.calls": calls["codes.min_lee_distance"],
            "codes.min_lee_distance.us_per_call":
                1e6 * ratio(busy["codes.min_lee_distance"], calls["codes.min_lee_distance"]),
            "codes.dual.calls": calls["codes.dual"],
            "codes.dual.us_per_call": 1e6 * ratio(busy["codes.dual"], calls["codes.dual"]),
            "bounds.evaluate_bounds.calls": calls["bounds.evaluate_bounds"],
            "bounds.evaluate_bounds.us_per_call":
                1e6 * ratio(busy["bounds.evaluate_bounds"], calls["bounds.evaluate_bounds"]),
            "bounds.attainment_check.calls": calls["bounds.attainment_check"],
            "constructions.busy_s": (busy["constructions.equidistant_rank1"]
                                     + busy["constructions.equidistant_rank2"]),
            "trace.spans": len(self.spans),
        }
