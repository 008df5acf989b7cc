"""Span tracing for the traced benchmark run, and the scaling probe.

The tracer wraps the stage functions of each leapertour module from the
outside: for one traced op it replaces module attributes with timing
wrappers and restores the originals afterwards, so no code under ``src/``
changes.  A name that one module imported from another (``from .keygraph
import cycle_partition``) is a binding of its own, so it is wrapped in the
importing module's namespace under the defining layer's span name.

Hot helpers called thousands of times per op (``geom.edge``,
``geom.reflect_cell``, ``splice.current_matching``, ``CycleTracker``) are not
wrapped: a span per call would cost more than the work it measures.  Their
time lands in the self time of the stage that calls them.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter, defaultdict
from time import perf_counter


def _cells(args, result):
    return sum(map(len, result))


def _rhombi(args, result):
    return len(result.rhombi)


# (module, attribute, span name, per-span work count or None)
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("keygraph", "build_key", "keygraph.build_key", _rhombi),
    ("fold", "build_key", "keygraph.build_key", _rhombi),
    ("keygraph", "expand_pencil", "geom.expand_pencil", None),
    ("keygraph", "reflect", "geom.reflect", None),
    ("keygraph", "cycle_partition", "keygraph.cycle_partition", _cells),
    ("splice", "cycle_partition", "keygraph.cycle_partition", _cells),
    ("tile", "cycle_partition", "keygraph.cycle_partition", _cells),
    ("splice", "is_connected_edges", "keygraph.is_connected_edges", None),
    ("splice", "splice", "splice.splice", None),
    ("splice", "symmetric_splice", "splice.symmetric_splice", None),
    ("splice", "symmetric_halving_bits", "splice.symmetric_halving_bits", None),
    ("splice", "canonicalize", "splice.canonicalize", None),
    ("tile", "tile", "tile.tile", None),
    ("tile", "find_switch", "tile.find_switch", lambda a, r: len(a[0]) * len(a[1])),
    ("fold", "check_fold", "fold.check_fold", None),
    ("fold", "outer_paths", "fold.outer_paths", None),
    ("fold", "build_folding", "fold.build_folding", None),
    ("fold", "build_crisscross", "fold.build_crisscross", None),
    ("fold", "is_connected", "fold.is_connected", None),
    ("verify", "verify_tour", "verify.verify_tour", lambda a, r: len(a[0])),
    ("verify", "verify_central_symmetry", "verify.verify_central_symmetry", None),
    ("render", "format_structured", "render.format_structured", None),
    ("render", "format_grid", "render.format_grid", None),
    ("render", "format_svg", "render.format_svg", None),
    ("render", "parse_structured", "render.parse_structured", None),
)

LAYERS = ("cli", "geom", "keygraph", "splice", "tile", "fold", "verify", "render")

# Per-op metrics: name -> (unit, better).  Each value is the median over the
# traced ops of the per-op figure.
PER_OP = {
    "cli.main.self_ms": ("ms", "lower"),
    "cli.bytes_out": ("bytes", "lower"),
    "keygraph.build_key.ms": ("ms", "lower"),
    "keygraph.build_key.calls": ("count", "lower"),
    "keygraph.cycle_partition.ms": ("ms", "lower"),
    "keygraph.cycle_partition.calls": ("count", "lower"),
    "keygraph.cycle_partition.cells": ("count", "lower"),
    "keygraph.is_connected_edges.ms": ("ms", "lower"),
    "keygraph.rhombi": ("count", "lower"),
    "geom.expand_pencil.ms": ("ms", "lower"),
    "geom.reflect.ms": ("ms", "lower"),
    "splice.splice.self_ms": ("ms", "lower"),
    "splice.symmetric_splice.self_ms": ("ms", "lower"),
    "splice.symmetric_splice.partitions": ("count", "lower"),
    "splice.symmetric_halving_bits.ms": ("ms", "lower"),
    "splice.canonicalize.ms": ("ms", "lower"),
    "splice.flips": ("count", "lower"),
    "tile.tile.self_ms": ("ms", "lower"),
    "tile.find_switch.ms": ("ms", "lower"),
    "tile.find_switch.calls": ("count", "lower"),
    "tile.switch_candidates.pairs": ("count", "lower"),
    "tile.candidates_per_switch": ("ratio", "lower"),
    "fold.check_fold.self_ms": ("ms", "lower"),
    "fold.outer_paths.ms": ("ms", "lower"),
    "fold.build_folding.ms": ("ms", "lower"),
    "fold.build_crisscross.ms": ("ms", "lower"),
    "fold.is_connected.ms": ("ms", "lower"),
    "verify.verify_tour.ms": ("ms", "lower"),
    "verify.verify_central_symmetry.ms": ("ms", "lower"),
    "verify.cells": ("count", "lower"),
    "render.format_structured.ms": ("ms", "lower"),
    "render.format_grid.ms": ("ms", "lower"),
    "render.format_svg.ms": ("ms", "lower"),
    "render.parse_structured.ms": ("ms", "lower"),
}

# Per-op names that are not "<span>.<ms|self_ms|calls>" read from the span sums.
ALIASES = {
    "keygraph.cycle_partition.cells": "keygraph.cycle_partition.work",
    "keygraph.rhombi": "keygraph.build_key.work",
    "verify.cells": "verify.verify_tour.work",
    "tile.switch_candidates.pairs": "tile.find_switch.work",
}

GROWTH = (
    "keygraph.build_key",
    "keygraph.cycle_partition",
    "splice.splice",
    "splice.symmetric_splice",
    "tile.tile",
)

# Whole-run metrics of the traced run: name -> (unit, better).
RUN_METRICS = {
    **{f"{layer}.errors": ("count", "lower") for layer in LAYERS},
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.coverage_frac": ("ratio", "higher"),
    **{f"{name}.growth_exp": ("exponent", "lower") for name in GROWTH},
}

PER_LAYER = {**PER_OP, **RUN_METRICS}

# The scaling ladder of the roadmap: base leapers, then (2, 5) tilings.
PROBE_LEAPERS = ((1, 2), (2, 5), (4, 9), (6, 13), (10, 21), (12, 25))
PROBE_TILINGS = ((2, 2), (4, 4), (6, 6), (2, 3))
PROBE_REPEATS = 3


class Tracer:
    """Records one span per wrapped call while installed for an op.

    A span is ``[name, start, end, parent span id, op id, work]``; spans stay
    in memory until the run writes them out.
    """

    def __init__(self, lt):
        self.lt = lt  # the leapertour package
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.errors: Counter = Counter()
        self.extra: dict = defaultdict(Counter)  # op id -> counts kept outside spans
        self._saved: list = []
        self._halvings: list = []

    def install(self, op) -> None:
        self.op = op
        for mod, attr, name, work in TARGETS:
            self._patch(mod, attr, self._wrap(name, getattr(getattr(self.lt, mod), attr), work))
        self._patch("tile", "switch_candidates", self._count_yields(self.lt.tile.switch_candidates))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        # splice.flips is computed here, outside the op's timed interval:
        # each merging flip joins two cycles of the initial halving.
        halve = self.lt.keygraph.halve
        for op, key, bits in self._halvings:
            self.extra[op]["splice.flips"] += len(halve(key, bits).cycles) - 1
        self._halvings.clear()
        self.op = None

    def _patch(self, mod: str, attr: str, fn) -> None:
        module = getattr(self.lt, mod)
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, fn)

    def _wrap(self, name: str, fn, work):
        spans, stack, errors = self.spans, self.stack, self.errors
        layer = name.split(".", 1)[0]
        note_halving = name == "splice.splice"

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, 0]
            stack.append(len(spans))
            spans.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                span[1], span[2] = start, perf_counter()
                stack.pop()
            if work is not None:
                span[5] = work(args, result)
            if note_halving:
                self._halvings.append((self.op, args[0], args[1]))
            return result

        return wrapper

    def _count_yields(self, fn):
        def wrapper(*args, **kwargs):
            counts = self.extra[self.op]
            for item in fn(*args, **kwargs):
                counts["tile.candidates"] += 1
                yield item

        return wrapper


def op_figures(tracer: Tracer) -> dict:
    """Per-op sums over spans: op id -> {"<span>.ms" | ".self_ms" | ".calls" | ".work": value}.

    Also ``splice.symmetric_splice.partitions`` (cycle_partition spans whose
    parent is a symmetric_splice span) and ``top_ms`` (the time of the
    top-level spans, those without a parent).
    """
    spans = tracer.spans
    child_ms = [0.0] * len(spans)
    for name, t0, t1, parent, op, work in spans:
        if parent is not None:
            child_ms[parent] += (t1 - t0) * 1e3
    figures: dict = defaultdict(lambda: defaultdict(float))
    for sid, (name, t0, t1, parent, op, work) in enumerate(spans):
        ms = (t1 - t0) * 1e3
        f = figures[op]
        f[f"{name}.ms"] += ms
        f[f"{name}.self_ms"] += ms - child_ms[sid]
        f[f"{name}.calls"] += 1
        f[f"{name}.work"] += work
        if parent is None:
            f["top_ms"] += ms
        elif name == "keygraph.cycle_partition" and spans[parent][0] == "splice.symmetric_splice":
            f["splice.symmetric_splice.partitions"] += 1
    for op, counts in tracer.extra.items():
        figures[op].update(counts)
    return figures


def per_op_value(f: dict, name: str) -> float:
    if name == "tile.candidates_per_switch":
        switches = f.get("tile.find_switch.calls", 0)
        return f.get("tile.candidates", 0) / switches if switches else 0.0
    return f.get(ALIASES.get(name, name), 0)


def stage_stats(figures: dict, ops) -> dict:
    """Median and minimum inclusive ms per span name over the given ops."""
    names = sorted({k[:-3] for op in ops for k in figures[op] if k.endswith(".ms")})
    out = {}
    for name in names:
        values = [figures[op].get(f"{name}.ms", 0.0) for op in ops]
        out[name] = {"median_ms": statistics.median(values), "min_ms": min(values)}
    return out


def scaling_probe(tracer: Tracer) -> dict:
    """Trace the stages over the scaling ladder; return growth exponents.

    Each point is (cells, ms) for one span; repeated points keep their
    minimum.  The exponent is the least-squares slope of log ms against
    log cells.
    """
    lt = tracer.lt
    points: dict = defaultdict(lambda: defaultdict(lambda: math.inf))

    def run_traced(op, cells, fn):
        first = len(tracer.spans)
        tracer.install(op)
        try:
            fn()
        finally:
            tracer.uninstall()
        for name, t0, t1, parent, span_op, work in tracer.spans[first:]:
            if name in GROWTH:
                n = work if name == "keygraph.cycle_partition" else cells
                points[name][n] = min(points[name][n], (t1 - t0) * 1e3)

    def pipeline(leaper, seed):
        key = lt.keygraph.build_key(leaper)
        lt.splice.splice(key, lt.splice.random_bits(len(key.rhombi), seed))
        lt.splice.symmetric_splice(key)

    for rep in range(PROBE_REPEATS):
        for p, q in PROBE_LEAPERS:
            leaper = lt.geom.Leaper(p, q)
            run_traced(f"probe:{p},{q}:{rep}", leaper.side ** 2, lambda: pipeline(leaper, rep))

    leaper = lt.geom.Leaper(2, 5)
    key = lt.keygraph.build_key(leaper)
    base = lt.splice.canonicalize(lt.splice.splice(key, lt.splice.random_bits(len(key.rhombi), 0)))
    for k, l in PROBE_TILINGS:
        run_traced(f"probe:tile{k}x{l}", k * l * leaper.side ** 2, lambda: lt.tile.tile(leaper, k, l, base))

    growth = {}
    for name in GROWTH:
        cells = sorted(points[name])
        xs = [math.log(c) for c in cells]
        ys = [math.log(points[name][c]) for c in cells]
        growth[f"{name}.growth_exp"] = statistics.linear_regression(xs, ys).slope
    return growth
