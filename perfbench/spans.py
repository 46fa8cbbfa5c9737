"""Span tracing for the traced benchmark run.

The tracer wraps the cross-module functions listed in ``TARGETS`` at every
``cmvspectra`` module namespace that holds them (the library binds names at
import, so patching only the defining module would miss ``construct``'s own
reference to ``band_structure``, for instance).  Each call records a span
``[name, start, end, parent, op_id, raised]`` in memory; ``parent`` is the
index of the innermost enclosing traced span or -1.  A span's self time is its
duration minus the part of its interval that its child spans cover.  Untraced
runs never construct a tracer, so they run the library unmodified.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import defaultdict
from time import perf_counter

NAME, START, END, PARENT, OP, RAISED = range(6)

PACKAGE = "cmvspectra"

TARGETS = (
    "cmv.diff_norm_bound_seq",
    "floquet.floquet_matrix",
    "floquet.discriminant",
    "floquet.band_structure",
    "specmeasure.floquet_solution",
    "specmeasure.density",
    "specmeasure.density_distance",
    "transfer.estimate_lipschitz",
    "transfer.gamma",
    "transfer.build_A_unimodular",
    "gordon.construct_gordon_approximant",
    "gordon.check_gordon",
    "gordon.growth_ratio",
    "construct.cantor_iterate",
    "construct.ac_iterate",
    "odometer.to_periodic",
    "odometer.lift",
    "odometer.sup_distance",
)

#: per-layer groups whose self times are summed into one metric
LAYER_GROUPS = {
    "construct": ("construct.cantor_iterate", "construct.ac_iterate"),
    "odometer": ("odometer.to_periodic", "odometer.lift", "odometer.sup_distance"),
}

#: theta grid (offset from 0 and pi) on which the discriminant's imaginary defect is sampled
DEFECT_GRID = 32


class Tracer:
    """Installs span-recording wrappers and restores the originals on uninstall."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_id = -1
        self.radii: set[float] = set()  # arguments seen by estimate_lipschitz
        self.discriminants: list = []  # results of discriminant, inspected after the run
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for target in TARGETS:
            mod_name, attr = target.rsplit(".", 1)
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], attr)
            wrapper = self._wrap(target, original)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def patched_names(self) -> list[str]:
        return [f"{m.__name__}.{attr}" for m, attr, _ in self._patched]

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        keep_radius = name == "transfer.estimate_lipschitz"
        keep_result = name == "floquet.discriminant"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if keep_radius:
                self.radii.add(float(args[0] if args else kwargs["r"]))
            elif keep_result:
                self.discriminants.append(result)
            return result

        return traced


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    return [
        (s[END] - s[START]) - covered_length(children.get(i, ()), s[START], s[END])
        for i, s in enumerate(spans)
    ]


def imag_defect_max(discriminants) -> float:
    """Largest |Im Delta(e^{i theta})| over a fixed theta grid, across all discriminants."""
    worst = 0.0
    thetas = [2.0 * math.pi * (j + 0.5) / DEFECT_GRID for j in range(DEFECT_GRID)]
    for disc in discriminants:
        worst = max(worst, max(disc.imag_defect(t) for t in thetas))
    return worst


def layer_metrics(tracer: Tracer, stages_completed: int) -> dict[str, float]:
    """Per-layer metrics from the recorded spans (values only, no units)."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    raised: dict[str, int] = defaultdict(int)
    candidates = 0
    for s, st in zip(spans, selfs):
        calls[s[NAME]] += 1
        self_s[s[NAME]] += st
        raised[s[NAME]] += s[RAISED]
        if (
            s[NAME] == "floquet.band_structure"
            and s[PARENT] >= 0
            and spans[s[PARENT]][NAME].startswith("construct.")
        ):
            candidates += 1
    m: dict[str, float] = {}
    for name in TARGETS:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    for layer, names in LAYER_GROUPS.items():
        m[f"{layer}.self_s"] = sum(self_s[n] for n in names)
    fs = "specmeasure.floquet_solution"
    m[f"{fs}.retry_ratio"] = raised[fs] / calls[fs] if calls[fs] else 0.0
    m["transfer.estimate_lipschitz.distinct_r"] = len(tracer.radii)
    m["floquet.discriminant.imag_defect_max"] = imag_defect_max(tracer.discriminants)
    m["construct.candidates"] = candidates
    m["construct.accept_ratio"] = stages_completed / candidates if candidates else 0.0
    m["trace.spans"] = len(spans)
    return m
