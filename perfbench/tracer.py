"""Outside-in tracer: spans patched onto minflux module attributes.

The library carries no instrumentation of its own.  For a traced run this
module replaces selected functions and methods of the minflux modules with
wrappers that record one span per call (name, start, end, parent span, op
id and a few work counts taken from the arguments or the result), runs the
workload, and puts the originals back.  Untraced runs never import the
patches, so they pay nothing.

Self time and counters are computed from the recorded spans afterwards.
"""

from __future__ import annotations

import json
import os
import time

from minflux import cli, isotopy, labyrinth, loops, nullquadric, riemann, sprays
from minflux import weierstrass


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _graph_counts(args, kwargs, g):
    arrays = (g.nodes, g.radii, g.rows, g.cols, g.lengths, g.boundary)
    return {
        "nodes": int(g.nodes.size),
        "edges": int(g.rows.size),
        "bytes": int(sum(a.nbytes for a in arrays)),
    }


# (span name, owner object, attribute, counts from (args, kwargs, result))
SPANS = (
    ("nullquadric.pi1_class", nullquadric, "pi1_class", None),
    ("nullquadric.spinor_lift", nullquadric, "_pointwise_spinor", None),
    ("nullquadric.spinor_lift", nullquadric, "_lift_signs", None),
    ("loops.make_zero_period_pair", loops, "make_zero_period_pair", None),
    ("loops.transport_frame", loops, "_transport_frame", None),
    ("loops.newton_root", loops, "_newton_root_ln",
     lambda a, k, r: {"failures": int(r is None)}),
    ("loops.period_continuation", loops, "_period_continuation", None),
    ("loops.flow_deform", loops, "_flow_deform",
     lambda a, k, r: {"samples": len(a[0])}),
    ("sprays.build", sprays, "_build", None),
    ("sprays.periods", sprays.LoopSpray, "periods", None),
    ("sprays.period_jacobian", sprays, "period_jacobian", None),
    ("sprays.solve_w", sprays, "solve_w", None),
    ("riemann.runge_extend", riemann, "runge_extend",
     lambda a, k, r: {"degree_max": int(r.meta["degree"])}),
    ("riemann.lift_loop", riemann, "_lift_loop", None),
    ("riemann.winding_number", riemann, "winding_number", None),
    ("weierstrass.metric_density", weierstrass, "metric_density",
     lambda a, k, r: {"points": int(r.size)}),
    ("weierstrass.is_flat", weierstrass, "is_flat", None),
    ("weierstrass.conformality_residual", weierstrass, "conformality_residual",
     None),
    ("weierstrass.loop_period", weierstrass, "loop_period", None),
    ("weierstrass.integrate_immersion", weierstrass, "integrate_immersion",
     None),
    ("isotopy.drive", isotopy, "_drive", None),
    ("isotopy.pin_extension", isotopy, "_pin_extension", None),
    ("isotopy.verify", isotopy, "verify", None),
    ("labyrinth.complete_step", labyrinth, "complete_step",
     lambda a, k, r: {"N": int(r.N)}),
    ("labyrinth.find_bands", labyrinth, "find_bands", None),
    ("labyrinth.choose_params", labyrinth, "choose_params", None),
    ("labyrinth.wall_mask", labyrinth.Labyrinth, "contains",
     lambda a, k, r: {"points": int(r.size)}),
    ("labyrinth.graph_build", labyrinth, "build_metric_graph", _graph_counts),
    ("labyrinth.distance", labyrinth.MetricGraph, "distance", None),
    ("labyrinth.csr_build", labyrinth, "csr_matrix", None),
    ("labyrinth.dijkstra", labyrinth, "dijkstra",
     lambda a, k, r: {"nodes": int(a[0].shape[0])}),
    ("cli.load_config", cli, "load_config", None),
    ("cli.write_coefficients", cli, "write_coefficients", _file_bytes),
    ("cli.load_family", cli, "load_family", None),
    ("cli.write_trace_csv", cli, "write_trace_csv", None),
    ("cli.surface_grid", cli, "surface_grid", None),
    ("cli.write_obj", cli, "write_obj", _file_bytes),
)

# Calls counted into the innermost open span of a given name:
# (owner span, count key, owner object, attribute).
TALLIES = (
    # one builder per epsilon tried, so attempts - 1 epsilon halvings
    ("loops.make_zero_period_pair", "attempts", loops._ZeroPeriodBuilder,
     "__init__"),
    ("loops.make_zero_period_pair", "residual_calls", loops._ZeroPeriodBuilder,
     "period"),
    ("sprays.build", "attempts", sprays, "_certify"),
    ("isotopy.drive", "continuations", loops, "_period_continuation"),
)

# Extra per-layer counters: metric name -> (span name, count key, reduction).
# "attempts" become retries by subtracting one per owning span.
COUNTERS = {
    "loops.make_zero_period_pair.retries":
        ("loops.make_zero_period_pair", "attempts", "retries"),
    "loops.zero_pair_residual.calls":
        ("loops.make_zero_period_pair", "residual_calls", "sum"),
    "loops.newton_root.failures": ("loops.newton_root", "failures", "sum"),
    "loops.flow_deform.samples": ("loops.flow_deform", "samples", "sum"),
    "sprays.build.retries": ("sprays.build", "attempts", "retries"),
    "riemann.runge_extend.degree_max":
        ("riemann.runge_extend", "degree_max", "max"),
    "weierstrass.metric_density.points":
        ("weierstrass.metric_density", "points", "sum"),
    "isotopy.drive.retries": ("isotopy.drive", "continuations", "retries"),
    "labyrinth.complete_step.N": ("labyrinth.complete_step", "N", "max"),
    "labyrinth.wall_mask.points": ("labyrinth.wall_mask", "points", "sum"),
    "labyrinth.graph_build.nodes": ("labyrinth.graph_build", "nodes", "sum"),
    "labyrinth.graph_build.edges": ("labyrinth.graph_build", "edges", "sum"),
    "labyrinth.graph_build.bytes": ("labyrinth.graph_build", "bytes", "sum"),
    "labyrinth.dijkstra.nodes": ("labyrinth.dijkstra", "nodes", "sum"),
    "cli.write_coefficients.bytes": ("cli.write_coefficients", "bytes", "sum"),
    "cli.write_obj.bytes": ("cli.write_obj", "bytes", "sum"),
}

COUNTER_UNITS = {"bytes": "B", "degree_max": "degree"}

SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in SPANS))


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.counts = {}


class Tracer:
    """Records spans while installed; restores the library on exit."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _span_wrapper(self, name, fn, counts):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = Span(name, clock(), stack[-1] if stack else None, self.op)
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counts is not None:
                span.counts.update(counts(args, kwargs, result))
            return result

        return wrapper

    def _tally_wrapper(self, owner, key, fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            for span in reversed(stack):
                if span.name == owner:
                    span.counts[key] = span.counts.get(key, 0) + 1
                    break
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, obj, attr, wrapper):
        self._saved.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, wrapper)

    def __enter__(self):
        # tallies first, so a span wrapping the same attribute is the outer
        # wrapper and the tally sees its owner below it on the stack
        for owner, key, obj, attr in TALLIES:
            self._patch(obj, attr, self._tally_wrapper(owner, key, getattr(obj, attr)))
        for name, obj, attr, counts in SPANS:
            self._patch(obj, attr, self._span_wrapper(name, getattr(obj, attr), counts))
        return self

    def __exit__(self, *exc):
        while self._saved:
            obj, attr, orig = self._saved.pop()
            setattr(obj, attr, orig)
        return False

    # -- results -----------------------------------------------------------

    def open_spans(self):
        return [s for s in self.spans if s.end is None]

    def self_times(self, spans=None):
        """Per span name: (calls, self seconds), children subtracted."""
        spans = self.spans if spans is None else spans
        child = {}
        for s in spans:
            if s.parent is not None:
                child[id(s.parent)] = child.get(id(s.parent), 0.0) + (s.end - s.start)
        out = {name: [0, 0.0] for name in SPAN_NAMES}
        for s in spans:
            acc = out[s.name]
            acc[0] += 1
            acc[1] += (s.end - s.start) - child.get(id(s), 0.0)
        return out

    def counters(self, spans=None):
        spans = self.spans if spans is None else spans
        out = {}
        for metric, (owner, key, how) in COUNTERS.items():
            vals = [s.counts.get(key, 0) for s in spans if s.name == owner]
            if how == "max":
                out[metric] = max(vals, default=0)
            elif how == "retries":
                out[metric] = sum(max(v - 1, 0) for v in vals)
            else:
                out[metric] = sum(vals)
        return out

    def layer_metrics(self, spans=None):
        """Every per-layer metric name -> (value, unit), in report order."""
        values = self.counters(spans)
        for name, (calls, self_s) in self.self_times(spans).items():
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = self_s
        return {name: (values[name], unit) for name, unit in metric_names()}

    def write(self, path):
        """Spans as JSON lines: name, start, end, parent index, op, counts."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for s in self.spans:
                rec = {
                    "name": s.name,
                    "start": s.start - t0,
                    "end": None if s.end is None else s.end - t0,
                    "parent": None if s.parent is None else index[id(s.parent)],
                    "op": s.op,
                }
                if s.counts:
                    rec["counts"] = s.counts
                fh.write(json.dumps(rec) + "\n")


def metric_names():
    """All per-layer metric names with units, in report order."""
    names = []
    for name in SPAN_NAMES:
        names += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    for metric in COUNTERS:
        names.append((metric, COUNTER_UNITS.get(metric.rsplit(".", 1)[1], "count")))
    return names
