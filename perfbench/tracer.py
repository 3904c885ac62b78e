"""Span recorder that instruments driftlab from the outside.

``Instrumentation`` wraps the public callables each layer exposes, at the
names its callers look them up under (``driftlab.learners.implicit_update``,
``driftlab.cli.run_cell``, ``Geometry.project``, the learner and combiner
``update`` methods, ...), and restores every original on ``close``.  A
wrapped call records one span: name, start, end and the span that was open
when it began.  Self time is a span's duration minus the time its child
spans cover.  Spans stay in memory and are written out at the end.

Nothing in the package is edited.  A callable that a later version of the
package no longer has is skipped, and every metric that depended only on it
is reported as absent.
"""

from __future__ import annotations

import functools
import inspect
import json
import pathlib
import sys
import time
import weakref
from collections import Counter, defaultdict

# Spans beyond this many are counted but not kept; the aggregates stay exact.
MAX_KEPT_SPANS = 200_000


class Recorder:
    def __init__(self):
        self.spans = []        # (id, parent id, name, start, end)
        self.dropped = 0
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.maxima = {}
        self.seen = weakref.WeakKeyDictionary()  # per-object state of hooks
        self._stack = []       # [span id, child seconds]
        self._next_id = 0

    def span(self, name, fn, after=None, before=None):
        """Wrap ``fn`` so each call records a span.  ``before(rec, args)`` and
        ``after(rec, result, args)`` turn arguments and results into counts."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(rec, args)
            sid = rec._next_id
            rec._next_id += 1
            parent = rec._stack[-1][0] if rec._stack else None
            frame = [sid, 0.0]
            rec._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec._stack.pop()
                duration = end - start
                rec.self_time[name] += duration - frame[1]
                rec.calls[name] += 1
                if rec._stack:
                    rec._stack[-1][1] += duration
                if len(rec.spans) < MAX_KEPT_SPANS:
                    rec.spans.append((sid, parent, name, start, end))
                else:
                    rec.dropped += 1
            if after is not None:
                after(rec, result, args)
            return result

        return traced

    def count(self, key, n=1):
        self.counts[key] += n

    def peak(self, key, value):
        if key not in self.maxima or value > self.maxima[key]:
            self.maxima[key] = value

    def write(self, path):
        spans = [{"id": s, "parent": p, "name": n, "start": a, "end": b}
                 for s, p, n, a, b in self.spans]
        pathlib.Path(path).write_text(json.dumps(
            {"spans": spans, "dropped": self.dropped}) + "\n")


# -- what each layer's spans are called and how results become counts --------


def _after_prox(rec, res, args):
    route = getattr(res, "solver", None)
    if route is not None:
        rec.count(f"prox.calls.{route}")
    residual = getattr(res, "residual", None)
    if residual is not None:
        rec.peak("prox.residual_max", float(residual))


def _after_bounds(rec, rows, args):
    for row in rows:
        status = getattr(row, "status", None)
        if status == "checked":
            rec.count("bounds.rows_checked")
            if not getattr(row, "passed", True):
                rec.count("bounds.rows_failed")
        elif status == "inapplicable":
            rec.count("bounds.rows_inapplicable")


def _after_run_cell(rec, result, args):
    lines = getattr(result, "trace_lines", None)
    if lines is not None:
        rec.count("runner.trace_bytes", sum(len(line.encode()) + 1 for line in lines))


def _before_scaffold_update(rec, args):
    # every base is awake for at least one update, so looking before each
    # update sees every base the scaffold ever spawned
    learner = args[0]
    bases = getattr(learner, "bases", None)
    if isinstance(bases, dict):
        seen = rec.seen.setdefault(learner, set())
        fresh = set(bases) - seen
        rec.count("combiners.bases_spawned", len(fresh))
        seen |= fresh


def _after_scaffold_update(rec, row, args):
    active = row.get("active") if isinstance(row, dict) else None
    if active is not None:
        rec.count("scaffold.rounds")
        rec.count("scaffold.active_sum", active)


# module-level functions, by name: every driftlab module that holds the same
# function object under that name is patched, so each caller's lookup is seen
FUNCTIONS = {
    "make_environment": ("envs.make", None),
    "implicit_update": ("prox.solve", _after_prox),
    "temporal_variability": ("losses.variability", None),
    "loss_from_dict": ("losses.from_dict", None),
    "evaluate_bounds": ("bounds.evaluate", _after_bounds),
    "run_cell": ("runner.run_cell", _after_run_cell),
    "trace_to_report": ("runner.report", None),
    "parse_trace": ("runner.parse", None),
    "verify_trace": ("runner.verify_read", None),
    "summarize": ("runner.summary", None),
    "report_json": ("cli.write", None),
}

# (module, class, subclasses only, methods, span name): the class itself, or
# every public class of the module deriving from it, has each method that it
# defines itself wrapped
METHODS = [
    ("driftlab.envs", "Environment", True, ("loss", "comparator"), "envs.round"),
    ("driftlab.learners", "Learner", True, ("update",), "learners.update"),
    ("driftlab.combiners", "Learner", True, ("update",), "combiners.update"),
    ("driftlab.combiners", "Learner", True, ("play",), "combiners.play"),
    ("driftlab.geometry", "Geometry", False, ("project",), "geometry.project"),
    ("driftlab.geometry", "Geometry", False, ("bregman",), "geometry.bregman"),
]

# extra hooks keyed by (class name, span name)
_HOOKS = {("Scaffold", "combiners.update"): (_before_scaffold_update, _after_scaffold_update)}

# per-layer metric -> (unit, how it is computed, span names it needs)
#   "self": summed self seconds of the spans    "calls": their call count
#   "count": recorder count of the metric name   "max": recorder maximum
#   "mean": active bases per scaffold update
LAYER_METRICS = {
    "envs.make_s": ("s", "self", ["envs.make"]),
    "envs.round_s": ("s", "self", ["envs.round"]),
    "learners.update_s": ("s", "self", ["learners.update"]),
    "learners.update_calls": ("count", "calls", ["learners.update"]),
    "prox.solve_s": ("s", "self", ["prox.solve"]),
    "prox.calls": ("count", "calls", ["prox.solve"]),
    "prox.calls.closed-form": ("count", "count", ["prox.solve"]),
    "prox.calls.numeric-descent": ("count", "count", ["prox.solve"]),
    "prox.calls.dual-bisection": ("count", "count", ["prox.solve"]),
    "prox.calls.identity": ("count", "count", ["prox.solve"]),
    "prox.residual_max": ("1", "max", ["prox.solve"]),
    "geometry.project_s": ("s", "self", ["geometry.project"]),
    "geometry.project_calls": ("count", "calls", ["geometry.project"]),
    "geometry.bregman_s": ("s", "self", ["geometry.bregman"]),
    "combiners.update_s": ("s", "self", ["combiners.update"]),
    "combiners.play_s": ("s", "self", ["combiners.play"]),
    "combiners.bases_spawned": ("count", "count", ["combiners.update"]),
    "combiners.active_mean": ("count", "mean", ["combiners.update"]),
    "losses.variability_s": ("s", "self", ["losses.variability"]),
    "losses.variability_calls": ("count", "calls", ["losses.variability"]),
    "losses.from_dict_s": ("s", "self", ["losses.from_dict"]),
    "bounds.evaluate_s": ("s", "self", ["bounds.evaluate"]),
    "bounds.rows_checked": ("count", "count", ["bounds.evaluate"]),
    "bounds.rows_inapplicable": ("count", "count", ["bounds.evaluate"]),
    "bounds.rows_failed": ("count", "count", ["bounds.evaluate"]),
    "runner.loop_self_s": ("s", "self", ["runner.run_cell"]),
    "runner.trace_bytes": ("bytes", "count", ["runner.run_cell"]),
    "runner.parse_s": ("s", "self", ["runner.parse", "runner.verify_read"]),
    "runner.report_self_s": ("s", "self", ["runner.report"]),
    "runner.summary_s": ("s", "self", ["runner.summary"]),
    "cli.write_s": ("s", "self", ["cli.write", "cli.write_text"]),
    "cli.self_s": ("s", "self", ["cli.main"]),
}


class Instrumentation:
    """Patches driftlab's public callables with spans; ``close`` undoes it."""

    def __init__(self, recorder: Recorder):
        self.rec = recorder
        self._undo = []
        self.present = {"cli.main"}
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "driftlab" or name.startswith("driftlab.")}
        self._wrap_functions(mods)
        self._wrap_methods(mods)
        # file writes of the cli go through pathlib; time them as cli.write
        self._patch(pathlib.Path, "write_text",
                    recorder.span("cli.write_text", pathlib.Path.write_text))
        self.present.add("cli.write_text")

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap_functions(self, mods):
        for fname, (span, after) in FUNCTIONS.items():
            originals = {}
            for mod in mods.values():
                obj = mod.__dict__.get(fname)
                if inspect.isfunction(obj) and obj.__module__.startswith("driftlab"):
                    originals.setdefault(id(obj), (obj, []))[1].append(mod)
            for obj, holders in originals.values():
                wrapped = self.rec.span(span, obj, after)
                for mod in holders:
                    self._patch(mod, fname, wrapped)
                self.present.add(span)

    def _wrap_methods(self, mods):
        for modname, basename, subclasses, methods, span in METHODS:
            base = getattr(mods.get(modname), basename, None)
            if not inspect.isclass(base):
                continue
            if subclasses:
                classes = [cls for name, cls in vars(mods[modname]).items()
                           if inspect.isclass(cls) and not name.startswith("_")
                           and cls.__module__ == modname
                           and issubclass(cls, base) and cls is not base]
            else:
                classes = [base]
            for cls in classes:
                before, after = _HOOKS.get((cls.__name__, span), (None, None))
                for meth in methods:
                    fn = cls.__dict__.get(meth)
                    if inspect.isfunction(fn):
                        self._patch(cls, meth, self.rec.span(span, fn, after, before))
                        self.present.add(span)

    def close(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def layer_metrics(rec: Recorder, present: set) -> tuple[dict, list]:
    """Per-layer values from the recorder; names whose spans are missing are
    returned in the absent list instead."""
    values, absent = {}, []
    for name, (unit, how, needs) in LAYER_METRICS.items():
        if not any(span in present for span in needs):
            absent.append(name)
            continue
        if how == "self":
            v = sum(rec.self_time.get(span, 0.0) for span in needs)
        elif how == "calls":
            v = sum(rec.calls.get(span, 0) for span in needs)
        elif how == "max":
            v = rec.maxima.get(name, 0.0)
        elif how == "mean":
            rounds = rec.counts.get("scaffold.rounds", 0)
            v = rec.counts.get("scaffold.active_sum", 0) / rounds if rounds else 0.0
        else:
            v = rec.counts.get(name, 0)
        values[name] = (v, unit)
    return values, absent
