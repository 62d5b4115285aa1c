"""Span tracing around ccc4 layer entry points, installed from outside the
package.

A layer is named "<module>.<function>" after the ccc4 module that defines
it.  `Tracer.install` looks each name up when it runs and replaces every
attribute of a loaded ccc4 module that is that function object by a
wrapper, so a function imported elsewhere by name (`from .chart import
sample_interior` in solver and oracle) is traced at every call site.  A
name that no longer exists is reported as absent rather than failing.
`Tracer.uninstall` restores the original attributes.

Each call records one span: layer, start, end, the span that caused it,
the benchmark operation it belongs to, and a small dict of counters read
from its arguments or result.  Spans stay in memory; `write_spans` saves
them when the run ends.  A span opened on a worker thread with no open
span of its own takes the innermost open span of the installing thread as
its parent, which is how `cli.cmd_scan` owns the solves its thread pool
runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

PACKAGE = "ccc4"
LAYERS = (
    "chart.sample_interior",
    "geometry.canonical_distance_tuple",
    "kernels.descend",
    "solver._newton_polish",
    "solver._record_from_point",
    "solver.minimize_U",
    "solver.certify_minimum",
    "oracle.embed_cyclic",
    "oracle.cartesian_cc_residual",
    "inverse.recover_masses",
    "oracle.run_identity_battery",
    "cli.cmd_scan",
    "serialize.dumps",
)

# Check names of solver.certify_minimum; a check added later is counted
# under failed.other so the metric names stay fixed.
CERT_CHECKS = ("lambda_positive", "stationarity", "constraints",
               "minors_positive", "posdef_agreement", "dziobek",
               "sigma_sq_consistent", "cocircular_consistent")
KERNEL_STATUSES = ("CONVERGED", "MAXITER", "STALLED")

# Variates per sampler draw: one normal triple for v and one for w.
VARIATES_PER_DRAW = 6


class Span(NamedTuple):
    sid: int
    parent: int | None
    layer: str
    op: int | None
    thread: int
    t0: float
    t1: float
    info: dict


class _CountingRng:
    """Delegates to a numpy Generator and counts the variates it returns,
    so the wrapped sampler sees the identical stream."""

    def __init__(self, rng):
        self._rng = rng
        self.variates = 0

    def __getattr__(self, name):
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            out = attr(*args, **kwargs)
            self.variates += int(getattr(out, "size", 1))
            return out
        # cache on the instance so later lookups skip __getattr__
        setattr(self, name, counted)
        return counted


def _sampler_pre(fn):
    try:
        signature = inspect.signature(fn)
    except (TypeError, ValueError):
        return None
    if "rng" not in signature.parameters:
        return None

    def pre(args, kwargs):
        if "rng" in kwargs:     # how solver and oracle pass it; skips bind()
            bound = None
            rng = kwargs["rng"]
        else:
            bound = signature.bind_partial(*args, **kwargs)
            rng = bound.arguments.get("rng")
        if rng is None:
            return args, kwargs, None
        proxy = _CountingRng(rng)
        if bound is None:
            return args, {**kwargs, "rng": proxy}, proxy
        bound.arguments["rng"] = proxy
        return bound.args, bound.kwargs, proxy
    return pre


def _sampler_post(result, proxy, info):
    if proxy is not None:
        info["variates"] = proxy.variates


def _descend_post(result, state, info):
    info["iters"] = int(result[4])
    info["status"] = int(result[5])


def _newton_post(result, state, info):
    info["iters"] = int(result[4])
    info["ok"] = bool(result[5])


def _certify_post(result, state, info):
    info["failed"] = [name for name, check in result.checks.items()
                      if not check.passed]


def _recover_post(result, state, info):
    info["rounds"] = int(result.rounds)


def _scan_pre(fn):
    def pre(args, kwargs):
        return args, kwargs, getattr(args[0], "jobs", None) if args else None
    return pre


def _scan_post(result, jobs, info):
    info["jobs"] = jobs


# layer -> (factory of an argument hook, result hook)
HOOKS = {
    "chart.sample_interior": (_sampler_pre, _sampler_post),
    "kernels.descend": (None, _descend_post),
    "solver._newton_polish": (None, _newton_post),
    "solver.certify_minimum": (None, _certify_post),
    "inverse.recover_masses": (None, _recover_post),
    "cli.cmd_scan": (_scan_pre, _scan_post),
}

# Result hooks read positions and fields of the return value; if a later
# version changes its shape, the span is kept and the counters are skipped.
_HOOK_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)


class Tracer:
    """Wraps the layers between install() and uninstall(); spans collect
    across installs."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.status_names: dict[int, str] = {}
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._patches: list[tuple] | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self):
        """Put the wrappers in place; the layers are looked up on the first
        call and the same wrappers are reused afterwards."""
        if self._patches is None:
            self._patches = self._find_patches()
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, fn, _ in reversed(self._patches or ()):
            setattr(mod, attr, fn)

    def _find_patches(self) -> list:
        self._root_stack = self._stack()
        prefix = PACKAGE + "."
        found = {}
        for layer in LAYERS:
            modname, funcname = layer.rsplit(".", 1)
            try:
                module = importlib.import_module(prefix + modname)
            except ImportError:
                module = None
            fn = getattr(module, funcname, None)
            if callable(fn):
                found[layer] = fn
            else:
                self.absent.append(layer)
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == PACKAGE or name.startswith(prefix))]
        patches = []
        for layer, fn in found.items():
            wrapper = self._wrap(layer, fn)
            patches += [(mod, attr, fn, wrapper) for mod in modules
                        for attr, value in vars(mod).items() if value is fn]
        kernels = sys.modules.get(prefix + "kernels")
        for name in KERNEL_STATUSES:
            value = getattr(kernels, name, None)
            if isinstance(value, int):
                self.status_names[value] = name
        return patches

    def _wrap(self, layer: str, fn):
        pre_factory, post = HOOKS.get(layer, (None, None))
        pre = pre_factory(fn) if pre_factory else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif stack is not tracer._root_stack and tracer._root_stack:
                parent = tracer._root_stack[-1]
            else:
                parent = None
            sid = next(tracer._ids)
            info = {}
            state = None
            if pre is not None:
                args, kwargs, state = pre(args, kwargs)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = time.perf_counter()
                info["raised"] = type(exc).__name__
                raise
            else:
                t1 = time.perf_counter()
                if post is not None:
                    try:
                        post(result, state, info)
                    except _HOOK_ERRORS:
                        info["hook_error"] = True
                return result
            finally:
                stack.pop()
                tracer.spans.append(Span(sid, parent, layer, tracer.op,
                                         threading.get_ident(), t0, t1, info))
        return wrapper


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    end = -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_table(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer aggregates: calls, busy_s, self_s and share of wall_s for
    every layer, plus the layer-specific counters."""
    children = defaultdict(list)
    for span in tracer.spans:
        if span.parent is not None:
            children[span.parent].append(span)
    by_layer = defaultdict(list)
    for span in tracer.spans:
        by_layer[span.layer].append(span)

    table = {}
    for layer in LAYERS:
        spans = by_layer.get(layer, [])
        busy = sum(s.t1 - s.t0 for s in spans)
        child_time = sum(
            _covered((max(c.t0, s.t0), min(c.t1, s.t1)) for c in children.get(s.sid, ())
                     if c.t1 > s.t0 and c.t0 < s.t1)
            for s in spans)
        table[layer] = {
            "calls": (len(spans), "count"),
            "busy_s": (busy, "s"),
            "self_s": (busy - child_time, "s"),
            "share": (busy / wall_s if wall_s > 0 else 0.0, "ratio"),
        }

    sampler = [s for s in by_layer.get("chart.sample_interior", ())
               if "variates" in s.info]
    draws = sum(s.info["variates"] for s in sampler) / VARIATES_PER_DRAW
    table["chart.sample_interior"].update({
        "draws": (draws, "count"),
        "draws_per_accept": (draws / len(sampler) if sampler else 0.0, "ratio"),
    })

    descents = [s for s in by_layer.get("kernels.descend", ()) if "iters" in s.info]
    iters = sum(s.info["iters"] for s in descents)
    busy = sum(s.t1 - s.t0 for s in descents)
    statuses = {name: 0 for name in KERNEL_STATUSES}
    for s in descents:
        name = tracer.status_names.get(s.info["status"])
        if name is not None:
            statuses[name] += 1
    extra = {"iters": (iters, "count"),
             "us_per_iter": (1e6 * busy / iters if iters else 0.0, "us")}
    extra.update({f"status.{name}": (count, "count") for name, count in statuses.items()})
    extra["converged_ratio"] = (statuses["CONVERGED"] / len(descents) if descents else 0.0,
                                "ratio")
    table["kernels.descend"].update(extra)

    polishes = [s for s in by_layer.get("solver._newton_polish", ()) if "iters" in s.info]
    table["solver._newton_polish"].update({
        "iters": (sum(s.info["iters"] for s in polishes), "count"),
        "converged_ratio": (sum(s.info["ok"] for s in polishes) / len(polishes)
                            if polishes else 0.0, "ratio"),
    })

    failed = {name: 0 for name in (*CERT_CHECKS, "other")}
    for s in by_layer.get("solver.certify_minimum", ()):
        for name in s.info.get("failed", ()):
            failed[name if name in failed else "other"] += 1
    table["solver.certify_minimum"].update(
        {f"failed.{name}": (count, "count") for name, count in failed.items()})

    recoveries = by_layer.get("inverse.recover_masses", ())
    table["inverse.recover_masses"].update({
        "rounds": (sum(s.info.get("rounds", 0) for s in recoveries), "count"),
        "infeasible": (sum(s.info.get("raised") == "InfeasibleShapeError"
                           for s in recoveries), "count"),
    })
    return table


def write_spans(tracer: Tracer, path) -> None:
    """Save every span as one JSON document (times in seconds from the
    first span)."""
    origin = min((s.t0 for s in tracer.spans), default=0.0)
    doc = {"absent": tracer.absent,
           "fields": list(Span._fields),
           "spans": [[s.sid, s.parent, s.layer, s.op, s.thread,
                      s.t0 - origin, s.t1 - origin, s.info] for s in tracer.spans]}
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
