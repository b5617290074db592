"""Spans around heatmetric's public functions, recorded from outside.

Tracer.install wraps every public function defined in the traced modules and
rebinds the wrapper under every name the function is bound to anywhere in the
package (for example transport.w2_exact and flow.w2_exact, or the command
table in cli). scipy's linprog is wrapped as bound in transport, so the HiGHS
time, iteration count and LP size are recorded at the call site. A function
that re-enters itself (w2_exact swaps its arguments into canonical order and
calls itself) records one span per call from outside. Spans stay in memory
until the run ends.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
import time
import types
from collections import defaultdict

import numpy as np

PACKAGE = "heatmetric"
MODULES = ("spaces", "geometry", "heat", "transport", "flow", "tangent", "cli")
SUPPORT_SIZES = (16, 24, 32, 64, 128, 256)


def _linprog_info(args, kwargs, result):
    c = args[0] if args else kwargs["c"]
    return {"variables": int(np.size(c)), "iterations": int(getattr(result, "nit", 0))}


def _w2_info(args, kwargs, result):
    mu, nu = (np.asarray(a) for a in args[:2])
    return {"support": int(max(np.count_nonzero(mu), np.count_nonzero(nu)))}


# extra fields recorded on the spans of these functions
SPAN_INFO = {"transport.linprog": _linprog_info, "transport.w2_exact": _w2_info}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, round, info]
        self.round = 0
        self._stack = []
        self._inside = set()
        self._patches = []

    # -- installation -------------------------------------------------------

    def _namespaces(self):
        mods = [m for name, m in sys.modules.items()
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        spaces = [vars(m) for m in mods]
        # tables of functions, such as the cli's command dispatch dict
        spaces += [v for ns in list(spaces) for v in ns.values() if isinstance(v, dict)]
        return spaces

    def install(self):
        wrappers = {}
        for short in MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for name, fn in vars(mod).items():
                if (isinstance(fn, types.FunctionType) and not name.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        transport = sys.modules[f"{PACKAGE}.transport"]
        lp = transport.linprog
        wrappers[id(lp)] = (lp, self._wrap("transport.linprog", lp))
        for ns in self._namespaces():
            for key, value in list(ns.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    ns[key] = hit[1]
                    self._patches.append((ns, key, value))

    def uninstall(self):
        for ns, key, value in reversed(self._patches):
            ns[key] = value
        self._patches.clear()

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn):
        info = SPAN_INFO.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in tracer._inside:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                    tracer.round, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            tracer._inside.add(name)
            result, failed = None, True
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                span[2] = time.perf_counter()
                tracer._inside.discard(name)
                tracer._stack.pop()
                extra = info(args, kwargs, result) if info else {}
                if failed:
                    extra["failed"] = True
                span[5] = extra or None

        return wrapper

    # -- aggregation --------------------------------------------------------

    def _round(self, rnd):
        """Spans of one round as (index, span), and the time each span's
        direct children cover."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == rnd]
        child = defaultdict(float)
        for _, s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        return spans, child

    def round_stats(self, rnd):
        """Per-layer metrics of one traced round."""
        spans, child = self._round(rnd)
        calls, secs = defaultdict(int), defaultdict(float)
        self_s = {m: 0.0 for m in MODULES}
        w2_by_size = defaultdict(list)
        out = defaultdict(float)
        for i, s in spans:
            name, dur, info = s[0], s[2] - s[1], s[5] or {}
            calls[name] += 1
            secs[name] += dur
            self_s[name.split(".")[0]] += dur - child[i]
            if name == "transport.w2_exact":
                out["transport.w2_exact.failed"] += info.get("failed", False)
                if "support" in info:
                    w2_by_size[info["support"]].append(dur)
            elif name == "transport.linprog":
                out["transport.lp_variables"] += info["variables"]
                out["transport.linprog.iterations"] += info["iterations"]
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = secs[name]
        for m, v in self_s.items():
            out[f"{m}.self_s"] = v
        for n in SUPPORT_SIZES:
            times = w2_by_size.get(n)
            out[f"transport.w2_exact.p50_s.n{n}"] = statistics.median(times) if times else 0.0
        return out

    def op_breakdown(self, rnd, top=3):
        """Per root span (one benchmark operation): wall time and the layers
        with the largest self time inside it."""
        spans, child = self._round(rnd)
        root_of = {}
        for i, s in spans:
            root_of[i] = i if s[3] < 0 else root_of[s[3]]
        per_root = defaultdict(lambda: defaultdict(float))
        for i, s in spans:
            per_root[root_of[i]][s[0]] += s[2] - s[1] - child[i]
        lines = []
        for r, layers in per_root.items():
            s = self.spans[r]
            best = sorted(layers.items(), key=lambda kv: -kv[1])[:top]
            lines.append((s[0], s[2] - s[1], best))
        return lines

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "round", "info"],
                       "spans": self.spans}, fh)
