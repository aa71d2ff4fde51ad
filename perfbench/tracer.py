"""Span recorder that wraps torusdimer's layer functions from outside.

A `Tracer` replaces each function named in `WRAPPED` with a timing wrapper
in every torusdimer namespace that binds it (its home module, modules that
imported it by name, the package `__init__`), and restores the originals
on exit.  Each span pushes a frame on a stack; at exit its duration is
added to its parent's child time, so

    self time = duration - time covered by child spans.

Spans are aggregated in memory per name, per (parent, name) edge and per
job label; per-call sizes are kept for the few layers whose scaling
exponent is reported.
"""

import math
import sys
import time
from collections import defaultdict

import numpy as np

# <module>.<qualname> of every wrapped layer function, grouped by module.
WRAPPED = (
    "cli.run",
    "kasteleyn.build_KE",
    "kasteleyn.pfaffian_log",
    "kasteleyn.pfaffian_log_bipartite",
    "kasteleyn.sector_table",
    "kasteleyn.fiber_points",
    "kasteleyn.double_product",
    "kasteleyn.winding_distribution_exact",
    "lattice.FundamentalDomain.Qblock",
    "lattice.hnf_residues",
    "laurent.LaurentPoly2.from_evaluator",
    "laurent.LaurentPoly2.__call__",
    "charpoly.build_charpoly",
    "charpoly.find_nodes",
    "charpoly.ronkin",
    "specialfn.log_xi",
    "specialfn.log_abs_eta",
    "specialfn.discrete_gaussian",
    "fsc.sector_table_auto",
    "fsc.winding_law",
    "fsc.ising_critical_check",
)

# computed (not measured) work counters: name -> unit
DERIVED = {
    "kasteleyn.pfaffian_log.flops": "flop",
    "kasteleyn.pfaffian_log.bytes": "B",
    "kasteleyn.pfaffian_log.size_exponent": "ratio",
    "kasteleyn.fiber_points.points": "count",
    "kasteleyn.fiber_points.size_exponent": "ratio",
    "laurent.LaurentPoly2.__call__.points": "count",
    "charpoly.find_nodes.evals_per_call": "ratio",
    "charpoly.find_nodes.calls_per_charpoly": "ratio",
}

_FIND_NODES = "charpoly.find_nodes"
_PFAFFIAN = "kasteleyn.pfaffian_log"
_FIBER = "kasteleyn.fiber_points"
_EVAL = "laurent.LaurentPoly2.__call__"


def layer_metric_names():
    """{metric name: unit} of every per-span and derived counter."""
    out = {}
    for name in WRAPPED:
        out[name + ".calls"] = "count"
        out[name + ".total_s"] = "s"
        out[name + ".self_s"] = "s"
    out.update(DERIVED)
    return out


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "torusdimer" or n.startswith("torusdimer."))]


def _resolve(name):
    """(owner, attribute, raw object, function) for a WRAPPED name."""
    mod, _, qual = name.partition(".")
    owner = sys.modules["torusdimer." + mod]
    parts = qual.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    raw = vars(owner)[attr]
    func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
    return owner, attr, raw, func


def _fit_exponent(sizes, durations):
    """Least-squares slope of log(duration) against log(size); 0 if unfit."""
    pts = [(math.log(s), math.log(d)) for s, d in zip(sizes, durations)
           if s > 0 and d > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    return float(np.polyfit(x, y, 1)[0])


class Tracer:
    """Context manager: wraps the WRAPPED layers while active.

    `label` names the job whose spans are being recorded (set by the
    caller before each job); self time is also kept per label.
    """

    def __init__(self):
        self.label = None
        self._stack = []  # [name, child seconds]
        self._active = defaultdict(int)
        self._patches = []  # (namespace owner, attribute, original raw)
        self.originals = {}
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.edges = defaultdict(lambda: [0, 0.0])
        self.by_label = defaultdict(lambda: defaultdict(float))
        self.sizes = defaultdict(list)
        self.durations = defaultdict(list)
        self.flops = 0.0
        self.bytes = 0.0
        self.points = defaultdict(int)
        self.evals_in_find_nodes = 0
        self.charpolys = []

    # -- patching ------------------------------------------------------------

    def __enter__(self):
        import torusdimer.cli  # noqa: F401  (loads the package and every submodule)
        for name in WRAPPED:
            owner, attr, raw, func = _resolve(name)
            self.originals[name] = func
            wrapped = self._wrap(name, func)
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(wrapped))
            else:
                self._set(owner, attr, wrapped)
            # every other binding of the same function object
            for mod in _package_modules():
                for key, val in list(vars(mod).items()):
                    if val is func:
                        self._set(mod, key, wrapped)
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)
        return False

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def unwrapped_bindings(self):
        """Places where an original layer function is still reachable.

        Scans every torusdimer module namespace, the classes defined there
        and module-level containers; an empty list means every binding is
        wrapped.
        """
        originals = {id(f): name for name, f in self.originals.items()}
        leaks = []

        def check(where, val):
            raw = val.__func__ if isinstance(val, (classmethod, staticmethod)) else val
            if id(raw) in originals:
                leaks.append("%s -> %s" % (where, originals[id(raw)]))

        for mod in _package_modules():
            for key, val in vars(mod).items():
                where = "%s.%s" % (mod.__name__, key)
                check(where, val)
                if isinstance(val, type) and val.__module__ == mod.__name__:
                    for ckey, cval in vars(val).items():
                        check("%s.%s" % (where, ckey), cval)
                elif isinstance(val, dict):
                    for ckey, cval in val.items():
                        check("%s[%r]" % (where, ckey), cval)
                elif isinstance(val, (list, tuple)):
                    for i, cval in enumerate(val):
                        check("%s[%d]" % (where, i), cval)
        return leaks

    # -- recording -------------------------------------------------------------

    def _wrap(self, name, func):
        stack, active = self._stack, self._active
        clock = time.perf_counter
        hook = {
            _PFAFFIAN: self._on_pfaffian,
            _FIBER: self._on_fiber,
            _EVAL: self._on_eval,
            _FIND_NODES: self._on_find_nodes,
        }.get(name)

        def span(*args, **kwargs):
            size = hook(args) if hook is not None else None
            frame = [name, 0.0]
            stack.append(frame)
            active[name] += 1
            t0 = clock()
            try:
                return func(*args, **kwargs)
            finally:
                dur = clock() - t0
                active[name] -= 1
                stack.pop()
                parent = stack[-1][0] if stack else None
                if stack:
                    stack[-1][1] += dur
                own = dur - frame[1]
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += own
                edge = self.edges[(parent, name)]
                edge[0] += 1
                edge[1] += dur
                self.by_label[self.label][name] += own
                if size is not None:
                    self.sizes[name].append(size)
                    self.durations[name].append(dur)

        span.__wrapped__ = func
        span.__name__ = getattr(func, "__name__", name)
        span.__doc__ = func.__doc__
        return span

    def _on_pfaffian(self, args):
        n = int(np.shape(args[0])[0])
        self.flops += n ** 3 / 3.0
        self.bytes += 16.0 * n * n
        return n

    def _on_fiber(self, args):
        E = np.asarray(args[0], dtype=int)
        d = abs(int(E[0, 0]) * int(E[1, 1]) - int(E[0, 1]) * int(E[1, 0]))
        self.points[_FIBER] += d
        return d

    def _on_eval(self, args):
        self.points[_EVAL] += int(np.broadcast(args[1], args[2]).size)
        if self._active[_FIND_NODES]:
            self.evals_in_find_nodes += 1
        return None

    def _on_find_nodes(self, args):
        cp = args[0]
        if not any(cp is seen for seen in self.charpolys):
            self.charpolys.append(cp)
        return None

    # -- reporting ---------------------------------------------------------------

    def layer_metrics(self, passes):
        """Per-pass values of every name in layer_metric_names()."""
        out = {}
        for name in WRAPPED:
            out[name + ".calls"] = self.calls[name] / passes
            out[name + ".total_s"] = self.total[name] / passes
            out[name + ".self_s"] = self.self_time[name] / passes
        finds = self.calls[_FIND_NODES]
        out.update({
            _PFAFFIAN + ".flops": self.flops / passes,
            _PFAFFIAN + ".bytes": self.bytes / passes,
            _PFAFFIAN + ".size_exponent": _fit_exponent(
                self.sizes[_PFAFFIAN], self.durations[_PFAFFIAN]),
            _FIBER + ".points": self.points[_FIBER] / passes,
            _FIBER + ".size_exponent": _fit_exponent(
                self.sizes[_FIBER], self.durations[_FIBER]),
            _EVAL + ".points": self.points[_EVAL] / passes,
            _FIND_NODES + ".evals_per_call": (
                self.evals_in_find_nodes / finds if finds else 0.0),
            # above 1 means the node search ran again on the same CharPoly
            _FIND_NODES + ".calls_per_charpoly": (
                finds / len(self.charpolys) if finds else 0.0),
        })
        return out

    def span_tree(self, passes):
        """Per-pass {parent -> child: [calls, seconds]} edges."""
        return {"%s -> %s" % (p or "<job>", c): [n / passes, t / passes]
                for (p, c), (n, t) in sorted(self.edges.items(),
                                             key=lambda kv: (str(kv[0][0]), kv[0][1]))}

    def self_by_label(self, passes):
        """Per-pass {job label: {span: self seconds}}."""
        return {str(label): {k: v / passes for k, v in sorted(spans.items())}
                for label, spans in sorted(self.by_label.items(), key=lambda kv: str(kv[0]))}
