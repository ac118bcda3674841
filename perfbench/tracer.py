"""Span and counter wrappers installed around ltwist's public functions.

The benchmark measures the program from outside: `install()` replaces the
public functions and methods of each layer module with wrappers that record a
span (name, start, end, parent, operation) per call.  Functions called too
often to span cheaply get counters instead.  Spans stay in compact in-memory
arrays until `summary()` reduces them, when the run ends, to per-layer self
times (span time minus the time its child spans cover).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

LAYERS = ("characters", "lvalues", "summation", "fock", "qseries", "cocycle",
          "report", "checks", "cli")

# Public callables too hot to span cheaply (tens of thousands of calls or
# more per run in the seed's profile).  They get a counter that adds to
# "<layer>.calls" instead; "*.name" matches a method of any class.
COUNT_ONLY = {
    "characters": {"kronecker_symbol", "*.values", "*.fingerprint", "*.product_index",
                   "*.period_sum", "*.conj"},
    "lvalues": {"legendre_symbol", "*.derivative"},
    "summation": {"*.term", "*.terms"},
    "fock": {"*.apply_to_column", "partition_weight", "*.degree", "*.matrix_equal",
             "*.scaled"},
    "qseries": {"*.coefficient", "*.terms", "*.up_to", "*.mul_factor", "*.monomial",
                "*.zero", "*.one", "*.rescale", "*.truncate", "*.restrict", "ap_set",
                "*.first_difference", "*.inverse", "*.evaluate"},
    "cocycle": {"*.add", "*.sub", "*.neg", "*.mul", "*.inv", "*.is_zero", "*.element",
                "*.from_int", "*.cube", "*.name", "*.canonical", "field_by_name"},
    "cli": {"rat_from"},
}
# Wrapped by _install_counters with their own counters.
SPECIAL = {"fock": {"*.column"}, "summation": {"*.floats"}}
# Check bodies are spanned per registry row instead (see _wrap_registry).
NOT_WRAPPED = {"checks"}

# CycloNum arithmetic and equality, counted as exactnum.cyclo_ops.
CYCLO_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__eq__", "inverse")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.ids = array("l")
        self.parents = array("l")
        self.ops = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.op = -1
        self.counts: dict[str, int] = {}

    # -- recording -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        sid = self._name_ids.get(name)
        if sid is None:
            sid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return sid

    def span_wrapper(self, fn, name: str, after=None):
        sid = self.name_id(name)
        ids, parents, ops, starts, ends, stack = (
            self.ids, self.parents, self.ops, self.starts, self.ends, self.stack)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(sid)
            parents.append(stack[-1])
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- installation ----------------------------------------------------------

    def _replace_everywhere(self, old, new) -> None:
        if new is old:
            return
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "") or ""
            if not name.startswith("ltwist"):
                continue
            for attr, val in list(vars(mod).items()):
                if val is old:
                    setattr(mod, attr, new)

    def install(self, layers=LAYERS) -> None:
        import importlib

        for layer in layers:
            importlib.import_module(f"ltwist.{layer}")
        self._install_counters()
        hooks = self._hooks()
        for layer in layers:
            self._install_layer(layer, hooks)
        if "checks" in layers:
            self._wrap_registry()

    def _install_layer(self, layer: str, hooks: dict) -> None:
        if layer in NOT_WRAPPED:
            return
        mod = sys.modules[f"ltwist.{layer}"]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                self._replace_everywhere(obj, self._wrap(layer, attr, attr, obj, hooks))
            elif inspect.isclass(obj):
                for name, raw in list(obj.__dict__.items()):
                    if name.startswith("_"):
                        continue
                    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                    if not inspect.isfunction(fn):
                        continue  # properties, class attributes
                    new = self._wrap(layer, f"{obj.__name__}.{name}", name, fn, hooks)
                    if new is not fn:
                        setattr(obj, name,
                                staticmethod(new) if isinstance(raw, staticmethod) else new)

    def _wrap(self, layer: str, qual: str, attr: str, fn, hooks):
        def listed(table):
            names = table.get(layer, ())
            return qual in names or f"*.{attr}" in names

        if listed(SPECIAL):
            return fn
        if listed(COUNT_ONLY):
            return _counted(fn, self.counts, f"{layer}.calls")
        return self.span_wrapper(fn, f"{layer}.{qual}", hooks.get(f"{layer}.{qual}"))

    def _hooks(self) -> dict:
        """Counters taken from a span's arguments or result."""

        def window(args, kwargs, result):
            self.count("fock.states_swept", len(result))

        def pf_mul(args, kwargs, result):
            self.count("characters.pf_mul_calls")

        def averaged(args, kwargs, result):
            n = args[2] if len(args) > 2 else kwargs.get("n_terms", 0)
            self.count("summation.terms", int(n))

        def system(args, kwargs, result):
            self.count("cocycle.rows", len(result.rows))

        return {
            "fock.commutator_window": window,
            "characters.pf_mul": pf_mul,
            "summation.averaged_dirichlet": averaged,
            "cocycle.build_system": system,
        }

    def _install_counters(self) -> None:
        from ltwist import exactnum, fock, summation

        counts = self.counts
        cyclo = getattr(exactnum, "CycloNum", None)
        if cyclo is not None:
            for attr in CYCLO_OPS:
                if attr in cyclo.__dict__:
                    setattr(cyclo, attr,
                            _counted(cyclo.__dict__[attr], counts, "exactnum.cyclo_ops"))

        # Operator.column on every operator class; distinct (operator, state)
        # pairs are tracked on the operator itself so they die with it.
        base = getattr(fock, "Operator", None)
        if base is not None:
            for cls in [base] + _subclasses(base):
                if "column" in cls.__dict__:
                    setattr(cls, "column", _column_counter(cls.__dict__["column"], counts))

        # float terms generated: outermost SeqSpec.floats calls only
        seq = getattr(summation, "SeqSpec", None)
        if seq is not None and "floats" in seq.__dict__:
            setattr(seq, "floats", _floats_counter(seq.__dict__["floats"], counts))

    def _wrap_registry(self) -> None:
        """Span every registry row's check body as checks.row."""
        from ltwist import checks

        build = checks.build_registry
        tracer = self

        @functools.wraps(build)
        def traced_build(*args, **kwargs):
            rows = build(*args, **kwargs)
            for row in rows:
                row.fn = tracer.span_wrapper(row.fn, "checks.row")
            return rows

        self._replace_everywhere(build, traced_build)

    # -- reduction ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer self and inclusive time, per-name call counts and time."""
        n = len(self.ids)
        layer_of = [name.split(".", 1)[0] for name in self.names]
        bit = {layer: 1 << k for k, layer in enumerate(sorted(set(layer_of)))}
        child = [0.0] * n
        above = [0] * n  # bit set of the layers of a span's ancestors
        self_s: dict[str, float] = {}
        incl_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        name_s: dict[str, float] = {}
        durs = [self.ends[i] - self.starts[i] for i in range(n)]
        for i in range(n):  # parents precede their children
            p = self.parents[i]
            if p >= 0:
                child[p] += durs[i]
                above[i] = above[p] | bit[layer_of[self.ids[p]]]
        for i in range(n):
            sid = self.ids[i]
            layer, name, dur = layer_of[sid], self.names[sid], durs[i]
            self_s[layer] = self_s.get(layer, 0.0) + dur - child[i]
            if not above[i] & bit[layer]:
                incl_s[layer] = incl_s.get(layer, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            name_s[name] = name_s.get(name, 0.0) + dur
        return {"self_s": self_s, "incl_s": incl_s, "calls": calls,
                "name_s": name_s, "counts": dict(self.counts), "spans": n}

    def spans(self) -> list:
        return [[self.names[self.ids[i]], self.starts[i], self.ends[i],
                 self.parents[i], self.ops[i]] for i in range(len(self.ids))]


def _subclasses(cls) -> list:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out += _subclasses(sub)
    return out


def _counted(fn, counts: dict, key: str):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        counts[key] = counts.get(key, 0) + 1
        return fn(*args, **kwargs)

    return counted


_SEEN = "_perfbench_columns"


def _column_counter(fn, counts: dict):
    @functools.wraps(fn)
    def column(self, state):
        counts["fock.column_calls"] = counts.get("fock.column_calls", 0) + 1
        d = getattr(self, "__dict__", None)
        if d is not None:
            seen = d.get(_SEEN)
            if seen is None:
                seen = d[_SEEN] = set()
            if state not in seen:
                seen.add(state)
                counts["fock.columns_built"] = counts.get("fock.columns_built", 0) + 1
        return fn(self, state)

    return column


def _floats_counter(fn, counts: dict):
    depth = [0]

    @functools.wraps(fn)
    def floats(self, n):
        if depth[0] == 0:
            counts["summation.terms"] = counts.get("summation.terms", 0) + int(n)
        depth[0] += 1
        try:
            return fn(self, n)
        finally:
            depth[0] -= 1

    return floats
