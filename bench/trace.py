"""Span tracing of normsum's layers from outside the package.

``Tracer.install`` replaces the public functions and methods of each
traced module with timing wrappers, by assigning module and class
attributes.  normsum's modules call each other only through module
attributes (``fc.ext_mul``, ``fm.decompose``), and a module's own
functions look each other up in the module namespace, so every call
between functions crosses a wrapper and no source change is needed.
``Tracer.uninstall`` puts every original back.

Each call gets a span (name, start, end, parent, op id).  Self time is a
span's duration minus the time covered by its child spans; it is summed
online, for every call.  A wrapper's own bookkeeping before and after its
span lands in the caller's self time, so ``wrapper_cost`` measures it on
an empty call and ``module_self_s`` subtracts it once per wrapped call a
span makes.  Spans are kept in memory for at most ``SPAN_CAP`` calls per
name, so the hottest leaves (``ext_mul`` runs millions of times) cannot
exhaust memory; the JSONL header records how many spans of each name were
not kept.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time

MODULES = (
    "linalg", "field_core", "char_core", "forms", "charsum", "energy",
    "lattice", "harness", "cli",
)
# Private helpers that other modules call; wrapped so their time lands in
# the module that owns them rather than in the caller's.
CROSS_MODULE_PRIVATE = {
    "field_core": ("_poly_divmod", "_prime_divisors"),
    "forms": ("_eval_int",),
    "linalg": ("_row_reduce",),
}
SPAN_CAP = 1000


class _Stat:
    __slots__ = ("calls", "ok", "incl_s", "self_s", "active", "yielded", "children")

    def __init__(self):
        self.calls = self.ok = self.yielded = self.active = self.children = 0
        self.incl_s = self.self_s = 0.0


def wrapper_cost(calls: int = 20000, repeats: int = 7) -> float:
    """Seconds that one wrapped call adds to its caller's self time: the
    caller's self time over a loop of wrapped empty calls, less the same
    loop unwrapped, per call; the median of ``repeats`` tries."""
    def leaf():
        return None

    def loop(fn):
        for _ in range(calls):
            fn()

    costs = []
    for _ in range(repeats):
        plain = time.perf_counter()
        loop(leaf)
        plain = time.perf_counter() - plain
        probe = Tracer(None)
        probe.stats = {"leaf": _Stat(), "loop": _Stat()}
        probe._wrap(loop, "loop")(probe._wrap(leaf, "leaf"))
        costs.append((probe.stats["loop"].self_s - plain) / calls)
    return max(0.0, statistics.median(costs))


class Tracer:
    def __init__(self, package, wrapper_cost_s: float = 0.0):
        names = MODULES if package is not None else ()
        self.modules = {name: getattr(package, name) for name in names}
        self.wrapper_cost_s = wrapper_cost_s
        self.stats: dict[str, _Stat] = {}
        self.counters = {"charsum.box_points": 0, "energy.pairs": 0}
        self.spans: list = []
        self.dropped: dict[str, int] = {}
        self.root_s = 0.0
        self.op_id = -1
        self._stack: list = []
        self._next_id = 0
        self._originals: list = []

    # -- installation -------------------------------------------------------

    def _targets(self):
        """(owner, attribute, raw object, span name) for every wrapped callable."""
        for short, mod in self.modules.items():
            private = CROSS_MODULE_PRIVATE.get(short, ())
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if not attr.startswith("_") or attr in private:
                        yield mod, attr, obj, f"{short}.{attr}"
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mattr, raw in list(vars(obj).items()):
                        if mattr.startswith("_"):
                            continue
                        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                        if inspect.isfunction(fn):
                            yield obj, mattr, raw, f"{short}.{obj.__name__}.{mattr}"

    def install(self):
        if self._originals:
            raise RuntimeError("tracer already installed")
        for owner, attr, raw, name in self._targets():
            self.stats[name] = _Stat()
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, name))
            else:
                wrapped = self._wrap(raw, name)
            self._originals.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> list:
        """Restore every original; returns the names that did not come back."""
        for owner, attr, raw in reversed(self._originals):
            setattr(owner, attr, raw)
        left = [f"{getattr(o, '__name__', o)}.{a}" for o, a, raw in self._originals
                if vars(o).get(a) is not raw]
        self._originals = []
        return left

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name):
        stat = self.stats[name]
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def counting(*args, **kwargs):
                stat.calls += 1
                for item in fn(*args, **kwargs):
                    stat.yielded += 1
                    yield item
                stat.ok += 1
            return counting

        hook = self._hooks().get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if hook is not None:
                hook(args)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0, stat]
            stack.append(frame)
            stat.active += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                stat.ok += 1
                return result
            finally:
                end = clock()
                stack.pop()
                stat.active -= 1
                dur = end - start
                stat.calls += 1
                stat.self_s += dur - frame[1]
                if not stat.active:
                    stat.incl_s += dur
                if parent is not None:
                    parent[1] += dur
                    parent[2].children += 1
                else:
                    self.root_s += dur
                if stat.calls <= SPAN_CAP:
                    self.spans.append((span_id, name, start, end,
                                       parent[0] if parent else None, self.op_id))
                else:
                    self.dropped[name] = self.dropped.get(name, 0) + 1

        return timed

    def _hooks(self):
        counters = self.counters

        def box(args):
            counters["charsum.box_points"] += args[2].volume

        def pairs(args):
            inst = args[0]
            counters["energy.pairs"] += inst.box_x.volume * inst.box_y.volume

        return {
            "charsum.charsum_direct": box,
            "charsum.charsum_lifted": box,
            "energy.energy_histogram": pairs,
        }

    # -- results ------------------------------------------------------------

    def module_self_s(self) -> dict:
        """Self time by module, net of the wrappers' cost to the callers."""
        out = {short: 0.0 for short in self.modules}
        for name, st in self.stats.items():
            out[name.split(".", 1)[0]] += st.self_s - st.children * self.wrapper_cost_s
        return out

    def metric(self, name: str) -> float:
        """One per-layer metric of BENCHMARK.json, by its name; the
        ``trace.*`` health metrics are computed by the caller."""
        special = {
            "field_core.elements_iterated":
                lambda: self.stats["field_core.ExtFieldCtx.iter_elements"].yielded,
            "forms.random_decomposition.accept_ratio": self._accept_ratio,
        }
        if name in special:
            return special[name]()
        if name in self.counters:
            return self.counters[name]
        head, _, tail = name.rpartition(".")
        if tail == "self_s" and head in self.modules:
            return self.module_self_s()[head]
        if tail == "calls":
            return self.stats[head].calls
        if tail == "s":
            return self.stats[head].incl_s
        raise KeyError(f"no rule computes per-layer metric {name!r}")

    def _accept_ratio(self) -> float:
        attempts = self.stats["forms.decomposition_in_class"].calls
        return self.stats["forms.random_decomposition"].ok / attempts if attempts else 0.0

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps({"spans_kept": len(self.spans),
                                 "spans_not_kept": self.dropped}) + "\n")
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")
