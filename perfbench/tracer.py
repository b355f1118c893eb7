"""Layer tracer: counting spans around the library's public functions.

The tracer replaces each listed function or method with a wrapper that
counts its calls and, for a span, adds its self time: the wall time of the
call minus the time covered by the wrapped calls it makes.  A count wraps
a function that is too small and too frequent to time.  Aggregates are
kept in memory per name; no single span is stored.

`from .trees import expand_at` binds the same function object into other
modules, and a family or system method is defined on each class that
overrides it.  install() therefore wraps every override of a method in the
class hierarchy and replaces every module global or class attribute of the
package that holds a wrapped function.  The benchmark checks completeness
at run time: each layer a workload must reach has to show calls.
"""

from __future__ import annotations

import functools
import sys
import time

PACKAGE = "cloning_systems"

# (metric name, module, attribute).  "Class.method" wraps the method on the
# class and on every subclass that overrides it.
SPANS = (
    ("trees.expand_at", "trees", "expand_at"),
    ("trees.expansion_path", "trees", "expansion_path"),
    ("trees.tree_union", "trees", "tree_union"),
    ("trees.removable_carets", "trees", "removable_carets"),
    ("trees.collapse_at", "trees", "collapse_at"),
    ("trees.leaf_words", "trees", "leaf_words"),
    ("groups.contains", "groups", "GroupFamily.contains"),
    ("groups.mul", "groups", "GroupFamily.mul"),
    ("groups.inv", "groups", "GroupFamily.inv"),
    ("cloning.clone", "cloning", "CloningSystem.clone"),
    ("cloning.try_unclone", "cloning", "CloningSystem.try_unclone"),
    ("thompson.mul", "thompson", "mul"),
    ("thompson.reduce_triple", "thompson", "reduce_triple"),
    ("thompson.expand_triple", "thompson", "expand_triple"),
    ("thompson.Element.pow", "thompson", "Element.__pow__"),
    ("thompson.Element.inv", "thompson", "Element.inv"),
    ("analysis.enumerate_fd_ball", "analysis", "enumerate_fd_ball"),
    ("analysis.conjugate_count", "analysis", "conjugate_count"),
    ("analysis.coset_orbit_count", "analysis", "coset_orbit_count"),
    ("cantor.from_tree_pair", "cantor", "from_tree_pair"),
    ("cantor.PrefixMap.compose", "cantor", "PrefixMap.compose"),
    ("cantor.PrefixMap.equals", "cantor", "PrefixMap.equals"),
    ("cantor.PrefixMap.invert", "cantor", "PrefixMap.invert"),
    ("cantor.AutomatonElement.is_identity", "cantor", "AutomatonElement.is_identity"),
)
COUNTS = (
    ("cloning.rho", "cloning", "CloningSystem.rho"),
    ("thompson.Triple.init", "thompson", "Triple.__init__"),
    ("cantor.AutomatonElement.step", "cantor", "AutomatonElement.step"),
)
MODULES = ("trees", "groups", "cloning", "thompson", "analysis", "cantor")


def metric_units() -> dict[str, str]:
    """Every per-layer metric the tracer reports, with its unit."""
    units: dict[str, str] = {}
    for name, _, _ in SPANS:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    for name, _, _ in COUNTS:
        units[name + ".calls"] = "count"
    units["cloning.try_unclone.hit_ratio"] = "ratio"
    units["thompson.mul.carets_grafted"] = "count"
    units["thompson.mul.us_per_caret"] = "us"
    for module in MODULES:
        units[module + ".self_s"] = "s"
    units["trace_overhead"] = "ratio"
    return units


def _namespaces() -> list:
    """Every loaded module of the package and every class defined in one."""
    modules = [
        m for key, m in list(sys.modules.items())
        if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]
    classes = {
        v for m in modules for v in vars(m).values()
        if isinstance(v, type) and v.__module__.startswith(PACKAGE)
    }
    return modules + list(classes)


def _originals(module: str, attr: str) -> list:
    """The functions a SPANS/COUNTS entry wraps.

    "Class.method" names the method of the class and of every subclass that
    overrides it; a plain name, the module's function.
    """
    mod = sys.modules[f"{PACKAGE}.{module}"]
    cls_name, _, name = attr.rpartition(".")
    if not cls_name:
        return [getattr(mod, name)]
    out, todo = [], [getattr(mod, cls_name)]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if name in cls.__dict__:
            out.append(cls.__dict__[name])
    return out


def _union_leaves(a, b) -> int:
    """Leaf count of the minimal common expansion of two trees."""
    if not a.children:
        return b.leaf_count
    if not b.children:
        return a.leaf_count
    return sum(_union_leaves(x, y) for x, y in zip(a.children, b.children))


class Tracer:
    """Per-name call counts and self times, recorded while active."""

    def __init__(self) -> None:
        # name -> [calls, self seconds, inclusive seconds]
        self.stats: dict[str, list] = {}
        self.unclone_hits = 0
        self.carets_grafted = 0
        self.active = False
        self._stack = [0.0]  # child time accumulated by each open span

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, after=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                stat[0] += 1
                stat[1] += dt - child
                stat[2] += dt
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                stat[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_unclone(self, args, result) -> None:
        if result is not None:
            self.unclone_hits += 1

    def _after_mul(self, args, result) -> None:
        x, y = args
        w = _union_leaves(x.U, y.T)
        self.carets_grafted += (2 * w - x.U.leaf_count - y.T.leaf_count) // (x.sys.d - 1)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Replace every binding of every listed function.

        A binding is any module global or class attribute of the package
        that holds the original function object, under any name.
        """
        after = {"cloning.try_unclone": self._after_unclone, "thompson.mul": self._after_mul}
        wrappers = {}
        for specs, timed in ((SPANS, True), (COUNTS, False)):
            for name, module, attr in specs:
                for fn in _originals(module, attr):
                    wrappers[id(fn)] = (
                        self._span(name, fn, after.get(name)) if timed else self._count(name, fn)
                    )
        for ns in _namespaces():
            for key, value in list(vars(ns).items()):
                if id(value) in wrappers:
                    setattr(ns, key, wrappers[id(value)])

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer values by metric name; trace_overhead is left to the caller."""
        out: dict[str, float] = {}
        module_self = dict.fromkeys(MODULES, 0.0)
        for name, _, _ in SPANS:
            calls, self_s, _ = self.stats[name]
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self_s
            module_self[name.split(".")[0]] += self_s
        for name, _, _ in COUNTS:
            out[name + ".calls"] = self.stats[name][0]
        unclone_calls = self.stats["cloning.try_unclone"][0]
        out["cloning.try_unclone.hit_ratio"] = (
            self.unclone_hits / unclone_calls if unclone_calls else 0.0
        )
        out["thompson.mul.carets_grafted"] = self.carets_grafted
        mul_s = self.stats["thompson.mul"][2]
        out["thompson.mul.us_per_caret"] = (
            mul_s * 1e6 / self.carets_grafted if self.carets_grafted else 0.0
        )
        for module, s in module_self.items():
            out[module + ".self_s"] = s
        return out
