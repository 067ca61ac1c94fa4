"""Outside-in span recorder for kahlerlab, and the per-layer metrics made from it.

`Recorder.install()` swaps the public functions of each kahlerlab layer
(module) for timing wrappers.  A function is patched at every place a
``kahlerlab.*`` module binds it (its own module, every ``from .x import f``
and module-level tuples such as ``properties.ALL_SUITES``); listed methods
are patched on their class.  `Recorder.restore()` puts every original back.
Nothing under ``src/`` is edited.

A span is ``[name, parent, start, end]``: ``parent`` is the index of the
span that was open when the call began (-1 for none).  There are no
threads, so spans nest strictly and a span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

LAYERS = ("poly", "parser", "groebner", "presentations", "diffmod",
          "resolution", "properties")

# Public methods worth a span.  Cheap accessors called hundreds of
# thousands of times (MonomialOrder.key, Polynomial.is_zero, ...) are left
# alone: their wrapper would cost more than their body.
METHODS = {
    "poly": {"Polynomial": ("__add__", "__radd__", "__sub__", "__rsub__",
                            "__mul__", "__rmul__")},
    "groebner": {"SubmoduleBasis": ("groebner", "groebner_rows",
                                    "normal_form", "contains")},
}

# Span names folded into one metric name.  Subtraction is addition of a
# negation, so add and sub are one operation.
GROUPS = {
    "poly.Polynomial.__add__": "poly.Polynomial.add",
    "poly.Polynomial.__radd__": "poly.Polynomial.add",
    "poly.Polynomial.__sub__": "poly.Polynomial.add",
    "poly.Polynomial.__rsub__": "poly.Polynomial.add",
    "poly.Polynomial.__mul__": "poly.Polynomial.mul",
    "poly.Polynomial.__rmul__": "poly.Polynomial.mul",
}

ROOT = "cli.main"

Span = List  # [name, parent, start, end]
Counter = Callable[[tuple, dict, object], Dict[str, int]]


# Work counts taken from a call's arguments and result.
COUNTERS: Dict[str, Counter] = {
    "groebner.prune_rows": lambda args, kwargs, out: {
        "rows_in": len(args[0]), "rows_out": len(out)},
    "groebner.syzygies_over_ring": lambda args, kwargs, out: {
        "rows_out": len(out)},
}


def group_of(name: str) -> str:
    if name.startswith("properties.run_"):
        return "properties.suites"
    return GROUPS.get(name, name)


def kahlerlab_modules() -> List[Tuple[str, object]]:
    """(short name, module) for the kahlerlab package and its submodules."""
    out = []
    for full, mod in sorted(sys.modules.items()):
        if (full == "kahlerlab" or full.startswith("kahlerlab.")) \
                and mod is not None:
            out.append((full.rsplit(".", 1)[-1], mod))
    return out


def _is_function(obj) -> bool:
    # plain functions and functools.lru_cache wrappers
    return inspect.isfunction(obj) or hasattr(obj, "cache_clear")


def find_caches() -> Dict[str, object]:
    """Every lru_cache in kahlerlab, keyed ``<module>.<function>``."""
    caches = {}
    for short, mod in kahlerlab_modules():
        for obj in vars(mod).values():
            if hasattr(obj, "cache_info") and hasattr(obj, "cache_clear") \
                    and getattr(obj, "__module__", None) == mod.__name__:
                caches["%s.%s" % (short, obj.__qualname__)] = obj
    return caches


class Recorder:
    """Spans and work counts of the calls made while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, Dict[str, int]] = {}
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, perf = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)
        counts = self.counts.setdefault(name, {}) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = perf()
                stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, out).items():
                    counts[key] = counts.get(key, 0) + value
            return out

        return wrapper

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every binding of every public layer function and listed method."""
        import kahlerlab.cli  # noqa: F401  (imports every layer)
        modules = kahlerlab_modules()
        main = sys.modules["kahlerlab.cli"].main
        # keyed by id(): each wrapper keeps its original alive, so ids are unique
        swap: Dict[int, Callable] = {id(main): self.wrap(ROOT, main)}
        for short, mod in modules:
            if short in LAYERS:
                for attr, obj in vars(mod).items():
                    if not attr.startswith("_") and _is_function(obj) and \
                            obj.__module__ == mod.__name__:
                        swap[id(obj)] = self.wrap("%s.%s" % (short, attr), obj)
        try:
            for short, mod in modules:
                for attr, obj in list(vars(mod).items()):
                    if isinstance(obj, tuple):
                        new = tuple(swap.get(id(x), x) for x in obj)
                        if any(a is not b for a, b in zip(new, obj)):
                            self._set(mod, attr, new)
                    elif id(obj) in swap:
                        self._set(mod, attr, swap[id(obj)])
                for cls_name, names in METHODS.get(short, {}).items():
                    for attr in names:
                        self._patch_method(short, vars(mod)[cls_name], attr)
        except BaseException:
            self.restore()
            raise

    def _patch_method(self, short: str, cls, attr: str) -> None:
        name = "%s.%s.%s" % (short, cls.__name__, attr)
        obj = cls.__dict__[attr]
        if isinstance(obj, property):
            self._set(cls, attr, property(self.wrap(name, obj.fget),
                                          obj.fset, obj.fdel, obj.__doc__))
        else:
            self._set(cls, attr, self.wrap(name, obj))

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] >= 0:
            out[s[1]] -= s[3] - s[2]
    return out


def layer_metrics(spans: List[Span],
                  counts: Optional[Dict[str, Dict[str, int]]] = None
                  ) -> Dict[str, float]:
    """Per metric group: calls, incl_s and self_s, plus per-layer self_s.

    ``calls`` counts entries into a group from outside it, and ``incl_s``
    sums those entries' durations, so a subtraction that adds, or a
    function that calls itself, is one call and is timed once.  ``self_s``
    sums the self time of every span in the group.
    """
    out: Dict[str, float] = {}
    selfs = self_times(spans)
    for s, own in zip(spans, selfs):
        g = group_of(s[0])
        layer = "layer.%s.self_s" % s[0].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own
        out[g + ".self_s"] = out.get(g + ".self_s", 0.0) + own
        if s[1] < 0 or group_of(spans[s[1]][0]) != g:
            out[g + ".calls"] = out.get(g + ".calls", 0) + 1
            out[g + ".incl_s"] = out.get(g + ".incl_s", 0.0) + s[3] - s[2]
    for name, kv in (counts or {}).items():
        for key, value in kv.items():
            out["%s.%s" % (name, key)] = out.get("%s.%s" % (name, key), 0) + value
    return out


def merge(parts: Iterable[Dict[str, float]]) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            total[key] = total.get(key, 0) + value
    return total
