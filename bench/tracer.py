"""Outside-in tracer: wraps the library's public names without editing it.

``Tracer.install(runwords)`` replaces every public function of the
traced modules, and the public methods and arithmetic operators of
their classes, by wrappers that record a span.  A function is replaced
under every module attribute bound to it, so names re-bound by
``from ... import`` (``render_decimal`` in ``cli`` and ``verify``, the
``poly`` helpers in ``numerics``) are traced where they are used.  The
``Interval.width`` and ``Interval.mid`` properties are wrapped, and so
is each entry of ``verify.FULL_CHECKS`` and ``verify.QUICK_CHECKS``.

Private helpers are left alone: ``oracle._has_run`` runs millions of
times per battery and a span around each call would distort the run.
``IntPoly.__getitem__`` and the dataclass plumbing are skipped for the
same reason.

A span is (name, start, end, parent).  Spans and counters stay in
memory; ``write`` stores the spans at the end.  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from fractions import Fraction

LAYERS = ("cli", "core", "series", "poly", "interval", "numerics", "oracle", "verify")

# Dunder methods traced on the library's classes; other dunders are
# construction, comparison or container plumbing.
TRACED_DUNDERS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__neg__", "__abs__",
    "__call__", "__contains__",
}
TRACED_PROPERTIES = {("Interval", "width"), ("Interval", "mid")}

# Spans kept for the trace file; counters and self times stay exact
# beyond this.
MAX_STORED_SPANS = 200_000

# Round counters: a call of the inner name directly under the outer name
# is one round of the outer refine loop.
REFINE_ROUNDS = {
    ("numerics.inverse_phi", "numerics.phi"),
    ("numerics.asymptotic_coefficient", "numerics.phi"),
    ("numerics.limit_value", "numerics.inverse_phi"),
}
REFINE_LOOPS = ("numerics.inverse_phi", "numerics.limit_value", "numerics.asymptotic_coefficient")


def _bits(value) -> int:
    """Largest numerator or denominator bit length in a result."""
    if isinstance(value, int):
        return value.bit_length()
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if hasattr(value, "lo") and hasattr(value, "hi"):
        return max(_bits(value.lo), _bits(value.hi))
    if hasattr(value, "counts"):
        return max((c.bit_length() for c in value.counts), default=0)
    return 0


class Tracer:
    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.stack: list[list] = []  # [name, id, child seconds, parent id, start]
        self.spans: list[tuple[int, str, int, float, float]] = []
        self.next_id = 0
        self.dropped = 0
        self.counters: dict[str, float] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _enter(self, name: str) -> list:
        self.next_id += 1
        parent = self.stack[-1][1] if self.stack else -1
        frame = [name, self.next_id, 0.0, parent, self.clock()]
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list) -> float:
        end = self.clock()
        self.stack.pop()
        name, span_id, child, parent, start = frame
        duration = end - start
        self.self_s[name] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        if len(self.spans) < MAX_STORED_SPANS:
            self.spans.append((span_id, name, parent, start, end))
        else:
            self.dropped += 1
        return duration

    def _wrap(self, name: str, fn, after=None):
        counters = self.counters
        counter, layer_counter = f"{name}.calls", f"{name.split('.')[0]}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1][0] if self.stack else None
            counters[counter] += 1
            counters[layer_counter] += 1
            self._on_call(name, parent, args, kwargs)
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self._exit(frame)
            if after is not None:
                after(result, duration)
            return result

        return wrapper

    def _on_call(self, name: str, parent: str | None, args, kwargs) -> None:
        c = self.counters
        if (parent, name) in REFINE_ROUNDS:
            c["numerics.refine_rounds"] += 1
        if name == "poly.IntPoly.__call__":
            c["poly.evals"] += 1
            if parent == "numerics.bisect_root":
                c["numerics.bisect_root.steps"] += 1
            elif parent == "numerics.all_roots":
                c["numerics.all_roots.poly_evals"] += 1
        elif name == "interval.certified_decimal" and parent == "interval.render_decimal":
            c["interval.render_decimal.rounds"] += 1
        elif name == "numerics.phi":
            digits = args[1] if len(args) > 1 else kwargs.get("precision_digits", 15)
            c["numerics.max_work_digits"] = max(c["numerics.max_work_digits"], digits)
        elif name in ("oracle.enumerate_words", "oracle.list_words"):
            c["oracle.words_scanned"] += 2 ** (args[0] if args else kwargs["n"])

    def _after(self, name: str):
        """Counter update on a result, by the layer of `name`."""
        c = self.counters
        layer = name.split(".")[0]
        if layer == "core":
            def after(result, _):
                c["core.max_result_bits"] = max(c["core.max_result_bits"], _bits(result))
        elif name.startswith("interval.Interval."):
            def after(result, _):
                c["interval.ops"] += 1
                c["interval.max_endpoint_bits"] = max(
                    c["interval.max_endpoint_bits"], _bits(result))
        elif layer == "series":
            def after(result, _):
                c["series.terms"] += len(getattr(result, "coeffs", getattr(result, "table", ())))
        else:
            after = None
        return after

    # ------------------------------------------------------------ installing

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, package) -> None:
        """Wrap the public names of every traced module of `package`."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        everywhere = [package] + list(modules.values())
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    name = f"{layer}.{attr}"
                    wrapper = self._wrap(name, value, self._after(name))
                    for other in everywhere:
                        for bound_name, bound in list(vars(other).items()):
                            if bound is value:
                                self._replace(other, bound_name, wrapper)
                elif inspect.isclass(value) and not issubclass(value, BaseException):
                    self._install_class(layer, value)
        verify = modules["verify"]
        for attr in ("FULL_CHECKS", "QUICK_CHECKS"):
            checks = [self._wrap_check(check) for check in getattr(verify, attr)]
            self._replace(verify, attr, checks)

    def _install_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            after = self._after(name)
            if isinstance(raw, property):
                if (cls.__name__, attr) in TRACED_PROPERTIES:
                    self._replace(cls, attr, property(self._wrap(name, raw.fget, after)))
            elif isinstance(raw, staticmethod):
                if not attr.startswith("_"):
                    self._replace(cls, attr, staticmethod(self._wrap(name, raw.__func__, after)))
            elif inspect.isfunction(raw):
                if attr in TRACED_DUNDERS or not attr.startswith("_"):
                    self._replace(cls, attr, self._wrap(name, raw, after))

    def _wrap_check(self, check):
        """Span for one battery check, timed under the name it reports."""
        counters = self.counters

        @functools.wraps(check)
        def wrapper():
            frame = self._enter("verify.check")
            try:
                result = check()
            finally:
                duration = self._exit(frame)
            counters[f"verify.{result.name}.s"] += duration
            return result

        return wrapper

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # ------------------------------------------------------------- reporting

    def layer_self_seconds(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            totals[name.split(".")[0]] += seconds
        return totals

    def write(self, path, header: dict) -> None:
        """Store the spans as JSON: names once, then [id, name, parent id, start, end]."""
        names = sorted({span[1] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        with open(path, "w") as handle:
            json.dump({
                **header,
                "names": names,
                "dropped_spans": self.dropped,
                "spans": [[i, index[n], p, round(s, 7), round(e, 7)]
                          for i, n, p, s, e in self.spans],
                "counters": dict(self.counters),
                "self_s": dict(self.self_s),
            }, handle)
