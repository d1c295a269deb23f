"""Spans around the public functions of every ceofdm module, kept in memory.

The tracer patches each public function (and each public method of a public
class) under every name a ``ceofdm`` module binds it to, so that calls made
through ``from .x import f`` are seen as well. Nothing under ``src/`` changes;
``restore`` puts the originals back. A span records its name, its parent span,
its start and end, and the benchmark op it belongs to.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# Layers are the modules of the package, outermost first.
LAYERS = ("cli", "expconfig", "exports", "quantize", "optimizer", "gradient", "metrics", "waveform")

# Called once per exported value (about 200k times per synth); a span per call
# would cost more than the call and inflate the self time of its writer.
SKIP = {"exports.encode_db"}


class Tracer:
    """Context manager that wraps the package's public callables while active.

    ``observe`` maps a span name to a callback ``f(args, kwargs, result)`` run
    after each completed call, outside the span's timed interval.
    """

    def __init__(self, observe=None) -> None:
        self.spans: list[list] = []  # [name, parent index or -1, start ns, end ns, op]
        self.op = -1
        self._stack: list[int] = []
        self._observe = observe or {}
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, after = self.spans, self._stack, self._observe.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, clock(), 0, self.op]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items()) if n == "ceofdm" or n.startswith("ceofdm.")]
        for layer in LAYERS:
            mod = sys.modules[f"ceofdm.{layer}"]
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if f"{layer}.{attr}" in SKIP:
                        continue
                    wrapped = self._wrap(f"{layer}.{attr}", obj)
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is obj:
                                self._patch(m, key, wrapped)
                elif inspect.isclass(obj):
                    for key, value in list(vars(obj).items()):
                        if key.startswith("_"):
                            continue
                        if isinstance(value, classmethod):
                            self._patch(obj, key, classmethod(self._wrap(f"{layer}.{key}", value.__func__)))
                        elif inspect.isfunction(value):
                            self._patch(obj, key, self._wrap(f"{layer}.{key}", value))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.spans)


class SpanSummary:
    """Durations per span name, self time per layer, and total root time."""

    def __init__(self, spans: list[list]) -> None:
        self.durations_ns: dict[str, list[int]] = defaultdict(list)
        self_ns = [end - start for _, _, start, end, _ in spans]
        for name, parent, start, end, _ in spans:
            self.durations_ns[name].append(end - start)
            if parent >= 0:
                self_ns[parent] -= end - start
        self.layer_self_ns = dict.fromkeys(LAYERS, 0)
        for (name, *_), own in zip(spans, self_ns):
            self.layer_self_ns[name.split(".", 1)[0]] += own
        self.root_ns = sum(end - start for _, parent, start, end, _ in spans if parent < 0)
        self.ops = len({span[4] for span in spans if span[1] < 0})

    def calls(self, name: str) -> int:
        return len(self.durations_ns.get(name, ()))

    def self_frac(self, layer: str) -> float:
        return self.layer_self_ns[layer] / self.root_ns if self.root_ns else 0.0

    def layer_calls(self, layer: str) -> int:
        return sum(len(d) for n, d in self.durations_ns.items() if n.startswith(layer + "."))
