"""In-memory span tracer installed from outside the program.

The tracer wraps functions and methods of the ``repro`` packages at
their public call boundaries (class attributes, properties, and every
module attribute that holds a wrapped function) and restores the originals
afterwards, so the untraced runs execute the program unmodified.

Each wrapped call is one span.  Per span key the tracer keeps:

* ``calls`` -- every call;
* ``outer_calls`` -- calls whose caller is in another layer (a call
  nested in a span of its own layer is part of that outer call);
* ``self_s`` -- span duration minus the durations of its direct child
  spans;
* ``incl_s`` -- duration, summed over outer calls only, so nesting
  within one layer is not counted twice;
* ``items`` -- the summed length of a sized argument (batch sizes);
* ``parents`` -- outer calls per calling layer (``None`` = the
  benchmark itself).
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter


class SpanStat:
    """Aggregate of every span recorded under one key."""

    __slots__ = (
        "key", "layer", "calls", "outer_calls", "self_s", "incl_s",
        "items", "parents",
    )

    def __init__(self, key: str, layer: str) -> None:
        self.key = key
        self.layer = layer
        self.calls = 0
        self.outer_calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.items = 0
        self.parents: Counter = Counter()

    def to_dict(self) -> dict:
        return {
            "layer": self.layer,
            "calls": self.calls,
            "outer_calls": self.outer_calls,
            "self_s": self.self_s,
            "incl_s": self.incl_s,
            "items": self.items,
            "parents": {
                str(layer): count
                for layer, count in sorted(
                    self.parents.items(), key=lambda kv: str(kv[0])
                )
            },
        }


_MISSING = object()


class Tracer:
    """Span wrappers plus the patch ledger that undoes them."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStat] = {}
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------

    def wrap(self, fn, key: str, layer: str, size_arg: int | None = None):
        """Return ``fn`` wrapped in a span recorded under ``key``."""
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = SpanStat(key, layer)
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [stat, 0.0]
            stack.append(frame)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                stat.calls += 1
                stat.self_s += elapsed - frame[1]
                parent_layer = None
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    parent_layer = parent[0].layer
                if parent_layer != stat.layer:
                    stat.outer_calls += 1
                    stat.incl_s += elapsed
                    stat.parents[parent_layer] += 1
                    if size_arg is not None:
                        stat.items += len(args[size_arg])

        traced.__wrapped__ = fn
        return traced

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`restore`."""
        if isinstance(owner, type):
            original = owner.__dict__.get(attr, _MISSING)
        else:
            original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def patch(self, owner, attr: str, key: str, layer: str, **kwargs):
        """Replace ``owner.attr`` (a function or method) by a span."""
        current = getattr(owner, attr)
        self.replace(owner, attr, self.wrap(current, key, layer, **kwargs))

    def patch_function(self, function, key: str, layer: str) -> None:
        """Replace a module-level function by one span under every
        ``repro`` module attribute that holds it, aliases included, so
        every caller's lookup finds the span; a module imported later
        binds it from its patched home module."""
        traced = self.wrap(function, key, layer)
        for name, module in sorted(sys.modules.items()):
            if module is None or name.split(".")[0] != "repro":
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    self.replace(module, attr, traced)

    def patch_property(self, owner: type, attr: str, key: str, layer: str):
        """Replace a read-only property by one whose getter is a span."""
        getter = owner.__dict__[attr].fget
        self.replace(owner, attr, property(self.wrap(getter, key, layer)))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def layer_totals(self) -> dict[str, dict]:
        """calls (outer), inclusive and self seconds per layer."""
        layers: dict[str, dict] = {}
        for stat in self.stats.values():
            entry = layers.setdefault(
                stat.layer, {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += stat.outer_calls
            entry["incl_s"] += stat.incl_s
            entry["self_s"] += stat.self_s
        return layers

    def key(self, key: str) -> SpanStat:
        """The aggregate of one key (an empty one if never called)."""
        return self.stats.get(key) or SpanStat(key, "")

    def to_dict(self) -> dict:
        return {
            "layers": self.layer_totals(),
            "spans": {
                key: stat.to_dict()
                for key, stat in sorted(self.stats.items())
            },
        }
