"""Known-bad: an __all__ derived from an export table lists names that
do not resolve: one its module lacks, one whose module is gone."""

import importlib


def _lazy(table):
    source_of = {name: s for s, names in table.items() for name in names}

    def __getattr__(name):
        try:
            source = source_of[name]
        except KeyError:
            raise AttributeError(
                f"module {__name__!r} has no attribute {name!r}"
            ) from None
        return getattr(importlib.import_module(source), name)

    return sorted(source_of), __getattr__


__all__, __getattr__ = _lazy(
    {"math": ("pi", "vanished"), "no_such_module": ("moved",)}
)
