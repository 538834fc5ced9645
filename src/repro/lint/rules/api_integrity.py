"""RPR005 — API/shim integrity: every exported name must resolve.

``__all__`` is the facade contract (``repro.api`` re-exports ~100 names
and ``docs/API.md`` documents them as stable), and the deprecation
shims (``repro.drive.events`` style: a ``_MOVED`` tuple plus a module
``__getattr__``) promise that every moved name still imports.  Both
promises break silently: a stale ``__all__`` entry only explodes on
``from module import *`` or ``getattr``, and a shim pointing at a
renamed target only explodes for the downstream user it was supposed
to protect.

This cross-module rule *imports* each module that assigns an
``__all__`` or declares a shim table and probes every declared name
with ``getattr`` (deprecation warnings suppressed, so warn-once shims
keep their single shot for real callers).  Modules inside a package are
imported by dotted name; detached files (fixtures) by path.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import itertools
import warnings
from collections.abc import Iterable
from dataclasses import dataclass

from repro.lint.core import Finding, ModuleContext, ProjectContext
from repro.lint.rules.base import Rule, register

#: Counter for unique synthetic names of path-imported modules.
_synthetic_ids = itertools.count()


@dataclass(frozen=True)
class _Export:
    """One declared-name list of one module."""

    module: ModuleContext
    kind: str  # "__all__" or "shim"
    names: tuple[str, ...]  # empty for "__all__": read on import
    line: int
    column: int


def _literal_strings(node: ast.AST) -> tuple[str, ...] | None:
    """A tuple/list of string constants, or None."""
    if not isinstance(node, (ast.List, ast.Tuple)):
        return None
    names = []
    for element in node.elts:
        if not (
            isinstance(element, ast.Constant)
            and isinstance(element.value, str)
        ):
            return None
        names.append(element.value)
    return tuple(names)


def _bound_names(target: ast.expr) -> Iterable[str]:
    """Names a top-level assignment target binds (tuples unpacked)."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _bound_names(element)


def _module_declarations(module: ModuleContext) -> Iterable[_Export]:
    """The ``__all__`` and shim ``_MOVED`` declarations of one module.

    ``__all__`` is probed in whatever form it is assigned (a literal,
    or derived from an export table), so its names are read from the
    imported module rather than from the source.
    """
    has_module_getattr = any(
        isinstance(node, ast.FunctionDef) and node.name == "__getattr__"
        for node in module.tree.body
    )
    declares_all = False
    for node in module.tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        if value is None:
            continue
        for name in (n for t in targets for n in _bound_names(t)):
            if name == "__all__" and not declares_all:
                declares_all = True
                yield _Export(
                    module=module,
                    kind="__all__",
                    names=(),
                    line=node.lineno,
                    column=node.col_offset + 1,
                )
            elif name == "_MOVED" and has_module_getattr:
                names = _literal_strings(value)
                if names is not None:
                    yield _Export(
                        module=module,
                        kind="shim",
                        names=names,
                        line=node.lineno,
                        column=node.col_offset + 1,
                    )


def _import_module(module: ModuleContext):
    """Import a linted module (dotted name if packaged, else by path)."""
    if module.module_name is not None:
        return importlib.import_module(module.module_name)
    synthetic = f"_repro_lint_probe_{next(_synthetic_ids)}"
    spec = importlib.util.spec_from_file_location(
        synthetic, module.path
    )
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load {module.path}")
    loaded = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loaded)
    return loaded


@register
class ApiIntegrityRule(Rule):
    """Probe every ``__all__`` and shim target by real import."""

    code = "RPR005"
    name = "api-shim-integrity"
    rationale = (
        "A stale __all__ entry or a shim pointing at a renamed "
        "target breaks exactly the downstream users the facade and "
        "the deprecation policy promised to protect."
    )

    def __init__(self) -> None:
        self._exports: list[_Export] = []

    def check_module(
        self, module: ModuleContext
    ) -> Iterable[Finding]:
        self._exports.extend(_module_declarations(module))
        return ()

    def finish(self, project: ProjectContext) -> Iterable[Finding]:
        by_module: dict[str, list[_Export]] = {}
        for export in self._exports:
            by_module.setdefault(export.module.rel_path, []).append(
                export
            )
        for exports in by_module.values():
            yield from self._probe_module(exports)

    def _probe_module(
        self, exports: list[_Export]
    ) -> Iterable[Finding]:
        module = exports[0].module
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                live = _import_module(module)
            except Exception as error:  # repro: noqa RPR003 -- the import probe reports broken modules as findings instead of dying; no DriveFault can originate here
                first = exports[0]
                yield Finding(
                    path=module.rel_path,
                    line=first.line,
                    column=first.column,
                    code=self.code,
                    message=(
                        f"module failed to import while probing its "
                        f"exports: {error!r}"
                    ),
                )
                return
            for export in exports:
                names = (
                    tuple(getattr(live, "__all__", ()))
                    if export.kind == "__all__"
                    else export.names
                )
                for name in names:
                    try:
                        getattr(live, name)
                    except (AttributeError, ImportError):
                        # ImportError: a lazy export whose defining
                        # module moved away.
                        label = (
                            "__all__ entry"
                            if export.kind == "__all__"
                            else "deprecation-shim target"
                        )
                        yield Finding(
                            path=module.rel_path,
                            line=export.line,
                            column=export.column,
                            code=self.code,
                            message=(
                                f"{label} {name!r} does not resolve "
                                "on import"
                            ),
                        )
