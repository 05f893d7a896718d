"""Performance rules: allocation discipline on the simulator hot path.

The dense-suite optimization work (docs/performance.md, "Allocation-rate
engineering") replaced per-event closures with pooled event records that
carry at most two bound arguments (``Engine.at``/``after``).
A closure or nested function created on the hot path re-introduces
exactly the per-event allocation the slab removed -- and nothing but a
lint rule would notice, because the code still behaves identically.
This module makes the discipline checked instead of conventional.

Rule:

* **PERF001** -- a ``lambda``, nested ``def`` or ``functools.partial``
  constructed inside a hot-path function: any method of ``Engine`` or
  ``Link`` in :mod:`repro.sim.engine` (the event loop and the per-packet
  send path), or any method named ``tick`` on the simulation path.
  Cold-path exceptions are **allow-listed via annotation**::

      self.waiters.append(lambda: self._fill(sm, line))  # perf: alloc-ok -- one per L2 miss, not per event

  The reason after ``--`` is mandatory, mirroring the ``guarded-by``
  and suppression syntaxes; an ``alloc-ok`` without a reason is reported
  (PERF001 on the annotation line).  Standard
  ``# lint: ignore[PERF001] -- why`` suppressions work as everywhere
  else; the annotation form exists so the allowance reads as a
  documented contract at the allocation site.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass

from repro.lint.core import FileContext, Rule

__all__ = ["PERF_RULES", "HotPathAllocationRule", "parse_alloc_annotations"]

#: Classes in ``repro.sim.engine`` whose every method is hot-path: the
#: event loop itself and the per-packet link send.
_HOT_ENGINE_CLASSES = {"Engine", "Link"}

#: Method name treated as hot-path wherever it appears on the sim path.
_HOT_METHOD = "tick"

_ALLOC_OK_RE = re.compile(r"#\s*perf:\s*alloc-ok\s*(?:--\s*(\S.*))?")


@dataclass(frozen=True)
class AllocAnnotation:
    """One ``# perf: alloc-ok`` comment, resolved to the code line it
    annotates (same targeting as suppressions: its own line, or the
    first code line after a standalone comment block)."""

    line: int
    target: int
    reason: str | None


def parse_alloc_annotations(source: str) -> list[AllocAnnotation]:
    out: list[AllocAnnotation] = []
    lines = source.splitlines()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError):
        return out
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        m = _ALLOC_OK_RE.search(tok.string)
        if m is None:
            continue
        standalone = tok.line[:tok.start[1]].strip() == ""
        line = tok.start[0]
        target = line
        if standalone:
            target = line + 1
            while (target <= len(lines)
                   and lines[target - 1].lstrip().startswith("#")):
                target += 1
        out.append(AllocAnnotation(line=line, target=target,
                                   reason=m.group(1)))
    return out


def _is_partial(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "partial"
    return (isinstance(func, ast.Attribute) and func.attr == "partial"
            and isinstance(func.value, ast.Name)
            and func.value.id == "functools")


class HotPathAllocationRule(Rule):
    id = "PERF001"
    severity = "error"
    description = ("closure/lambda/partial constructed on the simulator "
                   "hot path (engine event loop, Link.send, tick() "
                   "methods); bind arguments into the pooled event "
                   "record (at/after bound arguments) or "
                   "annotate the site '# perf: alloc-ok -- why'")
    scope = ("repro.sim", "repro.gpu", "repro.memory", "repro.network",
             "repro.core")

    def check_file(self, ctx: FileContext, project) -> None:
        annotations = parse_alloc_annotations(ctx.source)
        allowed = {a.target for a in annotations if a.reason}
        for a in annotations:
            if a.reason is None:
                ctx.report(self.id, self.severity, a.line,
                           "alloc-ok annotation without a reason: write "
                           "'# perf: alloc-ok -- why this allocation is "
                           "off the hot path'")
        for fn in self._hot_functions(ctx):
            self._check_body(ctx, fn, allowed)

    def _hot_functions(self, ctx: FileContext):
        engine_module = ctx.module == "repro.sim.engine"
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            hot_class = engine_module and node.name in _HOT_ENGINE_CLASSES
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                if hot_class or item.name == _HOT_METHOD:
                    yield item

    def _check_body(self, ctx: FileContext, fn, allowed: set[int]) -> None:
        for node in ast.walk(fn):
            if isinstance(node, ast.Lambda):
                kind = "lambda"
            elif isinstance(node, (ast.FunctionDef,
                                   ast.AsyncFunctionDef)) and node is not fn:
                kind = f"nested function '{node.name}'"
            elif isinstance(node, ast.Call) and _is_partial(node):
                kind = "functools.partial"
            else:
                continue
            if node.lineno in allowed:
                continue
            ctx.report(self.id, self.severity, node,
                       f"{kind} allocated in hot-path function "
                       f"'{fn.name}': every construction here is a "
                       "per-event allocation the record pool exists to "
                       "avoid; bind arguments into the event record, or "
                       "annotate '# perf: alloc-ok -- why'")


PERF_RULES: tuple[type[Rule], ...] = (HotPathAllocationRule,)
