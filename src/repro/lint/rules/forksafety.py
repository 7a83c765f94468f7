"""REP003 — module globals in worker-imported modules must be fork-safe.

Shm-pool workers import ``pipeline/``, ``exchange/`` and
``plugins/`` modules and then run for the lifetime of a campaign.  A
mutable module-level global mutated at runtime silently diverges
between parent and workers (each fork gets a copy-on-write snapshot),
which is exactly the bug class the golden matrices can only catch by
luck.  Two shapes are legal:

* the **registered worker-state pattern** — names matching
  ``_WORKER_*`` or ``_SHM_WORKER`` (in ``pipeline/sharding.py``),
  which are deliberately per-process and documented as such;
* **import-time constants** — immutable values, or mutable containers
  annotated ``Final`` (never rebound; filled only during import so all
  processes agree — e.g. the plugin registry).

Everything else is flagged: bare mutable container bindings, and
``global`` statements that rebind non-worker names at runtime.
"""

from __future__ import annotations

import ast
import re

from repro.lint.framework import Rule
from repro.lint.rules.common import is_final_annotation, is_immutable_value

__all__ = ["ForkSafetyRule"]

DEFAULT_WORKER_PATTERN = r"^_WORKER_|^_SHM_WORKER$"


class ForkSafetyRule(Rule):
    code = "REP003"
    name = "fork-safety"
    rationale = (
        "mutable module globals diverge between the parent and forked "
        "workers; use the _WORKER_* pattern or a Final import-time constant"
    )

    def run(self, ctx):  # type: ignore[override]
        self.ctx = ctx
        self.violations = []
        worker_re = re.compile(
            self.options.get("worker_pattern", DEFAULT_WORKER_PATTERN)
        )
        extra_immutable = frozenset(self.options.get("immutable_calls", ()))

        for stmt in ctx.tree.body:
            if isinstance(stmt, ast.Assign):
                targets = [t for t in stmt.targets if isinstance(t, ast.Name)]
                for target in targets:
                    self._check_binding(
                        stmt, target.id, stmt.value, None, worker_re, extra_immutable
                    )
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                self._check_binding(
                    stmt,
                    stmt.target.id,
                    stmt.value,
                    stmt.annotation,
                    worker_re,
                    extra_immutable,
                )

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Global):
                for name in node.names:
                    if not worker_re.search(name):
                        self.report(
                            node,
                            f"'global {name}' rebinds a module global at "
                            "runtime: forked workers keep their snapshot "
                            "and silently diverge — use the _WORKER_* "
                            "pattern for deliberate per-process state",
                        )
        return self.violations

    def _check_binding(
        self,
        stmt: ast.stmt,
        name: str,
        value: ast.AST | None,
        annotation: ast.AST | None,
        worker_re: re.Pattern[str],
        extra_immutable: frozenset[str],
    ) -> None:
        if name.startswith("__") and name.endswith("__"):
            return
        if worker_re.search(name):
            return
        if is_final_annotation(annotation):
            return
        if value is None or is_immutable_value(value, extra_immutable):
            return
        self.report(
            stmt,
            f"mutable module global {name!r} in a worker-imported module: "
            "annotate Final (import-time constant) or use the _WORKER_* "
            "per-process pattern",
        )
