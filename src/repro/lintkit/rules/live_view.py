"""REP003 — live-view contract: hot paths read only documented aliases.

DESIGN.md's hot-path contract: the simulator reads cross-module state
through *public live-view aliases* (``IssueQueue.entries``,
``CopyEngine.availability_map``, ``ReorderBuffer.by_uid``, ...) that each
owning class publishes deliberately.  Reaching into another object's
underscore-private attributes from a hot module bypasses that contract —
it couples the simulator to representation details the owner is free to
change.

Two passes:

* per-file (hot modules only): flag ``<expr>._name`` where the base is
  not ``self``/``cls`` and the attribute is single-underscore private
  (dunders are skipped — they are python protocol, not representation);
* per-project: re-verify every documented alias still exists on its
  owning class (assigned in the class body or in ``__init__``), so the
  alias table cannot silently rot.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set

from repro.lintkit.engine import (FileContext, Finding, LintRule,
                                  ProjectContext)


def _is_private(attr: str) -> bool:
    return (attr.startswith("_") and not attr.startswith("__")
            and not attr.endswith("__"))


class LiveViewContractRule(LintRule):
    code = "REP003"
    name = "live-view-contract"
    description = ("hot-path modules may read cross-module state only "
                   "via the documented public live-view aliases; the "
                   "aliases themselves must keep existing")

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.relpath not in ctx.config.live_view_modules:
            return ()
        tree = ctx.tree
        if tree is None:
            return ()
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            if not _is_private(node.attr):
                continue
            base = node.value
            if isinstance(base, ast.Name) and base.id in {"self", "cls"}:
                continue
            findings.append(self.finding(
                ctx.relpath, node,
                f"access to private attribute ._{node.attr.lstrip('_')} "
                "of another object from a hot-path module — use a "
                "documented live-view alias (see DESIGN.md § Static "
                "guarantees)"))
        return findings

    def check_project(self, ctx: ProjectContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for classname, (relpath, aliases) in sorted(
                ctx.config.live_view_aliases.items()):
            file_ctx = ctx.context_for(relpath)
            if file_ctx is None or file_ctx.tree is None:
                findings.append(self.finding(
                    relpath, 1,
                    f"live-view owner {classname} — file missing or "
                    "unparseable"))
                continue
            class_node = None
            for node in file_ctx.tree.body:
                if isinstance(node, ast.ClassDef) and node.name == classname:
                    class_node = node
                    break
            if class_node is None:
                findings.append(self.finding(
                    relpath, 1,
                    f"live-view owner class {classname} not found"))
                continue
            published = self._published_names(class_node)
            for alias in aliases:
                if alias not in published:
                    findings.append(self.finding(
                        relpath, class_node,
                        f"documented live-view alias {classname}.{alias} "
                        "is no longer published by the class"))
        return findings

    @staticmethod
    def _published_names(class_node: ast.ClassDef) -> Set[str]:
        """Names bound in the class body or on self in any method."""
        names: Set[str] = set()
        for stmt in class_node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name):
                names.add(stmt.target.id)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(stmt, ast.FunctionDef):
                names.add(stmt.name)
                for sub in ast.walk(stmt):
                    if isinstance(sub, (ast.Assign, ast.AnnAssign)):
                        targets = sub.targets if isinstance(
                            sub, ast.Assign) else [sub.target]
                        for target in targets:
                            if (isinstance(target, ast.Attribute)
                                    and isinstance(target.value, ast.Name)
                                    and target.value.id == "self"):
                                names.add(target.attr)
        return names
