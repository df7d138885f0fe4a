"""REP004 — hot-loop hygiene: no per-uop allocation in tagged functions.

Functions on the per-uop path are tagged with a ``# hot-path`` comment on
(or immediately above) their ``def`` line in ``simulator.py`` /
``scheduler.py``.  Inside a tagged body, the rule bans
the allocation patterns that dominated the PR 5/PR 7 profiles:

* comprehensions and generator expressions (each builds a fresh object
  per call, plus a frame for genexps),
* f-strings / ``str.format`` (string building per uop),
* ``+`` / ``+=`` where either operand is a list literal (list
  concatenation allocates the combined list).

Cold functions in the same files — recovery, error paths, reporting —
simply stay untagged.  To keep the tags honest, each configured file must
contain at least one ``# hot-path`` tag: deleting the tags to silence the
rule is itself a finding.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.lintkit.engine import FileContext, Finding, LintRule

HOT_TAG = "# hot-path"


def _is_tagged(ctx: FileContext, func: ast.FunctionDef) -> bool:
    """Tag on the def line, a decorator line, or the line above them."""
    first = min([func.lineno]
                + [deco.lineno for deco in func.decorator_list])
    for lineno in range(max(1, first - 1), func.lineno + 1):
        if HOT_TAG in ctx.line_text(lineno):
            return True
    return False


class HotLoopHygieneRule(LintRule):
    code = "REP004"
    name = "hot-loop-hygiene"
    description = ("no per-uop allocation patterns (comprehensions, "
                   "f-strings, list +) inside functions tagged "
                   "# hot-path in the hot-loop files")

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.relpath not in ctx.config.hot_loop_files:
            return ()
        tree = ctx.tree
        if tree is None:
            return ()
        findings: List[Finding] = []
        tagged = 0
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            if not _is_tagged(ctx, node):
                continue
            tagged += 1
            findings.extend(self._check_body(ctx, node))
        if tagged == 0:
            findings.append(self.finding(
                ctx.relpath, 1,
                "file is configured as hot-loop-tagged but contains no "
                "# hot-path function tags — tags must not be deleted to "
                "silence REP004"))
        return findings

    def _check_body(self, ctx: FileContext,
                    func: ast.FunctionDef) -> List[Finding]:
        findings: List[Finding] = []
        where = f"in # hot-path function {func.name}()"
        for node in ast.walk(func):
            if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
                findings.append(self.finding(
                    ctx.relpath, node,
                    f"comprehension allocates per call {where} — hoist "
                    "or rewrite as an explicit loop over preallocated "
                    "state"))
            elif isinstance(node, ast.GeneratorExp):
                findings.append(self.finding(
                    ctx.relpath, node,
                    f"generator expression allocates a frame per call "
                    f"{where}"))
            elif isinstance(node, ast.JoinedStr):
                findings.append(self.finding(
                    ctx.relpath, node,
                    f"f-string builds a string per call {where} — defer "
                    "formatting to cold reporting code"))
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
                if isinstance(node.left, ast.List) or isinstance(
                        node.right, ast.List):
                    findings.append(self.finding(
                        ctx.relpath, node,
                        f"list concatenation allocates {where} — append "
                        "into an existing list instead"))
            elif isinstance(node, ast.AugAssign) and isinstance(
                    node.op, ast.Add):
                if isinstance(node.value, ast.List):
                    findings.append(self.finding(
                        ctx.relpath, node,
                        f"+= list literal allocates {where} — use "
                        ".append()"))
            elif isinstance(node, ast.Call):
                func_node = node.func
                if (isinstance(func_node, ast.Attribute)
                        and func_node.attr == "format"
                        and isinstance(func_node.value, ast.Constant)
                        and isinstance(func_node.value.value, str)):
                    findings.append(self.finding(
                        ctx.relpath, node,
                        f"str.format() builds a string per call {where}"))
        return findings
