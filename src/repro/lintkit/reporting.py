"""Report renderers for lint runs: human text and machine JSON.

The JSON form is what the CI lint job publishes as a build artifact, so
its shape is part of the repo's tooling contract: a ``summary`` block,
the active ``rules`` table, and every finding (suppressed ones included,
flagged) in deterministic path/line order.
"""

from __future__ import annotations

import json
from typing import List

from repro.lintkit.engine import LintReport

REPORT_FORMAT = 1


def render_text(report: LintReport, show_suppressed: bool = False) -> str:
    lines: List[str] = []
    for finding in report.findings:
        if finding.suppressed and not show_suppressed:
            continue
        mark = " (suppressed: %s)" % finding.suppression_reason \
            if finding.suppressed else ""
        lines.append(f"{finding.location()}: {finding.rule}: "
                     f"{finding.message}{mark}")
    bad = len(report.unsuppressed)
    lines.append(
        f"lint: {report.files_scanned} files, "
        f"{len(report.rules)} rules, {bad} finding(s)"
        + (f", {len(report.suppressed)} suppressed"
           if report.suppressed else "")
        + (" — OK" if report.ok else ""))
    return "\n".join(lines)


def report_to_dict(report: LintReport) -> dict:
    return {
        "format": REPORT_FORMAT,
        "summary": {
            "files_scanned": report.files_scanned,
            "rules_active": len(report.rules),
            "findings": len(report.unsuppressed),
            "suppressed": len(report.suppressed),
            "ok": report.ok,
        },
        "rules": [
            {"code": rule.code, "name": rule.name,
             "description": rule.description}
            for rule in report.rules
        ],
        "findings": [f.to_dict() for f in report.findings],
    }


def render_json(report: LintReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=False)
