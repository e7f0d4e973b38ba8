"""Structured verification reports.

Every verification routine emits a list of :class:`CheckEntry` records;
the harness aggregates them into a :class:`VerificationReport` with a
stable JSON schema (``report_version`` 1).  Wall time is tracked for the
human-readable summary but deliberately excluded from the JSON emission
so that identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from .documents import dumps_canonical

__all__ = ["CheckEntry", "CheckStatus", "VerificationReport"]

REPORT_VERSION = 1


class CheckStatus(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    WARNING = "warning"
    INAPPLICABLE = "inapplicable"


@dataclass(frozen=True)
class CheckEntry:
    """Outcome of one named check.

    ``claim`` states the mathematical property being verified in plain
    words; ``repro`` carries a reproduction command line and is mandatory
    for failures.
    """

    name: str
    status: CheckStatus
    residual: float | None = None
    tolerance: float | None = None
    claim: str = ""
    trial: int | None = None
    repro: str | None = None
    detail: str = ""

    def with_trial(self, trial: int, repro: str) -> "CheckEntry":
        entry = replace(self, trial=trial)
        if entry.status is CheckStatus.FAIL and entry.repro is None:
            entry = replace(entry, repro=repro)
        return entry

    def to_json_dict(self) -> dict:
        out = {
            "name": self.name,
            "status": self.status.value,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "claim": self.claim,
        }
        if self.trial is not None:
            out["trial"] = self.trial
        if self.repro is not None:
            out["repro"] = self.repro
        if self.detail:
            out["detail"] = self.detail
        return out


def passfail(
    name: str,
    ok: bool,
    residual: float | None = None,
    tolerance: float | None = None,
    claim: str = "",
    detail: str = "",
) -> CheckEntry:
    return CheckEntry(
        name=name,
        status=CheckStatus.PASS if ok else CheckStatus.FAIL,
        residual=residual,
        tolerance=tolerance,
        claim=claim,
        detail=detail,
    )


@dataclass
class VerificationReport:
    """Aggregated check entries plus run parameters."""

    entries: list[CheckEntry] = field(default_factory=list)
    seed: int | None = None
    parameters: dict = field(default_factory=dict)
    wall_time_s: float | None = None

    def extend(self, entries) -> None:
        self.entries.extend(entries)

    @property
    def counts(self) -> dict[str, int]:
        out = {status.value: 0 for status in CheckStatus}
        for e in self.entries:
            out[e.status.value] += 1
        return out

    @property
    def failed(self) -> bool:
        return any(e.status is CheckStatus.FAIL for e in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "report_version": REPORT_VERSION,
            "seed": self.seed,
            "parameters": self.parameters,
            "summary": self.counts,
            "entries": [e.to_json_dict() for e in self.entries],
        }

    def to_json(self) -> str:
        return dumps_canonical(self.to_json_dict())

    def human_summary(self) -> str:
        counts = self.counts
        lines = []
        for e in self.entries:
            mark = {
                CheckStatus.PASS: "ok  ",
                CheckStatus.FAIL: "FAIL",
                CheckStatus.WARNING: "warn",
                CheckStatus.INAPPLICABLE: "n/a ",
            }[e.status]
            res = "" if e.residual is None else f"  residual={e.residual:.3e}"
            tol = "" if e.tolerance is None else f"  tol={e.tolerance:.3e}"
            trial = "" if e.trial is None else f"  trial={e.trial}"
            lines.append(f"[{mark}] {e.name}{trial}{res}{tol}")
            if e.status is CheckStatus.FAIL:
                if e.detail:
                    lines.append(f"       {e.detail}")
                if e.repro:
                    lines.append(f"       repro: {e.repro}")
        lines.append(
            "summary: "
            + ", ".join(f"{k}={v}" for k, v in counts.items())
            + ("" if self.wall_time_s is None else f", wall={self.wall_time_s:.2f}s")
        )
        return "\n".join(lines)
