"""Structured diagnostics for the static design verifier.

Every check in :mod:`repro.analysis` reports its findings as
:class:`Diagnostic` values with a *stable* code (``REPRO-E001`` ...), a
severity derived from that code, a location (a rule, register, channel or
``Class.attr`` path), a human-readable message and a fix hint.  Codes are
part of the repo's contract: tests pin them, CI suppressions name them, and
ROADMAP.md documents the invariant each one defends -- so a code is never
renumbered or reused once released.

The registry below is the single source of truth for which codes exist;
constructing a :class:`Diagnostic` with an unknown code raises immediately,
so a typo in a check cannot silently invent a new code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

#: code -> (check name, one-line summary).  The check name groups codes by
#: analysis pass; it is what ``--suppress`` and reports key on besides the
#: code itself.
CODES: Dict[str, Tuple[str, str]] = {
    "REPRO-E001": (
        "domain-isolation",
        "state element reached from a foreign domain without a synchronizer",
    ),
    "REPRO-E002": (
        "domain-isolation",
        "state element written by rules of more than one domain (race)",
    ),
    "REPRO-E003": (
        "channel-deadlock",
        "credit-dependency cycle: every edge of the cycle can credit-stall",
    ),
    "REPRO-W004": (
        "dead-rule",
        "rule guard folds to constant false: the rule can never fire",
    ),
    "REPRO-W005": (
        "dead-rule",
        "rule guard support is never written by any rule (frozen guard)",
    ),
    "REPRO-E006": (
        "kernel-purity",
        "foreign kernel mutates global or closure state",
    ),
    "REPRO-E007": (
        "kernel-purity",
        "foreign kernel references a nondeterminism source",
    ),
    "REPRO-E008": (
        "snapshot-completeness",
        "mutable attribute not covered by the fabric snapshot",
    ),
}

SEVERITIES = ("error", "warning")


def severity_of(code: str) -> str:
    """Severity encoded in the code letter: ``E`` -> error, ``W`` -> warning."""
    kind = code.split("-", 1)[1][0] if "-" in code else "E"
    return "error" if kind == "E" else "warning"


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One finding of the static verifier (plain, hashable, sortable data).

    The dataclass ordering (code, then location, then message) is the
    deterministic report order: two runs over the same elaborated design
    produce identical diagnostic lists, which the stability tests pin.
    """

    code: str
    location: str
    message: str
    hint: str = ""

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(
                f"unknown diagnostic code {self.code!r}; register it in "
                f"repro.analysis.diagnostics.CODES (known: {sorted(CODES)})"
            )

    @property
    def check(self) -> str:
        """The analysis pass this diagnostic belongs to (e.g. ``dead-rule``)."""
        return CODES[self.code][0]

    @property
    def severity(self) -> str:
        return severity_of(self.code)

    def render(self) -> str:
        """The one-line report form: ``CODE severity location: message``."""
        line = f"{self.code} {self.severity} [{self.check}] {self.location}: {self.message}"
        if self.hint:
            line += f"\n    hint: {self.hint}"
        return line


def sort_diagnostics(diags: Iterable[Diagnostic]) -> List[Diagnostic]:
    """Deterministic report order (diagnostics are totally ordered)."""
    return sorted(diags)


def filter_suppressed(
    diags: Iterable[Diagnostic], suppress: Iterable[str] = ()
) -> List[Diagnostic]:
    """Drop diagnostics whose code *or* check name is suppressed."""
    dropped = set(suppress)
    return [d for d in diags if d.code not in dropped and d.check not in dropped]


def render_report(diags: Iterable[Diagnostic]) -> str:
    """Render a sorted multi-line report; empty string when clean."""
    return "\n".join(d.render() for d in sort_diagnostics(diags))
