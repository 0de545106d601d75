"""Fault-injection outcome taxonomy and campaign reports (paper §II-E).

Each injection ends in exactly one of three outcomes:

* **Masked** — the fault never reaches the program output; the faulty
  run's architectural output matches the golden run.
* **SDC** — the output differs silently (the functional test *detects*
  this; the injector compares the final registers, flags and data
  region with the golden run's exactly).
* **Crash** — the faulty run raised an architectural trap.

A program's *detection capability* is ``(SDC + Crash) / injected``: the
fraction of injected faults whose faulty run deviates observably from
the fault-free run (§II-C).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional


class Outcome(enum.Enum):
    MASKED = "masked"
    SDC = "sdc"
    CRASH = "crash"

    @property
    def detected(self) -> bool:
        return self is not Outcome.MASKED


@dataclass(frozen=True)
class InjectionResult:
    """One injection: the fault description and its outcome."""

    fault: object
    outcome: Outcome
    crash_kind: Optional[str] = None


@dataclass
class DetectionReport:
    """Aggregate result of a statistical fault-injection campaign."""

    structure: str
    fault_model: str
    injections: List[InjectionResult] = field(default_factory=list)

    def add(self, result: InjectionResult) -> None:
        self.injections.append(result)

    @property
    def total(self) -> int:
        return len(self.injections)

    def count(self, outcome: Outcome) -> int:
        return sum(
            1 for result in self.injections if result.outcome is outcome
        )

    @property
    def detected(self) -> int:
        return sum(
            1 for result in self.injections if result.outcome.detected
        )

    @property
    def detection_capability(self) -> float:
        """n / N: detected fraction of injected faults (§II-C)."""
        if not self.injections:
            return 0.0
        return self.detected / self.total

    def detected_injections(self) -> List[InjectionResult]:
        """Detected (SDC/crash) injections, in injection order."""
        return [
            result for result in self.injections
            if result.outcome.detected
        ]

    def top_detections(self, limit: int) -> List[object]:
        """The first ``limit`` *distinct* detected fault descriptors.

        Injection order is deterministic for a fixed campaign seed, so
        this selection is too — ``harpocrates explain`` relies on that
        for byte-stable witness artifacts.  Duplicate descriptors (the
        sampler can draw the same site twice) are collapsed to the
        first occurrence.
        """
        if limit <= 0:
            return []
        seen = set()
        faults: List[object] = []
        for result in self.detected_injections():
            if result.fault in seen:
                continue
            seen.add(result.fault)
            faults.append(result.fault)
            if len(faults) >= limit:
                break
        return faults

    def breakdown(self) -> Dict[str, float]:
        """Outcome fractions, for reporting."""
        if not self.injections:
            return {outcome.value: 0.0 for outcome in Outcome}
        return {
            outcome.value: self.count(outcome) / self.total
            for outcome in Outcome
        }

    def summary(self) -> str:
        parts = ", ".join(
            f"{name}={fraction:.1%}"
            for name, fraction in self.breakdown().items()
        )
        return (
            f"{self.structure}/{self.fault_model}: "
            f"detection={self.detection_capability:.1%} "
            f"({self.total} injections: {parts})"
        )
