"""The outcome model shared by attacks and fault injection.

The paper's security argument (Section 6.2) asks one question of every
corruption under every protection profile: was it detected, blocked,
or did it get through?  Both scenario families answer it with the same
three pieces:

* :class:`Outcome` — one row: which scenario (``site``: an injection
  site or an attack name), under which profile, what happened and,
  when the kernel stopped it, by which mechanism (``detected_by``);
* :func:`classify` — the one place that maps how the simulated kernel
  stops a corruption to that mechanism: a killed task is a ``fault``,
  a halted kernel a ``panic``, a tripped checker an ``invariant``;
* :class:`Matrix` — the rows of a campaign, their counts, and one
  :meth:`~Matrix.pivot` (site → profile → rows) that both the E6
  attack table and the E17 injection table are rendered from (see
  :func:`repro.inject.report.pivot_table`).

Outcome words: attacks end ``succeeded``, ``detected`` or ``blocked``
(the primitive itself was refused); injections end ``detected``,
``escaped`` or ``skipped`` (the profile lacks the attacked mechanism).
``succeeded`` and ``escaped`` both mean the corruption got through.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import KernelPanic
from repro.inject.invariants import InvariantViolation
from repro.kernel.fault import TaskKilled

__all__ = ["Outcome", "Matrix", "classify"]

#: Outcome words meaning the corruption got past every defence.
_GOT_THROUGH = ("escaped", "succeeded")


@dataclass
class Outcome:
    """What one scenario run did to one victim kernel."""

    site: str
    outcome: str
    profile: str = None
    trial: int = 0
    seed: int = None
    detected_by: str = None  # "fault" | "panic" | "invariant"
    expected: bool = None  # detection kind was the designed one
    detail: str = ""
    evidence: dict = field(default_factory=dict)

    @property
    def succeeded(self):
        return self.outcome == "succeeded"

    def to_dict(self):
        return {
            "site": self.site,
            "profile": self.profile,
            "trial": self.trial,
            "seed": self.seed,
            "outcome": self.outcome,
            "detected_by": self.detected_by,
            "expected": self.expected,
            "detail": self.detail,
            "evidence": dict(self.evidence),
        }


def classify(body):
    """Run ``body()``; return ``(detected_by, value)``.

    When the kernel stops the scenario, ``detected_by`` names the
    mechanism and ``value`` is the exception's message; otherwise
    ``detected_by`` is None and ``value`` is what ``body`` returned.
    Any other exception propagates.
    """
    try:
        return None, body()
    except TaskKilled as exc:
        return "fault", str(exc)
    except KernelPanic as exc:
        return "panic", str(exc)
    except InvariantViolation as exc:
        return "invariant", str(exc)


@dataclass
class Matrix:
    """The rows of one campaign, plus the campaign's identity.

    ``profile`` is None when the rows span several profiles.
    """

    profile: str = None
    seed: int = None
    invariants: bool = False
    trials: int = 1
    results: list = field(default_factory=list)

    def _count(self, *outcomes):
        return sum(1 for r in self.results if r.outcome in outcomes)

    @property
    def injected(self):
        return len(self.results) - self.skipped

    @property
    def detected(self):
        return self._count("detected")

    @property
    def escaped(self):
        return self._count(*_GOT_THROUGH)

    @property
    def skipped(self):
        return self._count("skipped")

    def escapes(self):
        return [r for r in self.results if r.outcome in _GOT_THROUGH]

    def by_site(self):
        sites = {}
        for result in self.results:
            sites.setdefault(result.site, []).append(result)
        return sites

    def pivot(self):
        """``{site: {profile: [rows]}}``, both in first-seen order."""
        table = {}
        for result in self.results:
            table.setdefault(result.site, {}).setdefault(
                result.profile, []
            ).append(result)
        return table

    def to_dict(self):
        return {
            "profile": self.profile,
            "seed": self.seed,
            "invariants": self.invariants,
            "trials": self.trials,
            "summary": {
                "injected": self.injected,
                "detected": self.detected,
                "escaped": self.escaped,
                "skipped": self.skipped,
            },
            "results": [r.to_dict() for r in self.results],
        }
