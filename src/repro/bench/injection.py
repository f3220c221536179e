"""Fault-injection detection matrix as a bench experiment.

Runs the default :class:`~repro.inject.InjectionCampaign` across the
three protection profiles and condenses the per-site outcomes into one
table: which corruptions each profile detects, which it lets escape and
which do not even apply to it.  The paper's security argument is
exactly this matrix — the full profile turns every modelled corruption
into a fault, a panic or an invariant violation.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentRecord
from repro.inject import InjectionCampaign
from repro.inject.outcome import Matrix

__all__ = ["run_injection_matrix"]

_PROFILES = ("none", "backward", "full")


def _detection_cell(rows):
    """How one profile fared at one site: the detecting mechanism(s)."""
    outcomes = {r.outcome for r in rows}
    if outcomes == {"skipped"}:
        return "n/a"
    if "escaped" in outcomes:
        return "ESCAPED"
    detectors = {r.detected_by for r in rows if r.detected_by}
    return "+".join(sorted(detectors)) or "detected"


def run_injection_matrix(seed=None, trials=1):
    """One campaign per profile; reproduced iff ``full`` has no escapes."""
    from repro.inject.report import pivot_table  # imports repro.bench

    kwargs = {} if seed is None else {"seed": seed}
    matrices = {
        profile: InjectionCampaign(
            profile=profile, trials=trials, **kwargs
        ).run()
        for profile in _PROFILES
    }
    merged = Matrix(results=[r for m in matrices.values() for r in m.results])
    table = pivot_table(
        merged,
        "Fault-injection detection matrix (outcome per profile)",
        "site",
        _PROFILES,
        _detection_cell,
    )

    full = matrices["full"]
    measured = ", ".join(
        f"{profile}: {m.detected}/{m.injected} detected"
        f" ({m.escaped} escaped)"
        for profile, m in matrices.items()
    )
    return ExperimentRecord(
        experiment_id="E17 / fault injection",
        paper_claim=(
            "every modelled state corruption against the protected "
            "kernel is detected (fault, panic or invariant)"
        ),
        measured=measured,
        reproduced=full.injected > 0 and full.escaped == 0,
        tables=[table],
    )
