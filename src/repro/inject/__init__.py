"""Fault injection and invariant checking (``repro.inject``).

Adversarial state mutation against the live simulated kernel — PAC
bit-flips in signed pointers, key-register corruption, exception-frame
tampering, mid-``cpu_switch_to`` task-struct rewrites, stack-canary
smashes — run as seeded, deterministic campaigns whose product is a
*detection matrix*: injected vs. detected vs. escaped.

The package also owns the outcome model the attack suite
(:mod:`repro.attacks`) shares: one record (:class:`Outcome`), one
classifier (:func:`classify`), one matrix (:class:`Matrix`) in
:mod:`repro.inject.outcome`, and one renderer (:func:`pivot_table`) in
:mod:`repro.inject.report`.

The package is deliberately lazy: host modules (``arch/pac.py``,
``kernel/fault.py``, ...) import :mod:`repro.inject.points` at the
bottom of their bodies to register their injection sites, so this
``__init__`` must not import the campaign machinery (which imports the
whole kernel stack) at module scope.
"""

from __future__ import annotations

__all__ = [
    "DEFAULT_SEED",
    "CampaignDriver",
    "InjectionCampaign",
    "InjectionPoint",
    "InvariantChecker",
    "InvariantViolation",
    "Matrix",
    "Outcome",
    "all_points",
    "classify",
    "pivot_table",
    "point_by_name",
    "register_point",
    "render_matrix",
    "render_site_listing",
]

_LAZY = {
    "DEFAULT_SEED": "repro.inject.campaign",
    "CampaignDriver": "repro.inject.campaign",
    "InjectionCampaign": "repro.inject.campaign",
    "Matrix": "repro.inject.outcome",
    "Outcome": "repro.inject.outcome",
    "classify": "repro.inject.outcome",
    "InjectionPoint": "repro.inject.points",
    "all_points": "repro.inject.points",
    "point_by_name": "repro.inject.points",
    "register_point": "repro.inject.points",
    "InvariantChecker": "repro.inject.invariants",
    "InvariantViolation": "repro.inject.invariants",
    "pivot_table": "repro.inject.report",
    "render_matrix": "repro.inject.report",
    "render_site_listing": "repro.inject.report",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
