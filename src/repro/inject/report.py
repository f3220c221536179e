"""Rendering outcome matrices (text tables for the CLI and docs).

:func:`pivot_table` is the one matrix renderer: a row per site, a column
per profile.  The E6 attack table and the E17 injection table differ
only in how ``cell`` condenses a site's rows under one profile.
"""

from __future__ import annotations

from repro.bench.harness import TextTable
from repro.inject.points import all_points

__all__ = ["pivot_table", "render_matrix", "render_site_listing"]


def _clip(text, width=52):
    text = " ".join(str(text).split())
    return text if len(text) <= width else text[: width - 1] + "…"


def pivot_table(matrix, title, label, profiles, cell):
    """``matrix.pivot()`` as one row per site, one column per profile.

    ``label`` heads the site column; ``cell(rows)`` renders one site's
    rows under one profile, and ``-`` marks a profile it never ran under.
    """
    table = TextTable(title, [label, *profiles])
    for site, row in matrix.pivot().items():
        table.add_row(
            site, *(cell(row[p]) if p in row else "-" for p in profiles)
        )
    return table


def render_matrix(matrix):
    """One campaign's rows, trial by trial, plus its summary line."""
    table = TextTable(
        f"Injection detection matrix "
        f"(profile={matrix.profile}, seed={matrix.seed:#x}, "
        f"invariants={'on' if matrix.invariants else 'off'})",
        ["site", "trial", "outcome", "detected by", "detail"],
    )
    for result in matrix.results:
        table.add_row(
            result.site,
            result.trial,
            result.outcome,
            result.detected_by or "-",
            _clip(result.detail),
        )
    summary = (
        f"{matrix.injected} injected: {matrix.detected} detected, "
        f"{matrix.escaped} escaped ({matrix.skipped} skipped)"
    )
    return table.render() + "\n\n" + summary


def render_site_listing():
    """Every registered injection point, for ``inject --list``."""
    table = TextTable(
        "Registered injection points",
        ["site", "module", "requires", "invariants-only", "description"],
    )
    for point in all_points():
        table.add_row(
            point.name,
            point.module,
            "+".join(point.requires) or "-",
            "yes" if point.needs_invariants else "no",
            _clip(point.description, 60),
        )
    return table.render()
