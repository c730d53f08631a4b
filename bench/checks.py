"""Verdicts for one operation: a scenario report, or one tor-grid case.

Each function returns the list of problems found; an operation fails when
its list is non-empty.  Expected values come from reference.py, never from
a stored copy of the program's output.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import reference


def count_failed(problem_lists: Sequence[Sequence[str]]) -> int:
    return sum(1 for problems in problem_lists if problems)


def scenario_problems(
    doc: dict,
    einfty: Optional[Sequence[int]],
    series: Optional[Callable[[int, int], list[int]]] = None,
) -> list[str]:
    """Problems with one scenario's json report.

    Every check must read other than "fail".  For the scenarios in
    reference.EINFTY_SERIES, einfty is the total-dimension series of the
    page the scenario's first page turn produced, and it must equal the
    reference Poincare series through the cap; series overrides that
    reference (the tests use it to feed a perturbed one).
    """
    name, p, cap = doc["scenario"], doc["prime"], doc["cap"]
    problems = [f"{name}: check {c['name']} reads fail"
                for c in doc["checks"] if c["status"] == "fail"]
    want_fn = series or reference.EINFTY_SERIES.get(name)
    if want_fn is not None:
        want = want_fn(p, cap)
        if einfty is None:
            problems.append(f"{name}: no page turn was recorded")
        elif list(einfty[: cap + 1]) != want:
            first = next(n for n in range(cap + 1)
                         if n >= len(einfty) or einfty[n] != want[n])
            got = einfty[first] if first < len(einfty) else None
            problems.append(f"{name}: E-infinity total degree {first} has "
                            f"{got}, reference {want[first]}")
    return problems


def tor_problems(
    generators: Sequence[tuple[str, int]],
    cap: int,
    oracle: dict,
    closed_form: dict,
    want: Optional[dict] = None,
) -> list[str]:
    """Oracle and closed form must both equal E[x_i] (x) Gamma[y_j] on s+t <= cap."""
    if want is None:
        want = reference.tor_dims([d for k, d in generators if k == "x"],
                                  [d for k, d in generators if k == "y"], cap)
    problems = []
    for label, got in (("oracle", oracle), ("closed form", closed_form)):
        got = {bd: n for bd, n in got.items() if n and sum(bd) <= cap}
        if got != want:
            bad = sorted(bd for bd in set(got) | set(want) if got.get(bd) != want.get(bd))
            problems.append(f"{label} differs from E(x)Gamma(y) at {bad[:3]}")
    return problems
