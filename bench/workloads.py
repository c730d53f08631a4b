"""The three workloads: what each pass runs, drawn from the seed.

Kept free of thhlab imports so run.py and the tests can read it without
paying for the program's import.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("page-turns", "catalog-large-prime", "tor-grid")

# page-turns: the three spectral-sequence scenarios at p = 3, far past the
# default cap 2p^2 + 4p = 30, so page turns and survivor selection dominate
PAGE_TURNS_SCENARIOS = ("thhz", "thh-ell-log", "thh-ku-ss")
PAGE_TURNS_PRIME = 3
PAGE_TURNS_CAP = 300

# catalog-large-prime: `thhlab run --all --prime 11` at the default cap
CATALOG_PRIME = 11
CATALOG_CAP = 2 * CATALOG_PRIME ** 2 + 4 * CATALOG_PRIME

# tor-grid: the acceptance grid of criterion 8 (polynomial degrees 2, 4, 6
# and exterior degrees 1, 3, 5, up to two of each, p in {3, 5}) at a cap
# small enough that a pass covers the whole grid in a few seconds
TOR_PRIMES = (3, 5)
TOR_POLY_DEGREES = (2, 4, 6)
TOR_EXT_DEGREES = (1, 3, 5)
TOR_MAX_EACH = 2
TOR_CAP = 14


def _multisets(degrees):
    return [m for n in range(TOR_MAX_EACH + 1)
            for m in itertools.combinations_with_replacement(degrees, n)]


def tor_grid_cases(seed: int) -> list[tuple[int, tuple[tuple[str, int], ...]]]:
    """Every (p, generator multiset) of the grid, once, in a seeded order.

    A case is (p, generators) with generators a tuple of (kind, degree),
    kind "x" for polynomial and "y" for exterior.  The seed draws the order
    of the cases and the order of the generators of each kind, which changes
    the monomial order and the matrix layouts but not the answer.  Every
    case runs once per pass, because the cost of a case spans three orders
    of magnitude and a seeded sample of the grid would make the pass time
    depend on the seed.
    """
    rng = random.Random(seed)
    cases = []
    for p in TOR_PRIMES:
        for pd, ed in itertools.product(_multisets(TOR_POLY_DEGREES),
                                        _multisets(TOR_EXT_DEGREES)):
            if not (pd or ed):
                continue
            # polynomial generators stay ahead of exterior ones: the oracle
            # fails on any other order (see CHANGES.md)
            pd, ed = list(pd), list(ed)
            rng.shuffle(pd)
            rng.shuffle(ed)
            cases.append((p, tuple([("x", d) for d in pd] + [("y", d) for d in ed])))
    rng.shuffle(cases)
    return cases


def page_turns_order(seed: int) -> list[str]:
    """The three scenarios in a seeded order, one `thhlab run` each."""
    names = list(PAGE_TURNS_SCENARIOS)
    random.Random(seed).shuffle(names)
    return names
