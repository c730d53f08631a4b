"""Finitely presented graded-commutative algebras via monomial rewriting.

A Presentation is an ambient monomial algebra plus degree-homogeneous
rewrite rules (monomial -> element).  Normal forms are computed by applying
the first applicable rule until none applies, with a step guard against
bad rule orders; local confluence at desk scale is a property test, not a
theorem.  Divided generators are out of scope here (divisibility of
gamma-indices is not meaningful for rewriting).

The normal-form basis is the set of irreducible monomials, those no rule
lhs divides.  It is an order ideal: every divisor of an irreducible
monomial is irreducible, since an lhs dividing the divisor divides the
monomial too.  Basis enumeration relies on this to visit only irreducible
monomials, never the whole ambient basis: the array walk of
graded_algebra.walk_rows bounds each slot's exponent by the rule lhs that
close there (graded_algebra.SlotBounds).

Normal forms use a rule index: the rules keyed by the last nonzero slot
of their lhs, and under it by the first.  A rule can divide a monomial
only if both slots are in the monomial's support, so a rewrite step tests
only the rules keyed by support slots.

The module also houses make_theta, the truncated two-family presentation
used throughout, and check_derivation, which verifies that a declared
degree +1 derivation is compatible with every relation and truncation of a
carrier algebra.

Theta is built once per prime and extra generators: make_theta keeps the
last presentation it built and hands the same object to every caller with
that key.  A presentation keeps its basis rows per cap and the text of
each rule, so the scenarios that share theta walk its basis and format its
rules once.  Callers read these tables and must not mutate them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .fp_linalg import PrimeField
from .graded_algebra import (
    AlgebraSpec,
    DegreeMismatch,
    Generator,
    GradedError,
    Mono,
    SlotBounds,
    TermDict,
    UnsupportedKind,
    by_degree,
    exterior,
    leibniz,
    make_algebra,
    polynomial,
    slot_bounds,
    truncated,
    truncation_residuals,
    walk_rows,
)


class NonTermination(GradedError):
    """Rewriting exceeded the step bound; the rule order is not well-founded."""


class RewriteMismatch(GradedError):
    """A rule lhs times the quotient does not give back the rewritten monomial."""


@dataclass(frozen=True, eq=False)
class RewriteRule:
    lhs: Mono
    rhs: TermDict

    def __post_init__(self) -> None:
        # (slot, exponent) for every nonzero slot of the lhs
        object.__setattr__(self, "_support", tuple((i, e) for i, e in enumerate(self.lhs) if e))

    def divides(self, mono: Sequence[int]) -> bool:
        # a plain loop: normal forms test every indexed rule with it, and
        # all() over a generator measured about a third slower
        for i, e in self._support:  # type: ignore[attr-defined]
            if mono[i] < e:
                return False
        return True


@dataclass(frozen=True, eq=False)
class Presentation:
    algebra: AlgebraSpec
    rules: tuple[RewriteRule, ...]

    def __post_init__(self) -> None:
        if any(g.kind == "divided" for g in self.algebra.generators):
            raise UnsupportedKind("presentations do not support divided generators")
        n = len(self.algebra.generators)
        for rule in self.rules:
            if len(rule.lhs) != n:
                raise ValueError("rule lhs arity does not match the algebra")
            if not any(rule.lhs):
                raise ValueError("rule lhs must not be the unit monomial")
            lhs_deg = self.algebra.total_degree_of(rule.lhs)
            rhs_deg = self.algebra.dict_total_degree(rule.rhs)
            if rhs_deg is not None and rhs_deg != lhs_deg:
                raise DegreeMismatch(
                    f"rule {self.algebra.format_mono(rule.lhs)} is not degree-homogeneous"
                )
        # the rule index: closing[i] holds, as (j, group) pairs, the
        # (position, rule) pairs whose lhs has its last nonzero slot at i and
        # its first at j
        closing: list[dict[int, list[tuple[int, RewriteRule]]]] = [{} for _ in range(n)]
        for pos, rule in enumerate(self.rules):
            support = rule._support  # type: ignore[attr-defined]
            closing[support[-1][0]].setdefault(support[0][0], []).append((pos, rule))
        object.__setattr__(self, "_closing", tuple(
            tuple((j, tuple(group)) for j, group in by_first.items()) for by_first in closing))
        object.__setattr__(self, "_bases", {})  # cap -> basis_rows(cap)

    @cached_property
    def rule_texts(self) -> tuple[str, ...]:
        """Each rule as "lhs -> rhs", in rule order, formatted once."""
        alg = self.algebra
        return tuple(f"{alg.format_mono(rule.lhs)} -> {alg.format_dict(rule.rhs)}"
                     for rule in self.rules)

    # -- rewriting -------------------------------------------------------------

    def _applicable(self, mono: Mono) -> list[RewriteRule]:
        """The rules that divide mono, in rule order, read off the index."""
        closing = self._closing  # type: ignore[attr-defined]
        hits = [(pos, r) for i, e in enumerate(mono) if e
                for j, group in closing[i] if mono[j]
                for pos, r in group if r.divides(mono)]
        hits.sort(key=itemgetter(0))
        return [r for _, r in hits]

    def normal_form_dict(
        self,
        elt: TermDict,
        rng: Optional[random.Random] = None,
        max_steps: int = 100_000,
    ) -> TermDict:
        """Fixed point of rule application; rng shuffles term and rule choice."""
        alg = self.algebra
        p = alg.field.p
        work = dict(elt)
        steps = 0
        while True:
            picked = None
            monos = sorted(work)
            if rng is not None:
                rng.shuffle(monos)
            for m in monos:
                rules = self._applicable(m)
                if rules:
                    picked = (m, rules[0] if rng is None else rng.choice(rules))
                    break
            if picked is None:
                return work
            steps += 1
            if steps > max_steps:
                raise NonTermination(f"no normal form after {max_steps} rewrite steps")
            m, rule = picked
            coeff = work.pop(m)
            quotient = tuple(em - el for em, el in zip(m, rule.lhs))
            prod = alg.mono_mul(rule.lhs, quotient)
            if prod is None or prod[1] != m:
                raise RewriteMismatch(
                    f"{alg.format_mono(rule.lhs)} times {alg.format_mono(quotient)} "
                    f"is not {alg.format_mono(m)}"
                )
            repl = alg.mul_dicts(rule.rhs, {quotient: 1})
            repl = alg.scale_dict(coeff * pow(prod[0], -1, p), repl)
            work = alg.add_dicts(work, repl)

    # -- basis -----------------------------------------------------------------

    @cached_property
    def _bounds(self) -> SlotBounds:
        """The rule lhs as bounds of the basis walk (graded_algebra.slot_bounds)."""
        return slot_bounds(len(self.algebra.generators), [rule.lhs for rule in self.rules])

    def basis_rows(self, cap: int) -> tuple[np.ndarray, np.ndarray]:
        """All irreducible monomials of total degree <= cap as exponent
        rows, in degree and lexicographic order, and their degrees.

        The walk of AlgebraSpec.basis_rows, with the exponent of each slot
        bounded by the rules whose lhs has its last nonzero slot there
        (graded_algebra.SlotBounds), so it visits only irreducible
        monomials.  They form an
        order ideal: a rule lhs that divides m divides every multiple of
        m, so every prefix of an irreducible monomial is irreducible.  The
        rows come out in the ambient order, as if the ambient basis were
        filtered by irreducibility.  The rows of each cap are walked once
        and kept; callers must not mutate them.
        """
        bases = self._bases  # type: ignore[attr-defined]
        if cap not in bases:
            gens = self.algebra.generators
            bases[cap] = walk_rows([g.total_degree for g in gens],
                                   [g.max_exponent(cap) for g in gens], cap, self._bounds)
        return bases[cap]

    def basis_by_degree(self, cap: int) -> dict[int, list[Mono]]:
        """All irreducible monomials of total degree <= cap, keyed by degree,
        in the order of basis_rows."""
        return by_degree(*self.basis_rows(cap), cap)


def hilbert_pres(pres: Presentation, cap: int) -> list[int]:
    """Count of normal-form (irreducible) monomials per total degree."""
    return np.bincount(pres.basis_rows(cap)[1], minlength=max(cap + 1, 0)).tolist()


def make_theta(
    field: Union[PrimeField, int], extra_generators: Sequence[Generator] = ()
) -> Presentation:
    """The truncated two-family algebra over P_{p-1}(u) ox P(m2), with the
    extra generators placed before u.

    The same (p, extra generators) key, whether the field comes as an int
    or a PrimeField and the extras as a list or a tuple, gives the same
    object: the last theta built is kept, and at most that one.

    Generators: u (truncated height p-1, degree 2), m2 (polynomial, degree
    2p^2), a_0..a_{p-1} (exterior, degree 2pi+3), b_1..b_{p-1} (polynomial,
    degree 2pj+2).  The index-0 b is the generator u itself, which is how
    the overflow products below acquire their u and u^2 factors.

    Rules: a_i a_j = 0; b_i b_j = u b_{i+j} or u b_{i+j-p} m2 past the top
    index; a_i b_j = u a_{i+j} or u a_{i+j-p} m2; u^{p-2} a_i = 0 for
    i <= p-2 (the top a is exempt); u^{p-2} b_j = 0.  Products of the two
    letter families strictly reduce letter count, so rewriting terminates.
    """
    return _theta(field if isinstance(field, int) else field.p, tuple(extra_generators))


@lru_cache(maxsize=1)
def _theta(p: int, extra_generators: tuple[Generator, ...]) -> Presentation:
    field = PrimeField(p)
    gens = list(extra_generators)
    gens.append(truncated("u", 2, p - 1))
    gens.append(polynomial("m2", 2 * p * p))
    gens.extend(exterior(f"a{i}", 2 * p * i + 3) for i in range(p))
    gens.extend(polynomial(f"b{j}", 2 * p * j + 2) for j in range(1, p))
    alg = make_algebra(field, gens)

    def mono(**powers: int) -> Mono:
        return alg.mono_from_names(powers)

    def b_power_product(index: int, with_m2: bool) -> TermDict:
        # u * b_index (* m2), reading b_0 as u; dies when u truncates
        parts: TermDict = {mono(u=1): 1}
        factor = {mono(u=1): 1} if index == 0 else {mono(**{f"b{index}": 1}): 1}
        parts = alg.mul_dicts(parts, factor)
        if with_m2:
            parts = alg.mul_dicts(parts, {mono(m2=1): 1})
        return parts

    def a_product(index: int, with_m2: bool) -> TermDict:
        parts: TermDict = {mono(u=1): 1}
        parts = alg.mul_dicts(parts, {mono(**{f"a{index}": 1}): 1})
        if with_m2:
            parts = alg.mul_dicts(parts, {mono(m2=1): 1})
        return parts

    rules: list[RewriteRule] = []
    for i in range(p):
        for j in range(i + 1, p):
            rules.append(RewriteRule(mono(**{f"a{i}": 1, f"a{j}": 1}), {}))
    for i in range(1, p):
        for j in range(i, p):
            lhs = mono(**{f"b{i}": 2}) if i == j else mono(**{f"b{i}": 1, f"b{j}": 1})
            s = i + j
            rules.append(
                RewriteRule(lhs, b_power_product(s if s < p else s - p, s >= p))
            )
    for i in range(p):
        for j in range(1, p):
            s = i + j
            rules.append(
                RewriteRule(
                    mono(**{f"a{i}": 1, f"b{j}": 1}),
                    a_product(s if s < p else s - p, s >= p),
                )
            )
    for i in range(p - 1):  # the top index a_{p-1} is exempt
        rules.append(RewriteRule(mono(u=p - 2, **{f"a{i}": 1}), {}))
    for j in range(1, p):
        rules.append(RewriteRule(mono(u=p - 2, **{f"b{j}": 1}), {}))
    return Presentation(alg, tuple(rules))


# -- derivations ----------------------------------------------------------------


@dataclass(eq=False)
class DerivationSpec:
    """Degree +1 derivation given on generators; missing names map to zero."""

    images: Mapping[str, object]


@dataclass(frozen=True)
class DerivationReport:
    checks: tuple[tuple[str, bool, str], ...]  # (description, ok, residual)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self) -> list[str]:
        return [f"{desc}: residual {res}" for desc, ok, res in self.checks if not ok]


def leibniz_extension(alg: AlgebraSpec, d: DerivationSpec) -> Callable[[TermDict], TermDict]:
    """The derivation d, given on generators, extended to all of alg by the
    graded Leibniz rule (graded_algebra.leibniz) and linearly, as a map on
    term dicts.  Images are not reduced by any rewrite rules."""
    if any(g.kind == "divided" for g in alg.generators):
        raise UnsupportedKind("derivations on divided generators are not modeled")

    atoms: dict[Mono, TermDict] = {}
    for i, g in enumerate(alg.generators):
        terms = alg.dict_from_input(d.images.get(g.name, []))  # type: ignore[arg-type]
        deg = alg.dict_total_degree(terms)
        if deg is not None and deg != g.total_degree + 1:
            raise DegreeMismatch(
                f"sigma({g.name}) has total degree {deg}, expected {g.total_degree + 1}"
            )
        atoms[tuple(int(j == i) for j in range(len(alg.generators)))] = terms

    of_mono = leibniz(alg, atoms)
    return lambda elt: alg.linear(of_mono, elt)


def check_derivation(carrier, d: DerivationSpec) -> DerivationReport:
    """Verify a declared derivation against every relation of the carrier.

    carrier is an AlgebraSpec or a Presentation.  The derivation extends by
    leibniz_extension.  Checks: for every truncated generator g of height h,
    sigma(g^h) = h g^{h-1} sigma(g), read off
    graded_algebra.truncation_residuals, reduces to zero; for every rewrite
    rule, sigma(lhs) - sigma(rhs) reduces to zero.
    """
    alg: AlgebraSpec = getattr(carrier, "algebra", carrier)
    sigma = leibniz_extension(alg, d)

    if hasattr(carrier, "normal_form_dict"):
        reduce = carrier.normal_form_dict
    else:
        reduce = lambda x: x  # noqa: E731 - plain algebras are already normal

    checks: list[tuple[str, bool, str]] = []
    for i, elt in truncation_residuals(alg, lambda m: sigma({m: 1})).items():
        g = alg.generators[i]
        residual = reduce(elt)
        checks.append(
            (f"sigma({g.name}^{g.height}) -> 0", not residual, alg.format_dict(residual))
        )
    for rule, text in zip(carrier.rules, carrier.rule_texts) if hasattr(carrier, "rules") else ():
        residual = reduce(sigma(alg.add_dicts({rule.lhs: 1}, alg.scale_dict(-1, rule.rhs))))
        checks.append((f"sigma compatible with {text}", not residual, alg.format_dict(residual)))
    return DerivationReport(tuple(checks))
