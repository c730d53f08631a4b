"""Bigraded multiplicative spectral-sequence pages over F_p.

A Page is a monomial algebra with bidegrees (filtration s, internal degree
t), optionally extended by labeled module summands (PageLabel) that carry a
degree shift and may or may not admit divided powers of the spec's divided
generators.  Differentials are declared on generators (for divided factors:
on the gamma_{p^i} indecomposables) or on labeled basis elements, extended
to every monomial by the graded Leibniz rule and checked for d.d = 0 term by
term.  The next page is degreewise homology with monomial representatives,
taken per connected component of the support of d (see run_differential).

E-infinity pages are compared against a stated abutment: per-degree totals,
declared multiplicative extensions (filtration drops), and the associated
graded under the filtration assignment, bidegree by bidegree.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .fp_linalg import FpMatrix, map_matrix
from .graded_algebra import (
    AlgebraSpec,
    GradedError,
    Mono,
    TermDict,
    hilbert,
)


class NotADifferential(GradedError):
    """d compose d is nonzero somewhere in the window."""


class BidegreeViolation(GradedError):
    """A rule's target does not sit at source + (-r, r-1)."""


class LeibnizConflict(GradedError):
    """Two factorizations of a monomial force different differential values."""


class FamilyViolation(GradedError):
    """A declared differential family fails at some index k."""


class DimMismatch(GradedError):
    """E-infinity and abutment dimensions disagree."""


class LucasViolation(GradedError):
    """Peeling a divided-power atom gave a coefficient that is not a unit."""


class ConservationViolation(GradedError):
    """A page turn lost a dimension other than the rank of its differential."""


class ExtensionDegreeError(GradedError):
    """An extension rule is degree- or filtration-inconsistent."""


PageKey = tuple[Mono, Optional[int]]  # (spec monomial, label index or None)


@dataclass(frozen=True)
class PageLabel:
    """A module summand label: shifts internal degree, may carry gamma powers."""

    name: str
    shift: int
    allows_gamma: bool = True


@dataclass(eq=False)
class Page:
    spec: AlgebraSpec
    page_index: int
    cap: int
    labels: Optional[tuple[PageLabel, ...]] = None
    survivors: Optional[dict[tuple[int, int], tuple[PageKey, ...]]] = None
    extra_classes: Optional[dict[tuple[int, int], int]] = None

    def __post_init__(self) -> None:
        if self.page_index < 2:
            raise ValueError("pages are indexed from 2")
        if self.labels is not None:
            names = [L.name for L in self.labels]
            if len(set(names)) != len(names):
                raise ValueError("duplicate page labels")
        self._buckets: Optional[dict[tuple[int, int], tuple[PageKey, ...]]] = None

    # raw chain groups are enumerated one degree past the trusted cap so that
    # homology at total degree cap still sees its incoming differential
    @property
    def work_cap(self) -> int:
        return self.cap + 1

    def _gamma_slots(self) -> tuple[int, ...]:
        return tuple(
            i for i, g in enumerate(self.spec.generators) if g.kind == "divided"
        )

    def raw_buckets(self) -> dict[tuple[int, int], tuple[PageKey, ...]]:
        if self._buckets is not None:
            return self._buckets
        buckets: dict[tuple[int, int], list[PageKey]] = {}
        if self.labels is None:
            for m in self.spec.basis(self.work_cap):
                buckets.setdefault(self.spec.bidegree_of(m), []).append((m, None))
        else:
            gamma = self._gamma_slots()
            for li, lab in enumerate(self.labels):
                budget = self.work_cap - lab.shift
                if budget < 0:
                    continue
                for m in self.spec.basis(budget):
                    if not lab.allows_gamma and any(m[i] for i in gamma):
                        continue
                    s, t = self.spec.bidegree_of(m)
                    buckets.setdefault((s, t + lab.shift), []).append((m, li))
        self._buckets = {bd: tuple(sorted(ks)) for bd, ks in buckets.items()}
        return self._buckets

    def keys_at(self, s: int, t: int) -> tuple[PageKey, ...]:
        if self.survivors is not None:
            return self.survivors.get((s, t), ())
        return self.raw_buckets().get((s, t), ())

    def key_bidegree(self, key: PageKey) -> tuple[int, int]:
        m, li = key
        s, t = self.spec.bidegree_of(m)
        if li is not None:
            t += self.labels[li].shift  # type: ignore[index]
        return s, t

    def bigraded_dims(self, cap: Optional[int] = None) -> dict[tuple[int, int], int]:
        cap = self.cap if cap is None else min(cap, self.cap)
        if self.survivors is not None:
            out = {bd: len(ks) for bd, ks in self.survivors.items() if sum(bd) <= cap}
            for bd, n in (self.extra_classes or {}).items():
                if sum(bd) <= cap:
                    out[bd] = out.get(bd, 0) + n
        else:
            out = {
                bd: len(ks)
                for bd, ks in self.raw_buckets().items()
                if sum(bd) <= cap
            }
        return {bd: n for bd, n in out.items() if n}

    def total_dims(self, cap: Optional[int] = None) -> list[int]:
        cap = self.cap if cap is None else min(cap, self.cap)
        out = [0] * (cap + 1)
        for (s, t), n in self.bigraded_dims(cap).items():
            out[s + t] += n
        return out

    def label_index(self, name: str) -> int:
        if self.labels is None:
            raise ValueError("page has no labels")
        for i, lab in enumerate(self.labels):
            if lab.name == name:
                return i
        raise ValueError(f"unknown page label {name!r}")

    def key_from_input(self, source) -> PageKey:
        """Accept a powers mapping, a raw monomial, or (powers, label_name)."""
        label: Optional[int] = None
        if (
            isinstance(source, tuple)
            and len(source) == 2
            and isinstance(source[1], (str, int, type(None)))
            and not isinstance(source[0], int)
        ):
            inner, lab = source
            if isinstance(lab, str):
                label = self.label_index(lab)
            else:
                label = lab
            source = inner
        if isinstance(source, Mapping):
            mono = self.spec.mono_from_names(source)
        else:
            mono = tuple(source)
            if len(mono) != len(self.spec.generators):
                raise ValueError("monomial arity does not match the page spec")
        if label is None and self.labels is not None:
            raise ValueError("labeled page keys need a label name")
        return (mono, label)

    def element_from_input(self, target) -> dict[PageKey, int]:
        """Target input: element input on plain pages, (coeff, powers, label)
        triples or a PageKey dict on labeled pages."""
        p = self.spec.field.p
        if self.labels is None:
            terms = self.spec.dict_from_input(target)
            return {(m, None): c for m, c in terms.items()}
        out: dict[PageKey, int] = {}
        if isinstance(target, dict):
            items = list(target.items())
            for key, c in items:
                key = self.key_from_input(key)
                c %= p
                if c:
                    out[key] = (out.get(key, 0) + c) % p
            return {k: c for k, c in out.items() if c}
        for c, powers, lab in target:
            key = (self.spec.mono_from_names(powers), self.label_index(lab))
            v = (out.get(key, 0) + c) % p
            if v:
                out[key] = v
            elif key in out:
                del out[key]
        return out

    def format_key(self, key: PageKey) -> str:
        m, li = key
        mono = self.spec.format_mono(m)
        if li is None:
            return mono
        name = self.labels[li].name  # type: ignore[index]
        return name if mono == "1" else f"{mono}*{{{name}}}"


@dataclass(eq=False)
class DifferentialRule:
    page: int
    source: object
    target: object
    scalar: int = 1


class _Differential:
    """Leibniz extension of generator-level rules on one page."""

    def __init__(self, page: Page, rules: Sequence[DifferentialRule]):
        self.page = page
        spec = page.spec
        self.p = spec.field.p
        pages = {r.page for r in rules}
        if len(pages) > 1:
            raise ValueError(f"rules span several page indices: {sorted(pages)}")
        self.r = pages.pop() if pages else page.page_index
        if self.r < page.page_index:
            raise ValueError(
                f"rules at page {self.r} cannot run on page {page.page_index}"
            )
        self.rule_map: dict[PageKey, dict[PageKey, int]] = {}
        self._memo: dict[Mono, TermDict] = {}
        gamma = set(page._gamma_slots())
        self.gamma_mask = tuple(int(i in gamma) for i in range(len(spec.generators)))
        for rule in rules:
            if rule.scalar % self.p == 0:
                raise ValueError("rule scalar must be a unit")
            src = page.key_from_input(rule.source)
            tgt = page.element_from_input(rule.target)
            tgt = {k: (c * rule.scalar) % self.p for k, c in tgt.items()}
            tgt = {k: c for k, c in tgt.items() if c}
            self._check_source_shape(src, gamma)
            sb = page.key_bidegree(src)
            want = (sb[0] - self.r, sb[1] + self.r - 1)
            for key in tgt:
                if page.key_bidegree(key) != want:
                    raise BidegreeViolation(
                        f"d{self.r}({page.format_key(src)}) target "
                        f"{page.format_key(key)} not at {want}"
                    )
            if src in self.rule_map and self.rule_map[src] != tgt:
                raise LeibnizConflict(
                    f"source {page.format_key(src)} received two values"
                )
            self.rule_map[src] = tgt

    def _check_source_shape(self, src: PageKey, gamma: set) -> None:
        mono, li = src
        if li is not None:
            # labeled rules are module data on gamma-pure basis elements
            if any(e for i, e in enumerate(mono) if e and i not in gamma):
                raise ValueError(
                    "labeled rule sources must be divided powers times the label"
                )
            return
        slots = [i for i, e in enumerate(mono) if e]
        if len(slots) != 1:
            raise ValueError("plain rule sources must be single generators")
        i = slots[0]
        e = mono[i]
        if i in gamma:
            k = e
            while k % self.p == 0:
                k //= self.p
            if k != 1:
                raise ValueError(
                    "divided-power rule sources must be gamma_{p^i} indecomposables"
                )
        elif e != 1:
            raise ValueError("plain rule sources must be single generators")

    # -- extension ---------------------------------------------------------------

    def _peel(self, mono: Mono) -> tuple[Mono, Mono, int]:
        """First atom, rest, and beta with atom*rest = beta*mono, beta a unit."""
        spec = self.page.spec
        i = next(j for j, e in enumerate(mono) if e)
        g = spec.generators[i]
        n = len(mono)
        if g.kind != "divided":
            atom = tuple(1 if j == i else 0 for j in range(n))
            rest = tuple(e - 1 if j == i else e for j, e in enumerate(mono))
            return atom, rest, 1
        k = mono[i]
        power = 1
        while k % self.p == 0:
            k //= self.p
            power *= self.p
        atom = tuple(power if j == i else 0 for j in range(n))
        rest = tuple(mono[i] - power if j == i else e for j, e in enumerate(mono))
        beta = math.comb(mono[i], power) % self.p
        if not beta:  # lowest nonzero digit, a unit by Lucas
            raise LucasViolation(f"C({mono[i]}, {power}) = 0 mod {self.p}")
        return atom, rest, beta

    def _is_atom(self, mono: Mono) -> bool:
        slots = [i for i, e in enumerate(mono) if e]
        if len(slots) != 1:
            return not slots  # the unit monomial counts
        i = slots[0]
        if self.page.spec.generators[i].kind != "divided":
            return mono[i] == 1
        k = mono[i]
        while k % self.p == 0:
            k //= self.p
        return k == 1

    def of_mono(self, mono: Mono) -> TermDict:
        """Differential of a plain monomial, as a dict over the spec."""
        memo = self._memo
        if mono in memo:
            return memo[mono]
        spec = self.page.spec
        if self._is_atom(mono):
            val = {m: c for (m, _), c in self.rule_map.get((mono, None), {}).items()}
            memo[mono] = val
            return val
        atom, rest, beta = self._peel(mono)
        d_atom = self.of_mono(atom)
        d_rest = self.of_mono(rest)
        left = spec.mul_dicts(d_atom, {rest: 1})
        right = spec.mul_dicts({atom: 1}, d_rest)
        sign = -1 if spec.total_degree_of(atom) % 2 else 1
        val = spec.add_dicts(left, spec.scale_dict(sign, right))
        val = spec.scale_dict(pow(beta, -1, self.p), val)
        memo[mono] = val
        return val

    def of_key(self, key: PageKey) -> dict[PageKey, int]:
        mono, li = key
        spec = self.page.spec
        if li is None:
            return {(m, None): c for m, c in self.of_mono(mono).items()}
        gpart = tuple(map(operator.mul, mono, self.gamma_mask))
        rule = self.rule_map.get((gpart, li))
        if not rule:
            return {}
        cpart = tuple(map(operator.sub, mono, gpart))
        sign = -1 if spec.total_degree_of(cpart) % 2 else 1
        out: dict[PageKey, int] = {}
        for (tm, tli), c in rule.items():
            prod = spec.mono_mul(cpart, tm)
            if prod is not None:
                key = (prod[1], tli)
                out[key] = (out.get(key, 0) + sign * c * prod[0]) % self.p
        return {k: v for k, v in out.items() if v}

    # -- entries -----------------------------------------------------------------

    def entries(self) -> tuple[dict[PageKey, dict[PageKey, int]], dict[PageKey, tuple[int, int]]]:
        """d of every raw key with a nonzero image, and every key's bidegree;
        d must stay in its lane, then square to zero term by term."""
        page, r, p = self.page, self.r, self.p
        where = {k: bd for bd, ks in page.raw_buckets().items() for k in ks}
        d: dict[PageKey, dict[PageKey, int]] = {}
        for key, (s, t) in where.items():
            val = self.of_key(key)
            if val:
                if any(where.get(k) != (s - r, t + r - 1) for k in val):
                    raise BidegreeViolation(f"d({page.format_key(key)}) leaves its bidegree lane")
                d[key] = val
        for key, img in d.items():
            dd: dict[PageKey, int] = {}
            for b, c in img.items():
                for k, c2 in d.get(b, {}).items():
                    dd[k] = (dd.get(k, 0) + c * c2) % p
            if any(dd.values()):
                raise NotADifferential(f"d.d != 0 out of bidegree {where[key]} on page {r}")
        return d, where

    def check_leibniz_samples(self, samples: int = 1500) -> None:
        """Product rule on sampled monomial pairs (plain pages only)."""
        page = self.page
        if page.labels is not None:
            return
        spec = page.spec
        monos = [k[0] for ks in page.raw_buckets().values() for k in ks]
        if not monos:
            return
        rng = random.Random(97 + self.r)
        pairs: list[tuple[Mono, Mono]] = []
        if len(monos) * len(monos) <= samples:
            pairs = [(a, b) for a in monos for b in monos]
        else:
            pairs = [(rng.choice(monos), rng.choice(monos)) for _ in range(samples)]
        for m1, m2 in pairs:
            prod = spec.mono_mul(m1, m2)
            lhs = (
                spec.scale_dict(prod[0], self.of_mono(prod[1]))
                if prod is not None
                else {}
            )
            sign = -1 if spec.total_degree_of(m1) % 2 else 1
            rhs = spec.add_dicts(
                spec.mul_dicts(self.of_mono(m1), {m2: 1}),
                spec.scale_dict(sign, spec.mul_dicts({m1: 1}, self.of_mono(m2))),
            )
            if lhs != rhs:
                raise LeibnizConflict(
                    f"Leibniz fails on {spec.format_mono(m1)} * {spec.format_mono(m2)}"
                )


def run_differential(page: Page, rules: Sequence[DifferentialRule]) -> Page:
    """Extend rules by Leibniz, verify d.d = 0, and turn the page.

    With no rules the next page has the same groups.  Rules may sit at a
    page index above page.page_index (the pages in between turn trivially);
    the result's index is one past the rules' page.  Survivor bases prefer
    monomial representatives; classes with no monomial cycle representative
    are counted in extra_classes.

    Rank and homology split over the connected components of d's support,
    so the page turns component by component: a component of one entry
    a -> b has rank 1 and removes a as a non-cycle and b as a boundary, a
    key in no entry survives, and only the components with more than one
    entry are eliminated, bidegree by bidegree.
    """
    if not rules:
        return Page(
            spec=page.spec,
            page_index=page.page_index + 1,
            cap=page.cap,
            labels=page.labels,
            survivors=page.survivors,
            extra_classes=page.extra_classes,
        )
    if page.survivors is not None:
        raise ValueError("differentials run on freshly declared pages only")
    diff = _Differential(page, rules)
    d, where = diff.entries()
    diff.check_leibniz_samples()

    root: dict[PageKey, PageKey] = {}  # union-find over the entries of d

    def find(k: PageKey) -> PageKey:
        while root[k] != k:
            root[k] = k = root[root[k]]
        return k

    for a, img in d.items():
        for b in img:
            root[find(root.setdefault(b, b))] = find(root.setdefault(a, a))
    comps: dict[PageKey, list[PageKey]] = {}
    for k in root:
        comps.setdefault(find(k), []).append(k)
    field, r = page.spec.field, diff.r
    rank: dict[tuple[int, int], int] = {}
    dense: dict[tuple[int, int], list[PageKey]] = {}  # keys of the larger components
    for keys in comps.values():
        if len(keys) == 2:  # one entry: its source, r filtrations up, is no cycle
            bd = max(where[k] for k in keys)
            rank[bd] = rank.get(bd, 0) + 1
    for k in sorted(k for keys in comps.values() if len(keys) > 2 for k in keys):
        dense.setdefault(where[k], []).append(k)  # in bucket key order
    mats: dict[tuple[int, int], FpMatrix] = {}
    for (s, t), ks in dense.items():
        rows = {k: i for i, k in enumerate(dense.get((s - r, t + r - 1), ()))}
        mats[(s, t)] = map_matrix(field, ks, rows, lambda k: d.get(k, {}))
        rank[(s, t)] = rank.get((s, t), 0) + mats[(s, t)].rank()

    survivors: dict[tuple[int, int], tuple[PageKey, ...]] = {}
    extra: dict[tuple[int, int], int] = {}
    for (s, t), keys in page.raw_buckets().items():
        if s + t > page.cap:
            continue
        dim_h = len(keys) - rank.get((s, t), 0) - rank.get((s + r, t - r + 1), 0)
        if dim_h < 0:
            raise NotADifferential(f"negative homology at {(s, t)}")
        chosen = [k for k in keys if k not in root]
        if (s, t) in mats:
            # a monomial cycle survives when it is outside the span of the
            # boundaries and the cycles before it: exactly the pivot columns
            # of [boundaries | unit columns of the cycles] past the boundaries
            ks, in_m = dense[(s, t)], mats.get((s + r, t - r + 1))
            cycles = np.flatnonzero(~mats[(s, t)].data.any(axis=0))
            bounds = in_m.data if in_m is not None else np.zeros((len(ks), 0), np.int64)
            units = np.eye(len(ks), dtype=np.int64)[:, cycles]
            _, pivots = FpMatrix(field, np.hstack([bounds, units])).rref()
            nb = bounds.shape[1]
            chosen = sorted(chosen + [ks[cycles[c - nb]] for c in pivots if c >= nb])
        if len(chosen) < dim_h:
            extra[(s, t)] = dim_h - len(chosen)
        if chosen:
            survivors[(s, t)] = tuple(chosen)

    next_page = Page(
        spec=page.spec,
        page_index=r + 1,
        cap=page.cap,
        labels=page.labels,
        survivors=survivors,
        extra_classes=extra or None,
    )
    # charge conservation: what one page loses is exactly the rank of d
    old = page.total_dims()
    new = next_page.total_dims()
    rank_from: dict[int, int] = {}
    for (s, t), n in rank.items():
        rank_from[s + t] = rank_from.get(s + t, 0) + n
    for n in range(page.cap + 1):
        drop = rank_from.get(n, 0) + rank_from.get(n + 1, 0)
        if old[n] - new[n] != drop:
            raise ConservationViolation(f"homology accounting failed at degree {n}")
    return next_page


def possible_differentials(
    page: Page, max_page: int, cap: Optional[int] = None
) -> list[tuple[int, tuple[int, int]]]:
    """Bidegrees where a later differential could still be nonzero (weak check)."""
    cap = page.cap if cap is None else min(cap, page.cap)
    dims = page.bigraded_dims(cap)
    out = []
    # filtrations are nonnegative, so a d_r with r > cap has no target here
    for r in range(page.page_index, min(max_page, cap) + 1):
        for (s, t), n in sorted(dims.items()):
            if n and dims.get((s - r, t + r - 1), 0):
                out.append((r, (s, t)))
    return out


# -- rule families ----------------------------------------------------------------


@dataclass(eq=False)
class RuleFamily:
    """d(gamma_k . source_label) = scalar . cofactor . gamma_{k-step} . target_label."""

    gamma_gen: str
    step: int
    ks: Sequence[int]
    cofactor: object = None  # element input over the page spec; None = unit
    source_label: Optional[str] = None
    target_label: Optional[str] = None


@dataclass(frozen=True)
class FamilyReport:
    scalars: tuple[tuple[int, int], ...]

    def scalar_map(self) -> dict[int, int]:
        return dict(self.scalars)


def verify_rule_family(
    page: Page, rules: Sequence[DifferentialRule], family: RuleFamily
) -> FamilyReport:
    """Confirm every k in family.ks maps by a NONZERO scalar onto the stated
    target (scalar 0 for k below the step); report the scalars."""
    spec = page.spec
    p = spec.field.p
    diff = _Differential(page, rules)
    slot = spec.index_of(family.gamma_gen)
    n = len(spec.generators)
    if family.cofactor is None:
        cof: TermDict = {spec.unit: 1}
    else:
        cof = spec.dict_from_input(family.cofactor)  # type: ignore[arg-type]
    sli = page.label_index(family.source_label) if family.source_label else None
    tli = page.label_index(family.target_label) if family.target_label else None

    scalars: list[tuple[int, int]] = []
    for k in family.ks:
        src = (tuple(k if j == slot else 0 for j in range(n)), sli)
        val = diff.of_key(src)
        if k < family.step:
            if val:
                raise FamilyViolation(
                    f"k={k}: expected no differential, got "
                    + _format_page_dict(page, val)
                )
            scalars.append((k, 0))
            continue
        low = tuple(k - family.step if j == slot else 0 for j in range(n))
        expected = {
            (m, tli): c for m, c in spec.mul_dicts(cof, {low: 1}).items()
        }
        if not val:
            raise FamilyViolation(f"k={k}: differential vanishes")
        if not expected:
            raise FamilyViolation(
                f"k={k}: target pattern truncates to zero but d is "
                + _format_page_dict(page, val)
            )
        probe = next(iter(expected))
        c = val.get(probe, 0)
        scaled = {key: (c * coeff) % p for key, coeff in expected.items()}
        scaled = {key: coeff for key, coeff in scaled.items() if coeff}
        if c == 0 or val != scaled:
            raise FamilyViolation(
                f"k={k}: computed " + _format_page_dict(page, val)
            )
        scalars.append((k, c))
    return FamilyReport(tuple(scalars))


def _format_page_dict(page: Page, val: dict[PageKey, int]) -> str:
    if not val:
        return "0"
    return " + ".join(
        page.format_key(k) if c == 1 else f"{c}*{page.format_key(k)}"
        for k, c in sorted(val.items())
    )


# -- abutment comparison ------------------------------------------------------------


@dataclass(eq=False)
class AbutmentSpec:
    target: AlgebraSpec
    filtration_assignment: Mapping[str, int]

    def __post_init__(self) -> None:
        for g in self.target.generators:
            if g.filtration != 0:
                raise ValueError("abutment algebras are singly graded")
            if g.name not in self.filtration_assignment:
                raise ValueError(f"no filtration assigned to {g.name}")
            fil = self.filtration_assignment[g.name]
            if not 0 <= fil <= g.degree:
                raise ValueError(f"filtration of {g.name} out of range")

    def naive_filtration(self, mono: Mono) -> int:
        return sum(
            e * self.filtration_assignment[g.name]
            for e, g in zip(mono, self.target.generators)
        )


@dataclass(eq=False)
class ExtensionRule:
    einfty_monomial: object  # page key input: the true low-filtration representative
    abutment_element: object  # element input over the abutment target
    scalar: int = 1


@dataclass(frozen=True)
class AbutmentReport:
    degrees: tuple[tuple[int, int], ...]  # (total degree, shared dimension)
    extension_drops: tuple[tuple[str, int], ...]
    bidegree_counts: tuple[tuple[tuple[int, int], int], ...]

    def max_degree(self) -> int:
        return max((n for n, _ in self.degrees), default=-1)


def default_representative(
    einfty: Page, abutment: AbutmentSpec, extensions: Sequence[ExtensionRule]
) -> Callable[[Mono], PageKey]:
    """Exponent-arithmetic representatives: each abutment generator maps to
    the unique page key in its assigned bidegree, and every extension rule
    rewrites (greedily, in order) a power of its abutment monomial into the
    declared low-filtration key.  Coefficients are deliberately ignored: the
    associated graded only needs the monomial."""
    if einfty.labels is not None:
        raise ValueError("labeled pages need an explicit representative function")
    spec = einfty.spec
    n = len(spec.generators)
    target = abutment.target

    gen_keys: list[Mono] = []
    for g in target.generators:
        s = abutment.filtration_assignment[g.name]
        bd = (s, g.degree - s)
        candidates = einfty.keys_at(*bd)
        if len(candidates) != 1:
            raise ValueError(
                f"{len(candidates)} candidate representatives for {g.name} at {bd};"
                " pass a representative function"
            )
        gen_keys.append(candidates[0][0])

    rewrites: list[tuple[Mono, Mono]] = []
    for rule in extensions:
        elt = target.dict_from_input(rule.abutment_element)  # type: ignore[arg-type]
        if len(elt) != 1:
            continue  # multi-term rules carry no monomial rewrite
        (abut_mono,) = elt
        key = einfty.key_from_input(rule.einfty_monomial)
        rewrites.append((abut_mono, key[0]))

    def rep(mono: Mono) -> PageKey:
        acc = [0] * n
        work = list(mono)
        for abut_mono, key_mono in rewrites:
            while all(w >= a for w, a in zip(work, abut_mono)):
                work = [w - a for w, a in zip(work, abut_mono)]
                acc = [x + y for x, y in zip(acc, key_mono)]
        for i, e in enumerate(work):
            if e:
                acc = [x + e * y for x, y in zip(acc, gen_keys[i])]
        return (tuple(acc), None)

    return rep


def compare_abutment(
    einfty: Page,
    abutment: AbutmentSpec,
    extensions: Sequence[ExtensionRule],
    cap: int,
    representative: Optional[Callable[[Mono], PageKey]] = None,
) -> AbutmentReport:
    """Three checks: (i) per-degree totals agree; (ii) every extension rule is
    degree-consistent and drops filtration; (iii) the abutment's associated
    graded matches the page bidegree-wise, certified by a monomial bijection.

    Raises DimMismatch at the first failing degree or bidegree, and
    ExtensionDegreeError for a bad rule.  Returns the matched table.
    """
    if cap > einfty.cap:
        raise ValueError(f"cap {cap} exceeds the page's trusted window {einfty.cap}")
    target = abutment.target
    if target.field != einfty.spec.field:
        raise ValueError("page and abutment live over different fields")

    # (ii) extensions
    drops: list[tuple[str, int]] = []
    for rule in extensions:
        if rule.scalar % target.field.p == 0:
            raise ExtensionDegreeError("extension scalar must be a unit")
        key = einfty.key_from_input(rule.einfty_monomial)
        elt = target.dict_from_input(rule.abutment_element)  # type: ignore[arg-type]
        if not elt:
            raise ExtensionDegreeError("extension abutment element is zero")
        deg = target.dict_total_degree(elt)
        s, t = einfty.key_bidegree(key)
        if s + t != deg:
            raise ExtensionDegreeError(
                f"extension {einfty.format_key(key)} has degree {s + t}, "
                f"abutment side has {deg}"
            )
        fils = {abutment.naive_filtration(m) for m in elt}
        if len(fils) > 1:
            raise ExtensionDegreeError("extension element mixes filtrations")
        drop = fils.pop() - s
        if drop <= 0:
            raise ExtensionDegreeError(
                f"extension {einfty.format_key(key)} does not drop filtration"
            )
        drops.append((einfty.format_key(key), drop))

    # (i) totals
    page_dims = einfty.total_dims(cap)
    abut_dims = hilbert(target, cap)
    for n in range(cap + 1):
        if page_dims[n] != abut_dims[n]:
            raise DimMismatch(
                f"total degree {n}: page has {page_dims[n]}, abutment has {abut_dims[n]}"
            )

    # (iii) associated graded via representatives
    if (einfty.extra_classes or {}) and any(
        sum(bd) <= cap for bd in einfty.extra_classes  # type: ignore[union-attr]
    ):
        raise DimMismatch(
            "page has non-monomial classes in the window; bijection not certified"
        )
    rep = representative or default_representative(einfty, abutment, extensions)
    mapped: dict[tuple[int, int], set[PageKey]] = {}
    basis = target.basis_by_degree(cap)
    for nn in range(cap + 1):
        for mono in basis[nn]:
            key = rep(mono)
            bd = einfty.key_bidegree(key)
            if sum(bd) != nn:
                raise DimMismatch(
                    f"representative of {target.format_mono(mono)} sits in total "
                    f"degree {sum(bd)}, not {nn}"
                )
            if key not in einfty.keys_at(*bd):
                raise DimMismatch(
                    f"representative {einfty.format_key(key)} of "
                    f"{target.format_mono(mono)} is not a surviving basis key"
                )
            bucket = mapped.setdefault(bd, set())
            if key in bucket:
                raise DimMismatch(
                    f"two abutment monomials share the representative "
                    f"{einfty.format_key(key)}"
                )
            bucket.add(key)
    dims = einfty.bigraded_dims(cap)
    for bd, n in dims.items():
        if len(mapped.get(bd, ())) != n:
            raise DimMismatch(
                f"bidegree {bd}: page dim {n}, associated graded supplies "
                f"{len(mapped.get(bd, ()))}"
            )
    for bd in mapped:
        if bd not in dims:
            raise DimMismatch(f"bidegree {bd}: abutment maps into an empty lane")

    return AbutmentReport(
        degrees=tuple((n, page_dims[n]) for n in range(cap + 1)),
        extension_drops=tuple(drops),
        bidegree_counts=tuple(sorted((bd, n) for bd, n in dims.items())),
    )
