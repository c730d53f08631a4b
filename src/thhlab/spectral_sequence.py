"""Bigraded multiplicative spectral-sequence pages over F_p.

A Page is a monomial algebra with bidegrees (filtration s, internal degree
t), optionally extended by labeled module summands (PageLabel) that carry a
degree shift and may or may not admit divided powers of the spec's divided
generators.  Differentials are declared on generators (for divided factors:
on the gamma_{p^i} indecomposables) or on labeled basis elements, extended
to every plain monomial by graded_algebra.leibniz, the one graded Leibniz
rule the library has, and checked for d.d = 0 term by term.  On a plain
page the extension must also be a derivation as far as the window sees,
which graded_algebra.truncation_residuals decides exactly.  The next page
is degreewise homology with monomial representatives, which
fp_linalg.sparse_homology takes per connected component of the support of d.

A turn pays per nonzero entry of d, not per basis key: leibniz works slot
by slot, keys of labels without rules are skipped, a matching support
splits in one pass, and a page counts its totals once.

E-infinity pages are compared against a stated abutment: per-degree totals,
declared multiplicative extensions (filtration drops), and the associated
graded under the filtration assignment, bidegree by bidegree.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from .fp_linalg import sparse_homology
from .graded_algebra import (
    AlgebraSpec,
    GradedError,
    LucasViolation,  # raised by the Leibniz extension; importable from here too
    Mono,
    TermDict,
    _p_power_part,
    hilbert,
    leibniz,
    truncation_residuals,
)


class NotADifferential(GradedError):
    """d compose d is nonzero somewhere in the window."""


class BidegreeViolation(GradedError):
    """A rule's target does not sit at source + (-r, r-1)."""


class LeibnizConflict(GradedError):
    """The declared rules extend to no derivation of the page algebra."""


class FamilyViolation(GradedError):
    """A declared differential family fails at some index k."""


class DimMismatch(GradedError):
    """E-infinity and abutment dimensions disagree."""


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
        self._label_at = {L.name: i for i, L in enumerate(self.labels or ())}
        if self.labels is not None and len(self._label_at) != len(self.labels):
            raise ValueError("duplicate page labels")
        self._buckets: Optional[dict[tuple[int, int], tuple[PageKey, ...]]] = None
        self._totals: Optional[list[int]] = None
        self._gamma = tuple(i for i, g in enumerate(self.spec.generators) if g.kind == "divided")

    # raw chain groups are enumerated one degree past the trusted cap so that
    # homology at total degree cap still sees its incoming differential
    @property
    def work_cap(self) -> int:
        return self.cap + 1

    def raw_buckets(self) -> dict[tuple[int, int], tuple[PageKey, ...]]:
        """The page's keys by bidegree, from one walk of the spec at work_cap:
        a label of shift d takes the monomials of degree <= work_cap - d.
        Labels are visited by shift, so each monomial stops at the first label
        it no longer fits; every bucket is sorted at the end."""
        if self._buckets is not None:
            return self._buckets
        if self.labels is None:
            labels = [(None, 0, True)]
        else:
            labels = sorted(((li, lab.shift, lab.allows_gamma)
                             for li, lab in enumerate(self.labels)), key=operator.itemgetter(1))
        gamma = self._gamma
        work_cap = self.work_cap
        buckets: dict[tuple[int, int], list[PageKey]] = {}
        for n, monos in self.spec.basis_by_degree(work_cap).items():
            for m in monos:
                s, t = self.spec.bidegree_of(m)
                plain = not any(m[i] for i in gamma)
                for li, shift, allows_gamma in labels:
                    if n + shift > work_cap:
                        break
                    if allows_gamma or plain:
                        buckets.setdefault((s, t + shift), []).append((m, li))
        self._buckets = {bd: tuple(sorted(ks)) for bd, ks in buckets.items()}
        return self._buckets

    def _table(self) -> dict[tuple[int, int], tuple[PageKey, ...]]:
        """The keys by bidegree: survivors once turned, else the raw buckets."""
        return self.raw_buckets() if self.survivors is None else self.survivors

    def keys_at(self, s: int, t: int) -> tuple[PageKey, ...]:
        return self._table().get((s, t), ())

    def key_bidegree(self, key: PageKey) -> tuple[int, int]:
        m, li = key
        s, t = self.spec.bidegree_of(m)
        if li is not None:
            t += self.labels[li].shift  # type: ignore[index]
        return s, t

    def bigraded_dims(self, cap: Optional[int] = None) -> dict[tuple[int, int], int]:
        cap = self.cap if cap is None else min(cap, self.cap)
        out = {bd: len(ks) for bd, ks in self._table().items() if sum(bd) <= cap}
        for bd, n in (self.extra_classes or {}).items():
            if sum(bd) <= cap:
                out[bd] = out.get(bd, 0) + n
        for bd in [bd for bd, n in out.items() if not n]:  # in place: one dict, not a copy
            del out[bd]
        return out

    def total_dims(self, cap: Optional[int] = None) -> list[int]:
        """Dimensions by total degree 0..cap, counted once per page from the
        key table (no bigraded_dims dict); a smaller cap is a prefix.  Every
        key has nonnegative total degree: tor_engine rejects negative
        summand shifts before it builds the page labels."""
        if self._totals is None:
            self._totals = [0] * (self.cap + 1)
            counts = ((bd, len(ks)) for bd, ks in self._table().items())
            for (s, t), n in itertools.chain(counts, (self.extra_classes or {}).items()):
                if s + t <= self.cap:
                    self._totals[s + t] += n
        cap = self.cap if cap is None else min(cap, self.cap)
        return self._totals[:max(cap + 1, 0)]

    def label_index(self, name: str) -> int:
        if self.labels is None:
            raise ValueError("page has no labels")
        try:
            return self._label_at[name]
        except KeyError:
            raise ValueError(f"unknown page label {name!r}") from None

    def key_from_input(self, source) -> PageKey:
        """Accept a powers mapping on a plain page, or (powers, label) on a
        labeled one, the label a name or an index into labels.  Any other
        shape is a ValueError."""
        if isinstance(source, Mapping):
            if self.labels is not None:
                raise ValueError("labeled page keys need a label name")
            return (self.spec.mono_from_names(source), None)
        if not (isinstance(source, tuple) and len(source) == 2 and isinstance(source[0], Mapping)):
            raise ValueError(f"page key input must be powers or (powers, label), not {source!r}")
        powers, lab = source
        if isinstance(lab, str):
            label = self.label_index(lab)
        elif isinstance(lab, int) and 0 <= lab < len(self.labels or ()):
            label = lab
        else:
            raise ValueError(f"page label {lab!r} is not a label index of this page")
        return (self.spec.mono_from_names(powers), label)

    def element_from_input(self, target) -> dict[PageKey, int]:
        """Target input: element input on plain pages, (coeff, powers, label)
        triples on labeled pages."""
        p = self.spec.field.p
        if self.labels is None:
            terms = self.spec.dict_from_input(target)
            return {(m, None): c for m, c in terms.items()}
        out: dict[PageKey, int] = {}
        for term in target:
            if not (isinstance(term, tuple) and len(term) == 3 and isinstance(term[1], Mapping)):
                raise ValueError(f"labeled page terms must be (coeff, powers, label), not {term!r}")
            c, powers, lab = term
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
        gamma = set(page._gamma)
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
        self.ruled_labels = {li for (_, li), tgt in self.rule_map.items() if tgt}
        # the differential of a plain monomial, as a dict over the spec
        self.of_mono = leibniz(spec, {
            mono: {m: c for (m, _), c in tgt.items()}
            for (mono, li), tgt in self.rule_map.items() if li is None
        })

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
            if _p_power_part(e, self.p)[1] != 1:
                raise ValueError(
                    "divided-power rule sources must be gamma_{p^i} indecomposables"
                )
        elif e != 1:
            raise ValueError("plain rule sources must be single generators")

    # -- extension ---------------------------------------------------------------

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
        d must stay in its lane, then square to zero term by term.  A key
        whose label carries no rule has d = 0 (of_key), so it is skipped."""
        page, r, ruled = self.page, self.r, self.ruled_labels
        where = {k: bd for bd, ks in page.raw_buckets().items() for k in ks}
        d: dict[PageKey, dict[PageKey, int]] = {}
        for key, (s, t) in where.items():
            if key[1] is not None and key[1] not in ruled:
                continue
            val = self.of_key(key)
            if val:
                if any(where.get(k) != (s - r, t + r - 1) for k in val):
                    raise BidegreeViolation(f"d({page.format_key(key)}) leaves its bidegree lane")
                d[key] = val
        for key, img in d.items():
            if page.spec.linear(lambda b: d.get(b, {}), img):
                raise NotADifferential(f"d.d != 0 out of bidegree {where[key]} on page {r}")
        return d, where


def run_differential(page: Page, rules: Sequence[DifferentialRule]) -> Page:
    """Extend rules by Leibniz, verify a derivation with d.d = 0, and turn the page.

    With no rules the next page has the same groups.  Rules may sit at a
    page index above page.page_index (the pages in between turn trivially);
    the result's index is one past the rules' page.  Survivor bases prefer
    monomial representatives; classes with no monomial cycle representative
    are counted in extra_classes.

    fp_linalg.sparse_homology, which map_rank calls too, turns the page
    component by component of d's support: it returns the rank of d out of
    each bidegree and the keys that die, and every other key survives.  A
    component of one entry a -> b has rank 1 and removes a as a non-cycle
    and b as a boundary; only the larger components are eliminated.
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
    # plain pages: the Leibniz extension is a derivation unless a truncation
    # residual survives, and a pair g^a * g^b that fails has a + b = h, so
    # the window sees a failure once g^ceil(h/2) fits
    spec = page.spec
    residuals = truncation_residuals(spec, diff.of_mono) if page.labels is None else {}
    for i, residual in residuals.items():
        g = spec.generators[i]
        h = g.height or 0
        if residual and (h + 1) // 2 * g.total_degree <= page.work_cap:
            lo, hi = (spec.format_mono(spec.mono_from_names({g.name: e})) for e in (h // 2, (h + 1) // 2))
            raise LeibnizConflict(f"Leibniz fails on {lo} * {hi}")

    rank, dead = sparse_homology(spec.field, d, where.__getitem__)
    r = diff.r
    survivors: dict[tuple[int, int], tuple[PageKey, ...]] = {}
    extra: dict[tuple[int, int], int] = {}
    for (s, t), keys in page.raw_buckets().items():
        if s + t > page.cap:
            continue
        dim_h = len(keys) - rank.get((s, t), 0) - rank.get((s + r, t - r + 1), 0)
        if dim_h < 0:
            raise NotADifferential(f"negative homology at {(s, t)}")
        chosen = [k for k in keys if k not in dead]
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
