"""Bigraded multiplicative spectral-sequence pages over F_p.

A Page is a monomial algebra with bidegrees (filtration s, internal degree
t), optionally extended by labeled module summands (PageLabel) that carry a
degree shift and may or may not admit divided powers of the spec's divided
generators.  Differentials are declared on generators (for divided factors:
on the gamma_{p^i} indecomposables) or on labeled basis elements, extended
to every plain monomial by the graded_algebra.leibniz evaluator, the one
graded Leibniz rule the library has, which gives d of every row of an
exponent matrix in one call, and checked for d.d = 0 term by term.  On a plain
page the extension must also be a derivation as far as the window sees,
which graded_algebra.truncation_residuals decides exactly.  The next page
is degreewise homology with monomial representatives, which
fp_linalg.sparse_homology takes per connected component of the support of d.

A page holds its keys in a key_arrays.KeyTable, as int64 arrays with one
entry per key: the row of its monomial among the exponent rows of one
basis walk (AlgebraSpec.basis_rows), its label (-1 on a plain page), and
its bidegree s, t, which one matrix
product with the generators' degrees gives, plain pages and labeled ones
alike.  The buckets, one per bidegree in the order the walk first reaches
it, come from one stable argsort as arrays of bidegrees and sizes.
Bigraded dimensions are bucket sizes and totals an integer bincount of
s + t, so a page that is only counted is never sorted; one stable sort
puts the keys in bucket order, each bucket in the order of its (monomial,
label) tuples, and those tuples of PageKey are built bucket by bucket,
only when raw_buckets, survivors or keys_at is read.

A turn first puts every rule in one table of arrays, in declaration
order: explicit rules from their parsed keys and term dicts, a RuleFamily
one row per member by array arithmetic, with no per-member objects.  One
pass over the table checks the lane of every target term and one finds a
source declared twice.  d is then evaluated on exponent arrays in
key_arrays' encoding, one row per term: on a plain page by one call of
the Leibniz evaluator on every key's row, on a labeled page per key whose
gamma part and label are a source of the table (KeyTable.matching) and
term of that rule's target, every product by one AlgebraSpec.mul_rows.
One sorted search over the key table codes every target, and
key_arrays.nonzero_sums sums the terms of one source on one target mod p;
each sum must stay in its lane.  verify_rule_family reads d of a family's
members the same way: one evaluator call on a plain page, the rule table,
families among the rules included, on a labeled one.
When d is a partial matching, as every catalogued turn is, the rank out of each
bucket and the keys that die are read off the arrays; any other d goes to
sparse_homology on key positions graded by bucket.  The next page keeps
its survivors as a mask of the arrays.

E-infinity pages are compared against a stated abutment: per-degree totals,
declared multiplicative extensions (filtration drops), and the associated
graded under the filtration assignment, bidegree by bidegree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

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
from .key_arrays import (KeyTable, PageKey, RowFinder, _lookup, csr_terms, key_rows, lex_ids,
                         mono_rows, nonzero_sums, term_arrays, term_dicts)


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


@dataclass(frozen=True)
class PageLabel:
    """A module summand label: shifts internal degree, may carry gamma powers."""

    name: str
    shift: int
    allows_gamma: bool = True

    def __post_init__(self) -> None:
        if self.shift < 0:
            raise ValueError(f"page label {self.name!r} has negative shift")


class Page:
    """One page of a spectral sequence, up to total degree cap.

    A freshly declared page holds the raw keys of spec and labels, enumerated
    to work_cap; run_differential returns the next page, which holds the
    surviving keys up to cap and counts in extra_classes the classes that
    have no monomial representative.  survivors may also be given, as
    {bidegree: keys} in table order."""

    def __init__(self, spec: AlgebraSpec, page_index: int, cap: int,
                 labels: Optional[tuple[PageLabel, ...]] = None,
                 survivors: Optional[Mapping[tuple[int, int], tuple[PageKey, ...]]] = None,
                 extra_classes: Optional[dict[tuple[int, int], int]] = None):
        if page_index < 2:
            raise ValueError("pages are indexed from 2")
        self.spec, self.page_index, self.cap = spec, page_index, cap
        self.labels, self.extra_classes = labels, extra_classes
        self._label_at = {L.name: i for i, L in enumerate(labels or ())}
        if labels is not None and len(self._label_at) != len(labels):
            raise ValueError("duplicate page labels")
        self._gamma: tuple[int, ...] = spec._divided_slots  # type: ignore[attr-defined]
        self._raw = survivors is None
        self._keys = (None if survivors is None
                      else KeyTable.from_buckets(survivors, len(spec.generators)))
        self._decoded: dict[tuple[int, int], tuple[PageKey, ...]] = {}
        self._totals: Optional[list[int]] = None

    # raw chain groups are enumerated one degree past the trusted cap so that
    # homology at total degree cap still sees its incoming differential
    @property
    def work_cap(self) -> int:
        return self.cap + 1

    def _table(self, sort: bool = True) -> KeyTable:
        """The key table: the raw walk until the page is turned.  sort=False
        may leave a fresh walk in walk order, which is enough to count."""
        if self._keys is None:
            self._keys = KeyTable.walk(self.spec, self.labels, self.work_cap)
        return self._keys.sort() if sort else self._keys

    def raw_buckets(self) -> dict[tuple[int, int], tuple[PageKey, ...]]:
        """The raw keys by bidegree, each bucket sorted, the bidegrees in the
        order the walk at work_cap first reaches them (KeyTable.walk)."""
        if not self._raw:
            return Page(self.spec, self.page_index, self.cap, self.labels).raw_buckets()
        return self._buckets()

    @property
    def survivors(self) -> Optional[dict[tuple[int, int], tuple[PageKey, ...]]]:
        """The surviving keys by bidegree on a turned page, None on a raw one."""
        return None if self._raw else self._buckets()

    def _buckets(self) -> dict[tuple[int, int], tuple[PageKey, ...]]:
        table = self._table()
        return {bd: self._keys_of(bd, b) for b, bd in enumerate(table.bidegrees)}

    def keys_at(self, s: int, t: int) -> tuple[PageKey, ...]:
        """The keys at (s, t): the survivors once turned, else the raw keys."""
        return self.keys_on([s], [t])[0]

    def keys_on(self, s: Sequence[int], t: Sequence[int]) -> list[tuple[PageKey, ...]]:
        """The keys at each bidegree (s[i], t[i]), as keys_at reads them,
        with the buckets found by one KeyTable.bucket_of."""
        s_arr, t_arr = np.array(s, dtype=np.int64), np.array(t, dtype=np.int64)
        buckets = self._table().bucket_of(s_arr, t_arr).tolist()
        return [() if b < 0 else self._keys_of(bd, b)
                for bd, b in zip(zip(s_arr.tolist(), t_arr.tolist()), buckets)]

    def _keys_of(self, bd: tuple[int, int], b: int) -> tuple[PageKey, ...]:
        """The keys of bucket b, at bd, decoded once."""
        if bd not in self._decoded:
            self._decoded[bd] = self._table().keys(b)
        return self._decoded[bd]

    def key_bidegree(self, key: PageKey) -> tuple[int, int]:
        m, li = key
        s, t = self.spec.bidegree_of(m)
        if li is not None:
            t += self.labels[li].shift  # type: ignore[index]
        return s, t

    def bigraded_dims(self, cap: Optional[int] = None) -> dict[tuple[int, int], int]:
        """Dimensions by bidegree up to total degree cap, in table order, then
        the bidegrees that only extra_classes fill."""
        cap = self.cap if cap is None else min(cap, self.cap)
        out = self._table(sort=False).dims(cap)
        for bd, n in (self.extra_classes or {}).items():
            if sum(bd) <= cap:
                out[bd] = out.get(bd, 0) + n
        for bd in [bd for bd, n in out.items() if not n]:  # in place: one dict, not a copy
            del out[bd]
        return out

    def total_dims(self, cap: Optional[int] = None) -> list[int]:
        """Dimensions by total degree 0..cap, counted once per page from the
        keys' bidegrees; a smaller cap is a prefix."""
        if self._totals is None:
            table, size = self._table(sort=False), max(self.cap + 1, 0)
            self._totals = np.bincount(table.s + table.t, minlength=size)[:size].tolist()
            for (s, t), n in (self.extra_classes or {}).items():
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
        elif (isinstance(lab, int) and not isinstance(lab, bool)
              and 0 <= lab < len(self.labels or ())):
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


@dataclass(eq=False)
class RuleFamily:
    """d(gamma_k . source_label) = scalar . cofactor . gamma_{k-step} . target_label
    for each k in ks.  verify_rule_family reads it as a pattern and reports
    the scalars.  run_differential reads member k as the rule sending
    gamma_k to gamma_{k-step} with coefficient 1, on page: both labels
    given, no cofactor, and every k at least step."""

    gamma_gen: str
    step: int
    ks: Sequence[int]
    cofactor: object = None  # element input over the page spec; None = unit
    source_label: Optional[str] = None
    target_label: Optional[str] = None
    page: Optional[int] = None


def _row_key(rows: np.ndarray, labels: np.ndarray, i: int) -> PageKey:
    li = labels.item(i)
    return (tuple(rows[i].tolist()), None if li < 0 else li)


class _Differential:
    """Leibniz extension of generator-level rules on one page.  Every rule
    is also a row of one table, in declaration order: its source as an
    exponent row and label, its target in CSR form (ptr) as rows, labels
    and coefficients.  Explicit rules enter it as parsed (a rule repeated
    with its own target once), a RuleFamily by array arithmetic, one row per
    member.  One pass over the table checks every lane, then one finds a
    repeated source, and _labeled_terms and verify_rule_family read it.
    evaluate, the graded_algebra.leibniz evaluator of the plain rules,
    gives d on plain monomials."""

    def __init__(self, page: Page, rules: Sequence[DifferentialRule | RuleFamily]):
        self.page = page
        spec = page.spec
        self.p = spec.field.p
        pages = {r.page for r in rules}
        if None in pages:
            raise ValueError("a rule family needs its page index")
        if len(pages) > 1:
            raise ValueError(f"rules span several page indices: {sorted(pages)}")
        self.r = pages.pop() if pages else page.page_index
        if self.r < page.page_index:
            raise ValueError(
                f"rules at page {self.r} cannot run on page {page.page_index}"
            )
        rule_map: dict[PageKey, dict[PageKey, int]] = {}
        explicit: list[tuple[PageKey, dict[PageKey, int], int]] = []
        families: list[tuple] = []  # (index in the rules, *_family(rule))
        gamma = set(page._gamma)
        for at, rule in enumerate(rules):
            if isinstance(rule, RuleFamily):
                if len(rule.ks):
                    families.append((at, *self._family(rule, gamma)))
                continue
            if rule.scalar % self.p == 0:
                raise ValueError("rule scalar must be a unit")
            src = page.key_from_input(rule.source)
            tgt = page.element_from_input(rule.target)
            tgt = {k: (c * rule.scalar) % self.p for k, c in tgt.items()}
            tgt = {k: c for k, c in tgt.items() if c}
            self._check_source_shape(src, gamma)
            if rule_map.get(src) == tgt:
                continue  # a rule repeated with its own target is one rule
            rule_map.setdefault(src, tgt)
            explicit.append((src, tgt, at))
        self._build_table(explicit, families)
        # d of plain monomials, given as exponent rows
        self.evaluate = leibniz(spec, {
            mono: {m: c for (m, _), c in tgt.items()}
            for (mono, li), tgt in rule_map.items() if li is None
        })

    def _family(self, family: RuleFamily, gamma: set) -> tuple:
        """A family's slot, source and target labels, step and ks array,
        once its shape is checked on its first member."""
        page = self.page
        if family.source_label is None or family.target_label is None or family.cofactor is not None:
            raise ValueError("rule families run with a source and a target label and no cofactor")
        slot = page.spec.index_of(family.gamma_gen)
        source, target = page.label_index(family.source_label), page.label_index(family.target_label)
        ks = np.array(family.ks, dtype=np.int64)
        if ks.min() < family.step:
            raise ValueError(f"rule family member k={ks.min()} lies below its step {family.step}")
        mono = [0] * len(page.spec.generators)
        mono[slot] = ks.item(0)
        self._check_source_shape((tuple(mono), source), gamma)
        return slot, source, target, family.step, ks

    def _build_table(self, explicit: list, families: list) -> None:
        """The rule table from the explicit rules, as (source, target,
        index in the rules), and the families, as (index, slot, source
        label, target label, step, ks).  A target term out of its lane
        raises BidegreeViolation, and then a source met twice
        LeibnizConflict, each for the first in declaration order."""
        page, r = self.page, self.r
        width = len(page.spec.generators)
        ptr, terms, coeff = term_arrays([tgt for _, tgt, _ in explicit])
        src, label = key_rows([key for key, _, _ in explicit], width)
        tgt, tgt_label = key_rows(terms, width)
        # member k of a family: gamma_k at its slot, with its source label,
        # to gamma_{k - step} there, with its target label and coefficient 1
        ks = np.concatenate([f[-1] for f in families] + [np.zeros(0, dtype=np.int64)])
        at, slot, source, target, step = np.repeat(
            np.array([f[:-1] for f in families], dtype=np.int64).reshape(-1, 5),
            [f[-1].size for f in families], axis=0).T
        member = np.zeros((2, ks.size, width), dtype=np.int64)
        member[:, np.arange(ks.size), slot] = ks, ks - step
        one = np.ones(ks.size, dtype=np.int64)
        # the explicit rules, then the members, put in declaration order
        rank = np.concatenate((np.array([i for _, _, i in explicit], dtype=np.int64), at))
        order = np.argsort(rank, kind="stable")
        size = np.concatenate((np.diff(ptr), one))
        term, owner = csr_terms(np.concatenate(([0], np.cumsum(size))), order)
        self.src = np.concatenate((src, member[0]))[order]
        self.src_label = np.concatenate((label, source))[order]
        self.tgt = np.concatenate((tgt, member[1]))[term]
        self.tgt_label = np.concatenate((tgt_label, target))[term]
        self.coeff = np.concatenate((coeff, one))[term]
        self.ptr = np.concatenate(([0], np.cumsum(size[order])))
        # bidegrees: one product with the generators' (s, t), plus label shifts
        spec = page.spec
        degrees = np.array([spec._filtrations, spec._inner], dtype=np.int64).T  # type: ignore[attr-defined]
        shift = np.array([lab.shift for lab in page.labels or ()] + [0], dtype=np.int64)
        want, got = self.src @ degrees, self.tgt @ degrees
        want[:, 1] += shift[self.src_label] + r - 1
        want[:, 0] -= r
        got[:, 1] += shift[self.tgt_label]
        bad = np.flatnonzero((got != want[owner]).any(axis=1))
        if bad.size:
            i = bad.item(0)
            raise BidegreeViolation(
                f"d{r}({page.format_key(_row_key(self.src, self.src_label, owner.item(i)))}) target "
                f"{page.format_key(_row_key(self.tgt, self.tgt_label, i))} not at "
                f"{tuple(want[owner.item(i)].tolist())}"
            )
        ids = lex_ids(np.column_stack((self.src, self.src_label)))
        by_id = np.argsort(ids, kind="stable")
        again = by_id[1:][ids[by_id[1:]] == ids[by_id[:-1]]]
        if again.size:
            src_key = _row_key(self.src, self.src_label, again.min())
            raise LeibnizConflict(f"source {page.format_key(src_key)} received two values")

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

    # -- entries -----------------------------------------------------------------

    def _labeled_terms(self, table: KeyTable):
        """The unsummed terms of d on a labeled page, as key positions,
        exponent rows, coefficients and labels: for each key whose gamma
        part and label are a rule source and term c * t of that rule's
        target, the product of the rest of the key's monomial with t, by one
        mul_rows, c negated when the rest is odd; zero products are dropped."""
        spec, gamma = self.page.spec, list(self.page._gamma)
        at, which = table.matching(gamma, self.src, self.src_label)
        term, src = csr_terms(self.ptr, which)
        left = table.mat[table.row[at[src]]]
        left[:, gamma] = 0
        odd = left @ np.array(spec._degrees, dtype=np.int64) % 2  # type: ignore[attr-defined]
        coeff, exps = spec.mul_rows(left, self.tgt[term])
        coeff = np.where(odd, -coeff, coeff) * self.coeff[term] % self.p
        live = np.flatnonzero(coeff)
        return at[src][live], exps[live], coeff[live], self.tgt_label[term][live]

    def entries(self) -> tuple[np.ndarray, np.ndarray, Optional[dict[int, dict[int, int]]]]:
        """The nonzero entries of d over key positions of the page's table,
        as source and target arrays sorted by source: the terms of one
        source on one target summed mod p.  d must stay in its lane.  When d
        is not a partial matching (one term per source, no target hit twice,
        none hit that is a source), d also comes as {source: {target: c}}
        and must square to zero term by term; a matching does so trivially."""
        page, r, p = self.page, self.r, self.p
        table = page._table()
        if page.labels is None:  # a raw plain page's keys order all of mat's rows
            src, exps, coeff = self.evaluate(table.mat)
            at = np.empty_like(table.row)
            at[table.row] = np.arange(table.row.size)
            src = at[src]
            label = np.full(src.size, -1, dtype=np.int64)
        else:
            src, exps, coeff, label = self._labeled_terms(table)
        if not src.size:
            return src, src, None
        # one sorted search codes every target by its position in the table,
        # or past the table where it is absent, and then it has no lane
        code = table.find(exps, label)[0]
        del exps
        width = code.max(initial=0) + 1
        key, c = nonzero_sums(src * width + code, coeff, p)
        a, code = np.divmod(key, width)
        b = np.where(code < table.row.size, code, -1)
        lane = (b >= 0) & (table.s[b] == table.s[a] - r) & (table.t[b] == table.t[a] + r - 1)
        if not lane.all():
            key = table.key(a.item(np.argmin(lane)))
            raise BidegreeViolation(f"d({page.format_key(key)}) leaves its bidegree lane")
        hit = np.sort(b)
        if ((a[1:] != a[:-1]).all() and (hit[1:] != hit[:-1]).all()
                and (_lookup(a, b, -1) < 0).all()):
            return a, b, None
        d: dict[int, dict[int, int]] = {}
        for i, j, v in zip(a.tolist(), b.tolist(), c.tolist()):
            d.setdefault(i, {})[j] = v
        for i, img in d.items():  # d.d vanishes on a source whose targets have no image
            if any(j in d for j in img) and page.spec.linear(lambda j: d.get(j, {}), img):
                bd = (table.s.item(i), table.t.item(i))
                raise NotADifferential(f"d.d != 0 out of bidegree {bd} on page {r}")
        return a, b, d


def run_differential(page: Page, rules: Sequence[DifferentialRule | RuleFamily]) -> Page:
    """Extend rules by Leibniz, verify a derivation with d.d = 0, and turn the page.

    With no rules the next page has the same groups.  Rules may sit at a
    page index above page.page_index (the pages in between turn trivially);
    the result's index is one past the rules' page.  Survivor bases prefer
    monomial representatives; classes with no monomial cycle representative
    are counted in extra_classes.

    d is evaluated on exponent arrays (_Differential.entries), and the
    truncation residuals take d(g) from one more evaluator call on the
    truncated generators' rows.  When it is a
    partial matching, each entry a -> b has rank 1 out of a's bucket and
    kills a as a non-cycle and b as a boundary, read straight off the
    arrays.  Any other d goes to fp_linalg.sparse_homology, which map_rank
    calls too: it turns the page component by component of d's support,
    over key positions graded by bucket, and returns the rank of d out of
    each bucket and the keys that die.  Every other key up to cap survives,
    and what the page loses in each degree n must be the rank of d out of
    degrees n and n + 1, one integer bincount by total degree.
    """
    if not rules:
        same = Page(page.spec, page.page_index + 1, page.cap, page.labels,
                    extra_classes=page.extra_classes)
        same._raw, same._keys = page._raw, page._keys
        return same
    if not page._raw:
        raise ValueError("differentials run on freshly declared pages only")
    diff = _Differential(page, rules)
    src, tgt, d = diff.entries()
    # plain pages: the Leibniz extension is a derivation unless a truncation
    # residual survives, and a pair g^a * g^b that fails has a + b = h, so
    # the window sees a failure once g^ceil(h/2) fits
    spec = page.spec
    residuals = truncation_residuals(spec, diff.evaluate) if page.labels is None else {}
    for i, residual in residuals.items():
        g = spec.generators[i]
        h = g.height or 0
        if residual and (h + 1) // 2 * g.total_degree <= page.work_cap:
            lo, hi = (spec.format_mono(spec.mono_from_names({g.name: e})) for e in (h // 2, (h + 1) // 2))
            raise LeibnizConflict(f"Leibniz fails on {lo} * {hi}")

    table = page._table()
    nb = table.sizes.size
    bucket = np.repeat(np.arange(nb), table.sizes)
    if d is None:
        rank_out = np.bincount(bucket[src], minlength=nb)
        dead = np.concatenate((src, tgt))
    else:
        rank, dead = sparse_homology(spec.field, d, bucket.item)
        del d
        rank_out = np.zeros(nb, dtype=np.int64)
        rank_out[list(rank)] = list(rank.values())
        dead = list(dead)
    del src, tgt
    # per bucket: the rank of d out of it and into it, from the bucket at
    # (s + r, t - r + 1); the survivors are the keys up to cap that live
    r, (bs, bt) = diff.r, table.heads.T
    up = table.bucket_of(bs + r, bt - r + 1)
    dim_h = table.sizes - rank_out - np.where(up >= 0, rank_out[up], 0)
    window = bs + bt <= page.cap
    bad = np.flatnonzero(window & (dim_h < 0))
    if bad.size:
        raise NotADifferential(f"negative homology at {(bs.item(bad[0]), bt.item(bad[0]))}")
    keep = table.s + table.t <= page.cap
    keep[dead] = False
    kept = np.bincount(bucket[keep], minlength=nb)
    short = np.flatnonzero(window & (kept < dim_h))
    extra = dict(zip(zip(bs[short].tolist(), bt[short].tolist()), (dim_h - kept)[short].tolist()))
    full = np.flatnonzero(kept)
    next_page = Page(spec, r + 1, page.cap, page.labels, extra_classes=extra or None)
    next_page._raw = False
    next_page._keys = table.masked(keep, full, kept[full])
    # charge conservation: what one page loses is exactly the rank of d
    size = max(page.cap + 1, 0)
    rank_from = np.bincount(np.repeat(bs + bt, rank_out), minlength=size + 1)
    lost = np.array(page.total_dims(), dtype=np.int64) - next_page.total_dims()
    bad = np.flatnonzero(lost != rank_from[:size] + rank_from[1:size + 1])
    if bad.size:
        raise ConservationViolation(f"homology accounting failed at degree {bad[0]}")
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


@dataclass(frozen=True)
class FamilyReport:
    scalars: tuple[tuple[int, int], ...]

    def scalar_map(self) -> dict[int, int]:
        return dict(self.scalars)


def verify_rule_family(
    page: Page, rules: Sequence[DifferentialRule], family: RuleFamily
) -> FamilyReport:
    """Confirm every k in family.ks maps by a NONZERO scalar onto the stated
    target (scalar 0 for k below the step); report the scalars.  d of every
    member gamma_k comes at once: on a plain page from one call of the
    Leibniz evaluator on the member rows, on a labeled page from the rule
    table, which holds the members of rule families among rules too."""
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
    rows = np.zeros((len(family.ks), n), dtype=np.int64)
    rows[:, slot] = family.ks
    if page.labels is None:
        vals = [{(m, None): c for m, c in img.items()}
                for img in term_dicts(len(rows), *diff.evaluate(rows), p)]
    else:  # a gamma-pure source takes its rule's target as it stands
        label = np.full(len(rows), 0 if sli is None else sli + 1, dtype=np.int64)
        at = RowFinder(np.column_stack((diff.src, diff.src_label + 1))).find(
            np.column_stack((rows, label)))
        vals = [{_row_key(diff.tgt, diff.tgt_label, j): diff.coeff.item(j)
                 for j in range(diff.ptr.item(i), diff.ptr.item(i + 1))} if i >= 0 else {}
                for i in at.tolist()]

    scalars: list[tuple[int, int]] = []
    for k, val in zip(family.ks, vals):
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


def default_representatives(
    einfty: Page, abutment: AbutmentSpec, extensions: Sequence[ExtensionRule], mat: np.ndarray
) -> np.ndarray:
    """Exponent-arithmetic representatives of the abutment monomials, the
    rows of mat: each abutment generator maps to the unique page key in its
    assigned bidegree, and every extension rule rewrites (greedily, in
    order) the largest power of its abutment monomial into the declared
    low-filtration key.  Coefficients are deliberately ignored: the
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

    work = mat.copy()
    acc = np.zeros((len(mat), n), dtype=np.int64)
    for rule in extensions:
        elt = target.dict_from_input(rule.abutment_element)  # type: ignore[arg-type]
        if len(elt) != 1:
            continue  # multi-term rules carry no monomial rewrite
        (abut_mono,) = elt
        a = np.array(abut_mono, dtype=np.int64)
        supp = np.flatnonzero(a)  # nonempty: a drops filtration, so it is no unit
        q = (work[:, supp] // a[supp]).min(axis=1)[:, None]
        work -= q * a
        acc += q * np.array(einfty.key_from_input(rule.einfty_monomial)[0], dtype=np.int64)
    return acc + work @ mono_rows(gen_keys, n)


def compare_abutment(
    einfty: Page,
    abutment: AbutmentSpec,
    extensions: Sequence[ExtensionRule],
    cap: int,
    representative: Optional[Callable[[Mono], PageKey]] = None,
) -> AbutmentReport:
    """Three checks: (i) per-degree totals agree; (ii) every extension rule is
    degree-consistent and drops filtration; (iii) the abutment's associated
    graded matches the page bidegree-wise, certified by a monomial bijection:
    the representatives of every abutment monomial, one exponent matrix and
    label array (default_representatives, or representative called once per
    monomial), are found by one KeyTable.find, and bidegrees are counted by
    one bincount.

    Raises DimMismatch at the first failing degree, bidegree or monomial in
    basis order, and ExtensionDegreeError for a bad rule.  Returns the
    matched table.
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
    spec = einfty.spec
    mat, degree = target.basis_rows(cap)
    if representative is None:
        keys = None
        reps = default_representatives(einfty, abutment, extensions, mat)
        labels = np.full(len(mat), -1, dtype=np.int64)
    else:
        keys = [representative(mono) for mono in map(tuple, mat.tolist())]
        reps, labels = key_rows(keys, len(spec.generators))
    shift = np.array([lab.shift for lab in einfty.labels or ()] + [0], dtype=np.int64)
    total = reps @ np.add(spec._filtrations, spec._inner) + shift[labels]  # type: ignore[attr-defined]
    table = einfty._table()
    at = table.find(reps, labels)[1]
    order = np.argsort(at, kind="stable")
    shared = np.zeros(at.size, dtype=bool)  # a key that an earlier monomial reached
    shared[order[1:]] = (at[order[1:]] == at[order[:-1]]) & (at[order[1:]] >= 0)
    bad = np.flatnonzero((total != degree) | (at < 0) | shared)
    if bad.size:
        i = bad.item(0)
        mono = tuple(mat[i].tolist())
        key = keys[i] if keys is not None else (tuple(reps[i].tolist()), None)
        if total[i] != degree[i]:
            raise DimMismatch(
                f"representative of {target.format_mono(mono)} sits in total "
                f"degree {total[i]}, not {degree[i]}"
            )
        if at[i] < 0:
            raise DimMismatch(
                f"representative {einfty.format_key(key)} of "
                f"{target.format_mono(mono)} is not a surviving basis key"
            )
        raise DimMismatch(
            f"two abutment monomials share the representative "
            f"{einfty.format_key(key)}"
        )
    nb = table.sizes.size
    mapped = np.bincount(np.repeat(np.arange(nb), table.sizes)[at], minlength=nb)
    window = table.heads.sum(axis=1) <= cap
    wrong = np.flatnonzero(np.where(window, mapped != table.sizes, mapped > 0))
    if wrong.size:
        b = wrong.item(0)
        bd = tuple(table.heads[b].tolist())
        raise DimMismatch(f"bidegree {bd}: page dim {table.sizes[b]}, associated graded "
                          f"supplies {mapped[b]}" if window[b] else
                          f"bidegree {bd}: abutment maps into an empty lane")
    dims = einfty.bigraded_dims(cap)
    return AbutmentReport(
        degrees=tuple((n, page_dims[n]) for n in range(cap + 1)),
        extension_drops=tuple(drops),
        bidegree_counts=tuple(sorted((bd, n) for bd, n in dims.items())),
    )
