"""Degreewise exactness for long exact sequences given on monomial bases.

A sequence ... -> A_n -> B_n -> C_{n-1} -> A_{n-1} -> ... is specified by
three graded algebras and three maps: rho (an algebra map, extended
multiplicatively from generator images), and boundary/tau (given directly on
basis monomials).  C is stored unshifted; the boundary consumes it with a
degree drop of one.

check_les reads each map once, on every basis monomial of its source, into
an image table (_Image) in key_arrays' encoding: the source's exponent rows
in degree and basis order, and CSR arrays of each row's image terms, as
target rows and coefficients mod p.  A rho that sends each generator to
one term or to zero is read by one AlgebraSpec.mul_rows per generator slot
(graded_algebra.monomial_images), any other map image by image.  Exactness
is verified per degree both as dimension identities and as subspace
equalities (composites that vanish, summed off the tables by
key_arrays.nonzero_sums).  A degree whose images have at most one term
each is ranked by counting the target rows it hits (fp_linalg.count_ranks);
any other degree goes to fp_linalg.map_rank.  boundary and tau are checked
to be module maps over A through a declared coefficient action, on the
(generator, basis monomial) pairs of whole A-generators stacked into
blocks: each side of a block's pairs is one AlgebraSpec.mul_rows and one
sorted search of the products in a table.  A pair whose product leaves its
table is checked on term dicts instead.

check_les_family checks sequences that share every field but the
boundary, such as the two boundary ambiguities of a catalogued sequence,
in one pass: everything but the boundary's image table, its composites,
its degree loop and its module pairs is built and checked once."""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .fp_linalg import count_ranks, map_rank
from .graded_algebra import (
    DegreeMismatch,
    GradedError,
    Mono,
    TermDict,
    algebra_map,
    exterior,
    make_algebra,
    monomial_images,
    polynomial,
    truncated,
)
from .key_arrays import RowFinder, csr_terms, mono_rows, nonzero_sums, term_arrays
from .presentation import make_theta

JOINT_TAU_RHO = "im(tau) = ker(rho)"
JOINT_RHO_BOUNDARY = "im(rho) = ker(boundary)"
JOINT_BOUNDARY_TAU = "im(boundary) = ker(tau)"
JOINT_ALTERNATING = "alternating dimension identity"

# the module checks stack whole A-generators into blocks that close once
# they reach this many pairs, 2 MiB per int64 array of width 4: les-ku and
# les-ell at p = 37 (224 072 boundary pairs) took 0.24-0.27 s in-process
# for blocks of 2^13 to 2^17 pairs, and 0.33-0.36 s in one block
_BLOCK_PAIRS = 1 << 16


class InexactAt(GradedError):
    def __init__(self, degree: int, joint: str, detail: str = "") -> None:
        self.degree = degree
        self.joint = joint
        msg = f"not exact in degree {degree} at {joint}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


@dataclass(eq=False)
class LongExactSpec:
    """A, B, C may be algebra specs, presentations, or None for the zero
    module.  rho maps A-generator names to B-elements; boundary and tau act on
    single basis monomials and return element data (dict, pairs, or empty).
    coefficient_action gives the algebra map A -> C that induces the A-module
    structure used for the module-map checks."""

    A: object
    B: object
    C: object
    rho: Mapping[str, object]
    boundary: Callable[[Mono], object]
    tau: Callable[[Mono], object]
    coefficient_action: Optional[Mapping[str, object]] = None


@dataclass(frozen=True)
class ExactnessReport:
    cap: int
    # (n, dim A_n, dim B_n, dim C_{n-1}, rank rho_n, rank boundary_n, rank tau_n)
    rows: tuple[tuple[int, int, int, int, int, int, int], ...]
    boundary_pairs: int
    tau_pairs: int

    def max_degree(self) -> int:
        return max((r[0] for r in self.rows), default=-1)


class _Graded:
    """Uniform view of an algebra spec, a presentation, or the zero module:
    its basis as one table, the exponent rows of mat in degree and basis
    order with their degrees, and the monomials of a degree as tuples,
    decoded when read."""

    def __init__(self, obj, cap: int) -> None:
        self.obj = obj
        self.spec = None if obj is None else getattr(obj, "algebra", obj)
        if obj is None:
            self.mat, self.degree = np.zeros((0, 0), dtype=np.int64), np.zeros(0, dtype=np.int64)
        else:
            self.mat, self.degree = obj.basis_rows(cap)
        self.sizes = np.bincount(self.degree, minlength=max(cap + 1, 0)).tolist()
        self._ends = np.cumsum([0] + self.sizes).tolist()
        self._index: dict[int, dict[Mono, int]] = {}
        self._finder: Optional[RowFinder] = None

    @cached_property
    def monos(self) -> list[Mono]:
        """Every monomial of the table, in table order."""
        return list(map(tuple, self.mat.tolist()))

    def mono(self, i: int) -> Mono:
        return tuple(self.mat[i].tolist())

    def at(self, n: int) -> list[Mono]:
        if not 0 <= n < len(self.sizes):
            return []
        return list(map(tuple, self.mat[self._ends[n]:self._ends[n + 1]].tolist()))

    def dim(self, n: int) -> int:
        return self.sizes[n] if 0 <= n < len(self.sizes) else 0

    def index(self, n: int) -> dict[Mono, int]:
        """The position of each monomial in at(n), built on first use."""
        if n not in self._index:
            self._index[n] = {m: i for i, m in enumerate(self.at(n))}
        return self._index[n]

    def find(self, rows: np.ndarray) -> np.ndarray:
        """The position in the table of each exponent row, -1 for a row
        outside it (key_arrays.RowFinder, built on first use)."""
        if self._finder is None:
            self._finder = RowFinder(self.mat)
        return self._finder.find(rows)

    def normalize(self, data) -> TermDict:
        if self.spec is None:
            if data:
                raise DegreeMismatch("nonzero image in the zero module")
            return {}
        d = self.spec.dict_from_input(data)
        if hasattr(self.obj, "normal_form_dict"):
            d = self.obj.normal_form_dict(d)
        return d


def _require_algebra_map(source, target: _Graded, images, what: str) -> Callable[[Mono], TermDict]:
    """The multiplicative extension of images; ValueError if a relation fails."""
    image_of_mono, results = algebra_map(source, target.spec, images)
    bad = "; ".join(desc for desc, ok in results if not ok)
    if bad:
        raise ValueError(f"{what} is not an algebra map: {bad}")
    return image_of_mono


def _checked(fn: Callable[[Mono], object], src: _Graded, dst: _Graded, drop: int,
             name: str) -> Callable[[Mono], TermDict]:
    """fn normalized into dst, each image degree-checked against its monomial's
    degree minus drop and memoised per monomial.  An image is cached only once
    its degree check has passed, so a bad image raises DegreeMismatch on every
    call.  Callers only read the returned dicts."""
    memo: dict[Mono, TermDict] = {}

    def image(mono: Mono) -> TermDict:
        d = memo.get(mono)
        if d is not None:
            return d
        d = dst.normalize(fn(mono))
        want = src.spec.dict_total_degree({mono: 1}) - drop
        got = dst.spec.dict_total_degree(d) if d and dst.spec else None
        if d and got != want:
            raise DegreeMismatch(f"{name} image of degree {want + drop} monomial has degree {got}")
        memo[mono] = d
        return d
    return image


class _Image:
    """A map fn read once on every monomial of src's table: row i goes to
    the terms val[ptr[i]:ptr[i + 1]] (mod p) times the rows col[...] of dst's
    table, -1 for a term outside it.  Degree n of src goes to degree
    n - drop of dst, and rank(n) is the rank there."""

    def __init__(self, fn, src: _Graded, dst: _Graded, drop: int, field, cap: int,
                 monomial: bool = False) -> None:
        self.fn, self.src, self.dst, self.drop, self.field = fn, src, dst, drop, field
        if monomial:  # fn is an algebra map sending each generator to one term or to 0
            coeff, rows = monomial_images(dst.spec, src.mat, fn)
            self.ptr = np.concatenate(([0], np.cumsum(coeff != 0)))
            rows, vals = rows[coeff != 0], coeff[coeff != 0]
        else:
            self.ptr, terms, vals = term_arrays([fn(m) for m in src.monos])
            rows = mono_rows(terms, dst.mat.shape[1])
        sizes = np.diff(self.ptr)
        self.col = dst.find(rows)
        self.val = vals % field.p
        # map_rank takes a degree with an image of several terms, and one with
        # a term outside dst's table, where it raises KeyError
        other = sizes > 1
        other[np.repeat(np.arange(sizes.size), sizes)[self.col < 0]] = True
        self.other = set(src.degree[other].tolist())
        one = np.flatnonzero(sizes == 1)
        one = one[self.col[self.ptr[one]] >= 0]
        self.counted = count_ranks(src.degree[one], self.col[self.ptr[one]], cap + 2)

    def rank(self, n: int) -> int:
        if n in self.other:
            return map_rank(self.field, self.src.at(n), self.dst.index(n - self.drop), self.fn)
        return self.counted[n]

    def then_nonzero(self, then: "_Image") -> set[int]:
        """The degrees of src where then after this map is nonzero on some
        monomial, summed off the two tables.  Terms outside a table are left
        out: map_rank raises on their degree before its composites are read."""
        p, width = self.field.p, max(len(then.dst.mat), 1)
        pos, src = csr_terms(self.ptr, np.arange(len(self.src.mat)))
        keep = self.col >= 0
        pos, src = pos[keep], src[keep]
        at, owner = csr_terms(then.ptr, self.col[pos])
        keep = then.col[at] >= 0
        bad = nonzero_sums(src[owner[keep]] * width + then.col[at[keep]],
                           self.val[pos[owner[keep]]] * then.val[at[keep]] % p, p)[0]
        return set(self.src.degree[bad // width].tolist())

    def module_failure(self, sides: Sequence[tuple[TermDict, TermDict, int]],
                       finish: Callable[[TermDict], TermDict]) -> tuple[int, Optional[tuple[int, Mono]]]:
        """For each (left, right, top) of sides, over the monomials s of src
        of degree <= top, in table order: the number of all these pairs, and
        the first (index in sides, s), side by side, where fn(left * s)
        differs from finish(right * fn(s)), or None.  The sides go in blocks
        of whole sides, in order, each closed once it reaches _BLOCK_PAIRS
        pairs, and the first block with a failure ends the search."""
        counts = np.searchsorted(self.src.degree, [top for _, _, top in sides], "right")
        start = 0
        while start < len(sides):
            stop = start + 1 + np.searchsorted(np.cumsum(counts[start:]), _BLOCK_PAIRS).item()
            bad = self._block_failure(sides[start:stop], counts[start:stop], finish)
            if bad is not None:
                return counts.sum().item(), (start + bad[0], bad[1])
            start = stop
        return counts.sum().item(), None

    def _block_failure(self, sides, counts: np.ndarray,
                       finish: Callable[[TermDict], TermDict]) -> Optional[tuple[int, Mono]]:
        """module_failure on one block, whose pairs are stacked side by side.
        Each side of the equation is one AlgebraSpec.mul_rows and one sorted
        search of the products in a table, and both are summed per (pair,
        dst row) off the tables.  A pair with a nonzero product outside its
        table is checked on term dicts instead, in order, up to the first
        failure found off the tables."""
        S, T, p = self.src, self.dst, self.field.p
        first_pair = np.cumsum(counts) - counts
        width = max(len(T.mat), 1)
        keys, values, off = [], [], []
        # each term of left times s, then its image terms
        rows, coeff, side, s = _spread([left for left, _, _ in sides], counts, S.mat.shape[1])
        c, prod = S.spec.mul_rows(rows, S.mat[s])
        live = np.flatnonzero(c)
        row = S.find(prod[live])
        pair = first_pair[side[live]] + s[live]
        off.append(pair[row < 0])
        at, owner = csr_terms(self.ptr, row[row >= 0])
        live, pair = live[row >= 0][owner], pair[row >= 0][owner]
        keys.append(pair * width + self.col[at])
        values.append(coeff[live] * c[live] % p * self.val[at] % p)
        # each term of right times each term of fn(s): the pairs of a side
        # are the rows 0..count - 1, whose image terms are 0..ptr[count] - 1
        rows, coeff, side, at = _spread([right for _, right, _ in sides], self.ptr[counts],
                                        T.mat.shape[1])
        c, prod = T.spec.mul_rows(rows, T.mat[self.col[at]])
        live = np.flatnonzero(c)
        row = T.find(prod[live])
        pair = first_pair[side[live]] + np.searchsorted(self.ptr, at[live], "right") - 1
        off.append(pair[row < 0])
        live = live[row >= 0]
        keys.append(pair[row >= 0] * width + row[row >= 0])
        values.append(p - coeff[live] * c[live] % p * self.val[at[live]] % p)

        total = counts.sum().item()
        bad = nonzero_sums(np.concatenate(keys), np.concatenate(values), p)[0] // width
        off_table = np.zeros(total, dtype=bool)
        off_table[np.concatenate(off)] = True
        bad = bad[~off_table[bad]]
        first = bad.item(0) if bad.size else total
        for q in np.flatnonzero(off_table[:first]).tolist():
            g = np.searchsorted(first_pair, q, "right").item() - 1
            left, right, _ = sides[g]
            s = S.mono(q - first_pair.item(g))
            if T.spec.linear(self.fn, S.spec.mul_dicts(left, {s: 1})) \
                    != finish(T.spec.mul_dicts(right, self.fn(s))):
                first = q
                break
        if first == total:
            return None
        g = np.searchsorted(first_pair, first, "right").item() - 1
        return g, S.mono(first - first_pair.item(g))


def _spread(dicts: Sequence[TermDict], sizes: np.ndarray, width: int):
    """Each term (m, c) of dicts[g], once for every i in 0..sizes[g] - 1,
    for every g in turn: m's exponent row, c, g and i, as arrays."""
    terms = [(g, m, c) for g, d in enumerate(dicts) for m, c in d.items()]
    n = np.array([sizes[g] for g, _, _ in terms], dtype=np.int64)
    which = np.repeat(np.arange(n.size), n)
    return (mono_rows([m for _, m, _ in terms], width)[which],
            np.array([c for _, _, c in terms], dtype=np.int64)[which],
            np.array([g for g, _, _ in terms], dtype=np.int64)[which],
            np.arange(which.size) - np.repeat(np.cumsum(n) - n, n))


def check_les(spec: LongExactSpec, cap: int) -> ExactnessReport:
    """Verify exactness in every degree <= cap, raising InexactAt on the first
    failure (lowest degree, joints in sequence order).  Also checks that rho
    and the coefficient action are algebra maps and that boundary and tau are
    module maps over A, exhaustively on generator-times-basis pairs: the
    first failing pair goes by generator, boundary before tau, then degree
    and basis order.  rho, tau and the boundary are read into image tables
    before the degree loop, so a boundary or tau image of the wrong degree
    raises DegreeMismatch before any InexactAt."""
    (result,) = check_les_family([spec], cap)
    if isinstance(result, InexactAt):
        raise result
    return result


def check_les_family(members: Sequence[LongExactSpec],
                     cap: int) -> list[ExactnessReport | InexactAt]:
    """check_les on sequences that share every field but the boundary, as
    the same objects: per member, its report or the InexactAt it raises.
    What they share is built and checked once, and an error there is raised
    once, as check_les raises it: rho's relations, the coefficient action's,
    tau's images, then each member's boundary images.  tau's module pairs
    are checked once, when a member first reaches them."""
    spec = members[0]
    if any(getattr(m, f.name) is not getattr(spec, f.name)
           for m in members for f in fields(LongExactSpec) if f.name != "boundary"):
        raise ValueError("family members may differ in their boundary only")
    A = _Graded(spec.A, cap)
    B = _Graded(spec.B, cap)
    C = _Graded(spec.C, cap)
    sides = [s for s in (A, B, C) if s.spec is not None]
    if not sides:
        return [ExactnessReport(cap, (), 0, 0) for _ in members]
    field = sides[0].spec.field
    for s in sides:
        if s.spec.field != field:
            raise ValueError("the three terms live over different fields")

    rho_of: Callable[[Mono], TermDict] = lambda mono: {}
    monomial = False
    if A.spec is not None and B.spec is not None:
        rho_of = _require_algebra_map(spec.A, B, spec.rho, "rho")
        unit = A.spec.unit
        monomial = all(len(rho_of(unit[:i] + (1,) + unit[i + 1:])) <= 1 for i in range(len(unit)))
    if spec.coefficient_action is not None and A.spec is not None and C.spec is not None:
        _require_algebra_map(spec.A, C, spec.coefficient_action, "the coefficient action")

    tau_img = _checked(spec.tau, C, A, 0, "tau") if C.spec is not None else None
    rho = _Image(rho_of, A, B, 0, field, cap, monomial)
    tau = _Image(tau_img, C, A, 0, field, cap)
    bdys = [_Image(_checked(m.boundary, B, C, 1, "boundary") if B.spec is not None else None,
                   B, C, 1, field, cap) for m in members]
    tau_rho = tau.then_nonzero(rho)  # the degrees where tau then rho does not vanish
    # the module pairs: over no generator without a coefficient action
    gens = A.spec.generators if spec.coefficient_action is not None and all(
        s.spec is not None for s in (A, B, C)) else ()
    units = [A.spec.unit[:i] + (1,) + A.spec.unit[i + 1:] for i in range(len(gens))]
    nu = [C.normalize(spec.coefficient_action[g.name]) for g in gens]  # type: ignore[index]
    tops = [cap - g.total_degree for g in gens]
    boundary_sides = list(zip(map(rho_of, units), nu, tops))
    tau_found = []  # tau's pair count and first failure, found when a member first needs them
    out: list[ExactnessReport | InexactAt] = []
    for bdy in bdys:
        try:
            rows = _exact_rows(A, B, C, rho, tau, bdy, tau_rho, cap)
            boundary_pairs, bad = bdy.module_failure(boundary_sides, lambda d: d)
            if not tau_found:
                tau_found.append(tau.module_failure(
                    [(n, {u: 1}, top) for n, u, top in zip(nu, units, tops)], A.normalize))
            tau_pairs, tau_bad = tau_found[0]
            # the first failing pair goes by generator, boundary before tau
            if bad is not None and (tau_bad is None or bad[0] <= tau_bad[0]):
                raise _module_failed(gens[bad[0]], bad[1], B, "boundary")
            if tau_bad is not None:
                raise _module_failed(gens[tau_bad[0]], tau_bad[1], C, "tau")
            out.append(ExactnessReport(cap, rows, boundary_pairs, tau_pairs))
        except InexactAt as exc:
            out.append(exc)
    return out


def _module_failed(g, mono: Mono, side: _Graded, name: str) -> InexactAt:
    return InexactAt(side.spec.total_degree_of(mono) + g.total_degree, f"{name} module structure",
                     f"over {g.name} at {side.spec.format_mono(mono)}")


def _exact_rows(A: _Graded, B: _Graded, C: _Graded, rho: _Image, tau: _Image, bdy: _Image,
                tau_rho: set[int], cap: int) -> tuple[tuple[int, ...], ...]:
    """The report rows of check_les, degree by degree, raising InexactAt on
    the first failure."""
    rho_bdy, bdy_tau = rho.then_nonzero(bdy), bdy.then_nonzero(tau)
    rows = []
    alternating = 0
    r_next = bdy.rank(0)
    for n in range(cap + 1):
        r_rho = rho.rank(n)
        r_tau = tau.rank(n)
        r_bdy, r_next = r_next, bdy.rank(n + 1)
        a_n, b_n, c_prev = A.dim(n), B.dim(n), C.dim(n - 1)

        # dimension identities first; given them, ker = im holds exactly when
        # im lies in ker, that is when the composite vanishes, term by term
        if a_n - r_rho != r_tau:
            raise InexactAt(n, JOINT_TAU_RHO, f"ker rho has dim {a_n - r_rho}, im tau {r_tau}")
        if b_n - r_bdy != r_rho:
            raise InexactAt(n, JOINT_RHO_BOUNDARY, f"ker boundary has dim {b_n - r_bdy}, im rho {r_rho}")
        alternating = (a_n - b_n + c_prev) - alternating
        if alternating != r_tau:
            raise InexactAt(n, JOINT_ALTERNATING,
                            f"running alternating sum {alternating}, rank tau {r_tau}")
        if n in tau_rho:
            raise InexactAt(n, JOINT_TAU_RHO, "subspaces differ")
        if n in rho_bdy:
            raise InexactAt(n, JOINT_RHO_BOUNDARY, "subspaces differ")
        if n < cap and C.dim(n) - r_tau != r_next:  # the cap cuts off B.at(cap + 1)
            raise InexactAt(n, JOINT_BOUNDARY_TAU,
                            f"ker tau has dim {C.dim(n) - r_tau}, im boundary {r_next}")
        if n + 1 in bdy_tau:
            raise InexactAt(n, JOINT_BOUNDARY_TAU, "subspaces differ")
        rows.append((n, a_n, b_n, c_prev, r_rho, r_bdy, r_tau))
    return tuple(rows)


# -- the catalogued algebras, shared with the scenarios -------------------------------


def _core(p: int):
    """E(l1, l2) ox P(m2): the tower's coefficients and the source of ell_sequence."""
    return make_algebra(
        p,
        [exterior("l1", 2 * p - 1), exterior("l2", 2 * p * p - 1),
         polynomial("m2", 2 * p * p)],
    )


def _tower_answer(p: int):
    """E(e1, l1) ox P(m1): the tower's abutment and the target of both boundaries."""
    return make_algebra(
        p, [exterior("e1", 2 * p - 1), exterior("l1", 2 * p - 1), polynomial("m1", 2 * p)]
    )


def _log_answer(p: int):
    """E(l1, dlogv) ox P(k1): the log theory, the middle of ell_sequence."""
    return make_algebra(
        p,
        [exterior("l1", 2 * p - 1), exterior("dlogv", 1), polynomial("k1", 2 * p)],
    )


def _ku_answer(p: int):
    """P_{p-1}(u) ox E(l1, dlogu) ox P(k1): the middle of ku_sequence."""
    return make_algebra(
        p,
        [truncated("u", 2, p - 1), exterior("l1", 2 * p - 1),
         exterior("dlogu", 1), polynomial("k1", 2 * p)],
    )


# -- the two concrete sequences ------------------------------------------------------


def _boundary_formula(C, p: int, ambiguity: int):
    """Common core: the exterior degree-1 class maps a tower power k to m1^k;
    a bare tower power with k prime to p drops to e1 m1^{k-1}, determined only
    up to an l1 m1^{k-1} summand (the ambiguity coefficient)."""

    def base(dlog: int, k: int) -> TermDict:
        if dlog:
            return {C.mono_from_names({"m1": k}): 1}
        if k and k % p:
            out = {C.mono_from_names({"e1": 1, "m1": k - 1}): 1}
            if ambiguity:
                out[C.mono_from_names({"l1": 1, "m1": k - 1})] = ambiguity
            return out
        return {}

    return base


def ell_sequence(p: int, ambiguity: int = 0) -> LongExactSpec:
    """The sequence relating E(l1,l2) ox P(m2), the log theory
    E(l1,dlogv) ox P(k1), and (shifted) E(e1,l1) ox P(m1)."""
    A, B, C = _core(p), _log_answer(p), _tower_answer(p)
    rho = {"l1": [(1, {"l1": 1})], "l2": [], "m2": [(1, {"k1": p})]}
    nu = {"l1": [(1, {"l1": 1})], "l2": [], "m2": [(1, {"m1": p})]}
    base = _boundary_formula(C, p, ambiguity)

    def boundary(mono: Mono) -> TermDict:
        e, dlog, k = mono
        return C.mul_dicts({C.mono_from_names({"l1": e}): 1}, base(dlog, k))

    def tau(mono: Mono) -> TermDict:
        eps, f, m = mono
        if not eps or m % p != p - 1:
            return {}
        # module linearity over the odd generator l1 fixes the sign
        target = A.mono_from_names({"l1": f, "l2": 1, "m2": m // p})
        return {target: -1 if f % 2 else 1}

    return LongExactSpec(A, B, C, rho, boundary, tau, coefficient_action=nu)


def ku_sequence(p: int, ambiguity: int = 0) -> LongExactSpec:
    """The truncated-u analogue: the source is E(l1) tensored with the
    finitely presented algebra of make_theta, the middle is
    P_{p-1}(u) ox E(l1,dlogu) ox P(k1), and the boundary factors through the
    u-free part."""
    A = make_theta(p, extra_generators=(exterior("l1", 2 * p - 1),))
    B, C = _ku_answer(p), _tower_answer(p)
    rho: dict[str, object] = {
        "l1": [(1, {"l1": 1})],
        "u": [(1, {"u": 1})],
        "m2": [(1, {"k1": p})],
    }
    nu: dict[str, object] = {"l1": [(1, {"l1": 1})], "u": [], "m2": [(1, {"m1": p})]}
    for i in range(p):
        rho[f"a{i}"] = [(1, {"u": 1, "dlogu": 1, "k1": i})]
        nu[f"a{i}"] = []
    for j in range(1, p):
        rho[f"b{j}"] = [(1, {"u": 1, "k1": j})]
        nu[f"b{j}"] = []
    base = _boundary_formula(C, p, ambiguity)
    aspec = A.algebra
    top = {"u": p - 2, f"a{p - 1}": 1}

    def boundary(mono: Mono) -> TermDict:
        u_exp, e, dlog, k = mono
        if u_exp:
            return {}
        return C.mul_dicts({C.mono_from_names({"l1": e}): 1}, base(dlog, k))

    def tau(mono: Mono) -> TermDict:
        eps, f, m = mono
        if not eps or m % p != p - 1:
            return {}
        target = aspec.mono_from_names({"l1": f, "m2": m // p, **top})
        return {target: -1 if f % 2 else 1}

    return LongExactSpec(A, B, C, rho, boundary, tau, coefficient_action=nu)
