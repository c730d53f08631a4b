"""Tor over monomial algebras, two ways.

The oracle resolves the unit module by an explicit complex of free modules
(a Koszul two-term factor per polynomial generator, a divided-power tower per
exterior generator), whose generator words come, as int64 rows, from the
walk that enumerates every graded basis (graded_algebra.walk_rows).  It
verifies over F_p that the complex's only homology is F_p, then reads Tor
off pairs of free and trivial module summands without eliminating again.
The closed forms produce the same answers as algebra specs: an exterior
class [x] per polynomial generator, a divided-power tower [y] per exterior
generator.  Both feed second pages of spectral sequences.

The resolution is checked by a contracting homotopy, with no elimination.
A basis element m.g (base monomial m, generator word g) has the weight
m + g, one integer per base generator: a + e for x^a [x]^e, a + k for
y^a gamma_k.  Each term of d moves one unit from the word to the monomial,
so d keeps the weight (hence the internal degree) and lowers the
filtration by one, and d is the sum of its slot terms d_i, at most one per
element.  The elements of one weight span a tensor product of two-term
complexes F_p -> F_p, one per slot of nonzero weight, with differential
+-1: x^a <- x^(a-1) [x] and y gamma_(k-1) <- gamma_k.  The first factor, on
the lead slot L (the first slot of nonzero weight), is contractible, and
inverting its terms gives h with h d_L + d_L h = 1 and h d_j + d_j h = 0
for j != L, the standard homotopy of the Koszul complex (Eisenbud,
Commutative Algebra, ch. 17).  check_resolves_unit builds h from the lead
terms and verifies these identities element by element and slot by slot,
each a pair of gathers, together with d o d = 0 slot pair by slot pair and
a single element of weight 0, the unit.  Summed over the slots they give
dh + hd = 1 - pi, pi the projection onto the unit, a cycle that no term
of d reaches; so every cycle is the unit's multiple plus a boundary, and
the only homology is F_p at (0, 0).  The differential comes from index
arithmetic on the word rows and the base's basis rows, each term's
generator and monomial found by one sorted search per slot.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fp_linalg import CompositionNonzero
from .graded_algebra import (
    AlgebraSpec,
    Generator,
    MixedSpec,
    Mono,
    UnsupportedKind,
    UnsupportedShape,
    divided,
    exterior,
    hilbert,
    make_algebra,
    tensor,
    walk_rows,
)
from .key_arrays import _lookup, mono_rows
from .spectral_sequence import Page, PageLabel

GradedDims = dict[tuple[int, int], int]
Terms = tuple[np.ndarray, np.ndarray]  # a map of one term per element: (target, value)

_ACTIONS = ("free", "trivial")


@dataclass(frozen=True, eq=False)
class ModuleSpec:
    """A module over `over`, given either as shifted free/trivial summands or
    as a graded vector space (an algebra spec read additively) with the
    augmentation action.  Both fields empty means the unit module F_p.

    free_factors names coefficient factors of `over` that act freely on this
    module; closed forms cancel them by change of rings."""

    over: AlgebraSpec
    summands: Optional[tuple[tuple[int, str, str], ...]] = None
    trivial_action_coefficients: Optional[AlgebraSpec] = None
    free_factors: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.summands is not None:
            object.__setattr__(self, "summands", tuple(tuple(s) for s in self.summands))
            if self.trivial_action_coefficients is not None:
                raise UnsupportedShape("give summands or coefficients, not both")
            seen = set()
            for shift, label, action in self.summands:
                if shift < 0:
                    raise ValueError(f"summand {label!r} has negative shift")
                if label in seen:
                    raise ValueError(f"duplicate summand label {label!r}")
                seen.add(label)
                if action not in _ACTIONS:
                    raise ValueError(f"unknown action {action!r}")
        tac = self.trivial_action_coefficients
        if tac is not None:
            if tac.field != self.over.field:
                raise MixedSpec("module coefficients live over a different field")
            if tac.coefficients:
                raise UnsupportedShape(
                    "coefficient factors belong on the base algebra; name them"
                    " in free_factors instead"
                )
        object.__setattr__(self, "free_factors", tuple(self.free_factors))
        known = {c.name for c in self.over.coefficients}
        for name in self.free_factors:
            if name not in known:
                raise UnsupportedShape(
                    f"free_factors names {name!r}, not a coefficient factor of the base"
                )
        if len(set(self.free_factors)) != len(self.free_factors):
            raise ValueError("duplicate names in free_factors")


def fp_module(over: AlgebraSpec) -> ModuleSpec:
    """The unit module F_p with the augmentation action."""
    return ModuleSpec(over)


# -- resolutions ---------------------------------------------------------------------


@dataclass(frozen=True)
class ResolutionGen:
    """One free-module generator, encoded as per-base-generator exponents:
    0/1 for a Koszul letter over a polynomial generator, k >= 0 for the k-th
    stage of the divided tower over an exterior generator.  Its filtration
    is sum(word)."""

    word: Mono
    internal_degree: int


def _word_signs(poly: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Sign of the slot-i term of d on each generator, one row per word.

    d moves past the factors before slot i, whose parity is their homological
    degree: one per Koszul letter, k per tower stage gamma_k.  An exterior
    coefficient then moves left past the same factors, whose internal parity
    is k per tower stage, which cancels the stages' share; a polynomial
    coefficient moves freely.
    """
    before = np.cumsum(words, axis=1) - words
    letters = np.cumsum(words * poly, axis=1) - words * poly
    odd = letters + (before - letters) * poly
    return 1 - 2 * (odd % 2)


class ChainComplexOfFrees:
    """Free resolution of F_p, expanded over F_p.

    generators[s] lists the free-module generators in filtration s; the
    differential at (s, t) maps the degree-t slice of filtration s to the one
    below it.  Internal degrees are capped, so every slice is finite.  The
    generators are also held as arrays, one entry per generator in layer
    order: words (their words as int64 rows), layer and degree (internal).
    A complex is given by its generators, or by the word rows in layer
    order and their internal degrees (resolution does this), whose layers
    are the rows' sums; generators is then built on first read."""

    def __init__(self, algebra: AlgebraSpec, cap: int,
                 generators: Optional[tuple[tuple[ResolutionGen, ...], ...]] = None,
                 rows: Optional[tuple[np.ndarray, np.ndarray]] = None) -> None:
        self.algebra, self.cap = algebra, cap
        self._generators = generators
        if rows is None:
            layers = generators or ()
            gens = [g for layer in layers for g in layer]
            self.words = mono_rows([g.word for g in gens], len(algebra.generators))
            self.degree = np.array([g.internal_degree for g in gens], dtype=np.int64)
            self.layer = np.repeat(np.arange(len(layers)), [len(layer) for layer in layers])
            self.layers = len(layers)
        else:
            self.words, self.degree = rows
            self.layer = self.words.sum(axis=1)
            self.layers = int(self.layer.max(initial=-1)) + 1

    @property
    def generators(self) -> tuple[tuple[ResolutionGen, ...], ...]:
        if self._generators is None:
            layers: list[list[ResolutionGen]] = [[] for _ in range(self.layers)]
            for word, s, t in zip(self.words.tolist(), self.layer.tolist(), self.degree.tolist()):
                layers[s].append(ResolutionGen(tuple(word), t))
            self._generators = tuple(map(tuple, layers))
        return self._generators

    @property
    def top_filtration(self) -> int:
        return self.layers - 1

    def _blocks(self, mono_degree: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Generator g owns the elements first[g] .. first[g] + count[g] - 1:
        count[g] monomials, those of degree <= cap - |g|."""
        up_to = np.cumsum(np.bincount(mono_degree, minlength=self.cap + 1))
        room = self.cap - self.degree
        count = np.where(room >= 0, up_to[room], 0)
        return count, np.cumsum(count) - count

    def _bidegree(self, e: int) -> tuple[int, int]:
        """The (layer, internal degree) of element e of _differential."""
        mono_degree = self.algebra.basis_rows(self.cap)[1]
        count, first = self._blocks(mono_degree)
        g = np.searchsorted(first + count, e, side="right")
        return int(self.layer[g]), int(self.degree[g] + mono_degree[e - first[g]])

    def _differential(self) -> tuple[np.ndarray, ...]:
        """The differential of the whole complex, as arrays.

        Element e is (generator, base monomial): the generators in layer
        order, each with the monomials of degree <= cap - |g| in degree
        order, so every (s, t) slice is a run of ascending indices
        (_blocks; _bidegree reads one off).  Returns lead[e] (the first
        slot of nonzero weight, n if none), and target[e, i], value[e, i]:
        the slot-i term of d(e), value 0 if none.

        The slot-i term takes the generator with word - e_i, times the
        monomial m + e_i, which is zero over an exterior slot with m_i = 1.
        Its sign is _word_signs times the sign of that product, (-1)^(odd
        letters of m after i) over an exterior slot.
        """
        alg, n, words = self.algebra, len(self.algebra.generators), self.words
        poly = np.array([g.kind == "polynomial" for g in alg.generators], dtype=bool)
        monos, mono_degree = alg.basis_rows(self.cap)
        count, first = self._blocks(mono_degree)

        # words, monomials and weights in one mixed radix, with the layer as
        # the last digit: d keeps the weight and lowers the layer, so it
        # lowers the key by exactly one
        radix = words.max(axis=0, initial=0) + monos.max(axis=0, initial=0) + 1
        if math.prod(radix.tolist()) * self.layers >= 2**62:
            raise UnsupportedShape("resolution window too large to index")
        stride = np.array([math.prod(radix[i + 1:].tolist()) * self.layers for i in range(n)],
                          dtype=np.int64)
        gen_key, mono_key = words @ stride, monos @ stride

        # per slot: the generator with word - e_i (-1: none) and the monomial
        # m + e_i (-1: zero, -2: outside the window)
        below = _lookup(gen_key, gen_key[:, None] - stride, -1)
        up = _lookup(mono_key, mono_key[:, None] + stride, -2)
        up[(monos > 0) & ~poly] = -1
        odd = monos * ~poly
        after = odd.sum(axis=1, keepdims=True) - np.cumsum(odd, axis=1)
        mono_sign = np.where(poly, 1, 1 - 2 * (after % 2))

        # every element at once, one column per slot
        eg = np.repeat(np.arange(len(words)), count)
        em = np.arange(eg.size) - first[eg]
        below_e, up_e = below[eg], up[em]
        term = (words[eg] > 0) & (up_e != -1)
        if (term & ((below_e < 0) | (up_e < 0) | (up_e >= count[below_e]))).any():
            raise AssertionError("the differential leaves the basis of the complex")
        target = (first[below_e] + up_e) * term
        value = _word_signs(poly, words)[eg] * mono_sign[em] * term
        key = gen_key[eg] + self.layer[eg] + mono_key[em]
        if (term & (key[target] != key[:, None] - 1)).any():
            raise AssertionError("the differential leaves a weight block")
        # the weights of slots 0 .. i - 1 are all zero iff key < stride[i - 1],
        # so the lead slot counts the strides above the key
        lead = n - np.searchsorted(stride[::-1], key, side="right")
        return lead, target, value

    def check_resolves_unit(self) -> None:
        """d composes to zero and the only homology is F_p in bidegree (0, 0).

        Checked with explicit raises, so also under python -O.  d o d = 0
        slot pair by slot pair: d_i d_j + d_j d_i lands on one element with
        coefficients that cancel, and d_i d_i = 0.  Exactly one element, the
        unit, has weight 0.  The contracting homotopy h of _homotopy must
        then give, on every element x and for every slot j, d_j h + h d_j =
        x when j is the lead slot of x and 0 otherwise.  Summed over the
        slots, dh + hd = 1 - pi, pi the projection onto the unit (see the
        module docstring).
        """
        lead, target, value = self._differential()
        p, n = self.algebra.field.p, value.shape[1]
        slots = [(target[:, j], value[:, j] % p) for j in range(n)]
        for i, (t, v) in enumerate(slots):
            if (v * v[t]).any():
                raise CompositionNonzero("d o d != 0 on the resolution: a slot follows itself")
            for d_j in slots[i + 1:]:
                if not _cancel(p, *_two_paths((t, v), d_j)).all():
                    raise CompositionNonzero("d o d != 0 on the resolution")
        units = np.count_nonzero(lead == n)
        if units != 1:
            raise AssertionError(f"complex is not a resolution of F_p: {units} units")
        h = _homotopy(p, lead, target, value)
        here = np.arange(lead.size)
        for j, d_j in enumerate(slots):
            (s, a), (t, b) = _two_paths(d_j, h)
            # d_j h + h d_j is x on the lead slot of x, 0 on the others: each
            # live term lands on x, or off the lead slot on the other's element
            itself = lead == j
            on = np.where(itself, here, t)
            ok = ((a + b - itself) % p == 0) & ((a == 0) | (s == on)) & ((b == 0) | (t == on))
            if not ok.all():
                e = np.flatnonzero(~ok)[0]
                where = "its lead slot" if itself[e] else f"slot {j}"
                raise AssertionError(
                    f"complex is not a resolution of F_p: d_j h + h d_j is not"
                    f" {int(itself[e])} on {where} at bidegree {self._bidegree(e)}"
                )


def _two_paths(a: Terms, b: Terms) -> tuple[Terms, Terms]:
    """b after a and a after b on every element, for two maps with values
    reduced mod p (0: no term).  Each path is (element, coefficient): the
    product of two reduced values, so zero exactly when it is zero mod p."""
    (at, av), (bt, bv) = a, b
    return (bt[at], av * bv[at]), (at[bt], bv * av[bt])


def _cancel(p: int, x: Terms, y: Terms) -> np.ndarray:
    """Per element, whether the terms x and y sum to zero: they land on one
    element with coefficients that cancel mod p, or both vanish."""
    (s, a), (t, b) = x, y
    return ((a + b) % p == 0) & ((a == 0) | (s == t))


def _homotopy(p: int, lead: np.ndarray, target: np.ndarray, value: np.ndarray) -> Terms:
    """The contracting homotopy h: each live lead-slot term x -> c y (c != 0
    mod p) gives h(y) = x / c, and h is zero on every other element.  A c
    with c^2 = 1, such as the +-1 of every term of d, is its own inverse mod
    p; pow inverts any other."""
    src = np.flatnonzero(lead < target.shape[1])
    dst, c = target[src, lead[src]], value[src, lead[src]] % p
    live = c != 0
    src, dst, inverse = src[live], dst[live], c[live]
    other = np.flatnonzero(inverse * inverse % p != 1)
    inverse[other] = [pow(v, -1, p) for v in inverse[other].tolist()]
    h_target, h_value = np.zeros_like(lead), np.zeros_like(lead)
    h_target[dst], h_value[dst] = src, inverse
    return h_target, h_value


def _require_monomial_base(algebra: AlgebraSpec) -> None:
    if algebra.coefficients:
        raise UnsupportedKind(
            "coefficient factors cannot be resolved; cancel them by change of rings"
        )
    for g in algebra.generators:
        if g.kind not in ("polynomial", "exterior"):
            raise UnsupportedKind(f"no resolution over a {g.kind} generator")


def resolution(algebra: AlgebraSpec, cap: int) -> ChainComplexOfFrees:
    """Free resolution of F_p over a tensor of polynomial and exterior
    generators, exact in internal degrees <= cap (verified).

    The generator words come from the walk that enumerates graded bases,
    as int64 rows: a polynomial slot takes one Koszul letter, an exterior
    slot any number of tower stages.  The walk yields words in (internal
    degree, word) order, so a stable sort by filtration sum(word) puts
    each layer in that order.
    """
    _require_monomial_base(algebra)
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    gens = algebra.generators
    words, degree = walk_rows([g.total_degree for g in gens],
                              [1 if g.kind == "polynomial" else cap // g.total_degree
                               for g in gens], cap)
    order = words.sum(axis=1).argsort(kind="stable")
    out = ChainComplexOfFrees(algebra, cap, rows=(words[order], degree[order]))
    out.check_resolves_unit()
    return out


# -- the oracle ----------------------------------------------------------------------


def _check_same_base(algebra: AlgebraSpec, *modules: ModuleSpec) -> None:
    for m in modules:
        if m.over != algebra:
            raise MixedSpec("module is not given over the stated base algebra")


def tor_oracle(
    algebra: AlgebraSpec,
    left: ModuleSpec,
    right: ModuleSpec,
    cap: int,
) -> GradedDims:
    """Bigraded dims of Tor(left, right), read off summand pairs.

    Both modules split into shifted free and trivial summands, and Tor of
    a pair shifted by a and b is the pair's table shifted by a + b.  Two
    trivial summands give the resolution P of F_p with zero differential,
    since positive-degree generators act by zero: one class per generator
    of P, which check_resolves_unit has certified by a contracting
    homotopy.  Two free
    summands give the algebra itself in filtration 0, and a free with a
    trivial one gives F_p at (0, 0).  The window is internal degree <= cap
    (all filtrations land inside it).  One pair's table is shifted as it
    stands.  Otherwise the shifted tables of all summand pairs of one kind
    are one outer add of the pairs' shifts to the table's internal degrees,
    coded by (s, t), and one sort of the codes sums them."""
    _check_same_base(algebra, left, right)
    res = resolution(algebra, cap)
    tables = {
        ("trivial", "trivial"): Counter(zip(res.layer.tolist(), res.degree.tolist())),
        ("free", "trivial"): {(0, 0): 1},
        ("trivial", "free"): {(0, 0): 1},
    }

    def table(x: str, y: str) -> dict[tuple[int, int], int]:
        if (x, y) not in tables:  # free with free: the algebra, built on first use
            tables[x, y] = {(0, n): d for n, d in enumerate(hilbert(algebra, cap)) if d}
        return tables[x, y]

    lefts, rights = _summand_view(left, cap), _summand_view(right, cap)
    if len(lefts) == len(rights) == 1:  # one pair, as in a Tor grid: its table, shifted
        (a, x), (b, y) = lefts[0], rights[0]
        return {(s, a + b + t): d for (s, t), d in table(x, y).items() if a + b + t <= cap}
    width = cap + 1
    codes, dims = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for x, y in dict.fromkeys((x, y) for _, x in lefts for _, y in rights):
        bd = np.array(list(table(x, y)), dtype=np.int64).reshape(-1, 2)
        t = np.add.outer(np.add.outer([a for a, kind in lefts if kind == x],
                                      [b for b, kind in rights if kind == y]).ravel(), bd[:, 1])
        keep = t <= cap
        codes.append((bd[:, 0] * width + t)[keep])
        dims.append(np.broadcast_to(np.fromiter(table(x, y).values(), np.int64), t.shape)[keep])
    code = np.concatenate(codes)
    order = np.argsort(code, kind="stable")
    code = code[order]
    start = np.flatnonzero(np.diff(code, prepend=-1))
    s, t = np.divmod(code[start], width)
    dim = np.add.reduceat(np.concatenate(dims)[order], start)
    return dict(zip(zip(s.tolist(), t.tolist()), dim.tolist()))


def _summand_view(module: ModuleSpec, cap: int) -> list[tuple[int, str]]:
    """(shift, action) per summand; a coefficient basis element is a trivial one."""
    if module.summands is not None:
        return [(shift, action) for shift, _, action in module.summands]
    if module.trivial_action_coefficients is not None:
        degree = module.trivial_action_coefficients.basis_rows(cap)[1]
        return [(t, "trivial") for t in degree.tolist()]
    return [(0, "trivial")]


# -- closed forms --------------------------------------------------------------------


def derived_generators(algebra: AlgebraSpec) -> list[Generator]:
    """[x] exterior of bidegree (1, |x|) per polynomial x, [y] divided with
    stages at (k, k|y|) per exterior y."""
    out = []
    for g in algebra.generators:
        name = f"[{g.name}]"
        if g.kind == "polynomial":
            out.append(exterior(name, g.total_degree, filtration=1))
        elif g.kind == "exterior":
            out.append(divided(name, g.total_degree, filtration=1))
        else:
            raise UnsupportedKind(f"no closed form over a {g.kind} generator")
    return out


def _cancel_coefficients(algebra: AlgebraSpec, left: ModuleSpec, right: ModuleSpec) -> None:
    claimed = left.free_factors + right.free_factors
    if len(set(claimed)) != len(claimed):
        raise UnsupportedShape("a coefficient factor is cancelled from both sides")
    for c in algebra.coefficients:
        if c.name in claimed:
            continue
        if c.mode == "symbolic":
            raise UnsupportedShape(
                f"symbolic coefficient factor {c.name!r} must be cancelled by a"
                " freely-acting module"
            )


def tor_closed_form(
    algebra: AlgebraSpec, left: ModuleSpec, right: ModuleSpec, cap: int
) -> Page:
    """Closed-form Tor page for trivial-action modules: the coefficients of
    both sides tensored with the derived generators of the base.  Freely-acting
    coefficient factors of the base cancel against the module that names them."""
    _check_same_base(algebra, left, right)
    for mod in (left, right):
        if mod.summands is not None:
            raise UnsupportedShape(
                "summand modules have no generic closed form; use the oracle"
                " or the exterior-module page"
            )
    _cancel_coefficients(algebra, left, right)
    gens: list[Generator] = []
    for mod in (left, right):
        tac = mod.trivial_action_coefficients
        if tac is not None:
            gens.extend(tac.generators)
    gens.extend(derived_generators(algebra))
    spec = make_algebra(algebra.field, gens)
    return Page(spec, page_index=2, cap=cap)


def tor_exterior_module(
    y: Generator, module: ModuleSpec, coeff: AlgebraSpec, cap: int
) -> Page:
    """Tor over a single exterior algebra E(y) of a free-plus-trivial summand
    module, tensored with a trivially-acting coefficient algebra.  Free
    summands sit in filtration 0; each trivial summand of degree d carries a
    divided tower shifted by d.  The result is a labeled page."""
    if y.kind != "exterior":
        raise UnsupportedShape("the base generator must be exterior")
    base = module.over
    if base.coefficients or len(base.generators) != 1 or base.generators[0] != y:
        raise UnsupportedShape("the module must be given over E(y) exactly")
    if module.summands is None:
        raise UnsupportedShape("give the module as free/trivial summands")
    if coeff.field != base.field:
        raise MixedSpec("coefficients live over a different field")
    tower = make_algebra(
        base.field, [divided(f"[{y.name}]", y.total_degree, filtration=1)]
    )
    spec = tensor(coeff, tower)
    labels = tuple(
        PageLabel(label, shift, allows_gamma=(action == "trivial"))
        for shift, label, action in module.summands
    )
    return Page(spec, page_index=2, cap=cap, labels=labels)
