"""Tor over monomial algebras, two ways.

The oracle resolves the unit module by an explicit complex of free modules
(a Koszul two-term factor per polynomial generator, a divided-power tower per
exterior generator), expands it to matrices over F_p, verifies by
elimination that its only homology is F_p, and tensors the other side in
without eliminating again.  The closed forms produce the same answers as
algebra specs: an exterior class [x] per polynomial generator, a
divided-power tower [y] per exterior generator.  Both feed second pages of
spectral sequences.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

from .fp_linalg import FpMatrix, homology_dim, map_matrix
from .graded_algebra import (
    AlgebraSpec,
    Generator,
    MixedSpec,
    Mono,
    UnsupportedKind,
    UnsupportedShape,
    dims_add,
    dims_shift,
    divided,
    exterior,
    hilbert,
    make_algebra,
    tensor,
)
from .spectral_sequence import Page, PageLabel

GradedDims = dict[tuple[int, int], int]

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


def module_dims(module: ModuleSpec, cap: int) -> list[int]:
    """Dimensions of the underlying graded vector space, degrees 0..cap."""
    dims = [0] * (cap + 1)
    if module.summands is not None:
        base = hilbert(module.over, cap)
        for shift, _, action in module.summands:
            if shift > cap:
                continue
            if action == "free":
                dims = dims_add(dims, dims_shift(base, shift, cap), cap)
            else:
                dims[shift] += 1
        return dims
    if module.trivial_action_coefficients is not None:
        return hilbert(module.trivial_action_coefficients, cap)
    dims[0] = 1
    return dims


# -- resolutions ---------------------------------------------------------------------


@dataclass(frozen=True)
class ResolutionGen:
    """One free-module generator, encoded as per-base-generator exponents:
    0/1 for a Koszul letter over a polynomial generator, k >= 0 for the k-th
    stage of the divided tower over an exterior generator."""

    word: Mono
    filtration: int
    internal_degree: int


@dataclass(eq=False)
class ChainComplexOfFrees:
    """Free resolution of F_p, expanded to F_p-matrices per bidegree.

    generators[s] lists the free-module generators in filtration s; the
    differential at (s, t) maps the degree-t slice of filtration s to the one
    below it.  Internal degrees are capped, so every slice is finite."""

    algebra: AlgebraSpec
    cap: int
    generators: tuple[tuple[ResolutionGen, ...], ...]

    def __post_init__(self) -> None:
        self._mono_table = self.algebra.basis_by_degree(self.cap)
        self._basis_cache: dict[tuple[int, int], list[tuple[Mono, ResolutionGen]]] = {}
        self._matrix_cache: dict[tuple[int, int], FpMatrix] = {}

    @property
    def top_filtration(self) -> int:
        return len(self.generators) - 1

    def basis_at(self, s: int, t: int) -> list[tuple[Mono, ResolutionGen]]:
        """Monomial basis (base monomial, generator) of the (s, t) slice."""
        if s < 0 or s > self.top_filtration or t < 0 or t > self.cap:
            return []
        key = (s, t)
        if key not in self._basis_cache:
            out = []
            for g in self.generators[s]:
                for m in self._mono_table.get(t - g.internal_degree, ()):
                    out.append((m, g))
            self._basis_cache[key] = out
        return self._basis_cache[key]

    def _boundary_terms(self, word: Mono) -> list[tuple[int, Mono, Mono]]:
        """(sign, coefficient monomial, reduced word) triples for d of a generator.

        The i-th term moves d past the factors before slot i, whose parity is
        their homological degree: one per Koszul letter, k per tower stage
        gamma_k.  An odd (exterior) coefficient then moves left past the same
        factors, whose internal parity is k per tower stage, which cancels
        the stages' share; an even (polynomial) coefficient moves freely.
        """
        gens = self.algebra.generators
        out = []
        letters = stages = 0
        for i, g in enumerate(gens):
            e = word[i]
            if e:
                odd = letters + (stages if g.kind == "polynomial" else 0)
                coeff = tuple(1 if j == i else 0 for j in range(len(gens)))
                reduced = word[:i] + (e - 1,) + word[i + 1 :]
                out.append((-1 if odd % 2 else 1, coeff, reduced))
            if g.kind == "polynomial":
                letters += e
            else:
                stages += e
        return out

    def matrix(self, s: int, t: int) -> FpMatrix:
        """The differential (s, t) -> (s - 1, t) on the monomial bases."""
        key = (s, t)
        if key not in self._matrix_cache:
            rows = {(m, g.word): i for i, (m, g) in enumerate(self.basis_at(s - 1, t))}

            def image(elt: tuple[Mono, ResolutionGen]) -> dict:
                m, g = elt
                out = {}
                for sign, coeff, reduced in self._boundary_terms(g.word):
                    prod = self.algebra.mono_mul(m, coeff)
                    if prod is not None:
                        out[(prod[1], reduced)] = sign * prod[0]
                return out

            self._matrix_cache[key] = map_matrix(
                self.algebra.field, self.basis_at(s, t), rows, image
            )
        return self._matrix_cache[key]

    def homology_dims(self) -> GradedDims:
        """Homology of the complex on the capped window (internal degree <= cap)."""
        out: GradedDims = {}
        for s in range(self.top_filtration + 1):
            for t in range(self.cap + 1):
                if not self.basis_at(s, t):
                    continue
                h = homology_dim(self.matrix(s + 1, t), self.matrix(s, t))
                if h:
                    out[(s, t)] = h
        return out

    def check_resolves_unit(self) -> None:
        """d composes to zero and the only homology is F_p in bidegree (0, 0)."""
        extra = dict(self.homology_dims())
        if extra.pop((0, 0), 0) != 1 or extra:
            raise AssertionError(f"complex is not a resolution of F_p: {extra}")


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
    generators, exact in internal degrees <= cap (verified)."""
    _require_monomial_base(algebra)
    gens = algebra.generators
    by_fil: dict[int, list[ResolutionGen]] = defaultdict(list)
    word = [0] * len(gens)

    def rec(i: int, s: int, t: int) -> None:
        if i == len(gens):
            by_fil[s].append(ResolutionGen(tuple(word), s, t))
            return
        d = gens[i].total_degree
        emax = (cap - t) // d
        if gens[i].kind == "polynomial":
            emax = min(emax, 1)
        for e in range(emax + 1):
            word[i] = e
            rec(i + 1, s + e, t + e * d)
        word[i] = 0

    rec(0, 0, 0)
    top = max(by_fil)
    layers = tuple(
        tuple(sorted(by_fil.get(s, ()), key=lambda g: (g.internal_degree, g.word)))
        for s in range(top + 1)
    )
    out = ChainComplexOfFrees(algebra, cap, layers)
    out.check_resolves_unit()
    return out


# -- the oracle ----------------------------------------------------------------------


def _tor_with_unit(res: ChainComplexOfFrees, module: ModuleSpec, cap: int) -> GradedDims:
    """Tor(module, F_p), bigraded, read off the verified resolution P of F_p.

    The module splits into shifted summands (_summand_view), and so does
    module tensor P.  A trivial summand of degree d gives F_p[d] tensor P:
    the generators of P shifted by d, with zero differential, because the
    differential of P multiplies by positive-degree generators, which act by
    zero on it.  A free summand A[shift] gives P[shift], whose homology is
    F_p at (0, shift), since check_resolves_unit has already verified by
    elimination that P resolves F_p in internal degrees <= cap.
    """
    out: defaultdict[tuple[int, int], int] = defaultdict(int)
    for shift, _, action in _summand_view(module, cap):
        if shift > cap:
            continue
        if action == "free":
            out[(0, shift)] += 1
            continue
        for s, layer in enumerate(res.generators):
            for g in layer:
                if shift + g.internal_degree <= cap:
                    out[(s, shift + g.internal_degree)] += 1
    return dict(sorted(out.items()))


def _check_same_base(algebra: AlgebraSpec, *modules: ModuleSpec) -> None:
    for m in modules:
        if m.over != algebra:
            raise MixedSpec("module is not given over the stated base algebra")


def tor_oracle(
    algebra: AlgebraSpec,
    left: ModuleSpec,
    right: ModuleSpec,
    cap: int,
    resolve_side: str = "right",
) -> GradedDims:
    """Bigraded dims of Tor(left, right): resolve the unit, verify the
    resolution, and tensor both sides in summand by summand.  The window is
    internal degree <= cap (all filtrations land inside it)."""
    _check_same_base(algebra, left, right)
    if resolve_side == "left":
        return tor_oracle(algebra, right, left, cap, resolve_side="right")
    if resolve_side != "right":
        raise ValueError(f"unknown resolve_side {resolve_side!r}")
    res = resolution(algebra, cap)
    out: defaultdict[tuple[int, int], int] = defaultdict(int)
    unit_part: Optional[GradedDims] = None
    left_dims: Optional[list[int]] = None
    for shift, _, action in _summand_view(right, cap):
        if shift > cap:
            continue
        if action == "free":
            if left_dims is None:
                left_dims = module_dims(left, cap)
            for n, d in enumerate(left_dims):
                if d and n + shift <= cap:
                    out[(0, n + shift)] += d
        else:
            if unit_part is None:
                unit_part = _tor_with_unit(res, left, cap)
            for (s, t), d in unit_part.items():
                if t + shift <= cap:
                    out[(s, t + shift)] += d
    return {bd: d for bd, d in out.items() if d}


def _summand_view(module: ModuleSpec, cap: int) -> list[tuple[int, str, str]]:
    if module.summands is not None:
        return list(module.summands)
    if module.trivial_action_coefficients is not None:
        table = module.trivial_action_coefficients.basis_by_degree(cap)
        return [
            (t, f"m{t}.{i}", "trivial")
            for t, monos in table.items()
            for i, _ in enumerate(monos)
        ]
    return [(0, "1", "trivial")]


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
