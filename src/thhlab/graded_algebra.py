"""Graded-commutative monomial algebras over F_p.

Generators carry an internal degree and a filtration degree; Koszul signs
are computed from the parity of their sum (the total degree).  Four kinds
are supported: exterior (odd total degree, square zero), polynomial (even),
truncated (even, x^h = 0 for a height h >= 2), and divided (even; the
exponent slot holds the index k of gamma_k, with gamma_i * gamma_j =
binom(i+j, i) * gamma_{i+j} reduced mod p).

Monomials are exponent tuples aligned with the generator tuple; raw element
dicts map monomials to nonzero coefficients, with zero as the empty dict.
The Element wrapper ties a dict to its spec so cross-spec arithmetic can be
rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Union

from .fp_linalg import PrimeField, map_matrix

Mono = tuple[int, ...]
TermDict = dict[Mono, int]

KINDS = ("exterior", "polynomial", "truncated", "divided")


class GradedError(Exception):
    """Base class for graded-algebra failures."""


class ParityViolation(GradedError):
    """Generator kind is incompatible with the parity of its total degree."""


class DuplicateName(GradedError):
    """Two generators (or coefficient factors) share a name."""


class MixedSpec(GradedError):
    """Elements of different algebra specs fed to one operation."""


class DegreeMismatch(GradedError):
    """An image or element is not homogeneous of the required degree."""


class UnsupportedKind(GradedError):
    """Generator kind outside what the requested operation can handle."""


class UnsupportedShape(GradedError):
    """Module or coefficient data outside the recognized closed forms."""


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int
    kind: str
    height: Optional[int] = None
    filtration: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("generator name must be nonempty")
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == "truncated":
            if self.height is None or self.height < 2:
                raise ValueError(f"truncated generator {self.name} needs height >= 2")
        elif self.height is not None:
            raise ValueError(f"height is only meaningful for truncated kind ({self.name})")
        if self.degree < 0 or self.filtration < 0:
            raise ValueError(f"negative degree data on {self.name}")
        total = self.degree + self.filtration
        if total == 0:
            raise ValueError(f"generator {self.name} has total degree 0")
        if self.kind == "exterior":
            if total % 2 == 0:
                raise ParityViolation(
                    f"exterior generator {self.name} must have odd total degree, got {total}"
                )
        elif total % 2 == 1:
            raise ParityViolation(
                f"{self.kind} generator {self.name} must have even total degree, got {total}"
            )

    @property
    def total_degree(self) -> int:
        return self.degree + self.filtration

    @property
    def is_odd(self) -> bool:
        return self.total_degree % 2 == 1

    def max_exponent(self, room: int) -> int:
        """Largest exponent this kind allows with total degree at most room."""
        e = room // self.total_degree
        if self.kind == "exterior":
            return min(e, 1)
        if self.kind == "truncated":
            return min(e, (self.height or 0) - 1)
        return e


def exterior(name: str, degree: int, filtration: int = 0) -> Generator:
    return Generator(name, degree, "exterior", None, filtration)


def polynomial(name: str, degree: int, filtration: int = 0) -> Generator:
    return Generator(name, degree, "polynomial", None, filtration)


def truncated(name: str, degree: int, height: int, filtration: int = 0) -> Generator:
    return Generator(name, degree, "truncated", height, filtration)


def divided(name: str, degree: int, filtration: int = 0) -> Generator:
    return Generator(name, degree, "divided", None, filtration)


@dataclass(frozen=True)
class CoefficientFactor:
    """Opaque unit-dimensional coefficient algebra carried along formally.

    mode "trivial" is literally F_p; mode "symbolic" stands for a connected
    factor that must be cancelled by a change-of-rings step before any Tor
    computation (tor raises UnsupportedShape otherwise).  Both contribute
    only the unit to dimension counts.
    """

    name: str
    mode: str = "trivial"

    def __post_init__(self) -> None:
        if self.mode not in ("trivial", "symbolic"):
            raise ValueError(f"unknown coefficient mode {self.mode!r}")


@dataclass(frozen=True)
class AlgebraSpec:
    field: PrimeField
    generators: tuple[Generator, ...]
    coefficients: tuple[CoefficientFactor, ...] = ()

    def __post_init__(self) -> None:
        names = [g.name for g in self.generators] + [c.name for c in self.coefficients]
        seen = set()
        for n in names:
            if n in seen:
                raise DuplicateName(f"name {n!r} appears twice")
            seen.add(n)
        object.__setattr__(
            self, "_index", {g.name: i for i, g in enumerate(self.generators)}
        )
        object.__setattr__(
            self, "_odd_slots", tuple(i for i, g in enumerate(self.generators) if g.is_odd)
        )

    # -- monomial bookkeeping ------------------------------------------------

    @property
    def unit(self) -> Mono:
        return (0,) * len(self.generators)

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]  # type: ignore[attr-defined]
        except KeyError:
            raise ValueError(f"unknown generator {name!r}") from None

    def total_degree_of(self, mono: Mono) -> int:
        return sum(e * g.total_degree for e, g in zip(mono, self.generators))

    def bidegree_of(self, mono: Mono) -> tuple[int, int]:
        s = sum(e * g.filtration for e, g in zip(mono, self.generators))
        t = sum(e * g.degree for e, g in zip(mono, self.generators))
        return s, t

    def parity_of(self, mono: Mono) -> int:
        return self.total_degree_of(mono) % 2

    def mono_from_names(self, powers: Mapping[str, int]) -> Mono:
        exps = [0] * len(self.generators)
        for name, e in powers.items():
            i = self.index_of(name)
            g = self.generators[i]
            if e < 0:
                raise ValueError(f"negative exponent on {name}")
            if g.kind == "exterior" and e > 1:
                raise ValueError(f"exterior exponent > 1 on {name}")
            if g.kind == "truncated" and e >= (g.height or 0):
                raise ValueError(f"exponent {e} exceeds truncation height of {name}")
            exps[i] = e
        return tuple(exps)

    # -- multiplication ------------------------------------------------------

    def mono_mul(self, m1: Mono, m2: Mono) -> Optional[tuple[int, Mono]]:
        """Product of two monomials: (coefficient, monomial), or None if zero.

        The Koszul sign moves each odd letter of m2 left past the odd letters
        of m1 that sit at a later generator index; divided slots combine by
        the binomial law, which is the only source of coefficients besides
        the sign.
        """
        p = self.field.p
        odd_slots = self._odd_slots  # type: ignore[attr-defined]
        swaps = 0
        for pos, j in enumerate(odd_slots):
            if m2[j]:
                swaps += m2[j] * sum(m1[i] for i in odd_slots[pos + 1 :])
        coeff = p - 1 if swaps % 2 else 1
        exps = list(m1)
        for i, g in enumerate(self.generators):
            e2 = m2[i]
            if e2 == 0:
                continue
            e = exps[i] + e2
            if g.kind == "exterior" and e > 1:
                return None
            if g.kind == "truncated" and e >= (g.height or 0):
                return None
            if g.kind == "divided" and exps[i]:
                c = math.comb(e, e2) % p
                if c == 0:
                    return None
                coeff = coeff * c % p
            exps[i] = e
        return coeff, tuple(exps)

    def mul_dicts(self, a: TermDict, b: TermDict) -> TermDict:
        p = self.field.p
        out: TermDict = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                r = self.mono_mul(m1, m2)
                if r is None:
                    continue
                c, m = r
                v = (out.get(m, 0) + c1 * c2 * c) % p
                if v:
                    out[m] = v
                elif m in out:
                    del out[m]
        return out

    def add_dicts(self, a: TermDict, b: TermDict) -> TermDict:
        p = self.field.p
        out = dict(a)
        for m, c in b.items():
            v = (out.get(m, 0) + c) % p
            if v:
                out[m] = v
            elif m in out:
                del out[m]
        return out

    def scale_dict(self, c: int, a: TermDict) -> TermDict:
        c %= self.field.p
        if c == 0:
            return {}
        return {m: (c * v) % self.field.p for m, v in a.items()}

    def dict_total_degree(self, a: TermDict) -> Optional[int]:
        """Common total degree of a homogeneous element; None for zero."""
        degs = {self.total_degree_of(m) for m in a}
        if not degs:
            return None
        if len(degs) > 1:
            raise DegreeMismatch(f"element mixes total degrees {sorted(degs)}")
        return degs.pop()

    # -- bases and display -----------------------------------------------------

    def basis_by_degree(self, cap: int) -> dict[int, list[Mono]]:
        """All normal-form monomials of total degree <= cap, keyed by degree."""
        table: dict[int, list[Mono]] = {n: [] for n in range(cap + 1)}
        gens = self.generators
        mono = [0] * len(gens)

        def rec(i: int, deg: int) -> None:
            if i == len(gens):
                table[deg].append(tuple(mono))
                return
            d = gens[i].total_degree
            for e in range(gens[i].max_exponent(cap - deg) + 1):
                mono[i] = e
                rec(i + 1, deg + e * d)
            mono[i] = 0

        rec(0, 0)
        return table

    def basis(self, cap: int) -> list[Mono]:
        table = self.basis_by_degree(cap)
        return [m for n in range(cap + 1) for m in table[n]]

    def format_mono(self, mono: Mono) -> str:
        parts = []
        for g, e in zip(self.generators, mono):
            if e == 0:
                continue
            if g.kind == "divided":
                parts.append(g.name if e == 1 else f"g{e}({g.name})")
            elif e == 1:
                parts.append(g.name)
            else:
                parts.append(f"{g.name}^{e}")
        return "*".join(parts) if parts else "1"

    def format_dict(self, a: TermDict) -> str:
        if not a:
            return "0"
        items = sorted(a.items())
        return " + ".join(
            self.format_mono(m) if c == 1 else f"{c}*{self.format_mono(m)}"
            for m, c in items
        )

    def element(self, terms: Union[TermDict, Sequence[tuple[int, Mapping[str, int]]]]) -> "Element":
        return Element(self, self.dict_from_input(terms))

    def dict_from_input(
        self, terms: Union["Element", TermDict, Sequence[tuple[int, Mapping[str, int]]]]
    ) -> TermDict:
        """Normalize user input (Element, mono dict, or (coeff, names) pairs)."""
        if isinstance(terms, Element):
            if terms.spec != self:
                raise MixedSpec("element belongs to a different spec")
            return dict(terms.terms)
        if isinstance(terms, dict):
            out: TermDict = {}
            for m, c in terms.items():
                c %= self.field.p
                if len(m) != len(self.generators):
                    raise ValueError(f"monomial arity {len(m)} != {len(self.generators)}")
                if c:
                    out[tuple(m)] = c
            return out
        out = {}
        for c, powers in terms:
            m = self.mono_from_names(powers)
            v = (out.get(m, 0) + c) % self.field.p
            if v:
                out[m] = v
            elif m in out:
                del out[m]
        return out


def make_algebra(
    field: Union[PrimeField, int],
    generators: Sequence[Generator],
    coefficients: Sequence[CoefficientFactor] = (),
) -> AlgebraSpec:
    """Validated algebra spec over F_p (accepts a prime or a PrimeField)."""
    if isinstance(field, int):
        field = PrimeField(field)
    return AlgebraSpec(field, tuple(generators), tuple(coefficients))


@dataclass(frozen=True)
class Element:
    spec: AlgebraSpec
    terms: TermDict = field(default_factory=dict)

    def __post_init__(self) -> None:
        p = self.spec.field.p
        clean = {m: c % p for m, c in self.terms.items() if c % p}
        object.__setattr__(self, "terms", clean)

    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        return self.spec.format_dict(self.terms)


def _same_spec(spec: AlgebraSpec, *elts: Element) -> None:
    for e in elts:
        if e.spec != spec:
            raise MixedSpec("elements belong to different specs")


def multiply(spec: AlgebraSpec, a: Element, b: Element) -> Element:
    _same_spec(spec, a, b)
    return Element(spec, spec.mul_dicts(a.terms, b.terms))


def add(spec: AlgebraSpec, a: Element, b: Element) -> Element:
    _same_spec(spec, a, b)
    return Element(spec, spec.add_dicts(a.terms, b.terms))


def scale(spec: AlgebraSpec, c: int, a: Element) -> Element:
    _same_spec(spec, a)
    return Element(spec, spec.scale_dict(c, a.terms))


def tensor(a: AlgebraSpec, b: AlgebraSpec) -> AlgebraSpec:
    """Disjoint union of generators; DuplicateName if names collide."""
    if a.field != b.field:
        raise MixedSpec("tensor factors live over different fields")
    return AlgebraSpec(a.field, a.generators + b.generators, a.coefficients + b.coefficients)


# -- dimension series ---------------------------------------------------------


def dims_convolve(a: Sequence[int], b: Sequence[int], cap: int) -> list[int]:
    out = [0] * (cap + 1)
    for i, x in enumerate(a[: cap + 1]):
        if x == 0:
            continue
        for j, y in enumerate(b[: cap + 1 - i]):
            if y:
                out[i + j] += x * y
    return out

def dims_add(a: Sequence[int], b: Sequence[int], cap: int) -> list[int]:
    out = [0] * (cap + 1)
    for i, x in enumerate(a[: cap + 1]):
        out[i] += x
    for i, x in enumerate(b[: cap + 1]):
        out[i] += x
    return out


def dims_shift(a: Sequence[int], shift: int, cap: int) -> list[int]:
    out = [0] * (cap + 1)
    for i, x in enumerate(a):
        if 0 <= i + shift <= cap:
            out[i + shift] += x
    return out


def generator_dims(g: Generator, cap: int) -> list[int]:
    s = [0] * (cap + 1)
    s[0] = 1
    d = g.total_degree
    if g.kind == "exterior":
        if d <= cap:
            s[d] = 1
    elif g.kind == "truncated":
        for e in range(1, g.height or 0):
            if e * d > cap:
                break
            s[e * d] = 1
    else:  # polynomial and divided have identical dimension series
        for k in range(d, cap + 1, d):
            s[k] = 1
    return s


def hilbert(spec: AlgebraSpec, cap: int) -> list[int]:
    """Dimensions by total degree 0..cap (coefficient factors are unit)."""
    out = [0] * (cap + 1)
    out[0] = 1
    for g in spec.generators:
        out = dims_convolve(out, generator_dims(g, cap), cap)
    return out


def bigraded_dims(spec: AlgebraSpec, cap: int) -> dict[tuple[int, int], int]:
    """Dimensions by (filtration, internal) bidegree, for total degree <= cap."""
    out: dict[tuple[int, int], int] = {(0, 0): 1}
    for g in spec.generators:
        gen_table: dict[tuple[int, int], int] = {(0, 0): 1}
        d = g.total_degree
        if g.kind == "exterior":
            emax = 1
        elif g.kind == "truncated":
            emax = (g.height or 0) - 1
        else:
            emax = cap // d
        for e in range(1, emax + 1):
            if e * d > cap:
                break
            gen_table[(e * g.filtration, e * g.degree)] = 1
        new: dict[tuple[int, int], int] = {}
        for (s1, t1), n1 in out.items():
            for (s2, t2), n2 in gen_table.items():
                if s1 + s2 + t1 + t2 <= cap:
                    key = (s1 + s2, t1 + t2)
                    new[key] = new.get(key, 0) + n1 * n2
        out = new
    return out


# -- morphism checking --------------------------------------------------------


@dataclass(frozen=True)
class DegreeRank:
    degree: int
    dim_source: int
    dim_target: int
    rank: int

    @property
    def injective(self) -> bool:
        return self.rank == self.dim_source

    @property
    def surjective(self) -> bool:
        return self.rank == self.dim_target

    @property
    def iso(self) -> bool:
        return self.injective and self.surjective


@dataclass(frozen=True)
class MorphismReport:
    degrees: tuple[DegreeRank, ...]
    relation_results: tuple[tuple[str, bool], ...]

    @property
    def relations_ok(self) -> bool:
        return all(ok for _, ok in self.relation_results)

    @property
    def injective(self) -> bool:
        return self.relations_ok and all(r.injective for r in self.degrees)

    @property
    def surjective(self) -> bool:
        return self.relations_ok and all(r.surjective for r in self.degrees)

    @property
    def iso(self) -> bool:
        return self.injective and self.surjective

    def failures(self) -> list[str]:
        out = [f"relation {desc} not preserved" for desc, ok in self.relation_results if not ok]
        out += [f"degree {r.degree}: rank {r.rank} of {r.dim_source} -> {r.dim_target}"
                for r in self.degrees if not r.iso]
        return out


def algebra_map(
    source, target: AlgebraSpec, images: Mapping[str, object]
) -> tuple[Callable[[Mono], TermDict], tuple[tuple[str, bool], ...]]:
    """Multiplicative extension of generator images, and its relation checks.

    source may be an AlgebraSpec or a Presentation (anything exposing
    generators via .algebra and optionally .rules).  images maps every source
    generator name to a target element (Element, mono dict, or (coeff,
    {name: exp}) pairs).  Divided source generators only support images
    c * (single divided target generator); anything else raises
    UnsupportedKind since a general map of divided powers is not determined
    by the image of gamma_1.  Returns the image of a source monomial and one
    (description, holds) pair per kind truncation and per rewrite rule.
    """
    src_alg: AlgebraSpec = getattr(source, "algebra", source)
    if src_alg.field != target.field:
        raise MixedSpec("source and target live over different fields")
    p = target.field.p

    img: dict[str, TermDict] = {}
    divided_images: dict[str, tuple[int, int]] = {}  # name -> (scalar, target slot)
    for g in src_alg.generators:
        if g.name not in images:
            raise ValueError(f"no image given for generator {g.name}")
        terms = target.dict_from_input(images[g.name])  # type: ignore[arg-type]
        d = target.dict_total_degree(terms)
        if d is not None and d != g.total_degree:
            raise DegreeMismatch(
                f"image of {g.name} has total degree {d}, expected {g.total_degree}"
            )
        if g.kind == "divided":
            if terms:
                if len(terms) != 1:
                    raise UnsupportedKind(
                        f"image of divided generator {g.name} must be a scalar times "
                        "a single divided generator"
                    )
                (m, c), = terms.items()
                slots = [i for i, e in enumerate(m) if e]
                if (
                    len(slots) != 1
                    or m[slots[0]] != 1
                    or target.generators[slots[0]].kind != "divided"
                ):
                    raise UnsupportedKind(
                        f"image of divided generator {g.name} must be a scalar times "
                        "a single divided generator"
                    )
                divided_images[g.name] = (c, slots[0])
            else:
                divided_images[g.name] = (0, -1)
        img[g.name] = terms

    # the left-to-right product over slots, shared by last-slot recursion:
    # image(m) = image(m with its last slot lowered by one) * img[g], and a
    # divided slot is taken whole, as gamma_e -> c^e gamma_e
    memo: dict[Mono, TermDict] = {src_alg.unit: {target.unit: 1}}

    def image_of_mono(mono: Mono) -> TermDict:
        steps: list[tuple[Mono, TermDict]] = []
        while mono not in memo:
            i = max(j for j, e in enumerate(mono) if e)
            g, e = src_alg.generators[i], mono[i]
            if g.kind == "divided":
                c, slot = divided_images[g.name]
                factor = {tuple(e if j == slot else 0 for j in range(len(target.generators))):
                          pow(c, e, p)} if c else {}
                e = 0
            else:
                factor, e = img[g.name], e - 1
            steps.append((mono, factor))
            mono = mono[:i] + (e,) + mono[i + 1:]
        acc = memo[mono]
        for m, factor in reversed(steps):
            acc = memo[m] = target.mul_dicts(acc, factor)
        return acc

    # relation checks: kind truncations, then declared rewrite rules if any
    relation_results: list[tuple[str, bool]] = []
    for g in src_alg.generators:
        if g.kind == "exterior":
            sq = target.mul_dicts(img[g.name], img[g.name])
            relation_results.append((f"{g.name}^2 -> 0", not sq))
        elif g.kind == "truncated":
            power: TermDict = {target.unit: 1}
            for _ in range(g.height or 0):
                power = target.mul_dicts(power, img[g.name])
            relation_results.append((f"{g.name}^{g.height} -> 0", not power))
    for rule in getattr(source, "rules", ()):
        lhs_img = image_of_mono(rule.lhs)
        rhs_img: TermDict = {}
        for m, c in rule.rhs.items():
            rhs_img = target.add_dicts(rhs_img, target.scale_dict(c, image_of_mono(m)))
        diff = target.add_dicts(lhs_img, target.scale_dict(-1, rhs_img))
        desc = f"{src_alg.format_mono(rule.lhs)} -> {src_alg.format_dict(rule.rhs)}"
        relation_results.append((desc, not diff))
    return image_of_mono, tuple(relation_results)


def check_morphism(source, target: AlgebraSpec, images: Mapping[str, object], cap: int) -> MorphismReport:
    """Degreewise rank table and relation checks for a declared algebra map
    (see algebra_map); source also needs a basis_by_degree(cap)."""
    image_of_mono, relation_results = algebra_map(source, target, images)
    src_basis = source.basis_by_degree(cap)
    tgt_basis = target.basis_by_degree(cap)
    rows = []
    for n in range(cap + 1):
        srcs = src_basis.get(n, [])
        tgts = tgt_basis.get(n, [])
        mat = map_matrix(target.field, srcs, {m: i for i, m in enumerate(tgts)}, image_of_mono)
        rows.append(DegreeRank(n, len(srcs), len(tgts), mat.rank()))
    return MorphismReport(tuple(rows), relation_results)
