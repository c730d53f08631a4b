"""Graded-commutative monomial algebras over F_p.

Generators carry an internal degree and a filtration degree; Koszul signs
are computed from the parity of their sum (the total degree).  Four kinds
are supported: exterior (odd total degree, square zero), polynomial (even),
truncated (even, x^h = 0 for a height h >= 2), and divided (even; the
exponent slot holds the index k of gamma_k, with gamma_i * gamma_j =
binom(i+j, i) * gamma_{i+j} reduced mod p).

Monomials are exponent tuples aligned with the generator tuple; element
dicts map monomials to nonzero coefficients, with zero as the empty dict.
Bases come from one array walk (walk_rows) as int64 exponent rows with
their degrees; basis_by_degree is the dict view of those rows.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .fp_linalg import PrimeField, count_ranks, map_rank
from .key_arrays import lex_ids

Mono = tuple[int, ...]
TermDict = dict[Mono, int]

KINDS = ("exterior", "polynomial", "truncated", "divided")
_NO_LIMIT = int(np.iinfo(np.int64).max)  # the exponent limit of a polynomial or divided slot


class GradedError(Exception):
    """Base class for graded-algebra failures."""


class ParityViolation(GradedError):
    """Generator kind is incompatible with the parity of its total degree."""


class DuplicateName(GradedError):
    """Two generators (or coefficient factors) share a name."""


class MixedSpec(GradedError):
    """Inputs over different fields or base algebras fed to one operation."""


class DegreeMismatch(GradedError):
    """An image or element is not homogeneous of the required degree."""


class UnsupportedKind(GradedError):
    """Generator kind outside what the requested operation can handle."""


class UnsupportedShape(GradedError):
    """Module or coefficient data outside the recognized closed forms."""


class LucasViolation(GradedError):
    """Peeling a divided-power atom gave a coefficient that is not a unit."""


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


@dataclass(frozen=True, eq=False)
class SlotBounds:
    """The monomials that no word of a walk may be divisible by (a
    presentation's rule lhs), as bounds on each slot's exponent, each
    monomial at its last nonzero slot i with exponent a there: the word's
    slot i may rise to at most a - 1 once its earlier slots reach the
    monomial's.  start[i] bounds slot i on every word (the one-letter
    monomials).  after[j], if not None, is a table whose row e bounds every
    later slot once slot j holds e (row 0 bounds nothing; a larger e reads
    the last row), for the two-letter monomials; a running minimum over e
    makes each row hold every monomial whose slot-j exponent is at most e.
    longer[i] holds, per longer monomial, its earlier slots as positions in
    watched, their exponents and a - 1, compared on the words' columns of
    the watched slots."""

    start: np.ndarray
    after: tuple[Optional[np.ndarray], ...]
    longer: tuple[tuple[tuple[np.ndarray, np.ndarray, int], ...], ...]
    watched: tuple[int, ...]


def slot_bounds(width: int, monos: Sequence[Mono]) -> SlotBounds:
    """The SlotBounds of words of width slots that none of monos (nonzero
    exponent tuples) divides."""
    start = np.full(width, _NO_LIMIT, dtype=np.int64)
    pairs: list[list[tuple[int, int, int]]] = [[] for _ in range(width)]
    longer: list[list[tuple[list[tuple[int, int]], int]]] = [[] for _ in range(width)]
    for mono in monos:
        *rest, (i, a) = [(j, e) for j, e in enumerate(mono) if e]
        if not rest:
            start[i] = min(start[i], a - 1)
        elif len(rest) == 1:
            pairs[rest[0][0]].append((rest[0][1], i, a - 1))
        else:
            longer[i].append((rest, a - 1))
    after: list[Optional[np.ndarray]] = []
    for by_j in pairs:
        table = None
        if by_j:
            table = np.full((max(e for e, _, _ in by_j) + 1, width), _NO_LIMIT, dtype=np.int64)
            for e, i, bound in by_j:
                table[e, i] = min(table[e, i], bound)
            np.minimum.accumulate(table, axis=0, out=table)
        after.append(table)
    watched = sorted({j for rules in longer for rest, _ in rules for j, _ in rest})
    return SlotBounds(start, tuple(after), tuple(
        tuple((np.array([watched.index(j) for j, _ in rest]), np.array([e for _, e in rest]), a)
              for rest, a in rules) for rules in longer), tuple(watched))


def walk_rows(degrees: Sequence[int], limits: Sequence[int], cap: int,
              bounds: Optional[SlotBounds] = None) -> tuple[np.ndarray, np.ndarray]:
    """Exponent words of degree <= cap as int64 rows, by degree and
    lexicographic within a degree, and their degrees.

    The one enumerator of graded bases: algebra bases, rewriting bases and
    the generator words of Tor resolutions.  Slot i has degree degrees[i]
    and exponents 0..limits[i], and bounds, if given, keeps out the words
    that its monomials divide.  The walk goes slot by slot: every prefix
    is extended by all of its exponents at once, an outer sum of its degree
    and the slot's multiples, and one row-major nonzero keeps the
    candidates of degree <= cap and under the prefix's bound.  The walk
    keeps only each prefix's parent, exponent and degree, and each
    prefix's bounds on the later slots, which a two-letter monomial
    lowers through a table row once its first slot is reached.  The
    prefixes stay in lexicographic order, so one stable sort by degree at
    the end gives the order, and the columns are read back through the
    parents.  Every prefix of a kept word is kept, with zeros after it,
    so no step holds more rows than the result.  A negative cap gives no
    rows.
    """
    width = len(degrees)
    if cap < 0:
        return np.zeros((0, width), dtype=np.int64), np.zeros(0, dtype=np.int64)
    deg = np.zeros(1, dtype=np.int64)
    steps: list[tuple[int, np.ndarray, np.ndarray]] = []  # (slot, parent, exponent)
    if bounds is not None:  # the bounds on slots lo.., and the watched columns
        lo, top = 0, bounds.start[None, :]
        seen = np.zeros((1, len(bounds.watched)), dtype=np.int64)
    for i, (d, lim) in enumerate(zip(degrees, limits)):
        bound = None
        if bounds is not None:
            bound = top[:, i - lo]
            for cols, exps, a in bounds.longer[i]:
                hit = (seen[:, cols] >= exps).all(axis=1)
                bound = np.where(hit, np.minimum(bound, a), bound)
            lim = min(lim, bound.max())
        lim = min(lim, cap // d)
        if lim <= 0:
            continue  # every prefix takes exponent 0 here
        exps = np.arange(lim + 1)
        cand = deg[:, None] + exps * d
        ok = cand <= cap
        if bound is not None:
            ok &= exps <= bound[:, None]
        r, e = ok.nonzero()
        steps.append((i, r, e))
        deg = cand[r, e]
        if bounds is not None:
            top, lo = top[r, i + 1 - lo:], i + 1
            table = bounds.after[i]
            if table is not None:
                nz = e.nonzero()[0]
                top[nz] = np.minimum(top[nz], table[np.minimum(e[nz], len(table) - 1), lo:])
            seen = seen[r]
            if i in bounds.watched:
                seen[:, bounds.watched.index(i)] = e
    order = deg.argsort(kind="stable")
    mat, at = np.zeros((order.size, width), dtype=np.int64), order
    for i, r, e in reversed(steps):
        mat[:, i] = e[at]
        at = r[at]
    return mat, deg[order]


def by_degree(mat: np.ndarray, degree: np.ndarray, cap: int) -> dict[int, list[Mono]]:
    """The rows of a basis in degree order as monomial tuples, keyed by
    degree 0..cap: the dict view of walk_rows."""
    if cap < 0:
        return {}
    monos = list(map(tuple, mat.tolist()))
    ends = np.cumsum(np.bincount(degree, minlength=cap + 1)).tolist()
    return {n: monos[lo:hi] for n, lo, hi in zip(range(cap + 1), [0] + ends, ends)}


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
        # for mul_rows: the largest exponent of each slot, and the divided slots
        object.__setattr__(self, "_limits", np.array(
            [1 if g.kind == "exterior" else (g.height or 0) - 1 if g.kind == "truncated"
             else _NO_LIMIT for g in self.generators], dtype=np.int64))
        object.__setattr__(self, "_divided_slots", tuple(
            i for i, g in enumerate(self.generators) if g.kind == "divided"))
        object.__setattr__(self, "_degrees", tuple(g.total_degree for g in self.generators))
        object.__setattr__(self, "_filtrations", tuple(g.filtration for g in self.generators))
        object.__setattr__(self, "_inner", tuple(g.degree for g in self.generators))

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
        return sum(map(operator.mul, mono, self._degrees))  # type: ignore[attr-defined]

    def bidegree_of(self, mono: Mono) -> tuple[int, int]:
        return (sum(map(operator.mul, mono, self._filtrations)),  # type: ignore[attr-defined]
                sum(map(operator.mul, mono, self._inner)))  # type: ignore[attr-defined]

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
        of m1 that sit at a later generator index.  One pass over the odd
        slots from the last counts these swaps, keeping the running sum of
        m1 over the odd slots already passed.  Divided slots combine by the
        binomial law, which is the only source of coefficients besides the
        sign.
        """
        p = self.field.p
        swaps = later = 0
        for j in reversed(self._odd_slots):  # type: ignore[attr-defined]
            if m2[j]:
                swaps += m2[j] * later
            later += m1[j]
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

    def mul_rows(self, A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """mono_mul of each row of A with the same row of B, as int64 arrays
        of coefficients and exponent rows; the coefficient is 0 where the
        product vanishes.  The sign counts the same swaps as mono_mul, by a
        suffix sum over the odd slots; a divided slot that both rows hold
        takes binom(a + b, b), one math.comb per distinct (a + b, b)."""
        p = self.field.p
        E = A + B
        odd = list(self._odd_slots)  # type: ignore[attr-defined]
        later = np.cumsum(A[:, odd[::-1]], axis=1)[:, ::-1] - A[:, odd]
        coeff = np.where((B[:, odd] * later).sum(axis=1) % 2, p - 1, 1)
        coeff[((E > self._limits) & (B > 0)).any(axis=1)] = 0  # type: ignore[attr-defined]
        for i in self._divided_slots:  # type: ignore[attr-defined]
            both = np.flatnonzero((A[:, i] > 0) & (B[:, i] > 0))
            nk = np.stack((E[both, i], B[both, i]), axis=1)
            ids = lex_ids(nk)
            first = np.zeros(ids.max(initial=-1) + 1, dtype=np.int64)
            first[ids] = np.arange(ids.size)
            binom = np.array([math.comb(n, k) % p for n, k in nk[first].tolist()], dtype=np.int64)
            coeff[both] = coeff[both] * binom[ids] % p
        return coeff, E

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

    def linear(self, fn: Callable[[Mono], TermDict], elt: TermDict) -> TermDict:
        """The linear extension of fn: the sum of c * fn(m) over the terms of elt."""
        p = self.field.p
        out: TermDict = {}
        for m, c in elt.items():
            for m2, c2 in fn(m).items():
                v = (out.get(m2, 0) + c * c2) % p
                if v:
                    out[m2] = v
                elif m2 in out:
                    del out[m2]
        return out

    def dict_total_degree(self, a: TermDict) -> Optional[int]:
        """Common total degree of a homogeneous element; None for zero."""
        degs = {self.total_degree_of(m) for m in a}
        if not degs:
            return None
        if len(degs) > 1:
            raise DegreeMismatch(f"element mixes total degrees {sorted(degs)}")
        return degs.pop()

    # -- bases and display -----------------------------------------------------

    def basis_rows(self, cap: int) -> tuple[np.ndarray, np.ndarray]:
        """All normal-form monomials of total degree <= cap as exponent rows,
        by degree and lexicographic within a degree, and their degrees."""
        return walk_rows(self._degrees,  # type: ignore[attr-defined]
                         [g.max_exponent(cap) for g in self.generators], cap)

    def basis_by_degree(self, cap: int) -> dict[int, list[Mono]]:
        """All normal-form monomials of total degree <= cap, keyed by degree."""
        return by_degree(*self.basis_rows(cap), cap)

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

    def dict_from_input(
        self, terms: Union[TermDict, Sequence[tuple[int, Mapping[str, int]]]]
    ) -> TermDict:
        """Normalize user input (mono dict, or (coeff, names) pairs)."""
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


def tensor(a: AlgebraSpec, b: AlgebraSpec) -> AlgebraSpec:
    """Disjoint union of generators; DuplicateName if names collide."""
    if a.field != b.field:
        raise MixedSpec("tensor factors live over different fields")
    return AlgebraSpec(a.field, a.generators + b.generators, a.coefficients + b.coefficients)


# -- dimension series ---------------------------------------------------------


def dims_convolve(a: Sequence[int], b: Sequence[int], cap: int) -> list[int]:
    """The product of two dimension series, degrees 0..cap: one int64
    convolution, which is exact because every entry is a sum of at most
    cap + 1 products of at most max|a| * max|b|; OverflowError where that
    bound could reach 2^63."""
    a, b = a[: cap + 1], b[: cap + 1]
    top = max(map(abs, a), default=0) * max(map(abs, b), default=0)
    out = np.zeros(max(cap + 1, 0), dtype=np.int64)
    if top:
        if top * (cap + 1) >= 2**63:
            raise OverflowError("dimension series too large to convolve exactly in int64")
        conv = np.convolve(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
        out[: conv.size] = conv[: out.size]
    return out.tolist()


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


def hilbert(spec: AlgebraSpec, cap: int) -> list[int]:
    """Dimensions by total degree 0..cap (coefficient factors are unit).  A
    generator of degree d and top exponent E multiplies the series by
    1 + x^d + ... + x^(Ed): new[n] = out[n] + new[n - d] - out[n - (E + 1)d]."""
    out = [0] * (cap + 1)
    out[0] = 1
    for g in spec.generators:
        d = g.total_degree
        span = (g.max_exponent(cap) + 1) * d
        new = out[:]
        for n in range(d, min(span, cap + 1)):
            new[n] += new[n - d]
        for n in range(span, cap + 1):
            new[n] += new[n - d] - out[n - span]
        out = new
    return out


def bigraded_dims(spec: AlgebraSpec, cap: int) -> dict[tuple[int, int], int]:
    """Dimensions by (filtration, internal) bidegree, for total degree <= cap."""
    out: dict[tuple[int, int], int] = {(0, 0): 1}
    for g in spec.generators:
        gen_table = {(e * g.filtration, e * g.degree): 1
                     for e in range(g.max_exponent(cap) + 1)}
        new: dict[tuple[int, int], int] = {}
        for (s1, t1), n1 in out.items():
            for (s2, t2), n2 in gen_table.items():
                if s1 + s2 + t1 + t2 <= cap:
                    key = (s1 + s2, t1 + t2)
                    new[key] = new.get(key, 0) + n1 * n2
        out = new
    return out


# -- derivations ----------------------------------------------------------------


def _p_power_part(k: int, p: int) -> tuple[int, int]:
    """(p^v, k / p^v) for the largest power p^v dividing k > 0."""
    power = 1
    while k % p == 0:
        k //= p
        power *= p
    return power, k


def leibniz(spec: AlgebraSpec, atoms: Mapping[Mono, TermDict]) -> Callable[[Mono], TermDict]:
    """An odd derivation given on atoms (the single generators and, on a
    divided slot, the gamma_{p^i}; a missing atom maps to zero), extended to
    every monomial by the graded Leibniz rule, one slot at a time.

    For m = f_1 ... f_n, f_i = x_i^(e_i), d(m) sums over the slots with
    d(f_i) != 0 the terms (-1)^|f_1 ... f_(i-1)| f_1 ... f_(i-1) d(f_i) f_(i+1) ... f_n;
    by graded commutativity a term t of d(f_i) is one product,
    (-1)^(|f_1 ... f_(i-1)| (1 + |t|)) t m_i, m_i being m with slot i cleared.
    d(f) is memoised by (slot, exponent) and peeled: a * (f - a) = beta * f
    for the lowest atom a, beta a unit by Lucas, and
    d(f) = (d(a) (f - a) + (-1)^|a| a d(f - a)) / beta.  The sum regroups the
    peel of the whole monomial from its first slot: by associativity and
    a * (f - a) = beta * f alone, peeling f_1 off m = f_1 R atom by atom gives
    d(f_1) R + (-1)^|f_1| f_1 d(R), so values agree even where a nonzero
    truncation residual makes d no derivation.  Each call returns a fresh dict.
    """
    p = spec.field.p
    gens = spec.generators
    unit = spec.unit
    mono_mul = spec.mono_mul
    factors: list[dict[int, TermDict]] = [{} for _ in gens]

    def factor(i: int, e: int) -> TermDict:
        """d(x_i^e): peel atoms down to a memoised or atomic exponent, then
        build back up (a loop: a closure that calls itself is a reference
        cycle, which keeps the memo alive until a full garbage collection)."""
        memo, divided = factors[i], gens[i].kind == "divided"
        chain: list[tuple[int, int, int]] = []
        while e not in memo:
            power = _p_power_part(e, p)[0] if divided else 1
            if power == e:
                break
            beta = math.comb(e, power) % p if divided else 1
            if not beta:  # lowest nonzero digit, a unit by Lucas
                raise LucasViolation(f"C({e}, {power}) = 0 mod {p}")
            chain.append((e, power, beta))
            e -= power
        val = memo.setdefault(e, atoms.get(unit[:i] + (e,) + unit[i + 1:], {}))
        for e, power, beta in reversed(chain):
            atom, rest = unit[:i] + (power,) + unit[i + 1:], unit[:i] + (e - power,) + unit[i + 1:]
            left = spec.mul_dicts(atoms.get(atom, {}), {rest: 1})
            right = spec.mul_dicts({atom: 1}, val)
            sign = -1 if spec.total_degree_of(atom) % 2 else 1
            val = spec.add_dicts(left, spec.scale_dict(sign, right))
            val = memo[e] = spec.scale_dict(pow(beta, -1, p), val)
        return val

    def of_mono(mono: Mono) -> TermDict:
        out: TermDict = {}
        for i, e in enumerate(mono):
            if not e:
                continue
            df = factors[i].get(e)
            if df is None:
                df = factor(i, e)
            if not df:
                continue
            rest, odd = mono[:i] + (0,) + mono[i + 1:], spec.total_degree_of(mono[:i]) % 2
            for t, c in df.items():
                prod = mono_mul(t, rest)
                if prod is None:
                    continue
                if odd and not spec.total_degree_of(t) % 2:
                    c = -c
                m = prod[1]
                v = (out.get(m, 0) + c * prod[0]) % p
                if v:
                    out[m] = v
                elif m in out:
                    del out[m]
        return out

    return of_mono


def truncation_residuals(spec: AlgebraSpec, d: Callable[[Mono], TermDict]) -> dict[int, TermDict]:
    """h g^(h-1) d(g) for every truncated generator g of height h, by slot.

    spec is a tensor product of one-generator factors.  An exterior square
    gives d(g)g - g d(g) = 0, and a divided factor is a tensor product of
    height-p truncations in the gamma_{p^i}, so only a relation g^h = 0 with
    h prime to p constrains d: the Leibniz extension of d is a derivation
    exactly when every element returned here vanishes.
    """
    out: dict[int, TermDict] = {}
    for i, g in enumerate(spec.generators):
        if g.kind == "truncated":
            h = g.height or 0
            top, dg = spec.mono_from_names({g.name: h - 1}), d(spec.mono_from_names({g.name: 1}))
            out[i] = spec.scale_dict(h, spec.mul_dicts({top: 1}, dg))
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


def algebra_map(
    source, target: AlgebraSpec, images: Mapping[str, object]
) -> tuple[Callable[[Mono], TermDict], tuple[tuple[str, bool], ...]]:
    """Multiplicative extension of generator images, and its relation checks.

    source may be an AlgebraSpec or a Presentation (anything exposing
    generators via .algebra and optionally .rules, with their "lhs -> rhs"
    texts as .rule_texts).  images maps every source
    generator name to a target element (mono dict, or (coeff, {name: exp})
    pairs).  Divided source generators only support images c * (single
    divided target generator); anything else raises UnsupportedKind since a
    general map of divided powers is not determined by the image of
    gamma_1.  Returns the image of a source monomial and one
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
        i = len(mono) - 1
        while mono not in memo:
            while not mono[i]:  # the last nonzero slot; the unit is in memo
                i -= 1
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
            acc = target.mul_dicts(acc, factor)
            memo[m] = acc
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
    for rule, desc in zip(source.rules, source.rule_texts) if hasattr(source, "rules") else ():
        lhs_img = image_of_mono(rule.lhs)
        rhs_img = target.linear(image_of_mono, rule.rhs)
        diff = target.add_dicts(lhs_img, target.scale_dict(-1, rhs_img))
        relation_results.append((desc, not diff))
    return image_of_mono, tuple(relation_results)


def check_morphism(source, target: AlgebraSpec, images: Mapping[str, object], cap: int) -> MorphismReport:
    """Degreewise rank table and relation checks for a declared algebra map
    (see algebra_map); source also needs a basis_rows(cap).

    A monomial map, one whose generators each go to one term or to zero,
    sends every source monomial to one term or to zero, so its rank in a
    degree is the number of distinct nonzero image monomials there.  Those
    images come from one product per source monomial and slot (mul_rows),
    with the image of each generator power from algebra_map, and the target
    is only counted (hilbert); any other map is ranked degree by degree by
    map_rank over the target basis."""
    image_of_mono, relation_results = algebra_map(source, target, images)
    src_alg: AlgebraSpec = getattr(source, "algebra", source)
    mat, degree = source.basis_rows(cap)
    unit = src_alg.unit
    if all(len(image_of_mono(unit[:i] + (1,) + unit[i + 1:])) <= 1 for i in range(len(unit))):
        coeff, exps = monomial_images(target, mat, image_of_mono)
        live = np.flatnonzero(coeff)
        ranks = count_ranks(degree[live], lex_ids(exps[live]), max(cap + 1, 0))
    else:
        src_basis, tgt_basis = by_degree(mat, degree, cap), target.basis_by_degree(cap)
        ranks = [map_rank(target.field, src_basis[n],
                          {m: i for i, m in enumerate(tgt_basis[n])}, image_of_mono)
                 for n in range(cap + 1)]
    src_dims = np.bincount(degree, minlength=max(cap + 1, 0)).tolist()
    tgt_dims = hilbert(target, max(cap, 0))  # the sizes of the target basis
    return MorphismReport(tuple(DegreeRank(n, src_dims[n], tgt_dims[n], ranks[n])
                                for n in range(cap + 1)), relation_results)


def monomial_images(target: AlgebraSpec, src: np.ndarray,
                    image_of_mono: Callable[[Mono], TermDict]) -> tuple[np.ndarray, np.ndarray]:
    """The image of each source monomial, a row of exponents in src, under a
    monomial map (one whose generators each go to one term or to zero), as
    a coefficient mod p, 0 where it vanishes, and a row of target exponents:
    the product, slot by slot, of the images of its generator powers, which
    image_of_mono gives, with one mul_rows per slot over the rows that hold
    the slot.  When most rows hold it, all rows go, as a view of exps rather
    than a gathered copy, so that no step holds more than one extra copy."""
    p, width, unit = target.field.p, len(target.generators), (0,) * src.shape[1]
    coeff = np.ones(len(src), dtype=np.int64)
    exps = np.zeros((len(src), width), dtype=np.int64)
    for i in range(src.shape[1]):
        rows = np.flatnonzero(src[:, i])
        if 2 * rows.size > len(src):
            rows = slice(None)  # the rows without slot i multiply by the unit
        e = src[rows, i]
        powers = [image_of_mono(unit[:i] + (k,) + unit[i + 1:]) for k in range(e.max(initial=0) + 1)]
        pc = np.array([next(iter(v.values()), 0) for v in powers], dtype=np.int64)
        pm = np.array([next(iter(v), target.unit) for v in powers], dtype=np.int64)
        c, exps[rows] = target.mul_rows(exps[rows], pm.reshape(len(powers), width)[e])
        coeff[rows] = coeff[rows] * c % p * pc[e] % p
    return coeff, exps
