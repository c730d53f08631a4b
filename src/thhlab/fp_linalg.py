"""Exact linear algebra over prime fields F_p for odd primes p.

Matrices are dense int64 numpy with explicit mod-p reduction.  Primes are
bounded below 2^31, so every product of two reduced entries fits in int64
and elimination stays exact.  Matrix products route through float64 BLAS
when every entry is provably below 2^53, and through exact Python integers
otherwise.  Matrices act on column vectors; subspaces are passed around as
row-spanning matrices.  A map given on bases becomes a matrix through
map_matrix.  sparse_homology is the one routine that splits a sparse map
into the components of its support and takes the rank and the surviving
keys of each; map_rank calls it, and so do the page turns whose d is not
a partial matching.  A map that sends each source to one key or to zero is
ranked by counting the keys it hits (count_ranks).  The Tor resolution
check eliminates nothing: tor_engine certifies exactness with a
contracting homotopy, which is checked by gathers alone.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Optional, Sequence

import numpy as np


P_BOUND = 2**31  # keeps (p - 1)^2 inside int64, so rref cannot overflow


class FpLinAlgError(Exception):
    """Base class for exact linear algebra failures."""


class DimensionMismatch(FpLinAlgError):
    """Shapes do not line up for the requested operation."""


class CompositionNonzero(FpLinAlgError):
    """A pair of maps expected to compose to zero does not."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field F_p.  Only odd primes: signs matter everywhere downstream."""

    p: int

    def __post_init__(self) -> None:
        if self.p >= P_BOUND:  # before the trial division, which stalls on huge p
            raise ValueError(f"p must be below 2^31 = {P_BOUND}, got {self.p}")
        if self.p == 2 or not _is_prime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")


@dataclass(frozen=True, eq=False)
class FpMatrix:
    """Dense matrix over F_p; rows index the target, columns the source."""

    field: PrimeField
    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.int64) % self.field.p
        if arr.ndim != 2:
            raise DimensionMismatch(f"expected 2-d data, got ndim={arr.ndim}")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @classmethod
    def from_columns(
        cls, field: PrimeField, nrows: int, cols: Sequence[dict[int, int]]
    ) -> "FpMatrix":
        """Build from sparse columns: one {target row: coefficient} per source."""
        data = np.zeros((nrows, len(cols)), dtype=np.int64)
        for j, col in enumerate(cols):
            for i, c in col.items():
                data[i, j] = c % field.p
        return cls(field, data)

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape  # type: ignore[return-value]

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        if self.field != other.field:
            raise DimensionMismatch("matrices live over different fields")
        if self.shape[1] != other.shape[0]:
            raise DimensionMismatch(f"cannot compose {self.shape} with {other.shape}")
        # float64 is exact while every product entry stays below 2^53, which
        # holds for any plausible size here; past that, Python integers are
        # exact at any size
        if self.shape[1] * (self.field.p - 1) ** 2 < 2**53:
            prod = np.rint(self.data.astype(np.float64) @ other.data.astype(np.float64))
            return FpMatrix(self.field, prod.astype(np.int64))
        prod = (self.data.astype(object) @ other.data.astype(object)) % self.field.p
        return FpMatrix(self.field, prod)

    def is_zero(self) -> bool:
        return not self.data.any()

    def rref(self) -> tuple["FpMatrix", tuple[int, ...]]:
        """Reduced row echelon form and the tuple of pivot columns.

        The one elimination kernel: its loop touches only the rows that
        need clearing, so on one matrix it beats a lockstep elimination
        over a stack (routing rank through a stack of one took a page-turns
        pass from 1.9 s to 2.8 s on a 2-core x86 host).
        """
        p = self.field.p
        R = self.data.copy()
        m, n = R.shape
        pivots: list[int] = []
        r = 0
        for c in range(n):
            if r == m:
                break
            nz = np.nonzero(R[r:, c])[0]
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            if i != r:
                R[[r, i]] = R[[i, r]]
            # rows >= r vanish left of c, so updates stay in columns c:
            R[r, c:] = (R[r, c:] * pow(int(R[r, c]), -1, p)) % p
            others = np.nonzero(R[:, c])[0]
            others = others[others != r]
            if others.size:
                R[others, c:] = (R[others, c:] - np.outer(R[others, c], R[r, c:])) % p
            pivots.append(c)
            r += 1
        return FpMatrix(self.field, R), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self) -> "FpMatrix":
        """Matrix whose rows span {x : self @ x = 0}."""
        R, pivots = self.rref()
        n = self.shape[1]
        pivot_set = set(pivots)
        free = [c for c in range(n) if c not in pivot_set]
        rows = np.zeros((len(free), n), dtype=np.int64)
        for k, f in enumerate(free):
            rows[k, f] = 1
            for j, c in enumerate(pivots):
                rows[k, c] = (-int(R.data[j, f])) % self.field.p
        return FpMatrix(self.field, rows)


def map_matrix(field: PrimeField, source: Sequence, target_index: Mapping,
               image: Callable) -> FpMatrix:
    """Matrix of a linear map given on a basis: column j is image(source[j]),
    a {target key: coefficient} dict, with rows placed by target_index."""
    cols = [{target_index[k]: c for k, c in image(s).items()} for s in source]
    return FpMatrix.from_columns(field, len(target_index), cols)


def support_components(entries: Mapping[Hashable, Mapping[Hashable, int]]) -> list[list]:
    """Connected components of the support of a sparse map {key: {key: coefficient}}, in
    order of first entry; a key in no entry is in none.  A partial matching (one key per
    nonempty image, none hit twice, none hit that is a source) gives its [source, target]
    pairs in one pass; any other map, set union with path compression (Tarjan, J. ACM 22,
    1975)."""
    pairs, hit = [], set()
    for a, img in entries.items():
        if img:
            if len(img) > 1:
                break
            b, = img
            if b in hit or entries.get(b):
                break
            hit.add(b)
            pairs.append([a, b])
    else:
        return pairs
    root: dict = {}

    def find(k):
        while root[k] != k:
            root[k] = k = root[root[k]]
        return k

    for a, img in entries.items():
        for b in img:
            root[find(root.setdefault(b, b))] = find(root.setdefault(a, a))
    comps: dict = {}
    for k in root:
        comps.setdefault(find(k), []).append(k)
    return list(comps.values())


def sparse_homology(field: PrimeField, d: Mapping[Hashable, Mapping[Hashable, int]],
                    grade: Callable) -> tuple[dict, set]:
    """The rank of a sparse map d = {key: {key: nonzero coefficient}} out of each grade,
    and the set of keys that do not survive; every image lies in one grade.  The support
    splits into components (support_components).  A one-entry component a -> b adds rank
    1 at a's grade, and neither key survives.  A larger one is eliminated grade by grade:
    the pivots of [its boundaries into the grade | unit columns of its cycles there] give
    the rank and the surviving cycles, each outside the span of the boundaries and the
    cycles before it in key order.  By block-diagonality these are the pivots of one
    matrix across components.  A source's rank goes to its own grade, so the ranks per
    grade are exact when the sources into any one grade share a grade (a differential of
    one degree); their sum always is.  Page turns call it only when d is not a partial
    matching: a matching is all one-entry components, which run_differential counts off
    its entry arrays."""
    rank: dict = {}
    dead: set = set()
    for keys in support_components(d):
        dead.update(keys)
        if len(keys) == 2 and not d.get(keys[1]):
            g = grade(keys[0])
            rank[g] = rank.get(g, 0) + 1
            continue
        rows: dict = {}
        bounds: dict = {}
        for k in keys:
            rows.setdefault(grade(k), []).append(k)
            if d.get(k):
                bounds.setdefault(grade(next(iter(d[k]))), []).append(k)
        for g, srcs in bounds.items():  # each cycle of the component is hit, so its grade is here
            cycles = sorted(k for k in rows[g] if not d.get(k))
            index = {k: i for i, k in enumerate(rows[g])}
            _, pivots = map_matrix(field, srcs + cycles, index,
                                   lambda k: d.get(k) or {k: 1}).rref()
            for c in pivots:
                if c < len(srcs):
                    h = grade(srcs[c])
                    rank[h] = rank.get(h, 0) + 1
                else:
                    dead.discard(cycles[c - len(srcs)])
    return rank, dead


def map_rank(field: PrimeField, source: Sequence, target_index: Mapping,
             image: Callable) -> int:
    """The rank of map_matrix(field, source, target_index, image), through
    sparse_homology with sources in grade 0 and targets in grade 1, tagged
    apart since they may share keys; a target goes by its row, so a key off
    the target raises KeyError."""
    d = {}
    for s in source:
        img = {(1, target_index[k]): c % field.p for k, c in image(s).items()}
        d[(0, s)] = {k: c for k, c in img.items() if c}
    return sparse_homology(field, d, operator.itemgetter(0))[0].get(0, 0)


def count_ranks(grade: np.ndarray, key: np.ndarray, grades: int) -> list[int]:
    """The rank out of each grade 0..grades - 1 of a map that sends source i,
    of grade grade[i], to a nonzero multiple of the one target key[i] >= 0
    (sources that go to zero are left out); every key is hit from one grade
    only.  Each column of such a map has one nonzero entry, so its rank is
    the number of distinct keys hit."""
    grade_of = np.full(key.max(initial=-1) + 1, -1, dtype=np.int64)
    grade_of[key] = grade
    return np.bincount(grade_of[grade_of >= 0], minlength=grades).tolist()


def solve(A: FpMatrix, b: Sequence[int]) -> Optional[np.ndarray]:
    """One solution x of A @ x = b, or None if the system is inconsistent."""
    bvec = np.asarray(b, dtype=np.int64).reshape(-1) % A.field.p
    if bvec.shape[0] != A.shape[0]:
        raise DimensionMismatch(f"b has length {bvec.shape[0]}, expected {A.shape[0]}")
    n = A.shape[1]
    aug = FpMatrix(A.field, np.hstack([A.data, bvec[:, None]]))
    R, pivots = aug.rref()
    if n in pivots:
        return None
    x = np.zeros(n, dtype=np.int64)
    for j, c in enumerate(pivots):
        x[c] = R.data[j, n]
    return x


def homology_dim(d_in: FpMatrix, d_out: FpMatrix) -> int:
    """dim ker(d_out) - rank(d_in) for a three-term complex.

    d_in maps into the middle term (shape (n, a)) and d_out maps out of it
    (shape (m, n)); d_out @ d_in must vanish exactly.
    """
    if d_in.field != d_out.field:
        raise DimensionMismatch("matrices live over different fields")
    if d_out.shape[1] != d_in.shape[0]:
        raise DimensionMismatch(
            f"middle dimensions differ: d_in targets {d_in.shape[0]}, "
            f"d_out expects {d_out.shape[1]}"
        )
    if not (d_out @ d_in).is_zero():
        raise CompositionNonzero("d_out @ d_in != 0")
    return (d_out.shape[1] - d_out.rank()) - d_in.rank()


def _check_same_ambient(A: FpMatrix, B: FpMatrix) -> None:
    if A.field != B.field:
        raise DimensionMismatch("matrices live over different fields")
    if A.shape[1] != B.shape[1]:
        raise DimensionMismatch(f"ambient dimensions differ: {A.shape[1]} vs {B.shape[1]}")


def span_contains(A: FpMatrix, B: FpMatrix) -> bool:
    """Row span of A contains row span of B."""
    _check_same_ambient(A, B)
    stacked = FpMatrix(A.field, np.vstack([A.data, B.data]))
    return stacked.rank() == A.rank()


def spans_equal(A: FpMatrix, B: FpMatrix) -> bool:
    """Rows of A and rows of B span the same subspace."""
    _check_same_ambient(A, B)
    stacked = FpMatrix(A.field, np.vstack([A.data, B.data]))
    r = stacked.rank()
    return r == A.rank() == B.rank()
