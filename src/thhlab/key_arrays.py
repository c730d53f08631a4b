"""Keys as int64 arrays: sorted lookups, lexicographic ids, page key tables.

_lookup finds integer keys by one sorted search.  The Tor check looks up
its packed resolution words with it, and a page turn the targets of d.
lex_ids numbers the distinct rows of an exponent matrix; graded_algebra
takes distinct binomials and distinct image monomials with it, so this
module imports graded_algebra for type hints only.  A RowFinder finds
exponent rows in a basis table; the exactness check looks up its products
with it.

A KeyTable holds the (monomial, label) keys of a spectral-sequence page,
one array entry per key: the row of its monomial in a list of monomials,
its label index (-1: none) and its bidegree s, t.  The keys fall into
buckets, one per bidegree, whose bidegrees (heads) and sizes are arrays
too.  One basis walk builds the exponent matrix and, by one matrix
product, every bidegree, and one stable argsort finds the buckets in the
order the keys first reach them, so a page that is only counted is never
sorted; the (monomial, label) tuples are built one bucket at a time, on
request.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # graded_algebra imports lex_ids from here
    from .graded_algebra import AlgebraSpec, Mono

PageKey = tuple[tuple[int, ...], Optional[int]]  # (spec monomial, label index or None)


def _lookup(keys: np.ndarray, queries: np.ndarray, missing: int) -> np.ndarray:
    """The index of each query in keys (distinct integers), missing where absent."""
    if not keys.size:
        return np.full(queries.shape, missing, dtype=np.int64)
    order = np.argsort(keys)
    at = np.minimum(np.searchsorted(keys[order], queries), keys.size - 1)
    return np.where(keys[order[at]] == queries, order[at], missing)


def lex_ids(mat: np.ndarray) -> np.ndarray:
    """Dense ids of the rows of an integer matrix, in lexicographic order:
    equal rows share an id.  One stable sort per column, the last first."""
    order = np.arange(mat.shape[0])
    for c in reversed(range(mat.shape[1])):
        order = order[np.argsort(mat[order, c], kind="stable")]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (mat[order[1:]] != mat[order[:-1]]).any(axis=1)
    ids = np.empty(order.size, dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    return ids


class RowFinder:
    """Finds exponent rows among the distinct rows of a nonnegative integer
    matrix by one sorted search.  Each row is packed into mixed-radix codes,
    one per run of columns whose radices multiply to below 2^63, so no code
    overflows: column j takes the values 0..top[j], where top[j] is one past
    the matrix's largest entry there, and a query entry outside 0..top[j] - 1
    becomes top[j], which no row of the matrix holds.  With one run the code
    is the row; with several, the queries and the matrix rows that share a
    first-run code with one of them are numbered together by lex_ids."""

    def __init__(self, mat: np.ndarray) -> None:
        self.top = mat.max(axis=0, initial=-1) + 1
        self.runs: list[tuple[slice, np.ndarray]] = []
        lo, mult = 0, [1]
        for j, radix in enumerate((self.top + 1).tolist()):
            if mult[-1] * radix >= 2**63:
                self.runs.append((slice(lo, j), np.array(mult[:-1], dtype=np.int64)))
                lo, mult = j, [1]
            mult.append(mult[-1] * radix)
        self.runs.append((slice(lo, mat.shape[1]), np.array(mult[:-1], dtype=np.int64)))
        self.codes = self._pack(mat)
        self.order = np.argsort(self.codes[:, 0], kind="stable")
        self.first = self.codes[self.order, 0]  # ascending

    def _pack(self, rows: np.ndarray) -> np.ndarray:
        return np.stack([rows[:, cols] @ mult for cols, mult in self.runs], axis=1)

    def find(self, rows: np.ndarray) -> np.ndarray:
        """The index of each row among the matrix's rows, -1 where absent."""
        codes = self._pack(np.where((rows < 0) | (rows > self.top), self.top, rows))
        if codes.shape[1] == 1 and self.first.size:  # one run: codes are the rows
            at = np.minimum(np.searchsorted(self.first, codes[:, 0]), self.first.size - 1)
            return np.where(self.first[at] == codes[:, 0], self.order[at], -1)
        n = self.first.size + 1
        lo, hi = (np.bincount(np.searchsorted(self.first, codes[:, 0], side), minlength=n)
                  for side in ("left", "right"))
        near = self.order[np.flatnonzero(np.cumsum(lo - hi)[:-1])]
        ids = lex_ids(np.concatenate((self.codes[near], codes)))
        return np.append(near, -1)[_lookup(ids[:near.size], ids[near.size:], -1)]  # -1 stays


class KeyTable:
    """Key i is monos[row[i]] with label[i] at bidegree (s[i], t[i]); bucket
    b holds the sizes[b] keys at bidegree heads[b], an array row.  A table
    from walk() starts with its keys in walk order, which is enough to count,
    and on a plain page with row and label None, since key i is monos[i],
    unlabeled; sort() puts the keys in bucket order, one bucket after
    another, each in (monomial, label) order.  mat holds the exponents of
    monos, one row each, on a table from walk()."""

    def __init__(self, monos: list[Mono], row: Optional[np.ndarray], label: Optional[np.ndarray],
                 s: np.ndarray, t: np.ndarray, heads: np.ndarray, sizes: np.ndarray,
                 mat: Optional[np.ndarray] = None):
        self.monos, self.mat = monos, mat
        self.row, self.label, self.s, self.t = row, label, s, t
        self.heads, self.sizes = heads, sizes
        self._sorted = mat is None  # only walk() tables, which keep mat, need sort()
        self._ends: Optional[np.ndarray] = None
        self._at: Optional[dict[tuple[int, int], int]] = None

    @classmethod
    def walk(cls, spec: AlgebraSpec, labels: Optional[Sequence], work_cap: int) -> "KeyTable":
        """Every key of degree <= work_cap, from one walk of the spec: a label
        of shift d takes the monomials of degree <= work_cap - d (those with
        a divided factor only if it allows gamma); on a plain page the keys
        are the monomials.  One matrix product gives the monomials'
        bidegrees, and each key's are its monomial's, shifted by its label.
        A monomial is paired only with the labels that take it, so the pair
        arrays hold exactly the keys.  Keys are enumerated monomial by
        monomial, labels by shift, and the buckets are placed in the order
        that enumeration first reaches their bidegrees (_first_appearance)."""
        # no label takes a monomial above top; the basis comes by degree
        top = work_cap - min((lab.shift for lab in labels), default=0) if labels else work_cap
        monos = list(itertools.chain.from_iterable(spec.basis_by_degree(top).values()))
        k, width = len(spec.generators), work_cap + 1
        mat = np.fromiter(itertools.chain.from_iterable(monos), np.int64,
                          len(monos) * k).reshape(len(monos), k)
        # one product gives each monomial's s, t and code s * width + t
        stc = mat.dot(np.array([(f, d, f * width + d) for f, d in zip(
            spec._filtrations, spec._inner)], dtype=np.int64).reshape(k, 3))  # type: ignore[attr-defined]
        row = label = None  # a plain page's keys are its monomials, unlabeled: see sort()
        if labels is not None:
            shift = np.array([lab.shift for lab in labels], dtype=np.int64)
            by_shift = np.argsort(shift, kind="stable")
            shift = shift[by_shift]
            allowed = np.flatnonzero([labels[li].allows_gamma for li in by_shift])
            plain = ~mat[:, spec._divided_slots].any(axis=1)  # type: ignore[attr-defined]
            # a monomial with a divided factor counts against the labels that
            # allow gamma only, a subsequence of the labels by shift
            room = work_cap - stc[:, 0] - stc[:, 1]
            fit = np.where(plain, shift.searchsorted(room, "right"),
                           shift[allowed].searchsorted(room, "right"))
            row = np.repeat(np.arange(len(monos)), fit)
            pos = np.arange(row.size) - np.repeat(np.cumsum(fit) - fit, fit)
            gamma = np.flatnonzero(~plain[row])
            pos[gamma] = allowed[pos[gamma]]
            label, stc = by_shift[pos], stc[row]
            stc[:, 1:] += shift[pos, None]  # a label shifts t, and with it the code
        first, sizes = _first_appearance(stc[:, 2])
        return cls(monos, row, label, stc[:, 0], stc[:, 1], stc[first, :2], sizes, mat)

    @classmethod
    def from_buckets(cls, buckets: Mapping[tuple[int, int], Sequence[PageKey]]) -> "KeyTable":
        """The table of keys given by bidegree, in the mapping's order."""
        row_of: dict[Mono, int] = {}
        rows, labels, s, t = [], [], [], []
        for (bs, bt), keys in buckets.items():
            for m, li in keys:
                rows.append(row_of.setdefault(m, len(row_of)))
                labels.append(-1 if li is None else li)
            s += [bs] * len(keys)
            t += [bt] * len(keys)
        return cls(list(row_of), *(np.array(a, dtype=np.int64) for a in (rows, labels, s, t)),
                   np.array(list(buckets), dtype=np.int64).reshape(len(buckets), 2),
                   np.array([len(ks) for ks in buckets.values()], dtype=np.int64))

    def sort(self) -> "KeyTable":
        """Put the keys of a table from walk() in bucket order, each bucket in
        (monomial, label) order, by one stable sort of the bucket of each
        key (one sorted search of the heads) and its lexicographic row id."""
        if not self._sorted:
            if self.row is None:
                self.row = np.arange(len(self.monos))
                self.label = np.full(len(self.monos), -1, dtype=np.int64)
            key = self.bucket_of(self.s, self.t) * len(self.monos) + lex_ids(self.mat)[self.row]
            perm = np.argsort(key * (self.label.max(initial=-1) + 2) + self.label + 1,
                              kind="stable")
            self.row, self.label, self.s, self.t = (a[perm] for a in (self.row, self.label,
                                                                       self.s, self.t))
            self._sorted = True
        return self

    @property
    def bidegrees(self) -> list[tuple[int, int]]:
        """The bucket bidegrees as tuples, in bucket order."""
        return list(map(tuple, self.heads.tolist()))

    def dims(self, cap: int) -> dict[tuple[int, int], int]:
        """The size of each bucket up to total degree cap, in bucket order."""
        return {(s, t): n for (s, t), n in zip(self.heads.tolist(), self.sizes.tolist())
                if s + t <= cap}

    def bucket_of(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """The bucket at each bidegree (s, t), s >= 0, by one sorted search;
        -1 where there is none."""
        width = max(self.heads[:, 1].max(initial=0), t.max(initial=0)) + 1
        code = np.where(t < 0, -1, s * width + t)
        return _lookup(self.heads[:, 0] * width + self.heads[:, 1], code, -1)

    def bucket_at(self, s: int, t: int) -> Optional[int]:
        """The bucket at bidegree (s, t), None where there is none."""
        if self._at is None:
            self._at = {bd: b for b, bd in enumerate(self.bidegrees)}
        return self._at.get((s, t))

    def key(self, i: int) -> PageKey:
        li = self.label.item(i)
        return (self.monos[self.row.item(i)], None if li < 0 else li)

    def keys(self, b: int) -> tuple[PageKey, ...]:
        """The keys of bucket b, of a sorted table, as (monomial, label) tuples."""
        if self._ends is None:
            self._ends = np.cumsum(self.sizes)
        hi = self._ends.item(b)
        lo, monos = hi - self.sizes.item(b), self.monos
        return tuple((monos[r], None if li < 0 else li)
                     for r, li in zip(self.row[lo:hi].tolist(), self.label[lo:hi].tolist()))

    def _codes(self, cols, mat: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A code for each key of the table and for each key given as an
        exponent row of mat and a label: codes agree exactly where the
        exponents on cols and the labels agree."""
        ids = lex_ids(np.concatenate((self.mat[:, cols], mat[:, cols])))
        width = max(self.label.max(initial=-1), labels.max(initial=-1)) + 2
        return ids[self.row] * width + self.label + 1, ids[len(self.monos):] * width + labels + 1

    def find(self, mat: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For keys given as exponent rows and labels: a code per key, equal
        for equal keys, and its position in a sorted table, -1 where absent."""
        mine, codes = self._codes(slice(None), mat, labels)
        return codes, _lookup(mine, codes, -1)

    def matching(self, cols: list[int], keys: Sequence[PageKey]) -> tuple[np.ndarray, np.ndarray]:
        """The positions, ascending, of the keys of a sorted table that agree
        with one of keys in label and in the exponents on cols, and the index
        in keys of the one each agrees with."""
        if not keys:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        mat = np.array([m for m, _ in keys], dtype=np.int64).reshape(len(keys), self.mat.shape[1])
        labels = np.array([-1 if li is None else li for _, li in keys], dtype=np.int64)
        mine, theirs = self._codes(cols, mat, labels)
        found = _lookup(theirs, mine, -1)
        at = np.flatnonzero(found >= 0)
        return at, found[at]

    def masked(self, keep: np.ndarray, buckets: np.ndarray, sizes: np.ndarray) -> "KeyTable":
        """The keys of a sorted table where keep holds, which fill exactly
        the given buckets, with the given sizes."""
        return KeyTable(self.monos, self.row[keep], self.label[keep], self.s[keep],
                        self.t[keep], self.heads[buckets], sizes)


def _first_appearance(code: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The position of the first appearance of each distinct code, ascending,
    and how often it appears.  After one stable sort each code's first
    appearance leads its run, which one sorted search finds for every code;
    counting the keys that each position leads gives both answers."""
    order = code.argsort(kind="stable")
    sizes = np.bincount(order[code[order].searchsorted(code)])
    first = sizes.nonzero()[0]
    return first, sizes[first]
