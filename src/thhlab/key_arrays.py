"""Monomials, page keys and term dicts as int64 arrays: lookups, ids, tables.

mono_rows and key_rows (with labels, -1 for none) give monomials as
exponent rows (a basis comes as rows from graded_algebra.walk_rows, with
no tuples); term_arrays gives
term dicts as CSR arrays, csr_terms lists their terms and nonzero_sums
sums values by key mod p.  _lookup finds integer keys by one sorted
search; the Tor check looks up its packed resolution words with it.
lex_ids numbers the distinct rows of an integer matrix, packed into
mixed-radix codes (_runs); graded_algebra takes distinct binomials and
distinct image monomials with it, so this module imports graded_algebra
for type hints only.  RowFinder, the one row locator, finds rows in a
table: page keys and the exactness check's products.

A KeyTable holds the (monomial, label) keys of a spectral-sequence page,
one array entry per key: the row of its monomial in a list of monomials,
its label index (-1: none) and its bidegree s, t.  The keys fall into
buckets, one per bidegree, whose bidegrees (heads) and sizes are arrays
too.  One basis walk gives the exponent matrix and, by one matrix
product, every bidegree, and one stable argsort finds the buckets in the
order the keys first reach them, so a page that is only counted is never
sorted; the (monomial, label) tuples are decoded from the rows one bucket
at a time, on request, and a set of bidegrees is looked up by one sorted
search (bucket_of).
"""

from __future__ import annotations

import itertools
import math
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


def mono_rows(monos: Sequence[Mono], width: int) -> np.ndarray:
    """The exponents of monomials of width slots, one int64 row each."""
    return np.fromiter(itertools.chain.from_iterable(monos), np.int64,
                       len(monos) * width).reshape(len(monos), width)


def key_rows(keys: Sequence[PageKey], width: int) -> tuple[np.ndarray, np.ndarray]:
    """The exponent rows of page keys' monomials, and their labels (-1: none)."""
    return (mono_rows([m for m, _ in keys], width),
            np.fromiter((-1 if li is None else li for _, li in keys), np.int64, len(keys)))


def term_arrays(dicts: Sequence[Mapping]) -> tuple[np.ndarray, list, np.ndarray]:
    """Term dicts in CSR form: the offsets of each dict's terms, their keys,
    dict by dict, and their coefficients."""
    ptr = np.cumsum(np.fromiter(itertools.chain((0,), map(len, dicts)), np.int64, len(dicts) + 1))
    return ptr, list(itertools.chain.from_iterable(dicts)), np.fromiter(
        itertools.chain.from_iterable(d.values() for d in dicts), np.int64, ptr.item(-1))


def csr_terms(ptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For CSR offsets ptr and some rows: the position of each term of those
    rows, row by row, and the index in rows of the row it belongs to."""
    sizes = ptr[rows + 1] - ptr[rows]
    owner = np.repeat(np.arange(rows.size), sizes)
    return np.arange(owner.size) - np.repeat(np.cumsum(sizes) - sizes - ptr[rows], sizes), owner


def nonzero_sums(key: np.ndarray, value: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, whose values sum to nonzero mod p, and
    those sums mod p."""
    order = np.argsort(key)
    key = key[order]
    start = np.flatnonzero(np.diff(key, prepend=key[:1] - 1))  # each key's first place
    total = np.add.reduceat(value[order], start) % p
    return key[start[total != 0]], total[total != 0]


def _runs(radices: list[int]) -> list[tuple[slice, np.ndarray]]:
    """Columns of the given radices in runs whose radices multiply to below
    2^63 (a column whose radix alone reaches it runs alone), each with its
    columns' mixed-radix multipliers, the first column most significant, so
    that a run's codes order its rows lexicographically."""
    bounds, mult = [0], 1
    for j, radix in enumerate(radices):
        if mult * radix >= 2**63 and j > bounds[-1]:
            bounds.append(j)
            mult = 1
        mult *= radix
    bounds.append(len(radices))
    return [(slice(lo, hi), np.array([math.prod(radices[j + 1:hi]) for j in range(lo, hi)],
                                     dtype=np.int64)) for lo, hi in zip(bounds, bounds[1:])]


def _pack(rows: np.ndarray, runs: list[tuple[slice, np.ndarray]]) -> np.ndarray:
    """The code of each row in each run, one column per run."""
    return np.stack([rows[:, cols] @ mult for cols, mult in runs], axis=1)


def lex_ids(mat: np.ndarray) -> np.ndarray:
    """Dense ids of the rows of an integer matrix, in lexicographic order:
    equal rows share an id.  One stable sort per packed run (_runs), the
    last first; each column's entries, and 0, must span less than 2^63."""
    low = mat.min(axis=0, initial=0)
    codes = _pack(mat - low, _runs([hi - lo + 1 for hi, lo in zip(
        mat.max(axis=0, initial=0).tolist(), low.tolist())]))
    order = np.arange(mat.shape[0])
    for c in reversed(range(codes.shape[1])):
        order = order[np.argsort(codes[order, c], kind="stable")]
    codes = codes[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (codes[1:] != codes[:-1]).any(axis=1)
    ids = np.empty(order.size, dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    return ids


class RowFinder:
    """Finds exponent rows among the distinct rows of a nonnegative integer
    matrix by one sorted search.  Each row is packed into mixed-radix codes,
    one per run of columns (_runs): column j takes the values 0..top[j],
    where top[j] is one past the matrix's largest entry there, and a query
    entry outside 0..top[j] - 1 becomes top[j], which no row of the matrix
    holds.  With one run the code is the row; with several, lex_ids numbers
    the matrix rows and the queries together."""

    def __init__(self, mat: np.ndarray) -> None:
        self.top = mat.max(axis=0, initial=-1) + 1
        self.runs = _runs((self.top + 1).tolist())
        codes = _pack(mat, self.runs)
        self.order = np.argsort(codes[:, 0], kind="stable")
        self.codes = codes[self.order]  # ascending in the first run

    def find(self, rows: np.ndarray) -> np.ndarray:
        """The index of each row among the matrix's rows, -1 where absent."""
        codes = _pack(np.where((rows < 0) | (rows > self.top), self.top, rows), self.runs)
        n = self.order.size
        if codes.shape[1] > 1 or not n:
            ids = lex_ids(np.concatenate((self.codes, codes)))
            return np.append(self.order, -1)[_lookup(ids[:n], ids[n:], -1)]
        first = self.codes[:, 0]
        at = np.minimum(np.searchsorted(first, codes[:, 0]), n - 1)
        return np.where(first[at] == codes[:, 0], self.order[at], -1)


class KeyTable:
    """Key i is the monomial of exponent row mat[row[i]] with label[i] at
    bidegree (s[i], t[i]); bucket b holds the sizes[b] keys at bidegree
    heads[b], an array row.  A table from walk() starts with its keys in
    walk order, which is enough to count, and on a plain page with row and
    label None, since key i is row i of mat, unlabeled; sort() puts the
    keys in bucket order, one bucket after another, each in (monomial,
    label) order.  One RowFinder locates the rows of mat (_rows); a key's
    monomial tuple is decoded from its row when read (key, keys)."""

    def __init__(self, mat: np.ndarray, row: Optional[np.ndarray], label: Optional[np.ndarray],
                 s: np.ndarray, t: np.ndarray, heads: np.ndarray, sizes: np.ndarray,
                 in_order: bool = True):
        self.mat = mat
        self.row, self.label, self.s, self.t = row, label, s, t
        self.heads, self.sizes = heads, sizes
        self._sorted = in_order  # only walk() tables need sort()
        self._ends: Optional[np.ndarray] = None
        self._finder: Optional[RowFinder] = None

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
        k, width = len(spec.generators), work_cap + 1
        mat, _ = spec.basis_rows(top)
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
            row = np.repeat(np.arange(len(mat)), fit)
            pos = np.arange(row.size) - np.repeat(np.cumsum(fit) - fit, fit)
            gamma = np.flatnonzero(~plain[row])
            pos[gamma] = allowed[pos[gamma]]
            label, stc = by_shift[pos], stc[row]
            stc[:, 1:] += shift[pos, None]  # a label shifts t, and with it the code
        first, sizes = _first_appearance(stc[:, 2])
        return cls(mat, row, label, stc[:, 0], stc[:, 1], stc[first, :2], sizes, in_order=False)

    @classmethod
    def from_buckets(cls, buckets: Mapping[tuple[int, int], Sequence[PageKey]],
                     width: int) -> "KeyTable":
        """The table of keys given by bidegree, in the mapping's order, their
        monomials width exponents long."""
        row_of: dict[Mono, int] = {}
        rows, labels, s, t = [], [], [], []
        for (bs, bt), keys in buckets.items():
            for m, li in keys:
                rows.append(row_of.setdefault(m, len(row_of)))
                labels.append(-1 if li is None else li)
            s += [bs] * len(keys)
            t += [bt] * len(keys)
        return cls(mono_rows(list(row_of), width),
                   *(np.array(a, dtype=np.int64) for a in (rows, labels, s, t)),
                   np.array(list(buckets), dtype=np.int64).reshape(len(buckets), 2),
                   np.array([len(ks) for ks in buckets.values()], dtype=np.int64))

    def sort(self) -> "KeyTable":
        """Put the keys of a table from walk() in bucket order, each bucket in
        (monomial, label) order, by one stable sort of the bucket of each
        key (one sorted search of the heads) and its lexicographic row id."""
        if not self._sorted:
            if self.row is None:
                self.row = np.arange(len(self.mat))
                self.label = np.full(len(self.mat), -1, dtype=np.int64)
            key = self.bucket_of(self.s, self.t) * len(self.mat) + lex_ids(self.mat)[self.row]
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
        """The bucket at each bidegree (s, t) by one sorted search; -1 where
        there is none."""
        width = max(self.heads[:, 1].max(initial=0), t.max(initial=0)) + 1
        code = np.where((s < 0) | (t < 0), -1, s * width + t)
        return _lookup(self.heads[:, 0] * width + self.heads[:, 1], code, -1)

    def key(self, i: int) -> PageKey:
        li = self.label.item(i)
        return (tuple(self.mat[self.row.item(i)].tolist()), None if li < 0 else li)

    def keys(self, b: int) -> tuple[PageKey, ...]:
        """The keys of bucket b, of a sorted table, as (monomial, label) tuples."""
        if self._ends is None:
            self._ends = np.cumsum(self.sizes)
        hi = self._ends.item(b)
        lo = hi - self.sizes.item(b)
        return tuple((tuple(m), None if li < 0 else li) for m, li in zip(
            self.mat[self.row[lo:hi]].tolist(), self.label[lo:hi].tolist()))

    def _rows(self) -> RowFinder:
        """The row locator over mat, built once; masked tables share it."""
        if self._finder is None:
            self._finder = RowFinder(self.mat)
        return self._finder

    def find(self, mat: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For keys given as exponent rows and labels: a code per key, equal
        for equal keys, and its position in a sorted table, -1 where absent.
        A key's code is its position, or past every position by its
        lexicographic id where absent."""
        keys = RowFinder(np.column_stack((self.row, self.label + 1)))
        at = keys.find(np.column_stack((self._rows().find(mat), labels + 1)))
        codes, out = at.copy(), np.flatnonzero(at < 0)
        if out.size:
            codes[out] = self.row.size + lex_ids(np.column_stack((mat[out], labels[out])))
        return codes, at

    def matching(self, cols: list[int], keys: Sequence[PageKey]) -> tuple[np.ndarray, np.ndarray]:
        """The positions, ascending, of the keys of a sorted walked table
        that agree with one of keys in label and in the exponents on cols,
        and the index in keys of the one each agrees with.  The row locator
        finds the part on cols of each walked monomial, which is walked too,
        and of each of keys among the monomials."""
        n = len(self.mat)
        mat, labels = key_rows(keys, self.mat.shape[1])
        parts = np.concatenate((self.mat, mat))
        other = np.ones(parts.shape[1], dtype=bool)
        other[cols] = False
        parts[:, other] = 0
        found = self._rows().find(parts)
        theirs = RowFinder(np.column_stack((np.where(found[n:] < 0, n, found[n:]), labels + 1)))
        at = theirs.find(np.column_stack((found[self.row], self.label + 1)))
        mine = np.flatnonzero(at >= 0)
        return mine, at[mine]

    def masked(self, keep: np.ndarray, buckets: np.ndarray, sizes: np.ndarray) -> "KeyTable":
        """The keys of a sorted table where keep holds, which fill exactly
        the given buckets, with the given sizes; it shares mat and its row
        locator."""
        out = KeyTable(self.mat, self.row[keep], self.label[keep], self.s[keep],
                       self.t[keep], self.heads[buckets], sizes)
        out._finder = self._finder
        return out


def _first_appearance(code: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The position of the first appearance of each distinct code, ascending,
    and how often it appears.  After one stable sort each code's first
    appearance leads its run, which one sorted search finds for every code;
    counting the keys that each position leads gives both answers."""
    order = code.argsort(kind="stable")
    sizes = np.bincount(order[code[order].searchsorted(code)])
    first = sizes.nonzero()[0]
    return first, sizes[first]
