"""The shared int64 encoding of key_arrays: monomial rows (and basis rows
from the walk), page keys, term dicts in CSR form and sums mod p, against
loop references, and
a mutation control showing that one sum routine carries both the page
turns and the exactness check."""

from collections import defaultdict

import numpy as np
import pytest

from thhlab import les_checker, spectral_sequence
from thhlab.graded_algebra import exterior, make_algebra, polynomial
from thhlab.key_arrays import (
    csr_terms,
    key_rows,
    mono_rows,
    nonzero_sums,
    term_arrays,
)
from thhlab.les_checker import JOINT_TAU_RHO, InexactAt, LongExactSpec, _Graded, check_les
from thhlab.spectral_sequence import DifferentialRule, Page, _Differential

EMPTY = np.zeros(0, dtype=np.int64)


def test_empty_inputs_keep_int64():
    ptr, keys, coeffs = term_arrays([])
    spec = make_algebra(3, [polynomial("x", 2), exterior("e", 5)])
    arrays = [mono_rows([], 3), *spec.basis_rows(-1), *key_rows([], 2), coeffs,
              *csr_terms(ptr, EMPTY), *nonzero_sums(EMPTY, EMPTY, 5)]
    assert all(a.dtype == np.int64 and a.size == 0 for a in arrays)
    assert mono_rows([], 3).shape == (0, 3) and ptr.tolist() == [0] and keys == []


@pytest.mark.parametrize("seed", range(5))
def test_nonzero_sums_match_a_dict_of_sums(seed):
    rng = np.random.default_rng(seed)
    key, value = rng.integers(0, 30, 300), rng.integers(0, 5, 300)
    ref: dict[int, int] = defaultdict(int)
    for k, v in zip(key.tolist(), value.tolist()):
        ref[k] += v
    kept, sums = nonzero_sums(key, value, 5)
    assert list(zip(kept.tolist(), sums.tolist())) == sorted(
        (k, v % 5) for k, v in ref.items() if v % 5)


def test_terms_that_cancel_mod_p_are_dropped():
    kept, sums = nonzero_sums(np.array([7, 2, 7, 2, 9]), np.array([1, 2, 2, 2, 3]), 3)
    assert (kept.tolist(), sums.tolist()) == ([2], [1])


def test_width_zero_rows():
    # the zero module of check_les, and the one monomial of an algebra with
    # no generators
    zero = _Graded(None, 5)
    assert zero.monos == [] and zero.mat.shape == (0, 0) and zero.degree.size == 0
    mat, degree = make_algebra(3, []).basis_rows(0)
    assert mat.shape == (1, 0) and mat.dtype == np.int64 and degree.tolist() == [0]
    mat, labels = key_rows([((), None), ((), 1)], 0)
    assert mat.shape == (2, 0) and labels.tolist() == [-1, 1]


def test_basis_rows_of_a_table_with_empty_degrees():
    spec = make_algebra(3, [polynomial("x", 2), exterior("e", 5)])
    basis = spec.basis_by_degree(9)
    assert not basis[1] and not basis[3]
    mat, degree = spec.basis_rows(9)
    assert mat.tolist() == [list(m) for ms in basis.values() for m in ms]
    assert degree.tolist() == [n for n, ms in basis.items() for _ in ms]
    assert spec.basis_by_degree(-1) == {}
    mat, degree = spec.basis_rows(-1)
    assert mat.shape == (0, 2) and degree.size == 0


def test_csr_expansion_over_rows_with_no_terms():
    dicts = [{}, {(1,): 2, (0,): 4}, {}, {(2,): 1}]
    ptr, keys, coeffs = term_arrays(dicts)
    assert ptr.tolist() == [0, 0, 2, 2, 3]
    assert keys == [(1,), (0,), (2,)] and coeffs.tolist() == [2, 4, 1]
    rows = np.array([0, 1, 2, 3, 1, 0])
    pos, owner = csr_terms(ptr, rows)
    ref = [(j, k) for k, r in enumerate(rows.tolist()) for j in range(ptr[r], ptr[r + 1])]
    assert list(zip(pos.tolist(), owner.tolist())) == ref


# -- mutation control: one sum routine carries both modules -------------------------


def _non_matching_turn():
    """d(x) = z1 + z2 and d(y) = z2 + 2 a*v: two terms per source, z2 hit twice."""
    spec = make_algebra(3, [exterior("a", 1), polynomial("x", 2, filtration=2),
                            polynomial("y", 2, filtration=2), exterior("z1", 3),
                            exterior("z2", 3), polynomial("v", 2)])
    rules = [DifferentialRule(2, {"x": 1}, [(1, {"z1": 1}), (1, {"z2": 1})]),
             DifferentialRule(2, {"y": 1}, [(1, {"z2": 1}), (2, {"a": 1, "v": 1})])]
    return _Differential(Page(spec, page_index=2, cap=12), rules)


def _cancelling_sequence():
    """E(x1, x2) -> E(x1, d) -> E(x1, c)[-1] over F_3, |d| = 1 and every
    other class in degree 3: rho sends x1 and x2 to x1, the boundary sends d
    to 1 and x1*d to x1, and tau sends c to x1 - x2 and x1*c to x1*x2, so
    rho(tau(c)) = x1 - x1 vanishes only once its two terms are summed."""
    A = make_algebra(3, [exterior("x1", 3), exterior("x2", 3)])
    B = make_algebra(3, [exterior("x1", 3), exterior("d", 1)])
    C = make_algebra(3, [exterior("x1", 3), exterior("c", 3)])
    bdy = {B.mono_from_names({"d": 1}): {C.unit: 1},
           B.mono_from_names({"x1": 1, "d": 1}): {C.mono_from_names({"x1": 1}): 1}}
    tau = {C.mono_from_names({"c": 1}): {A.mono_from_names({"x1": 1}): 1,
                                          A.mono_from_names({"x2": 1}): -1},
           C.mono_from_names({"x1": 1, "c": 1}): {A.mono_from_names({"x1": 1, "x2": 1}): 1}}
    rho = {"x1": [(1, {"x1": 1})], "x2": [(1, {"x1": 1})]}
    return LongExactSpec(A, B, C, rho, lambda m: bdy.get(m, {}), lambda m: tau.get(m, {}))


def _first_sum_off_by_one(key, value, p):
    """nonzero_sums with one more on a term of the smallest key: a key whose
    terms cancel is kept, or a nonzero sum changes."""
    value = value.copy()
    if key.size:
        value[np.argmin(key)] += 1
    return nonzero_sums(key, value, p)


def test_a_wrong_sum_routine_fails_a_page_turn_and_an_exactness_check(monkeypatch):
    assert spectral_sequence.nonzero_sums is les_checker.nonzero_sums is nonzero_sums
    d = _non_matching_turn().entries()[2]
    assert d is not None
    check_les(_cancelling_sequence(), cap=8)  # exact: the composite's terms cancel
    for module in (spectral_sequence, les_checker):
        monkeypatch.setattr(module, "nonzero_sums", _first_sum_off_by_one)
    assert _non_matching_turn().entries()[2] != d
    with pytest.raises(InexactAt, match="subspaces differ") as exc:
        check_les(_cancelling_sequence(), cap=8)
    assert (exc.value.degree, exc.value.joint) == (3, JOINT_TAU_RHO)
