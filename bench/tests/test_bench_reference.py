"""The reference counts against hand-counted low degrees."""

import subprocess
import sys
from pathlib import Path

import pytest

import reference


def test_single_factors():
    assert reference.exterior(3, 6) == [1, 0, 0, 1, 0, 0, 0]
    assert reference.polynomial(2, 6) == [1, 0, 1, 0, 1, 0, 1]
    assert reference.truncated(2, 2, 6) == [1, 0, 1, 0, 0, 0, 0]


def test_z_tower_at_p3():
    # e1, lambda1 in degree 5, mu1 in degree 6
    assert reference.z_tower(3, 12) == [1, 0, 0, 0, 0, 2, 1, 0, 0, 0, 1, 2, 1]


def test_ell_log_at_p3():
    # dlog v in degree 1, lambda1 in 5, kappa1 in 6: degree 6 holds
    # lambda1 dlog v and kappa1, degree 12 holds kappa1^2 and lambda1 dlog v kappa1
    assert reference.ell_log(3, 12) == [1, 1, 0, 0, 0, 1, 2, 1, 0, 0, 0, 1, 2]


def test_ku_log_at_p3():
    # P_2(u) = 1 + u with |u| = 2 shifts a copy of the l series up by two
    assert reference.ku_log(3, 12) == [1, 1, 1, 1, 0, 1, 2, 2, 2, 1, 0, 1, 2]


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_ku_log_is_the_base_change_of_ell_log(p):
    cap = 2 * p * p + 4 * p
    assert reference.ku_log(p, cap) == reference.mul(
        reference.truncated(2, p - 1, cap), reference.ell_log(p, cap), cap)


def test_tor_of_one_generator():
    assert reference.tor_dims([2], [], 6) == {(0, 0): 1, (1, 2): 1}
    # gamma_k(sigma y) for |y| = 1 sits in bidegree (k, k)
    assert reference.tor_dims([], [1], 6) == {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1}


def test_tor_of_two_generators():
    want = {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1, (4, 4): 1,
            (1, 2): 1, (2, 3): 1, (3, 4): 1}
    assert reference.tor_dims([2], [1], 8) == want
    # two polynomial generators of degree 2: sigma x1 sigma x2 in (2, 4)
    assert reference.tor_dims([2, 2], [], 8) == {(0, 0): 1, (1, 2): 2, (2, 4): 1}


def test_reference_does_not_import_thhlab():
    bench = Path(reference.__file__).parent
    code = ("import sys, reference; "
            "sys.exit(any(m.split('.')[0] == 'thhlab' for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code], cwd=bench).returncode == 0
