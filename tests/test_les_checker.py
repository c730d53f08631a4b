"""Exactness checker: the two concrete sequences, frozen degree data, and
sabotage cases that must be refused."""

import pytest

from thhlab.graded_algebra import DegreeMismatch, divided, exterior, make_algebra
from thhlab.les_checker import (
    JOINT_BOUNDARY_TAU,
    JOINT_RHO_BOUNDARY,
    JOINT_TAU_RHO,
    ExactnessReport,
    InexactAt,
    LongExactSpec,
    _checked,
    _Graded,
    check_les,
    ell_sequence,
    ku_sequence,
)


# -- the adams-summand sequence ----------------------------------------------


@pytest.mark.parametrize("ambiguity", [0, 1])
def test_ell_sequence_exact_p3(ambiguity):
    report = check_les(ell_sequence(3, ambiguity), cap=40)
    assert report.max_degree() == 40
    assert report.boundary_pairs > 0 and report.tau_pairs > 0


def test_ell_degree_6_boundary_iso():
    # A_6 = 0; B_6 = {k1, l1*dlogv} maps isomorphically onto C_5 = {e1, l1}
    report = check_les(ell_sequence(3), cap=20)
    assert report.rows[6] == (6, 0, 2, 2, 0, 2, 0)


def test_ell_degree_17_tau_hits_kernel():
    # ker rho_17 = span{l2} = im tau_17, and boundary kills B_17 = {l1*k1^2}
    report = check_les(ell_sequence(3), cap=17)
    assert report.rows[17] == (17, 1, 1, 1, 0, 1, 1)


def test_ell_broken_tau_detected_at_17():
    spec = ell_sequence(3)
    spec.tau = lambda mono: {}
    with pytest.raises(InexactAt) as exc:
        check_les(spec, cap=40)
    assert exc.value.degree == 17
    assert exc.value.joint == JOINT_TAU_RHO


def test_ell_wrong_tau_sign_breaks_module_structure():
    # dropping the parity sign keeps all ranks intact but breaks
    # tau(l1 * c) == l1 * tau(c)
    spec = ell_sequence(3)
    A = spec.A
    good = spec.tau

    def unsigned(mono):
        return {m: abs(c) if c == -1 else c for m, c in good(mono).items()}

    spec.tau = unsigned
    with pytest.raises(InexactAt) as exc:
        check_les(spec, cap=40)
    assert exc.value.joint == "tau module structure"


def test_ell_misgraded_boundary_rejected():
    spec = ell_sequence(3)
    spec.boundary = lambda mono: [(1, {"m1": 1})]
    with pytest.raises(DegreeMismatch):
        check_les(spec, cap=10)


def test_ell_without_coefficient_action_skips_module_phase():
    spec = ell_sequence(3)
    spec.coefficient_action = None
    report = check_les(spec, cap=20)
    assert report.boundary_pairs == 0 and report.tau_pairs == 0


# -- the truncated-u sequence -------------------------------------------------


@pytest.mark.parametrize("ambiguity", [0, 1])
def test_ku_sequence_exact_p3(ambiguity):
    report = check_les(ku_sequence(3, ambiguity), cap=40)
    assert report.max_degree() == 40
    assert report.boundary_pairs > 0 and report.tau_pairs > 0


def test_ku_degree_17_kernel_is_top_class():
    # ker rho'_17 is spanned by u^{p-2} a_{p-1}, hit by tau'
    report = check_les(ku_sequence(3), cap=17)
    n, a, b, c_prev, r_rho, r_bdy, r_tau = report.rows[17]
    assert r_tau == 1
    assert a - r_rho == 1


def test_ku_broken_relation_image_rejected():
    # at p=5 scaling rho(b2) breaks b1*b1 -> u*b2 before any exactness runs
    spec = ku_sequence(5)
    spec.rho = {**spec.rho, "b2": [(2, {"u": 1, "k1": 2})]}
    with pytest.raises(ValueError, match="algebra map"):
        check_les(spec, cap=20)


# -- degenerate shapes --------------------------------------------------------


def test_zero_sequence_is_exact():
    spec = LongExactSpec(None, None, None, {}, lambda m: {}, lambda m: {})
    report = check_les(spec, cap=10)
    assert report == ExactnessReport(10, (), 0, 0)


def test_identity_with_zero_third_term():
    E = make_algebra(3, [exterior("x", 5)])
    spec = LongExactSpec(
        E, E, None, {"x": [(1, {"x": 1})]}, lambda m: {}, lambda m: {}
    )
    report = check_les(spec, cap=12)
    assert report.rows[5] == (5, 1, 1, 0, 1, 0, 0)


def test_divided_rho_extends_by_divided_powers():
    # rho(g) = 2h sends gamma_k(g) to 2^k gamma_k(h), an isomorphism; the
    # k-th power of 2h would be 2^k k! gamma_k(h), zero from k = p on
    A = make_algebra(3, [divided("g", 2)])
    B = make_algebra(3, [divided("h", 2)])
    spec = LongExactSpec(A, B, None, {"g": [(2, {"h": 1})]}, lambda m: {}, lambda m: {})
    report = check_les(spec, cap=12)
    assert all(row[4] == row[1] == 1 for row in report.rows if row[0] % 2 == 0)


def test_nonzero_c_with_zero_neighbours_is_inexact():
    C = make_algebra(3, [exterior("x", 1)])
    spec = LongExactSpec(None, None, C, {}, lambda m: {}, lambda m: {})
    with pytest.raises(InexactAt) as exc:
        check_les(spec, cap=5)
    assert exc.value.degree == 0
    assert exc.value.joint == JOINT_BOUNDARY_TAU


# -- mutations that keep every rank but break a subspace equality --------------


def _toy_sequence(tau_images):
    """A -> B -> C[-1] with A = E(x1, x2), B = E(x1, d), C = E(x1, c), all
    odd classes in degree 3 except |d| = 1: rho kills x2, the boundary sends
    d to 1 and x1*d to x1, and tau sends c to x2.  tau_images overrides tau
    on named C-monomials."""
    A = make_algebra(3, [exterior("x1", 3), exterior("x2", 3)])
    B = make_algebra(3, [exterior("x1", 3), exterior("d", 1)])
    C = make_algebra(3, [exterior("x1", 3), exterior("c", 3)])
    bdy = {B.mono_from_names({"d": 1}): {C.unit: 1},
           B.mono_from_names({"x1": 1, "d": 1}): {C.mono_from_names({"x1": 1}): 1}}
    tau = {C.mono_from_names({"c": 1}): {A.mono_from_names({"x2": 1}): 1},
           C.mono_from_names({"x1": 1, "c": 1}): {A.mono_from_names({"x1": 1, "x2": 1}): 1}}
    for name, target in tau_images.items():
        tau[C.mono_from_names({name: 1})] = (
            {A.mono_from_names({target: 1}): 1} if target else {}
        )
    rho = {"x1": [(1, {"x1": 1})], "x2": []}
    return LongExactSpec(A, B, C, rho, lambda m: bdy.get(m, {}), lambda m: tau.get(m, {}))


def _swapped(fn, spec_, first, second):
    """fn precomposed with the swap of two basis monomials of spec_."""
    a, b = spec_.mono_from_names(first), spec_.mono_from_names(second)
    swap = {a: b, b: a}
    return lambda mono: fn(swap.get(mono, mono))


def test_toy_sequence_is_exact():
    report = check_les(_toy_sequence({}), cap=8)
    assert report.rows[3] == (3, 2, 1, 0, 1, 0, 1)


def test_toy_tau_into_image_of_rho_detected():
    # tau(c) = x1 keeps rank tau = dim ker rho = 1, but rho(tau(c)) = x1
    with pytest.raises(InexactAt, match="subspaces differ") as exc:
        check_les(_toy_sequence({"c": "x1"}), cap=8)
    assert exc.value.degree == 3
    assert exc.value.joint == JOINT_TAU_RHO


def test_toy_tau_killing_the_boundary_image_detected():
    # tau(x1) = x2, tau(c) = 0: same ranks, but tau(boundary(x1*d)) = x2
    with pytest.raises(InexactAt, match="subspaces differ") as exc:
        check_les(_toy_sequence({"x1": "x2", "c": None}), cap=8)
    assert exc.value.degree == 3
    assert exc.value.joint == JOINT_BOUNDARY_TAU


def test_ell_boundary_not_killing_image_of_rho_detected():
    # in degree 18 rho(m2) = k1^3 and boundary(k1^3) = 0; swapping k1^3 with
    # l1*dlogv*k1^2 keeps every rank but boundary(rho(m2)) = l1*m1^2
    spec = ell_sequence(3)
    spec.boundary = _swapped(spec.boundary, spec.B, {"k1": 3},
                             {"l1": 1, "dlogv": 1, "k1": 2})
    with pytest.raises(InexactAt, match="subspaces differ") as exc:
        check_les(spec, cap=20)
    assert exc.value.degree == 18
    assert exc.value.joint == JOINT_RHO_BOUNDARY


def test_ell_tau_not_killing_boundary_image_detected():
    # in degree 17 tau(e1*m1^2) = l2 and tau(l1*m1^2) = 0; swapping the two
    # keeps every rank but tau(boundary(l1*dlogv*k1^2)) = l2
    spec = ell_sequence(3)
    spec.tau = _swapped(spec.tau, spec.C, {"l1": 1, "m1": 2}, {"e1": 1, "m1": 2})
    with pytest.raises(InexactAt, match="subspaces differ") as exc:
        check_les(spec, cap=20)
    assert exc.value.degree == 17
    assert exc.value.joint == JOINT_BOUNDARY_TAU


# -- the memo of boundary and tau images keeps every failure point -------------


def _scaled(c):
    return lambda img: {m: c * v for m, v in dict(img).items()}


def _mutated(seq, which, source, powers, change):
    """seq with its boundary or tau changed at the one monomial of source
    named by powers."""
    good = getattr(seq, which)
    target = source.mono_from_names(powers)
    setattr(seq, which, lambda mono: change(good(mono)) if mono == target else good(mono))
    return seq


# each expected failure was read off the checker before its images were memoised
@pytest.mark.parametrize("make, which, side, powers, change, expected", [
    (ell_sequence, "boundary", "B", {"k1": 2}, _scaled(2),
     (17, "boundary module structure",
      "not exact in degree 17 at boundary module structure: over l1 at k1^2")),
    (ku_sequence, "tau", "C", {"e1": 1, "m1": 2}, _scaled(2),
     (22, "tau module structure",
      "not exact in degree 22 at tau module structure: over l1 at e1*m1^2")),
    (ku_sequence, "boundary", "B", {"dlogu": 1, "k1": 1}, _scaled(0),
     (6, JOINT_BOUNDARY_TAU,
      "not exact in degree 6 at im(boundary) = ker(tau): ker tau has dim 1, im boundary 0")),
    (ell_sequence, "tau", "C", {"e1": 1, "m1": 2}, _scaled(0),
     (17, JOINT_TAU_RHO,
      "not exact in degree 17 at im(tau) = ker(rho): ker rho has dim 1, im tau 0")),
])
def test_wrong_coefficient_at_one_monomial_fails_where_it_did(make, which, side, powers,
                                                              change, expected):
    seq = make(3)
    seq = _mutated(seq, which, getattr(seq, side), powers, change)
    with pytest.raises(InexactAt) as exc:
        check_les(seq, cap=40)
    assert (exc.value.degree, exc.value.joint, str(exc.value)) == expected


@pytest.mark.parametrize("make, which, side, powers, target_side, image, message", [
    (ell_sequence, "boundary", "B", {"k1": 2}, "C", {"m1": 1},
     "boundary image of degree 12 monomial has degree 6"),
    (ku_sequence, "tau", "C", {"e1": 1, "m1": 2}, "A", {"l1": 1},
     "tau image of degree 17 monomial has degree 5"),
])
def test_wrong_degree_image_at_one_monomial_fails_where_it_did(make, which, side, powers,
                                                               target_side, image, message):
    seq = make(3)
    target = getattr(seq, target_side)
    target = getattr(target, "algebra", target)
    wrong = {target.mono_from_names(image): 1}
    seq = _mutated(seq, which, getattr(seq, side), powers, lambda img: wrong)
    with pytest.raises(DegreeMismatch) as exc:
        check_les(seq, cap=40)
    assert str(exc.value) == message


def test_checked_image_is_memoised_only_after_its_degree_check():
    seq = ell_sequence(3)
    B, C = _Graded(seq.B, 20), _Graded(seq.C, 20)
    good, bad = seq.B.mono_from_names({"k1": 1}), seq.B.mono_from_names({"k1": 2})
    calls = []

    def boundary(mono):
        calls.append(mono)
        return [(1, {"m1": 1})] if mono == bad else seq.boundary(mono)

    image = _checked(boundary, B, C, 1, "boundary")
    assert image(good) is image(good)
    assert calls == [good]
    for _ in range(2):
        with pytest.raises(DegreeMismatch, match="boundary image of degree 12"):
            image(bad)
    assert calls == [good, bad, bad]
