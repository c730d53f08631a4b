"""Exactness checker: the two concrete sequences, frozen degree data,
sabotage cases that must be refused, and a term-dict reference that the
table-based checker must agree with."""

import dataclasses
import random

import numpy as np
import pytest

from thhlab import les_checker
from thhlab.fp_linalg import map_rank
from thhlab.graded_algebra import (
    DegreeMismatch,
    divided,
    exterior,
    make_algebra,
    truncated,
)
from thhlab.key_arrays import RowFinder
from thhlab.les_checker import (
    JOINT_ALTERNATING,
    JOINT_BOUNDARY_TAU,
    JOINT_RHO_BOUNDARY,
    JOINT_TAU_RHO,
    ExactnessReport,
    InexactAt,
    LongExactSpec,
    _checked,
    _Graded,
    _require_algebra_map,
    check_les,
    check_les_family,
    ell_sequence,
    ku_sequence,
)
from thhlab.presentation import Presentation, RewriteRule


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
    with pytest.raises(ValueError) as info:
        check_les(spec, cap=20)
    # every failing relation is named by its rule text, in rule order
    assert str(info.value) == (
        "rho is not an algebra map: b1^2 -> u*b2; b1*b2 -> u*b3; b2^2 -> u*b4; "
        "b2*b3 -> u^2*m2; b2*b4 -> u*m2*b1; b3*b4 -> u*m2*b2; a0*b2 -> u*a2; "
        "a1*b2 -> u*a3; a2*b2 -> u*a4; a3*b2 -> u*m2*a0; a4*b2 -> u*m2*a1")


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


# -- the term-dict reference: every rank by map_rank, every pair by mul_dicts -----------


def reference_check_les(spec, cap):
    """check_les as it was before image tables: ranks through map_rank per
    degree, composites and module pairs on term dicts, one pair at a time."""
    A, B, C = _Graded(spec.A, cap), _Graded(spec.B, cap), _Graded(spec.C, cap)
    sides = [s for s in (A, B, C) if s.spec is not None]
    if not sides:
        return ExactnessReport(cap, (), 0, 0)
    field = sides[0].spec.field
    for s in sides:
        if s.spec.field != field:
            raise ValueError("the three terms live over different fields")
    rho_of = lambda mono: {}  # noqa: E731
    if A.spec is not None and B.spec is not None:
        rho_of = _require_algebra_map(spec.A, B, spec.rho, "rho")
    if spec.coefficient_action is not None and A.spec is not None and C.spec is not None:
        _require_algebra_map(spec.A, C, spec.coefficient_action, "the coefficient action")
    bdy_img = _checked(spec.boundary, B, C, 1, "boundary") if B.spec is not None else None
    tau_img = _checked(spec.tau, C, A, 0, "tau") if C.spec is not None else None

    linear = sides[0].spec.linear
    rows = []
    alternating = 0
    r_next = map_rank(field, B.at(0), {}, bdy_img)
    for n in range(cap + 1):
        r_rho = map_rank(field, A.at(n), B.index(n), rho_of)
        r_tau = map_rank(field, C.at(n), A.index(n), tau_img)
        r_bdy, r_next = r_next, map_rank(field, B.at(n + 1), C.index(n), bdy_img)
        a_n, b_n, c_prev = A.dim(n), B.dim(n), C.dim(n - 1)
        if a_n - r_rho != r_tau:
            raise InexactAt(n, JOINT_TAU_RHO, f"ker rho has dim {a_n - r_rho}, im tau {r_tau}")
        if b_n - r_bdy != r_rho:
            raise InexactAt(n, JOINT_RHO_BOUNDARY,
                            f"ker boundary has dim {b_n - r_bdy}, im rho {r_rho}")
        alternating = (a_n - b_n + c_prev) - alternating
        if alternating != r_tau:
            raise InexactAt(n, JOINT_ALTERNATING,
                            f"running alternating sum {alternating}, rank tau {r_tau}")
        if any(linear(rho_of, tau_img(c)) for c in C.at(n)):
            raise InexactAt(n, JOINT_TAU_RHO, "subspaces differ")
        if any(linear(bdy_img, rho_of(a)) for a in A.at(n)):
            raise InexactAt(n, JOINT_RHO_BOUNDARY, "subspaces differ")
        if n < cap and C.dim(n) - r_tau != r_next:
            raise InexactAt(n, JOINT_BOUNDARY_TAU,
                            f"ker tau has dim {C.dim(n) - r_tau}, im boundary {r_next}")
        if any(linear(tau_img, bdy_img(b)) for b in B.at(n + 1)):
            raise InexactAt(n, JOINT_BOUNDARY_TAU, "subspaces differ")
        rows.append((n, a_n, b_n, c_prev, r_rho, r_bdy, r_tau))

    boundary_pairs = tau_pairs = 0
    if spec.coefficient_action is not None and all(s.spec is not None for s in (A, B, C)):
        nu_imgs = {g.name: C.normalize(spec.coefficient_action[g.name])
                   for g in A.spec.generators}
        for i, g in enumerate(A.spec.generators):
            g_mono = tuple(1 if j == i else 0 for j in range(len(A.spec.generators)))
            g_deg = g.total_degree
            rho_g, nu_g = rho_of(g_mono), nu_imgs[g.name]
            for n, monos in ((n, B.at(n)) for n in range(cap + 1)):
                if n + g_deg > cap:
                    continue
                for b in monos:
                    lhs = C.spec.linear(bdy_img, B.spec.mul_dicts(rho_g, {b: 1}))
                    rhs = C.spec.mul_dicts(nu_g, bdy_img(b))
                    if lhs != rhs:
                        raise InexactAt(n + g_deg, "boundary module structure",
                                        f"over {g.name} at {B.spec.format_mono(b)}")
                    boundary_pairs += 1
            for n, monos in ((n, C.at(n)) for n in range(cap + 1)):
                if n + g_deg > cap:
                    continue
                for cmono in monos:
                    lhs = A.spec.linear(tau_img, C.spec.mul_dicts(nu_g, {cmono: 1}))
                    rhs = A.normalize(A.spec.mul_dicts({g_mono: 1}, tau_img(cmono)))
                    if lhs != rhs:
                        raise InexactAt(n + g_deg, "tau module structure",
                                        f"over {g.name} at {C.spec.format_mono(cmono)}")
                    tau_pairs += 1
    return ExactnessReport(cap, tuple(rows), boundary_pairs, tau_pairs)


def outcome(check, spec, cap):
    """The report, or the failure: ("InexactAt", degree, joint, message), or
    the exception's type name and message."""
    try:
        return check(spec, cap)
    except InexactAt as exc:
        return ("InexactAt", exc.degree, exc.joint, str(exc))
    except (DegreeMismatch, ValueError, KeyError) as exc:
        return (type(exc).__name__, str(exc))


def _algebra(side):
    return getattr(side, "algebra", side)


def _mutations(seq, p, cap, rng, count):
    """count single-monomial mutations of seq as (which, key, kind, wrong),
    for _apply: the boundary or tau image of one basis monomial key, or the
    rho or nu image of one A-generator named key, scaled by kind (0, 2 or
    p - 1) or, for kind "degree", replaced by wrong, one target monomial of
    the wrong degree."""
    A, B, C = (_Graded(side, cap) for side in (seq.A, seq.B, seq.C))
    out = []
    for _ in range(count):
        which = rng.choice(["boundary", "tau", "rho", "nu"])
        kind = rng.choice([0, 2, p - 1, "degree"])
        src, dst = {"boundary": (B, C), "tau": (C, A), "rho": (A, B), "nu": (A, C)}[which]
        if which in ("boundary", "tau"):
            fn = getattr(seq, which)
            key = mono = rng.choice(src.monos if kind == "degree" else
                                    [m for m in src.monos if fn(m)])
        else:
            key = rng.choice([g.name for g in src.spec.generators])
            mono = src.spec.mono_from_names({key: 1})
        want = src.spec.total_degree_of(mono) - (which == "boundary")
        wrong = rng.choice([m for m in dst.monos if dst.spec.total_degree_of(m) != want])
        out.append((which, key, kind, {wrong: 1}))
    return out


def _apply(builder, p, ambiguity, which, key, kind, wrong):
    """A fresh builder(p, ambiguity) with one mutation of _mutations."""
    seq = builder(p, ambiguity)
    if which in ("boundary", "tau"):
        good = getattr(seq, which)

        def changed(mono, good=good):
            if mono != key:
                return good(mono)
            if kind == "degree":
                return wrong
            return {m: kind * c for m, c in _algebra(seq.C if which == "boundary" else seq.A)
                    .dict_from_input(good(mono)).items()}
        setattr(seq, which, changed)
    else:
        attr = "rho" if which == "rho" else "coefficient_action"
        images = dict(getattr(seq, attr))
        target = _algebra(seq.B if which == "rho" else seq.C)
        terms = target.dict_from_input(images[key])
        images[key] = wrong if kind == "degree" else {m: kind * c for m, c in terms.items()}
        setattr(seq, attr, images)
    return seq


@pytest.mark.parametrize("builder, p, cap", [
    (ell_sequence, 3, 40), (ku_sequence, 3, 40), (ell_sequence, 5, 60), (ku_sequence, 5, 60),
])
@pytest.mark.parametrize("ambiguity", [0, 1])
def test_tables_agree_with_the_reference_under_single_mutations(builder, p, cap, ambiguity):
    assert outcome(check_les, builder(p, ambiguity), cap) \
        == outcome(reference_check_les, builder(p, ambiguity), cap)
    rng = random.Random(1000 * p + 10 * ambiguity + (builder is ku_sequence))
    kinds = set()
    for which, key, kind, wrong in _mutations(builder(p, ambiguity), p, cap, rng, 12):
        args = (builder, p, ambiguity, which, key, kind, wrong)
        got = outcome(check_les, _apply(*args), cap)
        assert got == outcome(reference_check_les, _apply(*args), cap), args
        kinds.add(got[0] if isinstance(got, tuple) else "report")
    assert "InexactAt" in kinds and "DegreeMismatch" in kinds, kinds


# -- families: both boundary ambiguities in one pass --------------------------------


def family_of(seq, boundary):
    """seq and a second member that shares every field but the boundary."""
    return [seq, dataclasses.replace(seq, boundary=boundary)]


def family_outcome(members, cap):
    """outcome() per member of check_les_family, or the error it raises."""
    try:
        results = check_les_family(members, cap)
    except (DegreeMismatch, ValueError, KeyError) as exc:
        return (type(exc).__name__, str(exc))
    return [r if isinstance(r, ExactnessReport) else ("InexactAt", r.degree, r.joint, str(r))
            for r in results]


def members_outcome(members, cap):
    """outcome() of check_les per member, or the first error other than InexactAt."""
    out = []
    for member in members:
        got = outcome(check_les, member, cap)
        if isinstance(got, tuple) and got[0] != "InexactAt":
            return got
        out.append(got)
    return out


def _mutated_family(builder, p, member, which, key, kind, wrong):
    """builder(p)'s two ambiguities as a family, with one mutation of
    _mutations: to the boundary of one member only, or to a shared field."""
    members = family_of(builder(p, 0), builder(p, 1).boundary)
    mutated = _apply(builder, p, member, which, key, kind, wrong)
    if which == "boundary":
        members[member] = dataclasses.replace(members[member], boundary=mutated.boundary)
        return members
    field = {"tau": "tau", "rho": "rho", "nu": "coefficient_action"}[which]
    shared = getattr(mutated, field)
    return [dataclasses.replace(m, **{field: shared}) for m in members]


@pytest.mark.parametrize("builder, p, cap", [
    (ell_sequence, 3, 40), (ku_sequence, 3, 40), (ell_sequence, 5, 60), (ku_sequence, 5, 60),
])
@pytest.mark.parametrize("member", [0, 1])
def test_a_family_agrees_with_its_members_under_single_mutations(builder, p, cap, member):
    members = family_of(builder(p, 0), builder(p, 1).boundary)
    assert family_outcome(members, cap) == members_outcome(members, cap)
    rng = random.Random(1000 * p + 10 * member + (builder is ku_sequence))
    kinds = set()
    for mutation in _mutations(builder(p, member), p, cap, rng, 12):
        args = (builder, p, member, *mutation)
        got = family_outcome(_mutated_family(*args), cap)
        assert got == members_outcome(_mutated_family(*args), cap), args
        kinds.update(r[0] if isinstance(r, tuple) else "report"
                     for r in (got if isinstance(got, list) else [got]))
    assert "InexactAt" in kinds and "DegreeMismatch" in kinds, kinds


def test_tau_images_are_read_before_the_boundary_images():
    # a boundary and a tau image of the wrong degree raise tau's
    # DegreeMismatch, in check_les and in a family, whichever member's
    # boundary is wrong
    p, cap = 3, 40
    mutations = _mutations(ku_sequence(p), p, cap, random.Random(7), 200)
    bdy = next(m for m in mutations if m[0] == "boundary" and m[2] == "degree")
    tau = next(m for m in mutations if m[0] == "tau" and m[2] == "degree")
    seq = _apply(ku_sequence, p, 0, *bdy)
    seq.tau = _apply(ku_sequence, p, 0, *tau).tau
    other = dataclasses.replace(seq, boundary=ku_sequence(p, 1).boundary)
    for check, arg in ((check_les, seq), (check_les_family, [seq, other]),
                       (check_les_family, [other, seq])):
        with pytest.raises(DegreeMismatch, match="^tau image of degree 22 monomial has degree"):
            check(arg, cap)
    with pytest.raises(DegreeMismatch, match="^boundary image of degree 20 monomial"):
        check_les_family(family_of(ku_sequence(p), seq.boundary), cap)


def test_family_members_share_all_but_the_boundary():
    seq = ell_sequence(3)
    with pytest.raises(ValueError, match="differ in their boundary only"):
        check_les_family([seq, dataclasses.replace(seq, tau=ell_sequence(3).tau)], 10)


def test_a_family_checks_tau_module_pairs_once_and_only_when_reached(monkeypatch):
    calls = []
    checked = les_checker._Image.module_failure

    def counted(self, sides, finish):
        calls.append(self.src.mat.shape[1])
        return checked(self, sides, finish)

    monkeypatch.setattr(les_checker._Image, "module_failure", counted)
    reports = check_les_family(family_of(ku_sequence(3), ku_sequence(3, 1).boundary), 40)
    assert all(isinstance(r, ExactnessReport) for r in reports)
    assert calls == [4, 3, 4]  # the two boundaries on B, tau on C once
    calls.clear()
    broken = _mutated(ku_sequence(3), "boundary", ku_sequence(3).B, {"dlogu": 1, "k1": 1},
                      _scaled(0))
    results = check_les_family(family_of(broken, broken.boundary), 40)
    assert [(r.degree, r.joint) for r in results] == [(6, JOINT_BOUNDARY_TAU)] * 2
    assert calls == []


def test_first_module_failure_follows_the_reference_order():
    # ku_sequence(3) with tau at e1*m1^2 doubled and either the boundary at
    # dlogu*k1^4 or nu(m2) doubled: every rank survives, but the module
    # structure breaks over l1 and m2, on both sides
    def broken(second):
        seq = ku_sequence(3)
        seq = _mutated(seq, "tau", seq.C, {"e1": 1, "m1": 2}, _scaled(2))
        if second == "boundary":
            return _mutated(seq, "boundary", seq.B, {"dlogu": 1, "k1": 4}, _scaled(2))
        seq.coefficient_action = {**seq.coefficient_action, "m2": [(2, {"m1": 3})]}
        return seq

    # l1's boundary pairs come before its tau pairs, though tau fails lower down
    got = outcome(check_les, broken("boundary"), 40)
    assert got == outcome(reference_check_les, broken("boundary"), 40)
    assert got == ("InexactAt", 30, "boundary module structure",
                   "not exact in degree 30 at boundary module structure: over l1 at dlogu*k1^4")
    # l1 comes before m2, though m2's boundary pairs fail lower down
    got = outcome(check_les, broken("nu"), 40)
    assert got == outcome(reference_check_les, broken("nu"), 40)
    assert got == ("InexactAt", 22, "tau module structure",
                   "not exact in degree 22 at tau module structure: over l1 at e1*m1^2")
    seq = broken("nu")
    seq.tau = ku_sequence(3).tau
    assert outcome(check_les, seq, 40)[1:3] == (19, "boundary module structure")
    # as families, beside a member with the other boundary, which fails at tau
    for second in ("boundary", "nu"):
        members = family_of(broken(second), ku_sequence(3, 1).boundary)
        assert family_outcome(members, 40) == [outcome(reference_check_les, m, 40)
                                               for m in members]
    assert [r[1:3] for r in family_outcome(family_of(broken("boundary"),
                                                     ku_sequence(3, 1).boundary), 40)] == [
        (30, "boundary module structure"), (22, "tau module structure")]


@pytest.mark.parametrize("budget", [1, 40])
def test_blocks_of_any_budget_give_the_same_results(monkeypatch, budget):
    # the tau pairs of ku_sequence(3) include products outside theta's basis,
    # checked on term dicts; a budget of 1 puts each generator in a block of
    # its own, and 40 stacks a few
    def families():
        broken_tau = _mutated(ku_sequence(3), "tau", ku_sequence(3).C, {"e1": 1, "m1": 2},
                              _scaled(2))
        broken_boundary = _mutated(ku_sequence(3), "boundary", ku_sequence(3).B,
                                   {"dlogu": 1, "k1": 4}, _scaled(2))
        return [family_of(ku_sequence(3), ku_sequence(3, 1).boundary),
                family_of(ell_sequence(3), ell_sequence(3, 1).boundary),
                family_of(ku_sequence(5), ku_sequence(5, 1).boundary),
                family_of(broken_tau, ku_sequence(3, 1).boundary),
                family_of(broken_boundary, ku_sequence(3, 1).boundary)]

    whole = [family_outcome(members, 40) for members in families()]
    blocks = []
    split = les_checker._Image._block_failure

    def counted(self, sides, counts, finish):
        blocks.append(int((counts > 0).sum()))  # the generators with pairs
        return split(self, sides, counts, finish)

    monkeypatch.setattr(les_checker, "_BLOCK_PAIRS", budget)
    monkeypatch.setattr(les_checker._Image, "_block_failure", counted)
    assert [family_outcome(members, 40) for members in families()] == whole
    assert max(blocks) > 1 if budget == 40 else max(blocks) == 1
    presented = _presented_sequence({})
    assert family_outcome([presented], 12) == [outcome(reference_check_les, presented, 12)]


def _presented_sequence(boundary_of_x1_d):
    """A toy sequence whose middle term B is a presentation: E(x1, d) with
    x1*d rewritten to a new class w (w^2 = x1*w = d*w = 0), so that
    rho(x1) * d leaves B's basis.  The boundary sends d to 1 and w to x1, and
    on the reducible monomial x1*d it returns boundary_of_x1_d."""
    A = make_algebra(3, [exterior("x1", 3), exterior("x2", 3)])
    amb = make_algebra(3, [exterior("x1", 3), exterior("d", 1), truncated("w", 4, 2)])
    mono = amb.mono_from_names
    B = Presentation(amb, (RewriteRule(mono({"x1": 1, "d": 1}), {mono({"w": 1}): 1}),
                           RewriteRule(mono({"x1": 1, "w": 1}), {}),
                           RewriteRule(mono({"d": 1, "w": 1}), {})))
    C = make_algebra(3, [exterior("x1", 3), exterior("c", 3)])
    bdy = {mono({"d": 1}): {C.unit: 1}, mono({"w": 1}): {C.mono_from_names({"x1": 1}): 1},
           mono({"x1": 1, "d": 1}): boundary_of_x1_d}
    tau = {C.mono_from_names({"c": 1}): {A.mono_from_names({"x2": 1}): 1},
           C.mono_from_names({"x1": 1, "c": 1}): {A.mono_from_names({"x1": 1, "x2": 1}): 1}}
    return LongExactSpec(A, B, C, {"x1": [(1, {"x1": 1})], "x2": []},
                         lambda m: bdy.get(m, {}), lambda m: tau.get(m, {}),
                         coefficient_action={"x1": [(1, {"x1": 1})], "x2": []})


def test_a_product_outside_the_basis_takes_the_term_dict_path():
    x1 = {(1, 0): 1}
    report = check_les(_presented_sequence(x1), 12)
    assert report == reference_check_les(_presented_sequence(x1), 12)
    assert report.rows[4] == (4, 0, 1, 2, 0, 1, 0)
    got = outcome(check_les, _presented_sequence({}), 12)
    assert got == outcome(reference_check_les, _presented_sequence({}), 12)
    assert got == ("InexactAt", 4, "boundary module structure",
                   "not exact in degree 4 at boundary module structure: over x1 at d")


def test_an_image_term_outside_the_target_basis_raises_where_it_did():
    # x2^2 is no basis monomial of E(x1, x2): map_rank meets it as tau's
    # image of x1*c in degree 6, after every check of the lower degrees
    def broken():
        seq = _toy_sequence({})
        return _mutated(seq, "tau", seq.C, {"x1": 1, "c": 1}, lambda img: {(0, 2): 1})
    assert outcome(check_les, broken(), 8) == outcome(reference_check_les, broken(), 8) \
        == ("KeyError", "(0, 2)")


def test_monomial_images_are_ranked_without_map_rank(monkeypatch):
    calls = {"map_rank": 0, "index": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(les_checker, "map_rank", counted("map_rank", les_checker.map_rank))
    monkeypatch.setattr(_Graded, "index", counted("index", _Graded.index))
    check_les(ku_sequence(3, 0), 40)
    assert calls == {"map_rank": 0, "index": 0}
    check_les(ku_sequence(3, 1), 40)  # the ambiguity-1 boundary has two-term images
    assert calls["map_rank"] > 0 and calls["index"] == calls["map_rank"]


@pytest.mark.parametrize("seed", range(4))
def test_row_finder_matches_a_linear_search(seed):
    # column maxima up to 2^39 force one to four mixed-radix runs
    rng = random.Random(seed)
    runs = set()
    for _ in range(60):
        width = rng.randrange(6)
        highs = [2 ** rng.randrange(1, 40) for _ in range(width)]
        rows = sorted({tuple(rng.randrange(h) for h in highs) for _ in range(rng.randrange(40))})
        mat = np.array(rows, dtype=np.int64).reshape(len(rows), width)
        finder = RowFinder(mat)
        runs.add(len(finder.runs))
        queries = rows[:10] + [tuple(rng.randrange(-2, 2 ** 40) for _ in range(width))
                               for _ in range(rng.randrange(1, 8))]
        got = finder.find(np.array(queries, dtype=np.int64).reshape(len(queries), width))
        assert got.tolist() == [rows.index(q) if q in rows else -1 for q in queries]
    assert len(runs) > 1
