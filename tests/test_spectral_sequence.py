"""Pages, Leibniz-extended differentials, page turns, abutment comparison."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thhlab.fp_linalg import FpMatrix, map_matrix
from thhlab.graded_algebra import (
    bigraded_dims,
    divided,
    exterior,
    hilbert,
    make_algebra,
    polynomial,
    truncated,
)
from thhlab.spectral_sequence import (
    AbutmentSpec,
    BidegreeViolation,
    DifferentialRule,
    DimMismatch,
    ExtensionDegreeError,
    ExtensionRule,
    FamilyViolation,
    LeibnizConflict,
    NotADifferential,
    Page,
    PageLabel,
    RuleFamily,
    _Differential,
    compare_abutment,
    possible_differentials,
    run_differential,
    verify_rule_family,
)

# -- the divided-power tower page: E(l1,l2) x P(m2) x E([v]) x Gamma([dv]) --------


def tower_page(p, cap):
    spec = make_algebra(
        p,
        [
            exterior("l1", 2 * p - 1),
            exterior("l2", 2 * p * p - 1),
            polynomial("m2", 2 * p * p),
            exterior("[v]", 2 * p - 2, filtration=1),
            divided("[dv]", 2 * p - 1, filtration=1),
        ],
    )
    return Page(spec, page_index=2, cap=cap)


def tower_rules(p, cap, scalars=None):
    rules = []
    k = p
    i = 1
    while 2 * p * k <= cap + 1:
        c = 1 if scalars is None else scalars.get(i, 1)
        if c:
            rules.append(
                DifferentialRule(
                    page=p,
                    source={"[dv]": k},
                    target=[(c, {"l2": 1, "[dv]": k - p})],
                )
            )
        k *= p
        i += 1
    return rules


def tower_einfty_spec(p):
    return make_algebra(
        p,
        [
            exterior("l1", 2 * p - 1),
            polynomial("m2", 2 * p * p),
            exterior("[v]", 2 * p - 2, filtration=1),
            truncated("[dv]", 2 * p - 1, p, filtration=1),
        ],
    )


def clean(d):
    return {k: v for k, v in d.items() if v}


def test_tower_page_turn_matches_truncated_polynomial_window():
    p, cap = 3, 54
    page = tower_page(p, cap)
    out = run_differential(page, tower_rules(p, cap))
    assert out.page_index == p + 1
    assert out.extra_classes is None
    expected = clean(bigraded_dims(tower_einfty_spec(p), cap))
    assert clean(out.bigraded_dims(cap)) == expected


def test_tower_family_scalars_frozen_p3():
    p, cap = 3, 54
    page = tower_page(p, cap)
    rules = tower_rules(p, cap)
    fam = RuleFamily(
        gamma_gen="[dv]",
        step=p,
        ks=[1, 2, 3, 4, 5, 6, 9],
        cofactor=[(1, {"l2": 1})],
    )
    report = verify_rule_family(page, rules, fam)
    assert report.scalar_map() == {1: 0, 2: 0, 3: 1, 4: 1, 5: 1, 6: 1, 9: 1}


def test_tower_family_violation_on_wrong_cofactor():
    p, cap = 3, 54
    page = tower_page(p, cap)
    rules = tower_rules(p, cap)
    fam = RuleFamily(
        gamma_gen="[dv]", step=p, ks=[4], cofactor=[(1, {"l1": 1})]
    )
    with pytest.raises(FamilyViolation):
        verify_rule_family(page, rules, fam)


def test_tower_abutment_comparison_p3():
    p, cap = 3, 54
    out = run_differential(tower_page(p, cap), tower_rules(p, cap))
    abut = AbutmentSpec(
        make_algebra(
            p,
            [
                exterior("e1", 2 * p - 1),
                exterior("l1", 2 * p - 1),
                polynomial("m1", 2 * p),
            ],
        ),
        {"e1": 1, "l1": 0, "m1": 1},
    )
    ext = [ExtensionRule({"m2": 1}, [(1, {"m1": p})])]
    report = compare_abutment(out, abut, ext, cap)
    assert report.extension_drops == (("m2", p),)
    assert dict(report.degrees)[2 * p - 1] == 2  # the two exterior classes


def test_tower_abutment_mismatch_reports_first_degree():
    p, cap = 3, 30
    out = run_differential(tower_page(p, cap), tower_rules(p, cap))
    abut = AbutmentSpec(
        make_algebra(p, [polynomial("m1", 2 * p)]), {"m1": 1}
    )
    with pytest.raises(DimMismatch) as exc:
        compare_abutment(out, abut, [], cap)
    assert "degree 5" in str(exc.value)


def test_extension_rule_validation():
    p, cap = 3, 30
    out = run_differential(tower_page(p, cap), tower_rules(p, cap))
    abut = AbutmentSpec(
        make_algebra(
            p,
            [
                exterior("e1", 2 * p - 1),
                exterior("l1", 2 * p - 1),
                polynomial("m1", 2 * p),
            ],
        ),
        {"e1": 1, "l1": 0, "m1": 1},
    )
    with pytest.raises(ExtensionDegreeError):  # degree mismatch
        compare_abutment(out, abut, [ExtensionRule({"m2": 1}, [(1, {"m1": 2})])], cap)
    with pytest.raises(ExtensionDegreeError):  # no filtration drop
        compare_abutment(
            out, abut, [ExtensionRule({"[dv]": 3}, [(1, {"m1": 3})])], cap
        )


def test_trivial_page_turn_keeps_groups():
    page = tower_page(3, 24)
    out = run_differential(page, [])
    assert out.page_index == 3
    assert clean(out.bigraded_dims(24)) == clean(page.bigraded_dims(24))


def test_identity_abutment_with_no_extensions():
    p, cap = 3, 40
    spec = make_algebra(p, [exterior("dlogv", 1), polynomial("k1", 6)])
    page = Page(spec, page_index=2, cap=cap)
    abut = AbutmentSpec(spec, {g.name: 0 for g in spec.generators})
    report = compare_abutment(page, abut, [], cap)
    assert report.extension_drops == ()


# -- failure modes -----------------------------------------------------------------


def chain_spec():
    return make_algebra(
        3,
        [
            exterior("w", 3, filtration=4),
            polynomial("x", 4, filtration=2),
            exterior("z", 5, filtration=0),
        ],
    )


def test_not_a_differential():
    page = Page(chain_spec(), page_index=2, cap=14)
    rules = [
        DifferentialRule(2, {"w": 1}, [(1, {"x": 1})]),
        DifferentialRule(2, {"x": 1}, [(1, {"z": 1})]),
    ]
    with pytest.raises(NotADifferential):
        run_differential(page, rules)


def cancel_page(cap=14):
    # d(w) = x - y needs d(x) = d(y); the support of d is one component
    spec = make_algebra(
        3,
        [
            exterior("w", 3, filtration=4),
            polynomial("x", 4, filtration=2),
            polynomial("y", 4, filtration=2),
            exterior("z", 5, filtration=0),
        ],
    )
    return Page(spec, page_index=2, cap=cap)


def cancel_rules(scalar):
    return [
        DifferentialRule(2, {"w": 1}, [(1, {"x": 1}), (-1, {"y": 1})]),
        DifferentialRule(2, {"x": 1}, [(1, {"z": 1})]),
        DifferentialRule(2, {"y": 1}, [(1, {"z": 1})], scalar=scalar),
    ]


def test_wrong_rule_scalar_is_not_a_differential():
    out = run_differential(cancel_page(), cancel_rules(1))
    assert out.keys_at(2, 4) == ()  # x - y bounds, x + y maps onto z
    assert out.extra_classes is None
    with pytest.raises(NotADifferential, match=r"out of bidegree \(4, 3\) on page 2"):
        run_differential(cancel_page(), cancel_rules(2))


def test_wrong_rule_scalar_is_caught_under_python_O():
    script = (
        "import sys\n"
        "from thhlab.graded_algebra import exterior, make_algebra, polynomial\n"
        "from thhlab.spectral_sequence import DifferentialRule as R, NotADifferential\n"
        "from thhlab.spectral_sequence import Page, run_differential\n"
        "spec = make_algebra(3, [exterior('w', 3, 4), polynomial('x', 4, 2),\n"
        "                        polynomial('y', 4, 2), exterior('z', 5, 0)])\n"
        "rules = [R(2, {'w': 1}, [(1, {'x': 1}), (-1, {'y': 1})]),\n"
        "         R(2, {'x': 1}, [(1, {'z': 1})]), R(2, {'y': 1}, [(2, {'z': 1})])]\n"
        "try:\n"
        "    run_differential(Page(spec, 2, 14), rules)\n"
        "except NotADifferential:\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    )
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env)
    assert done.returncode == 0

def test_bidegree_violation():
    page = Page(chain_spec(), page_index=2, cap=14)
    with pytest.raises(BidegreeViolation):
        run_differential(page, [DifferentialRule(2, {"w": 1}, [(1, {"z": 1})])])


def test_image_outside_the_window_leaves_its_lane():
    # the target sits at the right bidegree, but label b admits no divided
    # powers, so g*{b} is not a basis key of the page
    spec = make_algebra(3, [divided("g", 3, filtration=1)])
    page = Page(spec, page_index=2, cap=20,
                labels=(PageLabel("a", 0), PageLabel("b", 7, allows_gamma=False)))
    rule = DifferentialRule(2, ({"g": 3}, "a"), [(1, {"g": 1}, "b")])
    with pytest.raises(BidegreeViolation, match="leaves its bidegree lane"):
        run_differential(page, [rule])



def test_tower_rule_whose_image_leaves_the_page():
    # the p = 3 u-tower of the module page with a1 admitting no divided
    # powers: d(gamma_3 {u}) = gamma_1 {a1} has the right bidegree, no key
    page = module_page(cap=30)
    labels = tuple(
        PageLabel(L.name, L.shift, allows_gamma=False) if L.name == "a1" else L
        for L in page.labels
    )
    page = Page(page.spec, page_index=2, cap=30, labels=labels)
    with pytest.raises(BidegreeViolation, match=r"d\(g3\(\[du\]\)\*\{u\}\) leaves"):
        run_differential(page, module_rules(page))

def test_leibniz_conflict_on_duplicate_sources():
    page = tower_page(3, 24)
    rules = [
        DifferentialRule(3, {"[dv]": 3}, [(1, {"l2": 1})]),
        DifferentialRule(3, {"[dv]": 3}, [(2, {"l2": 1})]),
    ]
    with pytest.raises(LeibnizConflict):
        run_differential(page, rules)


def test_rule_source_shape_validation():
    page = tower_page(3, 24)
    with pytest.raises(ValueError):
        run_differential(
            page, [DifferentialRule(2, {"l1": 1, "l2": 1}, [])]
        )
    with pytest.raises(ValueError):  # gamma_6 is not an indecomposable
        run_differential(
            page, [DifferentialRule(3, {"[dv]": 6}, [(1, {"l2": 1, "[dv]": 3})])]
        )


def test_non_monomial_classes_are_counted():
    spec = make_algebra(
        3,
        [
            polynomial("x", 2, filtration=2),
            polynomial("y", 2, filtration=2),
            exterior("z", 3, filtration=0),
        ],
    )
    page = Page(spec, page_index=2, cap=8)
    rules = [
        DifferentialRule(2, {"x": 1}, [(1, {"z": 1})]),
        DifferentialRule(2, {"y": 1}, [(1, {"z": 1})]),
    ]
    out = run_differential(page, rules)
    assert out.extra_classes and out.extra_classes[(2, 2)] == 1
    assert out.bigraded_dims(8)[(2, 2)] == 1  # the class of x - y
    assert (0, 3) not in out.bigraded_dims(8)  # z died as a boundary


def test_possible_differentials_lists_candidate_lanes():
    page = tower_page(3, 24)
    lanes = possible_differentials(page, 3)
    assert (3, (3, 15)) in lanes  # gamma_3 over the l2 lane


def test_possible_differentials_stop_at_the_cap():
    # filtrations are nonnegative, so no d_r with r > cap has a target in
    # the window: a huge max_page gives the lanes of max_page = cap, at once
    page = tower_page(3, 24)
    lanes = possible_differentials(page, 24)
    assert lanes and max(r for r, _ in lanes) <= 24
    assert possible_differentials(page, 10**9) == lanes


# -- labeled module pages (divided tower over a summand basis) ----------------------


def module_page(p=3, cap=60, drop_z_from_free=False):
    spec = make_algebra(
        p,
        [
            exterior("l1", 2 * p - 1),
            exterior("dlogu", 1),
            polynomial("m2", 2 * p * p),
            divided("[du]", 3, filtration=1),
        ],
    )
    labels = [
        PageLabel("1", 0, allows_gamma=False),
        PageLabel("u", 2, allows_gamma=True),
        PageLabel("b1", 8, allows_gamma=True),
        PageLabel("a1", 9, allows_gamma=True),
        PageLabel("a2", 15, allows_gamma=True),
    ]
    if drop_z_from_free:
        labels += [PageLabel("z", 14, allows_gamma=True), PageLabel("l2", 17, allows_gamma=True)]
    else:
        labels += [PageLabel("z", 14, allows_gamma=False)]
    return Page(spec, page_index=2, cap=cap, labels=tuple(labels))


def module_rules(page, p=3, window=None):
    rules = []
    for src, tgt, delta in (("u", "a1", 2), ("b1", "a2", 8)):
        k = 2
        while 4 * k + delta <= page.work_cap:
            if window is None or 4 * k + delta < window:
                rules.append(
                    DifferentialRule(
                        2, ({"[du]": k}, src), [(1, {"[du]": k - 2}, tgt)]
                    )
                )
            k += 1
    return rules


def sec8_abutment(p=3):
    return AbutmentSpec(
        make_algebra(
            p,
            [
                truncated("u", 2, p - 1),
                exterior("l1", 2 * p - 1),
                exterior("dlogu", 1),
                polynomial("k1", 2 * p),
            ],
        ),
        {"u": 0, "l1": 0, "dlogu": 0, "k1": 1},
    )


def sec8_representative(page):
    spec = page.spec

    def rep(mono):
        a, e, f, K = mono
        q, j = divmod(K, 3)
        powers = {"l1": e, "dlogu": f, "m2": q}
        if j == 0:
            label = "1" if a == 0 else "u"  # u^{p-2} rides the gamma_0 slot
        elif a == 0:
            powers["[du]"] = 1  # gamma_1 of the tower represents k1^j
            label = "u" if j == 1 else "b1"
        else:
            label = "b1" if j == 1 else "z"
        return (spec.mono_from_names(powers), page.label_index(label))

    return rep


def test_module_page_turn_and_abutment_p3():
    cap = 60
    page = module_page(cap=cap)
    out = run_differential(page, module_rules(page))
    assert out.page_index == 3
    assert out.total_dims()[18] == 2  # k1^3 and l1*dlogu*k1^2
    # a-labeled classes die entirely, the b-towers truncate at gamma_1
    dims = out.bigraded_dims(cap)
    assert dims.get((0, 9)) == 1  # dlogu over b1 stays; gamma_0 of a1 dies
    assert (2, 15) not in dims  # gamma_2 of a1, and dlogu gamma_2 of b1
    assert (3, 11) not in dims  # gamma_3 over the u tower
    abut = sec8_abutment()
    extensions = [
        ExtensionRule(({}, "b1"), [(1, {"u": 1, "k1": 1})]),
        ExtensionRule(({}, "z"), [(1, {"u": 1, "k1": 2})]),
        ExtensionRule(({"m2": 1}, "1"), [(1, {"k1": 3})]),
    ]
    report = compare_abutment(
        out, abut, extensions, cap, representative=sec8_representative(out)
    )
    assert report.extension_drops == (("b1", 1), ("z", 2), ("m2*{1}", 3))


def test_module_alternative_window_reproduces_surplus_p3():
    # with the degree-14 summand moved onto its own divided tower (and a top
    # exterior class riding a second one), rules are only defensible below
    # internal degree 2p^2; the window then keeps three classes in total
    # degree 17 while the abutment holds one
    cap = 40
    page = module_page(cap=cap, drop_z_from_free=True)
    out = run_differential(page, module_rules(page, window=18))
    assert out.total_dims()[17] == 3
    kill_sources = [
        (bd, n) for bd, n in out.bigraded_dims(cap).items()
        if sum(bd) == 18 and bd[0] >= 3 and n
    ]
    assert sum(n for _, n in kill_sources) == 1
    abut = sec8_abutment()
    assert hilbert(abut.target, 17)[17] == 1


def test_module_rule_family_verification():
    page = module_page(cap=40)
    rules = module_rules(page)
    fam = RuleFamily(
        gamma_gen="[du]",
        step=2,
        ks=[0, 1, 2, 3, 4, 5],
        source_label="u",
        target_label="a1",
    )
    report = verify_rule_family(page, rules, fam)
    assert report.scalar_map() == {0: 0, 1: 0, 2: 1, 3: 1, 4: 1, 5: 1}


def test_labeled_rule_sources_must_be_gamma_pure():
    page = module_page(cap=30)
    bad = DifferentialRule(2, ({"dlogu": 1, "[du]": 2}, "u"), [(1, {"dlogu": 1}, "a1")])
    with pytest.raises(ValueError):
        run_differential(page, [bad])


# -- properties ----------------------------------------------------------------------


@given(
    c1=st.integers(min_value=1, max_value=2),
    c2=st.integers(min_value=1, max_value=2),
)
@settings(max_examples=8, deadline=None)
def test_tower_einfty_independent_of_unit_scalars(c1, c2):
    p, cap = 3, 36
    page = tower_page(p, cap)
    rules = tower_rules(p, cap, scalars={1: c1, 2: c2})
    out = run_differential(page, rules)
    assert clean(out.bigraded_dims(cap)) == clean(
        bigraded_dims(tower_einfty_spec(p), cap)
    )


def test_dropping_a_family_member_still_runs_consistently():
    # the internal homology accounting is asserted inside run_differential
    p, cap = 3, 36
    page = tower_page(p, cap)
    rules = tower_rules(p, cap, scalars={1: 1, 2: 0})
    out = run_differential(page, rules)
    assert out.total_dims()[0] == 1


def dense_turn(page, rules):
    """Reference page turn: one dense matrix of d out of every bucket, and a
    monomial cycle survives when it is outside the span of the boundaries
    and of the cycles before it (rref of [boundaries | unit columns])."""
    diff = _Differential(page, rules)
    field, r, buckets = page.spec.field, diff.r, page.raw_buckets()
    index = {bd: {k: i for i, k in enumerate(ks)} for bd, ks in buckets.items()}
    mats = {
        (s, t): map_matrix(field, keys, index.get((s - r, t + r - 1), {}), diff.of_key)
        for (s, t), keys in buckets.items()
    }
    dims, survivors, extra = {}, {}, {}
    for (s, t), keys in buckets.items():
        if s + t > page.cap:
            continue
        out_m, in_m = mats[(s, t)], mats.get((s + r, t - r + 1))
        bounds = in_m.data if in_m is not None else np.zeros((len(keys), 0), np.int64)
        dims[(s, t)] = len(keys) - out_m.rank() - (in_m.rank() if in_m is not None else 0)
        cycles = np.flatnonzero(~out_m.data.any(axis=0))
        units = np.zeros((len(keys), cycles.size), dtype=np.int64)
        units[cycles, np.arange(cycles.size)] = 1
        _, pivots = FpMatrix(field, np.hstack([bounds, units])).rref()
        chosen = [keys[cycles[c - bounds.shape[1]]] for c in pivots if c >= bounds.shape[1]]
        if chosen:
            survivors[(s, t)] = tuple(chosen)
        if len(chosen) < dims[(s, t)]:
            extra[(s, t)] = dims[(s, t)] - len(chosen)
    return {bd: n for bd, n in dims.items() if n}, survivors, extra or None


@st.composite
def leibniz_pages(draw):
    """A two-layer page: filtration-0 generators, and filtration-2 generators
    whose d_2 hits random combinations in the filtration-0 algebra.  d.d = 0
    holds on generators, so the Leibniz extension is a differential; the
    first rule hits two monomials, so d's support is no matching."""
    p = draw(st.sampled_from([3, 5]))
    low = [
        exterior("a", 1), exterior("b", 3),
        draw(st.sampled_from([polynomial("c", 2), truncated("c", 2, p), divided("c", 2)])),
    ]
    base = make_algebra(p, low).basis_by_degree(8)
    gens, rules = list(low), []
    for i in range(draw(st.integers(1, 3))):
        n = draw(st.sampled_from([n for n in range(2, 9) if len(base[n]) >= 2]))
        name = f"x{i}"
        gens.append((polynomial if n % 2 else exterior)(name, n - 1, filtration=2))
        targets = draw(st.lists(st.sampled_from(base[n]), min_size=2 if i == 0 else 1,
                                max_size=3, unique=True))
        coeffs = draw(st.lists(st.integers(1, p - 1), min_size=len(targets),
                               max_size=len(targets)))
        rules.append((name, list(zip(coeffs, targets))))
    spec = make_algebra(p, gens)
    names = [g.name for g in low]

    def powers(mono):
        return {nm: e for nm, e in zip(names, mono) if e}

    rules = [DifferentialRule(2, {name: 1}, [(c, powers(m)) for c, m in tgt])
             for name, tgt in rules]
    return Page(spec, page_index=2, cap=draw(st.integers(6, 12))), rules


@given(leibniz_pages())
@settings(max_examples=40, deadline=None)
def test_component_turn_matches_dense_reference(page_rules):
    page, rules = page_rules
    dims, survivors, extra = dense_turn(page, rules)
    out = run_differential(page, rules)
    assert out.bigraded_dims() == dims
    assert out.survivors == survivors
    assert out.extra_classes == extra


def test_component_reference_sees_larger_components():
    # the seed shape of the property above: d(x) = d(y) = z joins x, y and z
    spec = make_algebra(
        3,
        [
            polynomial("x", 2, filtration=2),
            polynomial("y", 2, filtration=2),
            exterior("z", 3, filtration=0),
        ],
    )
    page = Page(spec, page_index=2, cap=8)
    rules = [
        DifferentialRule(2, {"x": 1}, [(1, {"z": 1})]),
        DifferentialRule(2, {"y": 1}, [(1, {"z": 1})]),
    ]
    dims, survivors, extra = dense_turn(page, rules)
    out = run_differential(page, rules)
    assert (out.bigraded_dims(), out.survivors, out.extra_classes) == (dims, survivors, extra)
    assert extra[(2, 2)] == 1  # the class of x - y


def test_component_survivors_keep_key_order():
    # z3 is hit by nothing, and of z1, z2 the first in key order (z2)
    # survives d(x) = z1 + z2: the merged survivors of (0, 3) come out in
    # bucket key order, z2 before z3
    spec = make_algebra(
        3,
        [
            polynomial("x", 2, filtration=2),
            exterior("z3", 3),
            exterior("z1", 3),
            exterior("z2", 3),
        ],
    )
    page = Page(spec, page_index=2, cap=8)
    rules = [DifferentialRule(2, {"x": 1}, [(1, {"z1": 1}), (1, {"z2": 1})])]
    dims, survivors, extra = dense_turn(page, rules)
    out = run_differential(page, rules)
    assert (out.bigraded_dims(), out.survivors, out.extra_classes) == (dims, survivors, extra)
    z2, z3 = (spec.mono_from_names({n: 1}) for n in ("z2", "z3"))
    assert out.keys_at(0, 3) == ((z2, None), (z3, None))


def test_component_blocks_share_one_key_order():
    # one component spans (4, 7) and (2, 8); the block out of (4, 7) places
    # its rows in the key order of (2, 8), where b*c*x0 is the first cycle
    # outside the span of the boundaries
    spec = make_algebra(
        3,
        [
            exterior("a", 1),
            exterior("b", 3),
            truncated("c", 2, 3),
            exterior("x0", 3, filtration=2),
            polynomial("x1", 2, filtration=2),
        ],
    )
    page = Page(spec, page_index=2, cap=10)
    rules = [
        DifferentialRule(2, {"x0": 1}, [(1, {"c": 2}), (1, {"a": 1, "b": 1})]),
        DifferentialRule(2, {"x1": 1}, [(1, {"b": 1}), (1, {"a": 1, "c": 1})]),
    ]
    dims, survivors, extra = dense_turn(page, rules)
    out = run_differential(page, rules)
    assert (out.bigraded_dims(), out.survivors, out.extra_classes) == (dims, survivors, extra)
    assert out.keys_at(2, 8) == ((spec.mono_from_names({"b": 1, "c": 1, "x0": 1}), None),)
