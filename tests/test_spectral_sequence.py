"""Pages, Leibniz-extended differentials, page turns, abutment comparison."""

import dataclasses
import os
import pathlib
import random
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thhlab import scenarios
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
from thhlab.key_arrays import KeyTable, _runs, lex_ids
from thhlab.spectral_sequence import (
    AbutmentSpec,
    BidegreeViolation,
    ConservationViolation,
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
from thhlab.tor_engine import fp_module, tor_closed_form

from test_graded_algebra import _peel_leibniz

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


def _tower_einfty(cap=54):
    """The p = 3 tower's E-infinity page, its abutment E(e1, l1) x P(m1)
    with m1^3 = m2, and representatives e1^a l1^b m1^c -> [v]^a l1^b
    m2^(c // 3) g_(c % 3)([dv]), except where bend says otherwise."""
    p = 3
    out = run_differential(tower_page(p, cap), tower_rules(p, cap))
    abut = AbutmentSpec(make_algebra(p, [exterior("e1", 5), exterior("l1", 5),
                                         polynomial("m1", 6)]), {"e1": 1, "l1": 0, "m1": 1})
    ext = [ExtensionRule({"m2": 1}, [(1, {"m1": 3})])]

    def representative(bend):
        def rep(mono):
            a, b, c = mono
            return bend.get(mono) or key(**{"[v]": a, "l1": b, "m2": c // 3, "[dv]": c % 3})
        return rep

    def key(**powers):
        return (out.spec.mono_from_names(powers), None)

    return out, abut, ext, representative, key


@pytest.mark.parametrize("bends, message", [
    # m1 (degree 6) is the first bent monomial: its key sits in degree 12
    (lambda key: {(0, 0, 1): key(**{"[dv]": 2}), (0, 1, 1): key(l1=1),
                  (0, 0, 3): key(**{"[dv]": 3})},
     "representative of m1 sits in total degree 12, not 6"),
    # in degree 11 the basis lists l1*m1 before e1*m1
    (lambda key: {(1, 0, 1): key(l1=1, **{"[dv]": 1}), (0, 1, 1): key(l1=1, m2=1),
                  (0, 0, 3): key(**{"[dv]": 3})},
     "representative of l1*m1 sits in total degree 23, not 11"),
    # gamma_3 dies to l2 on E3; the later duplicate is not reached
    (lambda key: {(0, 0, 3): key(**{"[dv]": 3}), (1, 0, 3): key(l1=1, m2=1),
                  (0, 1, 3): key(l1=1, m2=1)},
     "representative g3([dv]) of m1^3 is not a surviving basis key"),
    # l1 comes before e1 in degree 5, so e1 is the second to reach [v]
    (lambda key: {(0, 1, 0): key(**{"[v]": 1}), (0, 0, 2): key(**{"[dv]": 1, "[v]": 1}),
                  (0, 0, 3): key(**{"[dv]": 3})},
     "two abutment monomials share the representative [v]"),
    (lambda key: {(1, 0, 1): key(l1=1, **{"[dv]": 1}), (0, 0, 3): key(**{"[dv]": 3})},
     "two abutment monomials share the representative l1*[dv]"),
])
def test_abutment_representative_errors_name_the_first_monomial_in_basis_order(bends, message):
    cap = 54
    out, abut, ext, representative, key = _tower_einfty(cap)
    assert compare_abutment(out, abut, ext, cap, representative=representative({}))
    bend = bends(key)
    basis = abut.target.basis_by_degree(cap)
    first = next(m for n in range(cap + 1) for m in basis[n] if m in bend)
    with pytest.raises(DimMismatch) as exc:
        compare_abutment(out, abut, ext, cap, representative=representative(bend))
    assert str(exc.value) == message
    named = abut.target.format_mono(first)
    assert f" of {named} " in message or out.format_key(bend[first]) in message


def test_default_representative_needs_one_candidate_per_generator():
    # after the extension rules (ii) and the totals (i), before any monomial
    p, cap = 3, 4
    page = Page(make_algebra(p, [exterior("x", 1), exterior("y", 1)]), page_index=2, cap=cap)

    def compare(fils, names=("a", "b"), ext=()):
        target = make_algebra(p, [exterior(name, 1) for name in names])
        return compare_abutment(page, AbutmentSpec(target, dict(zip(names, fils))), ext, cap)

    with pytest.raises(ValueError) as exc:
        compare((0, 0))
    assert str(exc.value) == ("2 candidate representatives for a at (0, 1); "
                              "pass a representative function")
    with pytest.raises(ValueError) as exc:
        compare((1, 0))
    assert str(exc.value) == ("0 candidate representatives for a at (1, 0); "
                              "pass a representative function")
    with pytest.raises(DimMismatch) as exc:
        compare((0, 0, 0), names=("a", "b", "c"))
    assert str(exc.value) == "total degree 1: page has 2, abutment has 3"
    with pytest.raises(ExtensionDegreeError) as exc:
        compare((0, 0, 0), names=("a", "b", "c"), ext=[ExtensionRule({"x": 1}, [(1, {"a": 1})])])
    assert str(exc.value) == "extension x does not drop filtration"


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


def test_absent_labeled_target_is_caught_under_python_O():
    # the page of the test above: the sorted search finds no key for
    # gamma_1 {a1}, which must raise, not index past the key arrays
    script = (
        "import sys\n"
        "from thhlab.graded_algebra import divided, exterior, make_algebra, polynomial\n"
        "from thhlab.spectral_sequence import BidegreeViolation, DifferentialRule as R\n"
        "from thhlab.spectral_sequence import Page, PageLabel as L, run_differential\n"
        "spec = make_algebra(3, [exterior('l1', 5), exterior('dlogu', 1), polynomial('m2', 18),\n"
        "                        divided('[du]', 3, filtration=1)])\n"
        "labels = (L('1', 0, False), L('u', 2), L('b1', 8), L('a1', 9, False), L('a2', 15),\n"
        "          L('z', 14, False))\n"
        "rules = [R(2, ({'[du]': k}, 'u'), [(1, {'[du]': k - 2}, 'a1')]) for k in range(2, 8)]\n"
        "try:\n"
        "    run_differential(Page(spec, 2, 30, labels=labels), rules)\n"
        "except BidegreeViolation as exc:\n"
        "    sys.exit(0 if str(exc) == 'd(g3([du])*{u}) leaves its bidegree lane' else 2)\n"
        "sys.exit(1)\n"
    )
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env)
    assert done.returncode == 0

# -- rule families: run whole, they turn a page as their members do -------------


def expand(families):
    """The explicit rules of rule families with unit cofactors, member by member."""
    return [DifferentialRule(f.page, ({f.gamma_gen: k}, f.source_label),
                             [(1, {f.gamma_gen: k - f.step}, f.target_label)])
            for f in families for k in f.ks]


def sec8_rules_one_by_one(page, p, window):
    """The Sec. 8 d2 as explicit rules, written the way they once were."""
    rules = []
    for j in range(1, p):
        src, tgt, delta = scenarios._ub_name(p - 3, j - 1), f"a{j}", 2 * p * j - 4
        k = 2
        while 4 * k + delta <= page.work_cap:
            if window is None or 4 * k + delta < window:
                rules.append(DifferentialRule(2, ({"[du]": k}, src), [(1, {"[du]": k - 2}, tgt)]))
            k += 1
    return rules


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("alternative", [False, True])
def test_sec8_families_turn_the_page_as_their_members(p, alternative):
    # the main page, and the alternative page with its window, as the catalog runs them
    window = 2 * p * p if alternative else None
    cap = max(scenarios.default_cap(p), 2 * p * p + 1) if alternative else scenarios.default_cap(p)

    def page():
        return scenarios._sec8_page(p, cap, alternative=alternative)[2]

    families = scenarios._sec8_rules(page(), p, window=window)
    assert [(r.source, r.target) for r in expand(families)] == [
        (r.source, r.target) for r in sec8_rules_one_by_one(page(), p, window)]
    fam_src, fam_tgt, fam_d = _Differential(page(), families).entries()
    mem_src, mem_tgt, mem_d = _Differential(page(), expand(families)).entries()
    assert fam_src.tolist() == mem_src.tolist() and fam_tgt.tolist() == mem_tgt.tolist()
    assert fam_d == mem_d
    by_family = run_differential(page(), families)
    by_member = run_differential(page(), expand(families))
    assert list(by_family.survivors.items()) == list(by_member.survivors.items())
    assert by_family.extra_classes == by_member.extra_classes
    assert by_family.total_dims() == by_member.total_dims()


def test_family_entries_match_their_members():
    # the second family has its ks out of order; the second input declares
    # explicit rules among the families, one with a two-term target on two
    # labels and one with coefficient 2
    page = module_page(cap=30)
    u_fam = RuleFamily("[du]", 2, range(2, 8), source_label="u", target_label="a1", page=2)
    b_fam = RuleFamily("[du]", 2, [4, 2, 3], source_label="b1", target_label="a2", page=2)
    mixed = [DifferentialRule(2, ({"[du]": 2}, "u"), [(1, {}, "a1"), (1, {"dlogu": 1}, "b1")]),
             dataclasses.replace(u_fam, ks=range(4, 8)),
             DifferentialRule(2, ({"[du]": 3}, "u"), [(1, {"[du]": 1}, "a1")]),
             b_fam,
             DifferentialRule(2, ({"[du]": 5}, "b1"), [(2, {"[du]": 3}, "a2")])]
    for rules in ([u_fam, b_fam], mixed):
        explicit = [r for rule in rules
                    for r in (expand([rule]) if isinstance(rule, RuleFamily) else [rule])]
        by_family, by_member = _Differential(page, rules), _Differential(page, explicit)
        src, tgt, d = by_family.entries()
        assert (src.tolist(), tgt.tolist(), d) == tuple(
            a.tolist() if isinstance(a, np.ndarray) else a for a in by_member.entries())


def test_a_family_member_that_repeats_a_source_conflicts():
    page = module_page(cap=30)
    fam = RuleFamily("[du]", 2, range(2, 8), source_label="u", target_label="a1", page=2)
    twice = DifferentialRule(2, ({"[du]": 4}, "u"), [(2, {"[du]": 2}, "a1")])
    member_4 = dataclasses.replace(twice, target=[(1, {"[du]": 2}, "a1")])
    later = dataclasses.replace(fam, ks=range(5, 9))
    # an explicit rule repeated with its target is one rule
    assert (run_differential(page, [member_4, member_4]).total_dims()
            == run_differential(page, [member_4]).total_dims())
    # with another target it conflicts, and as a family member even with its own
    for rules, member in (([member_4, twice], 4), ([twice, member_4], 4), ([fam, twice], 4),
                          ([twice, fam], 4), ([fam, member_4], 4), ([member_4, fam], 4),
                          ([fam, later], 5), ([dataclasses.replace(fam, ks=[2, 3, 3])], 3)):
        with pytest.raises(LeibnizConflict) as exc:
            run_differential(page, rules)
        assert str(exc.value) == f"source g{member}([du])*{{u}} received two values"
    with pytest.raises(LeibnizConflict) as exc:  # members one by one, with another scalar, raise the same
        run_differential(page, expand([fam]) + [dataclasses.replace(r, scalar=2) for r in expand([later])])
    assert str(exc.value) == "source g5([du])*{u} received two values"


def test_a_family_whose_target_leaves_its_lane_names_its_first_member():
    page = module_page(cap=30)
    fam = RuleFamily("[du]", 2, range(3, 8), source_label="u", target_label="b1", page=2)
    message = r"^d2\(g3\(\[du\]\)\*\{u\}\) target \[du\]\*\{b1\} not at \(1, 12\)$"
    for rules in ([fam], expand([fam])):
        with pytest.raises(BidegreeViolation, match=message):
            run_differential(page, rules)


def test_the_first_fault_in_declaration_order_is_named():
    page = module_page(cap=30)
    off_lane = RuleFamily("[du]", 2, range(3, 8), source_label="u", target_label="b1", page=2)
    rule = DifferentialRule(2, ({"[du]": 2}, "b1"), [(1, {}, "a1")])
    for rules, message in (([off_lane, rule], r"^d2\(g3\(\[du\]\)\*\{u\}\) target "),
                           ([rule, off_lane], r"^d2\(g2\(\[du\]\)\*\{b1\}\) target a1 not at \(0, 15\)$")):
        with pytest.raises(BidegreeViolation, match=message):
            run_differential(page, rules)
    fam = RuleFamily("[du]", 2, range(2, 8), source_label="u", target_label="a1", page=2)
    twice = dataclasses.replace(fam, source_label="b1", target_label="a2", ks=[2, 3, 3])
    again = DifferentialRule(2, ({"[du]": 4}, "u"), [(1, {"[du]": 2}, "a1")])
    for rules, member in (([fam, again, twice], "g4([du])*{u}"), ([twice, fam, again], "g3([du])*{b1}")):
        with pytest.raises(LeibnizConflict, match=re.escape(f"source {member} received")):
            run_differential(page, rules)
    # every lane is checked before any source is found twice, also when
    # two explicit rules give one source two values
    other = dataclasses.replace(again, target=[(2, {"[du]": 2}, "a1")])
    for rules in ([fam, again, off_lane], [again, other, off_lane]):
        with pytest.raises(BidegreeViolation):
            run_differential(page, rules)


def test_family_shape_errors():
    page = module_page(cap=30)
    fam = RuleFamily("[du]", 2, range(2, 8), source_label="u", target_label="a1", page=2)
    for bad, message in ((dataclasses.replace(fam, page=None), "needs its page index"),
                         (dataclasses.replace(fam, target_label=None), "target label"),
                         (dataclasses.replace(fam, cofactor=[(1, {"l1": 1})]), "no cofactor"),
                         (dataclasses.replace(fam, ks=range(1, 8)), "k=1 lies below its step 2"),
                         (dataclasses.replace(fam, gamma_gen="m2"), "divided powers times the label")):
        with pytest.raises(ValueError, match=message):
            run_differential(page, [bad])
    assert run_differential(page, [dataclasses.replace(fam, ks=[])]).page_index == 3


def test_families_on_two_divided_power_generators_turn_as_their_members():
    spec = make_algebra(3, [divided("[du]", 3, filtration=1), divided("[dv]", 5, filtration=1)])

    def page():
        return Page(spec, page_index=2, cap=30, labels=tuple(
            PageLabel(name, shift, allows_gamma=True) for name, shift in (("u", 0), ("a", 7), ("b", 11))))
    two = [RuleFamily("[du]", 2, range(2, 6), source_label="u", target_label="a", page=2),
           RuleFamily("[dv]", 2, [3, 2], source_label="u", target_label="b", page=2)]
    fam_src, fam_tgt, fam_d = _Differential(page(), two).entries()
    mem_src, mem_tgt, mem_d = _Differential(page(), expand(two)).entries()
    assert fam_src.size == 6 and fam_d is None and mem_d is None
    assert fam_src.tolist() == mem_src.tolist() and fam_tgt.tolist() == mem_tgt.tolist()
    by_family, by_member = run_differential(page(), two), run_differential(page(), expand(two))
    assert list(by_family.survivors.items()) == list(by_member.survivors.items())
    assert by_family.extra_classes == by_member.extra_classes


def test_leibniz_conflict_on_duplicate_sources():
    page = tower_page(3, 24)
    rules = [
        DifferentialRule(3, {"[dv]": 3}, [(1, {"l2": 1})]),
        DifferentialRule(3, {"[dv]": 3}, [(2, {"l2": 1})]),
    ]
    with pytest.raises(LeibnizConflict):
        run_differential(page, rules)


def truncated_page(height, cap):
    # x of height h at p = 5 with d2(x) = y: d(x^h) = h x^(h-1) y, which is
    # not zero unless 5 divides h
    spec = make_algebra(5, [truncated("x", 2, height, filtration=2), exterior("y", 3)])
    return Page(spec, page_index=2, cap=cap), [DifferentialRule(2, {"x": 1}, [(1, {"y": 1})])]


def test_truncation_residual_breaks_leibniz_once_the_pair_fits():
    # the failing pair x * x^2 needs x^2, of total degree 8, in the window
    # up to work_cap = cap + 1
    assert run_differential(*truncated_page(3, 6)).page_index == 3
    for cap in (7, 16):
        with pytest.raises(LeibnizConflict, match=r"^Leibniz fails on x \* x\^2$"):
            run_differential(*truncated_page(3, cap))


def test_truncation_failure_is_found_among_many_monomials():
    # 45 window monomials make 2 025 pairs, and only x * x^2 and x^2 * x
    # break the product rule
    gens = [truncated("x", 6, 3, 2), exterior("y", 7)] + [exterior(f"f{i}", 9) for i in range(20)]
    page = Page(make_algebra(5, gens), page_index=2, cap=15)
    assert sum(len(ks) for ks in page.raw_buckets().values()) == 45
    with pytest.raises(LeibnizConflict, match=r"^Leibniz fails on x \* x\^2$"):
        run_differential(page, [DifferentialRule(2, {"x": 1}, [(1, {"y": 1})])])


def test_truncation_height_divisible_by_p_passes():
    # 5 x^4 y = 0 at p = 5, so no relation constrains d(x)
    out = run_differential(*truncated_page(5, 24))
    assert out.total_dims()[:5] == [1, 0, 0, 0, 0]


def test_truncation_residual_is_caught_under_python_O():
    script = (
        "import sys\n"
        "from thhlab.graded_algebra import exterior, make_algebra, truncated\n"
        "from thhlab.spectral_sequence import DifferentialRule, LeibnizConflict\n"
        "from thhlab.spectral_sequence import Page, run_differential\n"
        "spec = make_algebra(5, [truncated('x', 2, 3, 2), exterior('y', 3)])\n"
        "rules = [DifferentialRule(2, {'x': 1}, [(1, {'y': 1})])]\n"
        "try:\n"
        "    run_differential(Page(spec, 2, 7), rules)\n"
        "except LeibnizConflict as exc:\n"
        "    sys.exit(0 if str(exc) == 'Leibniz fails on x * x^2' else 2)\n"
        "sys.exit(1)\n"
    )
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env)
    assert done.returncode == 0


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


def test_rule_family_among_the_rules_reports_the_written_out_scalars():
    # the u -> a1 towers of module_rules as one family, and the same members
    # written out rule by rule: both report the family's scalars
    page = module_page(cap=30)
    ks = [k for k in range(2, 8) if 4 * k + 2 <= page.work_cap]
    family = RuleFamily(gamma_gen="[du]", step=2, ks=ks, source_label="u",
                        target_label="a1", page=2)
    members = [DifferentialRule(2, ({"[du]": k}, "u"), [(1, {"[du]": k - 2}, "a1")])
               for k in ks]
    query = dataclasses.replace(family, ks=[0, 1, *ks])
    by_family = verify_rule_family(page, [family], query).scalar_map()
    assert by_family == verify_rule_family(page, members, query).scalar_map()
    assert by_family == {0: 0, 1: 0, **{k: 1 for k in ks}}


def test_labeled_rule_sources_must_be_gamma_pure():
    page = module_page(cap=30)
    bad = DifferentialRule(2, ({"dlogu": 1, "[du]": 2}, "u"), [(1, {"dlogu": 1}, "a1")])
    with pytest.raises(ValueError):
        run_differential(page, [bad])


def raw_buckets_by_scan(page):
    """Every label tested for every monomial, labels visited by shift, then
    each bucket sorted: the buckets come in the order the scan reaches them.
    On a plain page each monomial is one unlabeled key."""
    gamma = [i for i, g in enumerate(page.spec.generators) if g.kind == "divided"]
    if page.labels is None:
        labels = [(None, PageLabel("none", 0))]
    else:
        labels = sorted(enumerate(page.labels), key=lambda item: item[1].shift)
    buckets = {}
    for n, monos in page.spec.basis_by_degree(page.work_cap).items():
        for m in monos:
            s, t = page.spec.bidegree_of(m)
            plain = not any(m[i] for i in gamma)
            for li, lab in labels:
                if n + lab.shift <= page.work_cap and (lab.allows_gamma or plain):
                    buckets.setdefault((s, t + lab.shift), []).append((m, li))
    return {bd: tuple(sorted(ks)) for bd, ks in buckets.items()}


def sec8_page(p, cap, alternative=False):
    return scenarios._sec8_page(p, cap, alternative)[2]


def thhz_page(p, cap):
    base, left = scenarios._tower_base(p)
    return tor_closed_form(base, left, fp_module(base), cap)


@pytest.mark.parametrize("make", [
    lambda: sec8_page(3, 40),
    lambda: sec8_page(3, 61, alternative=True),
    lambda: sec8_page(5, 70),
    lambda: module_page(cap=45, drop_z_from_free=True),
    lambda: tower_page(3, 40),
    lambda: thhz_page(3, 60),
    lambda: tower_page(5, 90),
])
def test_raw_buckets_match_a_scan_of_every_label(make):
    # bucket order, key order, bigraded dimensions and totals, labeled
    # pages with labels out of shift order and plain pages alike
    page = make()
    if page.labels is not None:
        shifts = [lab.shift for lab in page.labels]
        assert shifts != sorted(shifts)
    scan = raw_buckets_by_scan(page)
    window = [(bd, len(ks)) for bd, ks in scan.items() if sum(bd) <= page.cap]
    totals = [0] * (page.cap + 1)
    for (s, t), n in window:
        totals[s + t] += n
    # counting never sorts the keys, so count before and after they are read
    assert list(page.bigraded_dims().items()) == window
    assert page.total_dims() == totals
    assert list(page.raw_buckets().items()) == list(scan.items())
    assert list(page.bigraded_dims().items()) == window


def test_key_table_finds_every_raw_key_and_no_other():
    # labeled and plain pages, raw and turned
    module = module_page(cap=45)
    for page in (module_page(cap=30), tower_page(3, 40),
                 run_differential(module, module_rules(module)),
                 run_differential(tower_page(3, 54), tower_rules(3, 54))):
        check_key_table(page)


def check_key_table(page):
    # positions follow the bucket order of the raw keys, or of the survivors
    # on a turned page; a monomial outside the window, an exterior square,
    # a label that admits no gamma, a label past the last one and, on a
    # turned page, every key that died are absent
    table = page._table()
    spec, n = page.spec, len(page.spec.generators)
    keys = [k for ks in (page.survivors or page.raw_buckets()).values() for k in ks]

    def find(keys):
        mat = np.array([m for m, _ in keys], dtype=np.int64).reshape(len(keys), n)
        return table.find(mat, np.array([-1 if li is None else li for _, li in keys],
                                        dtype=np.int64))

    label = None if page.labels is None else 0
    outside = spec.mono_from_names({"m2": 5})
    square = tuple(2 if g.kind == "exterior" else 0 for g in spec.generators)
    absent = [(outside, label), (outside, label), (square, label),
              (spec.unit, len(page.labels or ()))]
    if page.labels is not None:
        absent.append((spec.mono_from_names({"[du]": 1}), page.label_index("1")))
    if page.survivors is not None:
        survivors = set(keys)
        raw = Page(spec, 2, page.cap, page.labels).raw_buckets()
        dead = [k for (s, t), ks in raw.items() if s + t <= page.cap
                for k in ks if k not in survivors]
        assert dead
        absent += dead
    # all keys, and two at a time: fewer queries than keys, past every position
    for present in [keys] + [keys[i:i + 2] for i in range(len(keys) - 1)]:
        codes, found = find(present + absent)
        assert found.tolist() == [keys.index(k) for k in present] + [-1] * len(absent)
        outside = len(present)  # the first two absent keys are equal and share a code
        assert codes[outside] == codes[outside + 1]
        assert len(set(codes.tolist())) == len(present) + len(absent) - 1
    assert find([])[1].size == 0


@pytest.mark.parametrize("seed", range(6))
def test_lex_ids_rank_rows_among_the_sorted_distinct_rows(seed):
    # column spreads up to 2^40, negative entries and repeated rows; wide
    # matrices need several packed runs
    rng = random.Random(seed)
    runs = set()
    for _ in range(40):
        width, height = rng.randrange(8), rng.randrange(30)
        spreads = [2 ** rng.randrange(0, 41) for _ in range(width)]
        rows = [tuple(rng.randrange(-s // 2, s // 2 + 1) for s in spreads)
                for _ in range(height)]
        rows += rng.sample(rows, min(len(rows), 3))
        mat = np.array(rows, dtype=np.int64).reshape(len(rows), width)
        distinct = sorted(set(rows))
        assert lex_ids(mat).tolist() == [distinct.index(r) for r in rows]
        if rows:
            runs.add(len(_runs([hi - lo + 1 for hi, lo in zip(mat.max(axis=0).tolist(),
                                                               mat.min(axis=0).tolist())])))
    assert max(runs) > 1


def test_lex_ids_of_empty_matrices():
    assert lex_ids(np.zeros((0, 3), dtype=np.int64)).tolist() == []
    assert lex_ids(np.zeros((0, 0), dtype=np.int64)).tolist() == []
    assert lex_ids(np.zeros((4, 0), dtype=np.int64)).tolist() == [0, 0, 0, 0]
    big = np.array([[2**62, -2**61, 1], [-2**61, 2**62, 0], [2**62, -2**61, 1]])
    assert lex_ids(big).tolist() == [1, 0, 1]


@pytest.mark.parametrize("make, rules", [
    (lambda: tower_page(3, 54), lambda page: tower_rules(3, 54)),
    (lambda: module_page(cap=45), module_rules),
])
def test_a_key_lost_in_the_turn_fails_the_conservation_check(monkeypatch, make, rules):
    # a spy drops the middle kept key of the next page's table: the page
    # then loses one more class than the rank of d, in that key's degree
    page = make()
    assert run_differential(page, rules(page)).total_dims()
    masked, lost = KeyTable.masked, []

    def spy(self, keep, buckets, sizes):
        i = np.flatnonzero(keep)[keep.sum() // 2]
        lost.append((self.s[i] + self.t[i]).item())
        keep = keep.copy()
        keep[i] = False
        return masked(self, keep, buckets, sizes)

    monkeypatch.setattr(KeyTable, "masked", spy)
    page = make()
    with pytest.raises(ConservationViolation) as exc:
        run_differential(page, rules(page))
    assert lost[0] > 0
    assert str(exc.value) == f"homology accounting failed at degree {lost[0]}"


def test_label_index_finds_every_name():
    page = sec8_page(3, 40)
    assert [lab.shift for lab in page.labels] == [0, 14, 2, 8, 9, 15]
    for i, lab in enumerate(page.labels):
        assert page.label_index(lab.name) == i
    with pytest.raises(ValueError) as exc:
        page.label_index("nope")
    assert str(exc.value) == "unknown page label 'nope'"
    with pytest.raises(ValueError, match="page has no labels"):
        tower_page(3, 20).label_index("u")


def test_integer_labels_are_range_checked():
    # labels[-4] is "u" on this page, but a key labelled -4 matches no raw key,
    # so a rule written with it would be dropped without a word
    page = sec8_page(3, 40)

    def e3_dims(label):
        rule = DifferentialRule(2, ({"[du]": 2}, label), [(1, {}, "a1")])
        return run_differential(page, [rule]).total_dims()

    assert e3_dims(2) == e3_dims("u") != page.total_dims()
    for label in (-4, 99, True):  # True is an int, but no label index
        with pytest.raises(ValueError, match=f"page label {label} "):
            e3_dims(label)


def test_page_inputs_take_powers_only():
    page = sec8_page(3, 40)
    mono = page.spec.mono_from_names({"[du]": 2})
    for source in (mono, (mono, "u"), (mono, 2), ({"[du]": 2}, None)):
        with pytest.raises(ValueError):
            page.key_from_input(source)
    assert page.key_from_input(({"[du]": 2}, "u")) == (mono, page.label_index("u"))
    with pytest.raises(ValueError, match="must be \\(coeff, powers, label\\)"):
        page.element_from_input({(mono, 2): 1})
    plain = tower_page(3, 24)
    with pytest.raises(ValueError):
        plain.key_from_input(plain.spec.mono_from_names({"l1": 1}))


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


def rule_map(page, rules):
    """The explicit rules as {source key: {target key: c}}, scalars applied."""
    p = page.spec.field.p
    out = {}
    for rule in rules:
        tgt = {k: c * rule.scalar % p for k, c in page.element_from_input(rule.target).items()}
        out[page.key_from_input(rule.source)] = {k: c for k, c in tgt.items() if c}
    return out


def plain_reference(page, rules):
    """d of a plain monomial by the whole-monomial peel of the test
    reference _peel_leibniz, from the plain rules alone."""
    return _peel_leibniz(page.spec, {m: {t: c for (t, _), c in tgt.items()}
                                     for (m, li), tgt in rule_map(page, rules).items()
                                     if li is None})


def reference_of_key(page, rules):
    """d of a page key from the rules alone: a plain key by plain_reference,
    a labeled key as its rule's target (the rule at its gamma part and
    label) times the rest of its monomial, negated when the rest is odd."""
    spec, p = page.spec, page.spec.field.p
    rules_at, plain = rule_map(page, rules), plain_reference(page, rules)
    gamma = [g.kind == "divided" for g in spec.generators]

    def of_key(key):
        mono, li = key
        if li is None:
            return {(m, None): c for m, c in plain(mono).items()}
        gpart = tuple(e if g else 0 for e, g in zip(mono, gamma))
        rest = tuple(e - f for e, f in zip(mono, gpart))
        sign = -1 if spec.total_degree_of(rest) % 2 else 1
        out = {}
        for (tm, tli), c in rules_at.get((gpart, li), {}).items():
            prod = spec.mono_mul(rest, tm)
            if prod is not None:
                out[(prod[1], tli)] = (out.get((prod[1], tli), 0) + sign * c * prod[0]) % p
        return {k: v for k, v in out.items() if v}

    return of_key


def dense_turn(page, rules):
    """Reference page turn: one dense matrix of d (reference_of_key) out of
    every bucket, and a monomial cycle survives when it is outside the span
    of the boundaries and of the cycles before it (rref of [boundaries |
    unit columns])."""
    of_key = reference_of_key(page, rules)
    field, r, buckets = page.spec.field, _Differential(page, rules).r, page.raw_buckets()
    index = {bd: {k: i for i, k in enumerate(ks)} for bd, ks in buckets.items()}
    mats = {
        (s, t): map_matrix(field, keys, index.get((s - r, t + r - 1), {}), of_key)
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


@st.composite
def labeled_pages(draw):
    """A divided tower g over E(a, b) with up to five labels (none: the
    empty label tuple), their shifts unsorted and repeated, some without
    gamma powers.  d_2 maps g^(k) times a source label to up to three terms
    g^(k-2) times a coefficient monomial times a target label; target
    labels carry no rules, so d.d = 0."""
    p = draw(st.sampled_from([3, 5]))
    spec = make_algebra(p, [exterior("a", 1), exterior("b", 3), divided("g", 1, filtration=1)])
    labels = tuple(PageLabel(f"L{i}", draw(st.integers(0, 3)), draw(st.booleans()))
                   for i in range(draw(st.integers(0, 5))))
    page = Page(spec, page_index=2, cap=draw(st.integers(6, 12)), labels=labels)
    keys = {k for ks in page.raw_buckets().values() for k in ks}
    sources = [i for i in range(len(labels)) if draw(st.booleans())]
    rules = []
    for i in sources:
        for k in range(2, (page.work_cap - labels[i].shift) // 2 + 1):
            s, t = page.key_bidegree(((0, 0, k), i))
            terms = [((ea, eb, k - 2), j) for j in range(len(labels)) if j not in sources
                     for ea in (0, 1) for eb in (0, 1)
                     if ((ea, eb, k - 2), j) in keys
                     and page.key_bidegree(((ea, eb, k - 2), j)) == (s - 2, t + 1)]
            if terms:
                picked = draw(st.lists(st.sampled_from(terms), min_size=1, max_size=3, unique=True))
                rules.append(DifferentialRule(2, ({"g": k}, labels[i].name), [
                    (draw(st.integers(1, p - 1)), {"a": m[0], "b": m[1], "g": m[2]}, labels[j].name)
                    for m, j in picked]))
    return page, rules


@given(st.one_of(leibniz_pages(), labeled_pages()))
@settings(max_examples=80, deadline=None)
def test_component_turn_matches_dense_reference(page_rules):
    page, rules = page_rules
    dims, survivors, extra = dense_turn(page, rules)
    out = run_differential(page, rules)
    assert out.bigraded_dims() == dims
    assert out.extra_classes == extra
    if rules:
        assert list(out.survivors.items()) == list(survivors.items())
    else:  # no rules: the same groups, still the raw page
        assert out.survivors is None


def of_key_entries(page, rules):
    """d as {source position: {target position: c}} from reference_of_key
    on every raw key of the page's table."""
    table, of_key = page._table(), reference_of_key(page, rules)
    position = {table.key(i): i for i in range(table.row.size)}
    out = {}
    for i in range(table.row.size):
        img = of_key(table.key(i))
        if img:
            out[i] = {position[k]: c for k, c in img.items()}
    return out


@given(st.one_of(leibniz_pages(), labeled_pages()))
@settings(max_examples=60, deadline=None)
def test_entries_match_of_key_on_every_raw_key(page_rules):
    # the array evaluation of d gives the support of reference_of_key on every key,
    # and the whole of d, coefficients too, when d is not a matching
    page, rules = page_rules
    diff = _Differential(page, rules)
    src, tgt, d = diff.entries()
    ref = of_key_entries(page, rules)
    assert sorted(zip(src.tolist(), tgt.tolist())) == sorted(
        (i, j) for i, img in ref.items() for j in img)
    assert src.tolist() == sorted(src.tolist())
    targets = [j for img in ref.values() for j in img]
    matching = (all(len(img) == 1 for img in ref.values())
                and len(set(targets)) == len(targets) and not set(targets) & set(ref))
    assert (d is None) == matching
    if d is not None:
        assert d == ref


def test_entries_of_a_non_matching_turn_match_of_key():
    # d(x) = z1 + z2 and d(y) = z2 + 2 a*v: two terms per source, z2 hit twice
    spec = make_algebra(3, [exterior("a", 1), polynomial("x", 2, filtration=2),
                            polynomial("y", 2, filtration=2), exterior("z1", 3),
                            exterior("z2", 3), polynomial("v", 2)])
    page = Page(spec, page_index=2, cap=12)
    rules = [DifferentialRule(2, {"x": 1}, [(1, {"z1": 1}), (1, {"z2": 1})]),
             DifferentialRule(2, {"y": 1}, [(1, {"z2": 1}), (2, {"a": 1, "v": 1})])]
    diff = _Differential(page, rules)
    _, _, d = diff.entries()
    assert d is not None and d == of_key_entries(page, rules)
    assert any(len(img) > 1 for img in d.values())
    dims, survivors, extra = dense_turn(page, rules)
    out = run_differential(page, rules)
    assert (out.bigraded_dims(), out.survivors, out.extra_classes) == (dims, survivors, extra)


def leibniz_holds_on_every_pair(page, rules):
    """The product rule d(m1 m2) = d(m1) m2 + (-1)^|m1| m1 d(m2) on every pair
    of window monomials: the reference for the truncation check."""
    spec = page.spec
    d = plain_reference(page, rules)
    monos = [m for ks in page.raw_buckets().values() for m, _ in ks]
    for m1 in monos:
        sign = -1 if spec.total_degree_of(m1) % 2 else 1
        for m2 in monos:
            prod = spec.mono_mul(m1, m2)
            lhs = spec.scale_dict(prod[0], d(prod[1])) if prod is not None else {}
            rhs = spec.add_dicts(spec.mul_dicts(d(m1), {m2: 1}),
                                 spec.scale_dict(sign, spec.mul_dicts({m1: 1}, d(m2))))
            if lhs != rhs:
                return False
    return True


@st.composite
def truncated_pages(draw):
    """A two-layer page with a truncated x of height 2..2p in filtration 2,
    beside up to two fillers of any kind.  d_2 of x, and of each filler
    that draws one, hits a random combination in the filtration-0 algebra
    E(a) ox (an exterior, polynomial, divided or truncated c)."""
    p = draw(st.sampled_from([3, 5, 7]))
    c = draw(st.sampled_from([exterior("c", 3), polynomial("c", 2), divided("c", 2),
                              truncated("c", 2, draw(st.integers(2, 2 * p)))]))
    low = [exterior("a", 1), c]
    base = make_algebra(p, low).basis_by_degree(11)
    high = [truncated("x", draw(st.sampled_from([0, 2])), draw(st.integers(2, 2 * p)),
                      filtration=2)]
    for i in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from([exterior, polynomial, divided]))
        high.append(kind(f"f{i}", draw(st.sampled_from([1, 3] if kind is exterior else [2, 4])),
                         filtration=2))
    names = [g.name for g in low]
    rules = []
    for g in high:
        targets = base[g.total_degree - 1]
        if targets and (g is high[0] or draw(st.booleans())):
            picked = draw(st.lists(st.sampled_from(targets), min_size=1, unique=True))
            tgt = [(draw(st.integers(1, p - 1)), {n: e for n, e in zip(names, m) if e})
                   for m in picked]
            rules.append(DifferentialRule(2, {g.name: 1}, tgt))
    return Page(make_algebra(p, low + high), page_index=2, cap=draw(st.integers(1, 12))), rules


@given(truncated_pages())
@settings(max_examples=60, deadline=None)
def test_truncation_check_matches_every_pair(page_rules):
    page, rules = page_rules
    try:
        run_differential(page, rules)
        exact = True
    except LeibnizConflict as exc:
        assert str(exc).startswith("Leibniz fails on x")
        exact = False
    assert exact == leibniz_holds_on_every_pair(page, rules)


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


# -- page totals, counted once per page ------------------------------------------------


def _recounted_totals(page, cap):
    """total_dims recounted from bigraded_dims at the clamped cap."""
    cap = min(cap, page.cap)
    out = [0] * (cap + 1)
    for (s, t), n in page.bigraded_dims(cap).items():
        out[s + t] += n
    return out


def _non_monomial_page():
    spec = make_algebra(3, [polynomial("x", 2, filtration=2), polynomial("y", 2, filtration=2),
                            exterior("z", 3)])
    rules = [DifferentialRule(2, {"x": 1}, [(1, {"z": 1})]),
             DifferentialRule(2, {"y": 1}, [(1, {"z": 1})])]
    return run_differential(Page(spec, page_index=2, cap=12), rules)


@pytest.mark.parametrize("make_page", [
    lambda: tower_page(3, 30),  # raw
    lambda: module_page(cap=30),  # labeled
    _non_monomial_page,  # turned, with extra_classes
])
def test_total_dims_equals_the_bigraded_recount_at_every_cap(make_page):
    page = make_page()
    assert page.total_dims(-3) == page.total_dims(-1) == []  # the first call fills the cache
    for cap in range(-3, page.cap + 3):
        assert page.total_dims(cap) == _recounted_totals(page, cap), cap
    assert page.total_dims() == _recounted_totals(page, page.cap)
    got = page.total_dims()
    got[0] += 7
    got.append(1)
    page.total_dims(4)[1] = 99
    assert page.total_dims() == _recounted_totals(page, page.cap)
    assert page.total_dims(4) == _recounted_totals(page, 4)


def test_total_dims_of_a_turned_page_counts_its_extra_classes():
    # degree 4 is the bidegree (2, 2) alone, whose one class x - y has no
    # monomial representative: it counts through extra_classes only
    out = _non_monomial_page()
    assert out.keys_at(2, 2) == () and out.extra_classes[(2, 2)] == 1
    assert out.total_dims()[4] == 1


def test_bigraded_dims_drop_zero_counts_and_keep_table_order():
    spec = make_algebra(3, [exterior("e", 1), polynomial("x", 2)])
    unit, x = (0, 0), (0, 1)
    page = Page(spec, page_index=3, cap=4,
                survivors={(0, 2): ((x, None),), (0, 1): (), (0, 0): ((unit, None),)},
                extra_classes={(0, 1): 2, (0, 3): 0, (0, 4): 1})
    assert list(page.bigraded_dims().items()) == [((0, 2), 1), ((0, 1), 2), ((0, 0), 1),
                                                  ((0, 4), 1)]
    assert list(page.bigraded_dims(3).items()) == [((0, 2), 1), ((0, 1), 2), ((0, 0), 1)]
    assert page.total_dims() == [1, 2, 1, 0, 1]
