"""Rewriting, the truncated two-family algebra, and derivation checking."""

import os
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thhlab import presentation
from thhlab.cli import main
from thhlab.fp_linalg import PrimeField
from thhlab.graded_algebra import (
    DegreeMismatch,
    UnsupportedKind,
    check_morphism,
    divided,
    exterior,
    make_algebra,
    polynomial,
    truncated,
)
from thhlab.les_checker import check_les, ku_sequence
from thhlab.presentation import (
    DerivationSpec,
    NonTermination,
    Presentation,
    RewriteRule,
    check_derivation,
    hilbert_pres,
    make_theta,
)
from thhlab.scenarios import _theta_sigma_images


def theta(p, with_l1=False):
    extras = (exterior("l1", 2 * p - 1),) if with_l1 else ()
    return make_theta(p, extra_generators=extras)


def ambient_basis(alg, cap):
    """Every ambient monomial of total degree <= cap, in degree order."""
    table = alg.basis_by_degree(cap)
    return [m for n in range(cap + 1) for m in table[n]]


def nf_names(pres, powers, coeff=1):
    alg = pres.algebra
    return pres.normal_form_dict({alg.mono_from_names(powers): coeff % alg.field.p})


def test_theta_frozen_products_p3():
    pres = theta(3)
    alg = pres.algebra
    # b1 b1 -> u b2, then u b2 -> 0: at p = 3 the u-truncation rule u^{p-2} b_j
    # has u-exponent 1, so every u b_j dies
    assert nf_names(pres, {"b1": 2}) == {}
    assert nf_names(pres, {"a1": 1, "a2": 1}) == {}
    # b1 b2 overflows to u^2 m2, and u^2 = 0 at p = 3
    assert nf_names(pres, {"b1": 1, "b2": 1}) == {}
    # a0 b1 -> u a1 -> 0 by the u-truncation rule
    assert nf_names(pres, {"a0": 1, "b1": 1}) == {}
    # a1 b1 -> u a2 survives: the top a is exempt from truncation
    assert nf_names(pres, {"a1": 1, "b1": 1}) == {
        alg.mono_from_names({"u": 1, "a2": 1}): 1
    }


def test_theta_frozen_basis_degrees_p3():
    pres = theta(3)
    dims = hilbert_pres(pres, 17)
    nonzero = {n for n, d in enumerate(dims) if d}
    assert nonzero == {0, 2, 3, 8, 9, 14, 15, 17}
    assert all(d <= 1 for d in dims)
    assert dims[1] == 0


def test_theta_basis_shape_p5():
    pres = theta(5)
    p = 5
    cap = 2 * p * p + 4 * p
    table = pres.basis_by_degree(cap)
    alg = pres.algebra
    for n, monos in table.items():
        for m in monos:
            powers = {g.name: e for g, e in zip(alg.generators, m) if e}
            k = powers.get("u", 0)
            a_letters = [x for x in powers if x.startswith("a")]
            b_letters = [x for x in powers if x.startswith("b")]
            assert len(a_letters) + len(b_letters) <= 1
            if b_letters:
                assert k <= p - 3
            elif a_letters == [f"a{p - 1}"]:
                assert k <= p - 2
            elif a_letters:
                assert k <= p - 3
            else:
                assert k <= p - 2


def test_normal_form_dict_rewrites_b_square():
    pres = theta(5)
    alg = pres.algebra
    out = pres.normal_form_dict({alg.mono_from_names({"b1": 2}): 2})
    assert out == {alg.mono_from_names({"u": 1, "b2": 1}): 2}


def test_presentation_rejects_divided_and_checks_degrees():
    alg = make_algebra(3, [divided("y", 2)])
    with pytest.raises(UnsupportedKind):
        Presentation(alg, ())
    alg2 = make_algebra(3, [polynomial("x", 2), polynomial("z", 4)])
    with pytest.raises(DegreeMismatch):
        Presentation(alg2, (RewriteRule((2, 0), {(0, 2): 1}),))
    with pytest.raises(ValueError):
        Presentation(alg2, (RewriteRule((0, 0), {}),))


def test_negative_cap_gives_an_empty_rewriting_basis():
    pres = theta(3)
    assert pres.basis_by_degree(-1) == {}
    assert hilbert_pres(pres, -1) == []


def test_non_termination_guard():
    alg = make_algebra(3, [polynomial("x", 2)])
    pres = Presentation(alg, (RewriteRule((2,), {(2,): 1}),))
    with pytest.raises(NonTermination):
        pres.normal_form_dict({(2,): 1}, max_steps=50)


@pytest.mark.parametrize("p", [3, 5])
def test_rewriting_idempotent_and_shuffle_invariant(p):
    pres = theta(p)
    alg = pres.algebra
    cap = 2 * p * p + 6
    basis = ambient_basis(alg, cap)
    rng_pool = [random.Random(seed) for seed in (11, 57)]
    picker = random.Random(99)
    for m in basis:
        ordered = pres.normal_form_dict({m: 1})
        assert pres.normal_form_dict(ordered) == ordered
        for rng in rng_pool:
            assert pres.normal_form_dict({m: 1}, rng=rng) == ordered
    # products of random basis pairs, same invariance
    for _ in range(60):
        m1, m2 = picker.choice(basis), picker.choice(basis)
        raw = alg.mul_dicts({m1: 1}, {m2: 1})
        ordered = pres.normal_form_dict(raw)
        for rng in rng_pool:
            assert pres.normal_form_dict(raw, rng=rng) == ordered


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_rewriting_shuffle_invariance_property(seed):
    pres = theta(3)
    alg = pres.algebra
    rng = random.Random(seed)
    basis = ambient_basis(alg, 30)
    m1, m2 = rng.choice(basis), rng.choice(basis)
    raw = alg.mul_dicts({m1: 1}, {m2: 1})
    assert pres.normal_form_dict(raw, rng=rng) == pres.normal_form_dict(raw)


# -- derivations -----------------------------------------------------------------


def suspension_on_theta(p, mutate=None):
    images = {"u": [(1, {"a0": 1})]}
    for j in range(1, p):
        images[f"b{j}"] = [(1 - j, {f"a{j}": 1})]
    if mutate:
        images.update(mutate)
    return DerivationSpec(images)


@pytest.mark.parametrize("p", [3, 5])
def test_derivation_on_theta_passes(p):
    pres = theta(p, with_l1=True)
    report = check_derivation(pres, suspension_on_theta(p))
    assert report.ok, report.failures()


@pytest.mark.parametrize("p", [3, 5])
def test_derivation_mutations_detected(p):
    pres = theta(p, with_l1=True)
    for j in range(1, p):
        mutated = {f"b{j}": [(1 + j, {f"a{j}": 1})]}
        report = check_derivation(pres, suspension_on_theta(p, mutate=mutated))
        assert not report.ok, f"b{j} mutation slipped through at p={p}"
    report = check_derivation(pres, suspension_on_theta(p, mutate={"u": []}))
    assert not report.ok


def test_derivation_m2_mutation_detectability_depends_on_height():
    # an m2 image only enters rules through u * b_s * sigma(m2); at p = 3 the
    # u-truncation kills every witness, at p = 5 it does not
    for p, expected_ok in ((3, True), (5, False)):
        pres = theta(p, with_l1=True)
        mutated = {"m2": [(1, {"l1": 1, f"b{p - 1}": 1})]}
        report = check_derivation(pres, suspension_on_theta(p, mutate=mutated))
        assert report.ok is expected_ok, (p, report.failures())


def test_derivation_degree_validation():
    pres = theta(3, with_l1=True)
    bad = DerivationSpec({"u": [(1, {"l1": 1})]})
    with pytest.raises(DegreeMismatch):
        check_derivation(pres, bad)


def test_derivation_on_plain_algebra_truncation():
    p = 5
    alg = make_algebra(
        p,
        [
            truncated("u", 2, p - 1),
            exterior("l1", 2 * p - 1),
            exterior("dlogu", 1),
            polynomial("k1", 2 * p),
        ],
    )
    d = DerivationSpec(
        {"u": [(1, {"u": 1, "dlogu": 1})], "k1": [(-1, {"k1": 1, "dlogu": 1})]}
    )
    report = check_derivation(alg, d)
    assert report.ok, report.failures()
    assert any("u^4" in desc for desc, _, _ in report.checks)


def test_derivation_rejects_divided_carrier():
    alg = make_algebra(3, [divided("y", 2)])
    with pytest.raises(UnsupportedKind):
        check_derivation(alg, DerivationSpec({}))


# -- pruned basis enumeration ------------------------------------------------------


def filtered_basis(pres, cap):
    """The reference table: the ambient basis filtered by irreducibility,
    each monomial tested against every rule, with no rule index."""
    table = pres.algebra.basis_by_degree(cap)
    return {n: [m for m in table[n] if not any(r.divides(m) for r in pres.rules)]
            for n in table}


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("with_l1", [False, True])
def test_pruned_basis_equals_filtered_theta(p, with_l1):
    pres = theta(p, with_l1)
    cap = 2 * p * p + 4 * p
    assert pres.basis_by_degree(cap) == filtered_basis(pres, cap)


def test_pruned_basis_count_p11():
    assert sum(hilbert_pres(theta(11, with_l1=True), 286)) == 456


@st.composite
def small_presentations(draw):
    gens = []
    for k in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["polynomial", "exterior", "truncated"]))
        if kind == "exterior":
            gens.append(exterior(f"g{k}", draw(st.sampled_from([1, 3]))))
        elif kind == "polynomial":
            gens.append(polynomial(f"g{k}", draw(st.sampled_from([2, 4]))))
        else:
            gens.append(truncated(f"g{k}", 2, draw(st.integers(2, 4))))
    alg = make_algebra(3, gens)
    # exponents up to 4 exceed every exterior and truncation limit, so some
    # lhs can never divide a basis monomial; rhs zero keeps rules homogeneous
    lhs = st.tuples(*[st.integers(0, 4) for _ in gens]).filter(any)
    rules = tuple(RewriteRule(m, {}) for m in draw(st.lists(lhs, max_size=5)))
    return Presentation(alg, rules)


@given(small_presentations(), st.integers(0, 16))
@settings(max_examples=200, deadline=None)
def test_pruned_basis_equals_filtered_property(pres, cap):
    assert pres.basis_by_degree(cap) == filtered_basis(pres, cap)


def assert_index_matches_brute_force(pres, cap):
    for m in ambient_basis(pres.algebra, cap):
        assert pres._applicable(m) == [r for r in pres.rules if r.divides(m)]
        for r in pres.rules:
            assert r.divides(m) == all(l <= x for l, x in zip(r.lhs, m))


# the second rule closes at an earlier slot than the first, so only the sort
# by rule position puts the index's hits back in rule order
@given(small_presentations(), st.integers(0, 16))
@example(Presentation(make_algebra(3, [polynomial("g0", 2), polynomial("g1", 2)]),
                      (RewriteRule((0, 1), {}), RewriteRule((1, 0), {}))), 4)
@settings(max_examples=200, deadline=None)
def test_indexed_rule_choice_equals_brute_force_property(pres, cap):
    assert_index_matches_brute_force(pres, cap)


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("with_l1", [False, True])
def test_indexed_rule_choice_equals_brute_force_theta(p, with_l1):
    assert_index_matches_brute_force(theta(p, with_l1), 2 * p * p + 4 * p)


def test_rewrite_mismatch_survives_optimize():
    # y^2 is not a monomial of E(y); rewriting it by y -> 0 breaks the
    # lhs * quotient = monomial invariant, which must raise even under -O
    script = (
        "from thhlab.graded_algebra import exterior, make_algebra\n"
        "from thhlab.presentation import Presentation, RewriteMismatch, RewriteRule\n"
        "pres = Presentation(make_algebra(3, [exterior('y', 1)]), (RewriteRule((1,), {}),))\n"
        "try:\n"
        "    pres.normal_form_dict({(2,): 1})\n"
        "except RewriteMismatch:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env)
    assert done.returncode == 0


# -- one theta per key, one walk per cap, one text per rule ------------------


def test_make_theta_returns_one_object_per_key():
    l1 = exterior("l1", 9)
    with_l1 = make_theta(5, (l1,))
    assert make_theta(PrimeField(5), [exterior("l1", 9)]) is with_l1
    assert make_theta(5, extra_generators=[l1]) is with_l1
    plain = make_theta(PrimeField(5))
    assert make_theta(5, []) is plain
    assert plain is not with_l1 and plain.algebra != with_l1.algebra
    other = make_theta(7)
    assert other is not plain and other.algebra.field.p == 7
    with pytest.raises(ValueError, match="odd prime"):
        make_theta(9)


def test_shared_theta_tables_survive_the_catalog(tmp_path):
    main(["run", "--all", "--prime", "5", "--format", "json", "--out", str(tmp_path / "r.json")])
    shared = make_theta(5, (exterior("l1", 9),))
    assert 70 in shared._bases  # the catalog walked it at the default cap 2p^2 + 4p
    for cap, (mat, degree) in shared._bases.items():
        fresh, fresh_degree = Presentation(shared.algebra, shared.rules).basis_rows(cap)
        assert np.array_equal(mat, fresh) and np.array_equal(degree, fresh_degree)


def test_both_ku_sequences_walk_theta_once(monkeypatch):
    presentation._theta.cache_clear()
    caps = []
    walk = presentation.walk_rows

    def counted(degrees, limits, cap, bounds=None):
        caps.append(cap)
        return walk(degrees, limits, cap, bounds)

    monkeypatch.setattr(presentation, "walk_rows", counted)
    for ambiguity in (0, 1):
        check_les(ku_sequence(3, ambiguity), cap=40)
    assert caps == [40]


def old_rule_text(alg, rule):
    """A rule's description as algebra_map and check_derivation formatted it
    for each check before the texts were kept on the presentation."""
    return f"{alg.format_mono(rule.lhs)} -> {alg.format_dict(rule.rhs)}"


@pytest.mark.parametrize("p", [3, 5])
def test_rule_texts_keep_the_relation_descriptions(p):
    seq = ku_sequence(p)
    alg, rules = seq.A.algebra, seq.A.rules
    want = [old_rule_text(alg, rule) for rule in rules]
    morph = check_morphism(seq.A, seq.B, seq.rho, 2 * p * p)
    assert [desc for desc, _ in morph.relation_results[-len(rules):]] == want
    mutated = _theta_sigma_images(p)
    mutated["b1"] = [(2, {"a1": 1})]  # the mutation-detected carrier
    report = check_derivation(seq.A, DerivationSpec(mutated))
    assert [desc for desc, _, _ in report.checks[-len(rules):]] == [
        f"sigma compatible with {text}" for text in want]

