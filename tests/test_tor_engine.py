"""Resolutions, the brute-force Tor oracle, and the closed forms."""

import itertools
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thhlab import tor_engine
from thhlab.fp_linalg import CompositionNonzero, FpMatrix, homology_dim, map_matrix
from thhlab.graded_algebra import (
    CoefficientFactor,
    MixedSpec,
    UnsupportedKind,
    UnsupportedShape,
    bigraded_dims,
    dims_add,
    dims_convolve,
    divided,
    exterior,
    hilbert,
    make_algebra,
    polynomial,
)
from thhlab.tor_engine import (
    ChainComplexOfFrees,
    ModuleSpec,
    fp_module,
    resolution,
    tor_closed_form,
    tor_exterior_module,
    tor_oracle,
)


def e_dv(p=3):
    return make_algebra(p, [exterior("dv", 2 * p - 1)])


def p_v(p=3):
    return make_algebra(p, [polynomial("v", 2 * p - 2)])


def base_pv_edv(p=3, coefficients=()):
    return make_algebra(
        p,
        [polynomial("v", 2 * p - 2), exterior("dv", 2 * p - 1)],
        coefficients=coefficients,
    )


def coeff_core(p=3):
    return make_algebra(
        p,
        [
            exterior("l1", 2 * p - 1),
            exterior("l2", 2 * p * p - 1),
            polynomial("m2", 2 * p * p),
        ],
    )


# -- resolution ----------------------------------------------------------------------


def element_bidegrees(res):
    """The layer and internal degree of every element of the complex, in the
    order of _differential: the generators in layer order, each with the
    base monomials of degree <= cap - |g| in degree order."""
    table = res.algebra.basis_by_degree(res.cap)
    layer, degree = [], []
    for s, gens in enumerate(res.generators):
        for g in gens:
            for n in range(res.cap - g.internal_degree + 1):
                layer += [s] * len(table[n])
                degree += [g.internal_degree + n] * len(table[n])
    return np.array(layer, dtype=np.int64), np.array(degree, dtype=np.int64)


def differential_matrices(res):
    """The differential (s, t) -> (s - 1, t) on the monomial bases, as a
    function of (s, t), cut from one read of the complex's arrays."""
    _, target, value = res._differential()
    layer, degree = element_bidegrees(res)

    def image(e):
        return {int(f): int(v) for f, v in zip(target[e], value[e]) if v}

    def matrix(s, t):
        rows = np.flatnonzero((layer == s - 1) & (degree == t)).tolist()
        return map_matrix(
            res.algebra.field,
            np.flatnonzero((layer == s) & (degree == t)).tolist(),
            {f: r for r, f in enumerate(rows)},
            image,
        )

    return matrix


def test_resolution_divided_tower_frozen_p3():
    res = resolution(e_dv(), 20)
    assert res.top_filtration == 4  # sigma_k up to internal degree 5k <= 20
    for k in range(5):
        layer = res.generators[k]
        assert len(layer) == 1 and layer[0].internal_degree == 5 * k
    # d(sigma_k) = dv . sigma_{k-1} with coefficient exactly 1
    matrix = differential_matrices(res)
    for k in range(1, 5):
        m = matrix(k, 5 * k)
        assert m.shape == (1, 1) and m.data[0, 0] == 1


def test_resolution_koszul_two_term_p3():
    res = resolution(p_v(), 20)
    assert res.top_filtration == 1
    assert [g.internal_degree for g in res.generators[1]] == [4]
    m = differential_matrices(res)(1, 4)
    assert m.shape == (1, 1) and m.data[0, 0] == 1


def test_resolution_empty_algebra():
    res = resolution(make_algebra(3, []), 10)
    assert res.top_filtration == 0
    res.check_resolves_unit()
    assert _dense_homology(res) == {(0, 0): 1}


def test_resolution_rejects_unresolvable_bases():
    with pytest.raises(UnsupportedKind):
        resolution(make_algebra(3, [divided("g", 5, filtration=1)]), 10)
    with pytest.raises(UnsupportedKind):
        resolution(
            make_algebra(3, [], coefficients=(CoefficientFactor("C", "symbolic"),)), 10
        )


def test_resolution_is_checked_on_construction():
    # sabotage: drop a layer, so the homology check must fail
    res = resolution(e_dv(), 20)
    broken = ChainComplexOfFrees(res.algebra, res.cap, res.generators[:2])
    with pytest.raises(AssertionError):
        broken.check_resolves_unit()


def _reference_matrix(res, s, t):
    """The (s, t) differential built entry by entry with mono_mul."""
    alg = res.algebra
    kinds = [g.kind for g in alg.generators]

    def basis(layer):
        if not 0 <= layer <= res.top_filtration:
            return []
        table = alg.basis_by_degree(res.cap)
        return [(m, g.word) for g in res.generators[layer]
                for m in table.get(t - g.internal_degree, [])]

    cols, rows = basis(s), basis(s - 1)
    data = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for j, (m, word) in enumerate(cols):
        for i, e in enumerate(word):
            if not e:
                continue
            letters = sum(w for w, k in zip(word[:i], kinds) if k == "polynomial")
            stages = sum(word[:i]) - letters
            sign = (-1) ** (letters + (stages if kinds[i] == "polynomial" else 0))
            unit = tuple(int(k == i) for k in range(len(word)))
            prod = alg.mono_mul(m, unit)
            if prod is not None:
                reduced = word[:i] + (e - 1,) + word[i + 1:]
                data[rows.index((prod[1], reduced)), j] += sign * prod[0]
    return FpMatrix(alg.field, data)


def _dense_homology(res):
    matrix = differential_matrices(res)
    out = {}
    for s in range(res.top_filtration + 1):
        for t in range(res.cap + 1):
            d_out = matrix(s, t)
            if d_out.shape[1]:
                h = homology_dim(matrix(s + 1, t), d_out)
                if h:
                    out[(s, t)] = h
    return out


small_generators = st.lists(
    st.one_of(
        st.sampled_from([2, 4]).map(lambda d: ("polynomial", d)),
        st.sampled_from([1, 3]).map(lambda d: ("exterior", d)),
    ),
    min_size=1,
    max_size=3,
)


@given(small_generators, st.sampled_from([3, 5]), st.integers(0, 7))
@settings(max_examples=10, deadline=None)
def test_block_check_equals_dense_check_in_every_order(kinds, p, cap):
    gens = [polynomial(f"x{i}", d) if kind == "polynomial" else exterior(f"y{i}", d)
            for i, (kind, d) in enumerate(kinds)]
    for order in set(itertools.permutations(range(len(gens)))):
        res = resolution(make_algebra(p, [gens[i] for i in order]), cap)
        matrix = differential_matrices(res)
        for s in range(res.top_filtration + 2):
            for t in range(cap + 1):
                assert np.array_equal(matrix(s, t).data, _reference_matrix(res, s, t).data)
        res.check_resolves_unit()
        assert _dense_homology(res) == {(0, 0): 1}
        for top in range(1, res.top_filtration + 1):
            cut = ChainComplexOfFrees(res.algebra, cap, res.generators[:top])
            if _dense_homology(cut) == {(0, 0): 1}:
                cut.check_resolves_unit()
            else:
                with pytest.raises(AssertionError, match="not a resolution"):
                    cut.check_resolves_unit()


@given(small_generators, st.sampled_from([3, 5]), st.integers(0, 10))
@settings(max_examples=20, deadline=None)
def test_resolution_words_are_the_capped_product_in_every_order(kinds, p, cap):
    # Koszul exponents 0 or 1, tower exponents unbounded (range(cap + 1) is
    # enough, every degree is positive); layered by sum(word), sorted by (t, word)
    gens = [polynomial(f"x{i}", d) if kind == "polynomial" else exterior(f"y{i}", d)
            for i, (kind, d) in enumerate(kinds)]
    for order in set(itertools.permutations(range(len(gens)))):
        alg = make_algebra(p, [gens[i] for i in order])
        degrees = [g.total_degree for g in alg.generators]
        ranges = [range(2) if g.kind == "polynomial" else range(cap + 1)
                  for g in alg.generators]
        layers = {}
        for word in itertools.product(*ranges):
            t = sum(e * d for e, d in zip(word, degrees))
            if t <= cap:
                layers.setdefault(sum(word), []).append((t, word))
        expected = [sorted(layers[s]) for s in range(len(layers))]
        res = resolution(alg, cap)
        assert [[(g.internal_degree, g.word) for g in layer]
                for layer in res.generators] == expected


def test_negative_cap_is_a_value_error():
    alg = make_algebra(3, [polynomial("x", 2), exterior("y", 3)])
    for alg in (alg, make_algebra(3, [])):
        with pytest.raises(ValueError, match="cap must be nonnegative"):
            resolution(alg, -1)
        with pytest.raises(ValueError, match="cap must be nonnegative"):
            tor_oracle(alg, fp_module(alg), fp_module(alg), -1)


def test_block_check_rejects_a_dropped_top_layer():
    res = resolution(make_algebra(3, [polynomial("x", 2), exterior("y", 3)]), 12)
    broken = ChainComplexOfFrees(res.algebra, res.cap, res.generators[:-1])
    with pytest.raises(AssertionError):
        broken.check_resolves_unit()


def test_block_check_rejects_a_generator_missing_from_a_middle_layer():
    res = resolution(make_algebra(3, [polynomial("x", 2), exterior("y", 3)]), 12)
    middle = res.top_filtration // 2
    assert 0 < middle < res.top_filtration and len(res.generators[middle]) > 1
    layers = list(res.generators)
    layers[middle] = layers[middle][1:]
    broken = ChainComplexOfFrees(res.algebra, res.cap, tuple(layers))
    with pytest.raises(AssertionError):
        broken.check_resolves_unit()


def test_block_check_rejects_a_sign_that_breaks_d_squared(monkeypatch):
    # a sign without the stages share: d[x] ignores the tower stages of y before it
    def letters_only(poly, words):
        letters = np.cumsum(words * poly, axis=1) - words * poly
        return 1 - 2 * (letters % 2)

    alg = make_algebra(3, [exterior("y", 1), polynomial("x", 2)])
    resolution(alg, 8)
    monkeypatch.setattr(tor_engine, "_word_signs", letters_only)
    with pytest.raises(CompositionNonzero):
        resolution(alg, 8)


def test_the_lead_inverse_is_taken_mod_p(monkeypatch):
    # the Koszul slot's terms times 2 still resolve F_p (h takes 1/2 = 3 mod 5);
    # dropped (0) or kept as zero mod p (5), they leave homology
    alg = make_algebra(5, [polynomial("x", 2), exterior("y", 3)])
    signs = tor_engine._word_signs
    for factor in (2, 0, 5):
        def scaled_koszul(poly, words, factor=factor):
            out = signs(poly, words)
            out[:, 0] *= factor
            return out

        monkeypatch.setattr(tor_engine, "_word_signs", scaled_koszul)
        if factor == 2:
            resolution(alg, 12)
        else:
            with pytest.raises(AssertionError, match="not a resolution"):
                resolution(alg, 12)


@pytest.mark.parametrize("mutation", ["second_unit", "doubled", "dropped", "flipped"])
def test_a_broken_homotopy_certificate_fails_the_check(monkeypatch, mutation):
    # on P(x2) ox P(w4) ox E(y1) every weight block of two or more base
    # generators has cross terms; each spy breaks one condition of the check
    alg = make_algebra(3, [polynomial("x", 2), polynomial("w", 4), exterior("y", 1)])
    resolution(alg, 14)
    differential = ChainComplexOfFrees._differential
    homotopy, two_paths = tor_engine._homotopy, tor_engine._two_paths
    built = []

    def second_unit(self):
        lead, target, value = differential(self)
        lead[np.flatnonzero(lead < value.shape[1])[-1]] = value.shape[1]
        return lead, target, value

    def doubled(p, *args):
        h_target, h_value = homotopy(p, *args)
        e = np.flatnonzero(h_value)[len(h_value) // 4]
        h_value[e] = 2 * h_value[e] % p
        return h_target, h_value

    def dropped(p, *args):
        h_target, h_value = homotopy(p, *args)
        h_value[np.flatnonzero(h_value)[len(h_value) // 4]] = 0
        return h_target, h_value

    def recorded(p, *args):
        built.append(homotopy(p, *args))
        return built[-1]

    def flipped(a, b):
        (s, c), ba = two_paths(a, b)
        # h d_j x landing off x: a cross term, j not the lead slot of x
        cross = np.flatnonzero((c != 0) & (s != np.arange(s.size)))
        if len(built) == 1 and b is built[0] and cross.size:
            c[cross[0]] *= -1
            built.append(b)  # flip once
        return (s, c), ba

    owner, name, spy, message = {
        "second_unit": (ChainComplexOfFrees, "_differential", second_unit, "2 units"),
        "doubled": (tor_engine, "_homotopy", doubled, "is not 1 on its lead slot"),
        "dropped": (tor_engine, "_homotopy", dropped, "is not 1 on its lead slot"),
        "flipped": (tor_engine, "_two_paths", flipped, "is not 0 on slot"),
    }[mutation]
    monkeypatch.setattr(tor_engine, "_homotopy", recorded)
    monkeypatch.setattr(owner, name, spy)
    with pytest.raises(AssertionError, match=f"not a resolution.*{message}"):
        resolution(alg, 14)


def test_a_dropped_top_layer_fails_the_check_under_optimize():
    # the check raises explicitly, so python -O keeps it
    script = (
        "from thhlab.graded_algebra import exterior, make_algebra, polynomial\n"
        "from thhlab.tor_engine import ChainComplexOfFrees, resolution\n"
        "res = resolution(make_algebra(3, [polynomial('x', 2), exterior('y', 3)]), 12)\n"
        "broken = ChainComplexOfFrees(res.algebra, res.cap, res.generators[:-1])\n"
        "try:\n"
        "    broken.check_resolves_unit()\n"
        "except AssertionError as exc:\n"
        "    raise SystemExit(0 if 'not a resolution' in str(exc) else 2)\n"
        "raise SystemExit(1)\n"
    )
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env)
    assert done.returncode == 0


def test_key_lookup_marks_absent_keys():
    keys = np.array([40, 7, 19, -3], dtype=np.int64)
    queries = np.array([[19, 8], [-3, 41], [40, -4], [7, 0]], dtype=np.int64)
    found = tor_engine._lookup(keys, queries, -1)
    assert found.tolist() == [[2, -1], [3, -1], [0, -1], [1, -1]]
    assert tor_engine._lookup(keys, queries[:0], -1).shape == (0, 2)
    empty = np.zeros(0, dtype=np.int64)
    assert tor_engine._lookup(empty, queries, -2).tolist() == [[-2, -2]] * 4


def test_oracle_matches_closed_form_at_the_largest_prime():
    p, cap = 2**31 - 1, 14
    alg = make_algebra(p, [exterior("y", 1), polynomial("x", 2), exterior("w", 3)])
    oracle = tor_oracle(alg, fp_module(alg), fp_module(alg), cap)
    page = tor_closed_form(alg, fp_module(alg), fp_module(alg), cap)
    want = {bd: d for bd, d in oracle.items() if sum(bd) <= cap}
    assert {bd: d for bd, d in page.bigraded_dims(cap).items() if d} == want


# -- oracle --------------------------------------------------------------------------


def test_oracle_over_empty_algebra():
    alg = make_algebra(3, [])
    assert tor_oracle(alg, fp_module(alg), fp_module(alg), 10) == {(0, 0): 1}


def test_oracle_divided_tower_frozen_p3():
    alg = e_dv()
    dims = tor_oracle(alg, fp_module(alg), fp_module(alg), 20)
    assert dims == {(k, 5 * k): 1 for k in range(5)}


def test_oracle_trivial_coefficients_window_p3():
    alg = base_pv_edv()
    left = ModuleSpec(alg, trivial_action_coefficients=coeff_core())
    dims = tor_oracle(alg, left, fp_module(alg), 40)
    expected_spec = make_algebra(
        3,
        [
            exterior("l1", 5),
            exterior("l2", 17),
            polynomial("m2", 18),
            exterior("[v]", 4, filtration=1),
            divided("[dv]", 5, filtration=1),
        ],
    )
    expected = {
        (s, t): d
        for (s, t), d in bigraded_dims(expected_spec, 44).items()
        if s <= 4 and t <= 40 and d
    }
    got = {(s, t): d for (s, t), d in dims.items() if s <= 4 and t <= 40}
    assert got == expected


def test_oracle_side_independence():
    alg = make_algebra(3, [polynomial("x", 4), exterior("y", 3)])
    left = ModuleSpec(alg, trivial_action_coefficients=make_algebra(3, [exterior("a", 5)]))
    right = ModuleSpec(alg, summands=((0, "t", "trivial"), (2, "f", "free")))
    assert tor_oracle(alg, left, right, 20) == tor_oracle(alg, right, left, 20)


def test_oracle_flatness():
    # a free module is Tor-acyclic: filtration 0 only, with its own dims
    alg = e_dv()
    free = ModuleSpec(alg, summands=((0, "g", "free"),))
    dims = tor_oracle(alg, fp_module(alg), free, 20)
    assert dims == {(0, 0): 1}  # A tensor_A F_p = F_p
    # resolved-side free summand against a nontrivial left module
    coeffs = make_algebra(3, [polynomial("m", 2)])
    left = ModuleSpec(alg, trivial_action_coefficients=coeffs)
    dims = tor_oracle(alg, left, ModuleSpec(alg, summands=((3, "g", "free"),)), 12)
    expected = hilbert(coeffs, 12)
    assert dims == {(0, n + 3): d for n, d in enumerate(expected) if d and n + 3 <= 12}


def test_oracle_free_and_trivial_summands_on_both_sides():
    # over E(y), |y| = 3: Tor(F_p, F_p) is gamma_k at (k, 3k), A tensor_A A = A
    alg = make_algebra(3, [exterior("y", 3)])
    left = ModuleSpec(alg, summands=((0, "a", "trivial"), (2, "f", "free")))
    right = ModuleSpec(alg, summands=((1, "b", "trivial"), (1, "g", "free")))
    expected = {
        (0, 1): 2,  # a.b: gamma_0, and a.g: F_p[1]
        (1, 4): 1, (2, 7): 1, (3, 10): 1,  # a.b: gamma_1..gamma_3 shifted by 1
        (0, 3): 2,  # f.b: F_p[3], and f.g: A[3] in degree 3
        (0, 6): 1,  # f.g: y A[3]
    }
    assert tor_oracle(alg, left, right, 12) == expected
    assert tor_oracle(alg, right, left, 12) == expected


def test_oracle_kunneth():
    p, cap = 3, 20
    a = make_algebra(p, [polynomial("x", 4)])
    b = make_algebra(p, [exterior("y", 3)])
    ab = make_algebra(p, [polynomial("x", 4), exterior("y", 3)])
    da = tor_oracle(a, fp_module(a), fp_module(a), cap)
    db = tor_oracle(b, fp_module(b), fp_module(b), cap)
    dab = tor_oracle(ab, fp_module(ab), fp_module(ab), cap)
    conv = {}
    for (s1, t1), d1 in da.items():
        for (s2, t2), d2 in db.items():
            if t1 + t2 <= cap:
                key = (s1 + s2, t1 + t2)
                conv[key] = conv.get(key, 0) + d1 * d2
    assert dab == conv


def test_oracle_rejects_foreign_modules():
    alg = e_dv()
    other = p_v()
    with pytest.raises(MixedSpec):
        tor_oracle(alg, fp_module(other), fp_module(alg), 10)


# -- module spec validation ----------------------------------------------------------


def test_module_spec_validation():
    alg = e_dv()
    with pytest.raises(ValueError):
        ModuleSpec(alg, summands=((0, "a", "weird"),))
    with pytest.raises(ValueError):
        ModuleSpec(alg, summands=((0, "a", "free"), (1, "a", "trivial")))
    with pytest.raises(ValueError):
        ModuleSpec(alg, summands=((-1, "a", "free"),))
    with pytest.raises(UnsupportedShape):
        ModuleSpec(
            alg,
            summands=((0, "a", "free"),),
            trivial_action_coefficients=make_algebra(3, []),
        )
    with pytest.raises(UnsupportedShape):  # unknown coefficient factor
        ModuleSpec(alg, free_factors=("C",))
    with pytest.raises(UnsupportedShape):  # coefficients belong on the base
        ModuleSpec(
            alg,
            trivial_action_coefficients=make_algebra(
                3, [], coefficients=(CoefficientFactor("C"),)
            ),
        )


# -- closed forms --------------------------------------------------------------------


def test_closed_form_matches_oracle_on_small_shapes():
    p, cap = 3, 24
    shapes = [
        [polynomial("x", 4)],
        [exterior("y", 3)],
        [polynomial("x", 4), exterior("y", 3)],
        [polynomial("x", 2), polynomial("x2", 4), exterior("y", 3), exterior("y2", 5)],
        [exterior("y", 1), polynomial("x", 2)],  # d[x] picks up y's tower stages
    ]
    for gens in shapes:
        alg = make_algebra(p, gens)
        page = tor_closed_form(alg, fp_module(alg), fp_module(alg), cap)
        assert page.page_index == 2
        oracle = tor_oracle(alg, fp_module(alg), fp_module(alg), cap)
        want = {bd: d for bd, d in oracle.items() if sum(bd) <= cap}
        got = {bd: d for bd, d in page.bigraded_dims(cap).items() if d}
        assert got == want, f"disagreement over {[g.name for g in gens]}"


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_oracle_independent_of_generator_order(order):
    gens = [polynomial("x", 2), exterior("y", 1), exterior("w", 3)]
    alg = make_algebra(3, [gens[i] for i in order])
    cap = 12
    oracle = tor_oracle(alg, fp_module(alg), fp_module(alg), cap)
    want = {bd: d for bd, d in oracle.items() if sum(bd) <= cap}
    page = tor_closed_form(alg, fp_module(alg), fp_module(alg), cap)
    assert {bd: d for bd, d in page.bigraded_dims(cap).items() if d} == want


def test_closed_form_cancels_free_coefficient_factor():
    p, cap = 3, 30
    sym = CoefficientFactor("C", "symbolic")
    alg = base_pv_edv(p, coefficients=(sym,))
    left = ModuleSpec(alg, trivial_action_coefficients=coeff_core(p))
    dlogv = make_algebra(p, [exterior("dlogv", 1)])
    right = ModuleSpec(alg, trivial_action_coefficients=dlogv, free_factors=("C",))
    page = tor_closed_form(alg, left, right, cap)
    assert [g.name for g in page.spec.generators] == [
        "l1", "l2", "m2", "dlogv", "[v]", "[dv]",
    ]
    # an uncancelled symbolic factor has no closed form
    with pytest.raises(UnsupportedShape):
        tor_closed_form(alg, left, ModuleSpec(alg, trivial_action_coefficients=dlogv), cap)
    # a literal-F_p factor just drops out
    triv = base_pv_edv(p, coefficients=(CoefficientFactor("C", "trivial"),))
    page2 = tor_closed_form(
        triv,
        ModuleSpec(triv, trivial_action_coefficients=coeff_core(p)),
        ModuleSpec(triv, trivial_action_coefficients=dlogv),
        cap,
    )
    assert page2.bigraded_dims(cap) == page.bigraded_dims(cap)


def test_closed_form_rejects_summand_modules():
    alg = e_dv()
    with pytest.raises(UnsupportedShape):
        tor_closed_form(alg, ModuleSpec(alg, summands=((0, "a", "trivial"),)), fp_module(alg), 10)


def test_closed_form_trivial_case():
    alg = make_algebra(3, [])
    page = tor_closed_form(alg, fp_module(alg), fp_module(alg), 10)
    assert page.bigraded_dims(10) == {(0, 0): 1}


# -- Tor over one exterior generator, free + trivial summands ------------------------


def sec8_module(p=3):
    du = exterior("du", 3)
    base = make_algebra(p, [du])
    summands = [
        (0, "1", "free"),
        (14, "z", "free"),
        (2, "u", "trivial"),
        (8, "b1", "trivial"),
        (9, "a1", "trivial"),
        (15, "a2", "trivial"),
    ]
    return du, ModuleSpec(base, summands=tuple(summands))


def test_exterior_module_page_matches_stated_dims_p3():
    p, cap = 3, 40
    du, module = sec8_module(p)
    coeff = make_algebra(
        p, [exterior("l1", 5), exterior("dlogu", 1), polynomial("m2", 18)]
    )
    page = tor_exterior_module(du, module, coeff, cap)
    assert [l.name for l in page.labels] == ["1", "z", "u", "b1", "a1", "a2"]
    assert [l.allows_gamma for l in page.labels] == [False, False, True, True, True, True]
    # total dims: coefficient algebra times (free shifts + towers at 4k + shift)
    free = [0] * (cap + 1)
    for d in (0, 14):
        free[d] += 1
    towers = [0] * (cap + 1)
    for d in (2, 8, 9, 15):
        k = 0
        while 4 * k + d <= cap:
            towers[4 * k + d] += 1
            k += 1
    expected = dims_convolve(hilbert(coeff, cap), dims_add(free, towers, cap), cap)
    got = page.total_dims(cap)
    assert [got[n] for n in range(cap + 1)] == expected


def test_exterior_module_oracle_crosscheck():
    p, cap = 3, 24
    du = exterior("du", 3)
    base = make_algebra(p, [du])
    module = ModuleSpec(base, summands=((0, "1", "trivial"),))
    page = tor_exterior_module(du, module, make_algebra(p, []), cap)
    oracle = tor_oracle(base, module, fp_module(base), cap)
    want = {bd: d for bd, d in oracle.items() if sum(bd) <= cap}
    assert {bd: d for bd, d in page.bigraded_dims(cap).items()} == want
    assert want == {(k, 3 * k): 1 for k in range(7)}  # 4k <= 24


def test_exterior_module_free_only_is_filtration_zero():
    p, cap = 3, 20
    du = exterior("du", 3)
    base = make_algebra(p, [du])
    module = ModuleSpec(base, summands=((0, "1", "free"), (4, "w", "free")))
    page = tor_exterior_module(du, module, make_algebra(p, []), cap)
    assert page.bigraded_dims(cap) == {(0, 0): 1, (0, 4): 1}


def test_exterior_module_validation():
    p = 3
    du = exterior("du", 3)
    base = make_algebra(p, [du])
    coeff = make_algebra(p, [])
    good = ModuleSpec(base, summands=((0, "1", "free"),))
    with pytest.raises(UnsupportedShape):  # base generator must be exterior
        tor_exterior_module(polynomial("x", 4), good, coeff, 10)
    with pytest.raises(UnsupportedShape):  # module must be over E(y) itself
        two = make_algebra(p, [du, exterior("e", 5)])
        tor_exterior_module(du, ModuleSpec(two, summands=((0, "1", "free"),)), coeff, 10)
    with pytest.raises(UnsupportedShape):  # needs explicit summands
        tor_exterior_module(du, fp_module(base), coeff, 10)
