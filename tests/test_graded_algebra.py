import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thhlab.fp_linalg import map_rank
from thhlab.graded_algebra import (
    DegreeMismatch,
    DegreeRank,
    DuplicateName,
    Generator,
    MixedSpec,
    ParityViolation,
    UnsupportedKind,
    algebra_map,
    bigraded_dims,
    check_morphism,
    dims_convolve,
    divided,
    exterior,
    hilbert,
    leibniz,
    make_algebra,
    polynomial,
    slot_bounds,
    tensor,
    truncated,
    truncation_residuals,
    walk_rows,
)
from thhlab.presentation import DerivationSpec, leibniz_extension, make_theta


def E_P_page(p):
    # E(l1, dlogv) tensor P(k1) at the given prime
    return make_algebra(
        p,
        [exterior("l1", 2 * p - 1), exterior("dlogv", 1), polynomial("k1", 2 * p)],
    )


def test_make_algebra_validates():
    assert make_algebra(3, [exterior("l1", 5), polynomial("m2", 18)])
    with pytest.raises(ParityViolation):
        make_algebra(3, [polynomial("w", 3)])
    with pytest.raises(ParityViolation):
        make_algebra(3, [exterior("w", 4)])
    with pytest.raises(DuplicateName):
        make_algebra(3, [exterior("x", 3), polynomial("x", 4)])
    with pytest.raises(ValueError):
        make_algebra(3, [polynomial("x", 0)])
    with pytest.raises(ValueError):
        make_algebra(3, [truncated("u", 2, 1)])
    assert make_algebra(5, [truncated("u", 2, 4)])


def test_filtration_counts_toward_parity():
    # bidegree (1, 2p-2) has odd total degree: exterior is the valid kind
    assert make_algebra(3, [exterior("[v]", 4, filtration=1)])
    with pytest.raises(ParityViolation):
        make_algebra(3, [divided("[v]", 4, filtration=1)])
    assert make_algebra(3, [divided("[dv]", 5, filtration=1)])


def test_exterior_square_and_anticommutativity():
    spec = make_algebra(3, [exterior("l1", 5), exterior("dlogv", 1)])
    l1 = spec.mono_from_names({"l1": 1})
    dlogv = spec.mono_from_names({"dlogv": 1})
    assert spec.mono_mul(l1, l1) is None
    c_fwd, m_fwd = spec.mono_mul(l1, dlogv)
    c_rev, m_rev = spec.mono_mul(dlogv, l1)
    assert m_fwd == m_rev
    assert c_fwd == 1 and c_rev == 2  # odd * odd anticommute


def test_divided_power_products_frozen():
    spec = make_algebra(3, [divided("[dv]", 5, filtration=1)])
    g = lambda k: (k,)
    assert spec.mono_mul(g(1), g(2)) is None  # binom(3,1) = 0 mod 3
    assert spec.mono_mul(g(3), g(3)) == (2, g(6))  # binom(6,3) = 20 = 2 mod 3


def test_truncation():
    spec = make_algebra(3, [truncated("u", 2, 2)])
    u = spec.mono_from_names({"u": 1})
    assert spec.mono_mul(u, u) is None


def test_hilbert_frozen_tables():
    assert hilbert(E_P_page(3), 7) == [1, 1, 0, 0, 0, 1, 2, 1]
    abutment = make_algebra(
        3, [exterior("e1", 5), exterior("l1", 5), polynomial("m1", 6)]
    )
    assert hilbert(abutment, 6) == [1, 0, 0, 0, 0, 2, 1]
    assert hilbert(make_algebra(3, []), 5) == [1, 0, 0, 0, 0, 0]


def test_hilbert_extension_accounting_identity():
    # E(l1) ox P(m2) ox E([v]) ox P_3([dv]) vs E(l1, [v]) ox P([dv]) at p=3
    lhs = make_algebra(
        3,
        [
            exterior("l1", 5),
            polynomial("m2", 18),
            exterior("[v]", 4, filtration=1),
            truncated("[dv]", 5, 3, filtration=1),
        ],
    )
    rhs = make_algebra(
        3,
        [
            exterior("l1", 5),
            exterior("[v]", 4, filtration=1),
            polynomial("[dv]", 5, filtration=1),
        ],
    )
    assert hilbert(lhs, 60) == hilbert(rhs, 60)


def test_hilbert_counts_basis():
    spec = make_algebra(
        5, [exterior("y", 3), polynomial("x", 4), divided("g", 2), truncated("u", 2, 4)]
    )
    table = spec.basis_by_degree(25)
    assert hilbert(spec, 25) == [len(table[n]) for n in range(26)]


def convolved_hilbert(spec, cap):
    """The series as a product of each generator's 1 + x^d + ... + x^(Ed),
    one dims_convolve per generator: a reference for hilbert."""
    out = [1] + [0] * cap
    for g in spec.generators:
        series = [0] * (cap + 1)
        for e in range(g.max_exponent(cap) + 1):
            series[e * g.total_degree] = 1
        out = dims_convolve(out, series, cap)
    return out


@st.composite
def generators(draw):
    kind = draw(st.sampled_from(["exterior", "polynomial", "truncated", "divided"]))
    filtration = draw(st.integers(0, 2))
    degree = draw(st.integers(0, 7))
    if (degree + filtration) % 2 != (kind == "exterior") or degree + filtration == 0:
        degree += 1 if degree + filtration else 2 - (kind == "exterior")
    height = draw(st.integers(2, 6)) if kind == "truncated" else None
    return Generator("x", degree, kind, height, filtration)


@given(st.lists(generators(), max_size=5), st.integers(0, 40))
@settings(max_examples=80, deadline=None)
def test_hilbert_is_the_basis_count_and_the_convolved_series(gens, cap):
    # every kind, truncations of several heights, generators in positive
    # filtration, and the empty spec
    spec = make_algebra(3, [Generator(f"x{i}", g.degree, g.kind, g.height, g.filtration)
                            for i, g in enumerate(gens)])
    table = spec.basis_by_degree(cap)
    assert hilbert(spec, cap) == [len(table.get(n, [])) for n in range(cap + 1)]
    assert hilbert(spec, cap) == convolved_hilbert(spec, cap)


@pytest.mark.parametrize("cap", [-1, 0, 7, 25])
def test_basis_by_degree_is_the_capped_product_in_lexicographic_order(cap):
    spec = make_algebra(
        5, [exterior("y", 3), polynomial("x", 4), divided("g", 2), truncated("u", 2, 4)]
    )
    degrees = [g.total_degree for g in spec.generators]
    words = itertools.product(range(2), range(7), range(13), range(4))
    expected = {n: [] for n in range(cap + 1)}
    for w in words:  # product yields lexicographic order
        n = sum(e * d for e, d in zip(w, degrees))
        if n <= cap:
            expected[n].append(w)
    assert spec.basis_by_degree(cap) == expected


@st.composite
def walks(draw):
    """Generators of every kind as (kind, degree, height), a cap, a slot
    whose limit is forced to 0 (or None), and monomials to keep out, with
    one, two or three letters."""
    gens = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["exterior", "polynomial", "truncated", "divided"]))
        d = draw(st.integers(1, 3))
        gens.append((kind, 2 * d - 1 if kind == "exterior" else 2 * d,
                     draw(st.integers(2, 4)) if kind == "truncated" else None))
    cap = draw(st.integers(-1, 14))
    zero = draw(st.one_of(st.none(), st.integers(0, len(gens) - 1))) if gens else None
    forbidden = []
    for _ in range(draw(st.integers(0, 6)) if gens else 0):
        slots = draw(st.sets(st.integers(0, len(gens) - 1), min_size=1,
                             max_size=min(3, len(gens))))
        forbidden.append(tuple(draw(st.integers(1, 3)) if i in slots else 0
                               for i in range(len(gens))))
    return gens, cap, zero, forbidden


@given(walks())
@example(([], -1, None, []))
@example(([], 0, None, []))
@example(([("polynomial", 2, None), ("exterior", 3, None), ("truncated", 2, 3),
           ("divided", 4, None)], 0, None, []))
@example(([("polynomial", 2, None), ("polynomial", 2, None), ("polynomial", 4, None)], 12, 1,
          [(1, 1, 1), (0, 2, 1), (3, 0, 0)]))
# a three-letter monomial met exactly; two on one slot pair, the weaker
# last; and a slot-0 exponent (2) that only the running minimum bounds
@example(([("polynomial", 2, None)] * 3, 12, None, [(1, 1, 1), (1, 0, 2), (1, 0, 3), (3, 0, 1)]))
@settings(max_examples=300, deadline=None)
def test_walk_rows_equals_the_filtered_product(case):
    # every word of the capped product, in lexicographic order, kept if no
    # forbidden monomial divides it, then stably sorted by degree
    gens, cap, zero, forbidden = case
    spec = make_algebra(3, [Generator(f"g{i}", d, kind, h) for i, (kind, d, h) in enumerate(gens)])
    degrees = [g.total_degree for g in spec.generators]
    limits = [0 if i == zero else g.max_exponent(cap) for i, g in enumerate(spec.generators)]
    words = [w for w in itertools.product(*(range(max(lim, 0) + 1) for lim in limits))
             if sum(e * d for e, d in zip(w, degrees)) <= cap
             and not any(all(a <= e for a, e in zip(f, w)) for f in forbidden)]
    words.sort(key=lambda w: sum(e * d for e, d in zip(w, degrees)))
    bounds = slot_bounds(len(gens), forbidden) if forbidden else None
    mat, degree = walk_rows(degrees, limits, cap, bounds)
    assert mat.dtype == degree.dtype == np.int64 and mat.shape == (len(words), len(gens))
    assert mat.tolist() == [list(w) for w in words]
    assert degree.tolist() == [sum(e * d for e, d in zip(w, degrees)) for w in words]
    if zero is None and not forbidden:
        assert [list(w) for ws in spec.basis_by_degree(cap).values() for w in ws] == mat.tolist()


def test_negative_cap_gives_an_empty_basis_for_every_spec():
    assert make_algebra(3, []).basis_by_degree(-1) == {}
    assert E_P_page(3).basis_by_degree(-1) == {}
    assert make_algebra(3, []).basis_by_degree(0) == {0: [()]}


def test_bigraded_dims_track_filtration():
    spec = make_algebra(3, [divided("[dv]", 5, filtration=1)])
    dims = bigraded_dims(spec, 18)
    assert dims == {(0, 0): 1, (1, 5): 1, (2, 10): 1, (3, 15): 1}


def test_tensor_dims_convolve():
    a = make_algebra(3, [exterior("l1", 5)])
    b = make_algebra(3, [polynomial("m2", 18)])
    t = tensor(a, b)
    assert hilbert(t, 40) == dims_convolve(hilbert(a, 40), hilbert(b, 40), 40)
    with pytest.raises(DuplicateName):
        tensor(a, a)


def test_element_arithmetic_and_mixed_spec():
    spec = make_algebra(3, [exterior("l1", 5), polynomial("m2", 18)])
    x = spec.dict_from_input([(1, {"l1": 1})])
    y = spec.dict_from_input([(2, {"m2": 1})])
    assert spec.format_dict(spec.mul_dicts(x, y)) == "2*l1*m2"
    assert spec.add_dicts(x, x) == {spec.mono_from_names({"l1": 1}): 2}
    with pytest.raises(MixedSpec):
        tensor(spec, make_algebra(5, [exterior("y", 5)]))


def test_check_morphism_base_change_iso():
    # d log v |-> -d log u, everything else the identity, at p=3
    p = 3
    src = make_algebra(
        p,
        [
            truncated("u", 2, p - 1),
            exterior("l1", 2 * p - 1),
            exterior("dlogv", 1),
            polynomial("k1", 2 * p),
        ],
    )
    tgt = make_algebra(
        p,
        [
            truncated("u", 2, p - 1),
            exterior("l1", 2 * p - 1),
            exterior("dlogu", 1),
            polynomial("k1", 2 * p),
        ],
    )
    report = check_morphism(
        src,
        tgt,
        {
            "u": [(1, {"u": 1})],
            "l1": [(1, {"l1": 1})],
            "dlogv": [(-1, {"dlogu": 1})],
            "k1": [(1, {"k1": 1})],
        },
        60,
    )
    assert report.iso and report.relations_ok


def test_check_morphism_identity_iso():
    spec = E_P_page(3)
    images = {g.name: [(1, {g.name: 1})] for g in spec.generators}
    assert check_morphism(spec, spec, images, 30).iso


def test_check_morphism_v_to_zero_not_surjective():
    # P(v) ox E(dlogv) -> E(l1, dlogv) ox P(k1), v |-> 0: valid, misses degree 6
    src = make_algebra(3, [polynomial("v", 4), exterior("dlogv", 1)])
    tgt = E_P_page(3)
    report = check_morphism(
        src, tgt, {"v": [], "dlogv": [(1, {"dlogv": 1})]}, 20
    )
    assert report.relations_ok
    by_degree = {r.degree: r for r in report.degrees}
    assert not by_degree[6].surjective
    assert by_degree[6].dim_target == 2 and by_degree[6].rank == 0


def test_check_morphism_divided_identity_and_restriction():
    src = make_algebra(3, [divided("[dv]", 5, filtration=1)])
    tgt = make_algebra(
        3,
        [
            exterior("dlogv", 1),
            exterior("[v]", 4, filtration=1),
            divided("[dv]", 5, filtration=1),
        ],
    )
    report = check_morphism(src, tgt, {"[dv]": [(1, {"[dv]": 1})]}, 30)
    assert report.injective
    with pytest.raises(UnsupportedKind):
        # degree-correct two-term image is still not a divided-power map
        check_morphism(
            src,
            tgt,
            {"[dv]": [(1, {"[dv]": 1}), (1, {"dlogv": 1, "[v]": 1})]},
            12,
        )


def test_check_morphism_degree_mismatch():
    src = make_algebra(3, [exterior("l1", 5)])
    tgt = make_algebra(3, [exterior("dlogv", 1)])
    with pytest.raises(DegreeMismatch):
        check_morphism(src, tgt, {"l1": [(1, {"dlogv": 1})]}, 10)


def test_check_morphism_detects_broken_relation():
    # u truncated at height 2 cannot map to a polynomial class
    src = make_algebra(3, [truncated("u", 2, 2)])
    tgt = make_algebra(3, [polynomial("x", 2)])
    report = check_morphism(src, tgt, {"u": [(1, {"x": 1})]}, 10)
    assert not report.relations_ok


small_monos = st.integers(0, 4)


@st.composite
def spec_and_monos(draw, n_monos=3):
    p = draw(st.sampled_from([3, 5]))
    gens = []
    n_ext = draw(st.integers(0, 2))
    n_poly = draw(st.integers(0, 1))
    n_div = draw(st.integers(0, 1))
    for i in range(n_ext):
        gens.append(exterior(f"y{i}", draw(st.sampled_from([1, 3, 5]))))
    for i in range(n_poly):
        gens.append(polynomial(f"x{i}", draw(st.sampled_from([2, 4, 6]))))
    for i in range(n_div):
        gens.append(divided(f"g{i}", draw(st.sampled_from([2, 4]))))
    spec = make_algebra(p, gens)
    monos = []
    for _ in range(n_monos):
        exps = []
        for g in spec.generators:
            if g.kind == "exterior":
                exps.append(draw(st.integers(0, 1)))
            else:
                exps.append(draw(small_monos))
        monos.append(tuple(exps))
    return spec, monos


@given(spec_and_monos())
def test_multiplication_associative(sm):
    spec, (m1, m2, m3) = sm
    a, b, c = {m1: 1}, {m2: 1}, {m3: 1}
    left = spec.mul_dicts(spec.mul_dicts(a, b), c)
    right = spec.mul_dicts(a, spec.mul_dicts(b, c))
    assert left == right


@given(spec_and_monos(n_monos=2))
def test_multiplication_graded_commutative(sm):
    spec, (m1, m2) = sm
    a, b = {m1: 1}, {m2: 1}
    parity1, parity2 = (spec.total_degree_of(m) % 2 for m in (m1, m2))
    sign = (-1) ** (parity1 * parity2)
    assert spec.mul_dicts(a, b) == spec.scale_dict(sign, spec.mul_dicts(b, a))


@given(st.sampled_from([3, 5, 7]), st.sampled_from([2, 4, 6]))
@settings(max_examples=20)
def test_divided_power_factorization(p, d):
    # Gamma(y) has the dims of a tensor of height-p truncated algebras on
    # gamma_{p^i}(y), and the corresponding monomial products are nonzero.
    cap = 40
    gamma = make_algebra(p, [divided("g", d)])
    gens = []
    i = 0
    while d * p**i <= cap:
        gens.append(truncated(f"t{i}", d * p**i, p))
        i += 1
    trunc = make_algebra(p, gens)
    assert hilbert(gamma, cap) == hilbert(trunc, cap)
    # gamma_{p^i}^{e_i} multiplies out to a unit times gamma_k, k = sum e_i p^i
    k = 0
    acc = {gamma.unit: 1}
    for i, e in enumerate([1, p - 1]):
        if d * (k + e * p**i) > cap:
            break
        for _ in range(e):
            acc = gamma.mul_dicts(acc, {(p**i,): 1})
            k += p**i
    assert list(acc.keys()) == [(k,)]
    assert acc[(k,)] % p != 0


@given(st.sampled_from([3, 5]), st.integers(2, 6))
@settings(max_examples=20)
def test_truncated_height_p_kills_pth_powers(p, half_d):
    spec = make_algebra(p, [truncated("x", 2 * half_d, p), exterior("y", 3)])
    x = spec.dict_from_input([(1, {"x": 1})])
    y = spec.dict_from_input([(1, {"y": 1})])
    s = spec.add_dicts(x, spec.dict_from_input([(2, {"x": 1})]))  # 3x, still truncated
    power = {spec.unit: 1}
    for _ in range(p):
        power = spec.mul_dicts(power, s)
    assert power == {}
    assert spec.mul_dicts(y, y) == {}


def _left_to_right_image(src_alg, target, images, mono):
    """Image of a monomial as the plain product over its slots, left to
    right, every exponent multiplied out from the unit (no sharing)."""
    p = target.field.p
    acc = {target.unit: 1}
    for i, e in enumerate(mono):
        g = src_alg.generators[i]
        if e and g.kind == "divided":
            terms = target.dict_from_input(images[g.name])  # c * gamma_1, or zero
            acc = {} if not terms else target.mul_dicts(
                acc, {tuple(e * x for x in m): pow(c, e, p) for m, c in terms.items()})
        else:
            for _ in range(e):
                acc = target.mul_dicts(acc, target.dict_from_input(images[g.name]))
    return acc


@given(st.sampled_from([3, 5]), st.data())
@settings(max_examples=25, deadline=None)
def test_algebra_map_memo_matches_left_to_right_products(p, data):
    src_alg = make_algebra(p, [polynomial("X", 2), exterior("Y", 3),
                               truncated("Z", 4, 3), divided("G", 2)])
    target = make_algebra(p, [polynomial("a", 2), exterior("b", 1), exterior("e", 3),
                              divided("c", 2), truncated("h", 2, p)])
    by_degree = target.basis_by_degree(4)
    coeff = st.integers(0, p - 1)
    images = {
        name: {m: data.draw(coeff) for m in by_degree[deg]}
        for name, deg in (("X", 2), ("Y", 3), ("Z", 4))
    }
    images["G"] = [(data.draw(st.integers(0, p - 1)), {"c": 1})]
    image_of_mono, _ = algebra_map(src_alg, target, images)
    monos = data.draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 1),
                                         st.integers(0, 2), st.integers(0, 2 * p)),
                               min_size=1, max_size=8))
    for mono in monos:  # in drawn order, so later ones reuse earlier products
        assert image_of_mono(mono) == _left_to_right_image(src_alg, target, images, mono)


def _per_slot_derivation(alg, sigma, mono):
    """Reference Leibniz rule: the sum over slots i of
    (-1)^|prefix| e_i * prefix * sigma(x_i) * x_i^(e_i - 1) * suffix,
    with sigma given as one image per generator."""
    p = alg.field.p
    out = {}
    prefix_parity = 0
    for i, g in enumerate(alg.generators):
        e = mono[i]
        if e == 0:
            continue
        if sigma[i]:
            before = mono[:i] + (0,) * (len(mono) - i)
            after = (0,) * (i + 1) + mono[i + 1 :]
            after = after[:i] + (e - 1,) + after[i + 1 :]
            term = alg.mul_dicts({before: 1}, sigma[i])
            term = alg.mul_dicts(term, {after: 1})
            coeff = (e % p) * (-1 if prefix_parity else 1)
            out = alg.add_dicts(out, alg.scale_dict(coeff, term))
        prefix_parity = (prefix_parity + e * g.total_degree) % 2
    return out


@st.composite
def algebra_with_derivation(draw):
    """A random polynomial/exterior/truncated algebra with arbitrary degree +1
    generator images.  It starts with a truncated x of degree 2 and an
    exterior e of degree 3, so sigma(x) = c*e + ... often breaks x^h = 0
    (h * x^(h-1) * sigma(x) != 0), which check_derivation would report."""
    p = draw(st.sampled_from([3, 5]))
    gens = [truncated("x", 2, draw(st.integers(2, p + 1))), exterior("e", 3)]
    for i in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["polynomial", "exterior", "truncated"]))
        if kind == "exterior":
            gens.append(exterior(f"g{i}", draw(st.sampled_from([1, 3]))))
        elif kind == "polynomial":
            gens.append(polynomial(f"g{i}", draw(st.sampled_from([2, 4]))))
        else:
            degree = draw(st.sampled_from([2, 4]))
            gens.append(truncated(f"g{i}", degree, draw(st.integers(2, p + 1))))
    alg = make_algebra(p, gens)
    by_degree = alg.basis_by_degree(5)
    sigma = [
        {m: c for m in by_degree[g.total_degree + 1] if (c := draw(st.integers(0, p - 1)))}
        for g in gens
    ]
    return alg, sigma


def _evaluated(spec, evaluate, monos):
    """The terms that a leibniz evaluator gives on the rows of monos, summed
    per monomial in plain dicts; every term it gives must be nonzero."""
    p = spec.field.p
    mat = np.array(monos, dtype=np.int64).reshape(len(monos), len(spec.generators))
    owner, exps, coeff = evaluate(mat)
    assert coeff.min(initial=1) > 0 and coeff.max(initial=0) < p
    out = [{} for _ in monos]
    for i, m, c in zip(owner.tolist(), map(tuple, exps.tolist()), coeff.tolist()):
        out[i][m] = (out[i].get(m, 0) + c) % p
    return [{m: c for m, c in img.items() if c} for img in out]


@given(algebra_with_derivation(), st.data())
@settings(max_examples=60, deadline=None)
def test_leibniz_matches_per_slot_formula_and_linear_matches_fold(alg_sigma, data):
    alg, sigma = alg_sigma
    n = len(alg.generators)
    atoms = {tuple(int(j == i) for j in range(n)): img for i, img in enumerate(sigma)}
    table = alg.basis_by_degree(8)
    basis = [m for n in range(9) for m in table[n]]
    for mono, img in zip(basis, _evaluated(alg, leibniz(alg, atoms), basis)):
        assert img == _per_slot_derivation(alg, sigma, mono), alg.format_mono(mono)

    # linear against the fold of the per-slot formula over an element's
    # terms, and leibniz_extension on several elements at once against the
    # same folds; coefficients are drawn unreduced, negative ones included
    p = alg.field.p
    elts = [{m: data.draw(st.integers(-p, 2 * p)) for m in data.draw(
        st.lists(st.sampled_from(basis), max_size=6, unique=True))} for _ in range(3)]
    folds = []
    for elt in elts:
        fold = {}
        for m, c in elt.items():
            fold = alg.add_dicts(fold, alg.scale_dict(c, _per_slot_derivation(alg, sigma, m)))
        assert alg.linear(lambda m: _per_slot_derivation(alg, sigma, m), elt) == fold
        folds.append(fold)
    sigma_ext = leibniz_extension(alg, DerivationSpec(
        {g.name: img for g, img in zip(alg.generators, sigma)}))
    assert sigma_ext(elts) == folds


# -- the Koszul sign of mono_mul against the per-slot formula -------------------------


def mono_mul_reference(spec, m1, m2):
    """mono_mul with its sign counted slot by slot: each odd slot of m2 sums
    m1 over every later odd slot again."""
    p = spec.field.p
    odd_slots = tuple(i for i, g in enumerate(spec.generators) if g.is_odd)
    swaps = 0
    for pos, j in enumerate(odd_slots):
        if m2[j]:
            swaps += m2[j] * sum(m1[i] for i in odd_slots[pos + 1:])
    coeff = p - 1 if swaps % 2 else 1
    exps = list(m1)
    for i, g in enumerate(spec.generators):
        e2 = m2[i]
        if e2 == 0:
            continue
        e = exps[i] + e2
        if g.kind == "exterior" and e > 1:
            return None
        if g.kind == "truncated" and e >= g.height:
            return None
        if g.kind == "divided" and exps[i]:
            c = math.comb(e, e2) % p
            if c == 0:
                return None
            coeff = coeff * c % p
        exps[i] = e
    return coeff, tuple(exps)


def random_mono(spec, rng, top_free=5):
    out = []
    for g in spec.generators:
        top = 1 if g.kind == "exterior" else g.height - 1 if g.kind == "truncated" else top_free
        out.append(rng.randint(0, top))
    return tuple(out)


@st.composite
def mixed_spec(draw):
    """Exterior, polynomial, truncated and divided generators, some with
    filtration, in shuffled slot order."""
    p = draw(st.sampled_from([3, 5, 7]))
    gens = []
    for i in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(["exterior", "polynomial", "truncated", "divided"]))
        filtration = draw(st.integers(0, 1))
        degree = 2 * draw(st.integers(1, 4)) - filtration + (kind == "exterior")
        height = draw(st.integers(2, p)) if kind == "truncated" else None
        gens.append(Generator(f"{kind[0]}{i}", degree, kind, height, filtration))
    return make_algebra(p, draw(st.permutations(gens)))


@given(mixed_spec(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_mono_mul_sign_matches_the_per_slot_count(spec, rng):
    for _ in range(40):
        m1, m2 = random_mono(spec, rng), random_mono(spec, rng)
        assert spec.mono_mul(m1, m2) == mono_mul_reference(spec, m1, m2)


@given(mixed_spec(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_mul_rows_matches_mono_mul_row_by_row(spec, rng):
    # divided and polynomial exponents up to 3p, so divided binomials that
    # vanish mod p (a carry in base p) occur in most draws
    p, n = spec.field.p, len(spec.generators)
    pairs = [(random_mono(spec, rng, 3 * p), random_mono(spec, rng, 3 * p)) for _ in range(40)]
    A, B = (np.array([pair[k] for pair in pairs], dtype=np.int64).reshape(40, n) for k in (0, 1))
    coeff, exps = spec.mul_rows(A, B)
    for (m1, m2), c, e in zip(pairs, coeff.tolist(), exps.tolist()):
        want = spec.mono_mul(m1, m2)
        assert (c, tuple(e)) == want if want is not None else c == 0


def test_mul_rows_on_vanishing_binomials_signs_and_truncations():
    spec = make_algebra(3, [divided("g", 2), exterior("x", 1), truncated("u", 2, 3),
                            exterior("y", 3), divided("h", 4)])
    rows = [((1, 0, 0, 0, 0), (2, 0, 0, 0, 0)),  # binom(3, 2) = 0 mod 3
            ((3, 0, 0, 0, 3), (3, 0, 0, 0, 1)),  # binom(6, 3) = 2, binom(4, 1) = 1
            ((0, 0, 0, 1, 0), (0, 1, 0, 0, 0)),  # y * x = -x * y
            ((0, 1, 0, 1, 0), (0, 0, 1, 0, 0)),
            ((0, 0, 2, 0, 0), (0, 0, 1, 0, 0)),  # u^3 = 0
            ((0, 1, 0, 0, 0), (0, 1, 0, 0, 0)),  # x^2 = 0
            ((0, 0, 0, 0, 0), (0, 0, 0, 0, 0))]
    coeff, exps = spec.mul_rows(*(np.array([r[k] for r in rows], dtype=np.int64) for k in (0, 1)))
    assert coeff.tolist() == [0, 2, 2, 1, 0, 0, 1]
    for (m1, m2), c, e in zip(rows, coeff.tolist(), exps.tolist()):
        want = spec.mono_mul(m1, m2)
        assert (c, tuple(e)) == want if want is not None else c == 0
    empty = np.zeros((0, 5), dtype=np.int64)
    assert [a.shape for a in spec.mul_rows(empty, empty)] == [(0,), (0, 5)]


def test_mono_mul_on_theta_p5_matches_the_per_slot_count():
    spec = make_theta(5, extra_generators=(exterior("l1", 9),)).algebra
    assert sum(g.is_odd for g in spec.generators) == 6
    rng = random.Random(5)
    signs = set()
    for _ in range(3000):
        m1, m2 = random_mono(spec, rng), random_mono(spec, rng)
        got = spec.mono_mul(m1, m2)
        assert got == mono_mul_reference(spec, m1, m2)
        if got is not None:
            signs.add(got[0])
    assert signs == {1, 4}  # both Koszul signs occur


# -- the factorwise Leibniz extension against the whole-monomial peel -------------------


def _peel_leibniz(spec, atoms):
    """Reference Leibniz extension: peel the first atom a of the whole
    monomial, a * rest = beta * mono, and set
    d(mono) = (d(a) rest + (-1)^|a| a d(rest)) / beta, memoised by monomial."""
    p = spec.field.p
    gens = spec.generators
    memo = {}

    def lowest_power(k):
        power = 1
        while k % (power * p) == 0:
            power *= p
        return power

    def is_atom(mono):
        slots = [i for i, e in enumerate(mono) if e]
        if len(slots) != 1:
            return not slots
        e = mono[slots[0]]
        return e == lowest_power(e) if gens[slots[0]].kind == "divided" else e == 1

    def of_mono(mono):
        if mono in memo:
            return memo[mono]
        if is_atom(mono):
            return memo.setdefault(mono, atoms.get(mono, {}))
        i = next(j for j, e in enumerate(mono) if e)
        power = lowest_power(mono[i]) if gens[i].kind == "divided" else 1
        beta = math.comb(mono[i], power) % p if gens[i].kind == "divided" else 1
        atom = tuple(power if j == i else 0 for j in range(len(mono)))
        rest = tuple(e - power if j == i else e for j, e in enumerate(mono))
        left = spec.mul_dicts(atoms.get(atom, {}), {rest: 1})
        right = spec.mul_dicts({atom: 1}, of_mono(rest))
        sign = -1 if spec.total_degree_of(atom) % 2 else 1
        val = spec.add_dicts(left, spec.scale_dict(sign, right))
        memo[mono] = spec.scale_dict(pow(beta, -1, p), val)
        return memo[mono]

    return of_mono


@st.composite
def atoms_on_mixed_slots(draw):
    """Polynomial, exterior, truncated and divided slots in shuffled order at
    p = 3 or 5, with random images of degree + 1 on every atom (the single
    generators and the gamma_{p^i}).  A truncated x of degree 2 and an
    exterior e of degree 3 are always there, and d(x) = e, when drawn, leaves
    the truncation residual h x^(h-1) e nonzero, so the rules often define no
    derivation."""
    p = draw(st.sampled_from([3, 5]))
    gens = [truncated("x", 2, draw(st.integers(2, p + 1))), exterior("e", 3),
            exterior("f", 1), divided("g", draw(st.sampled_from([2, 4])))]
    for i in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["polynomial", "exterior", "truncated", "divided"]))
        if kind == "exterior":
            gens.append(exterior(f"y{i}", draw(st.sampled_from([1, 3]))))
        elif kind == "truncated":
            gens.append(truncated(f"y{i}", draw(st.sampled_from([2, 4])),
                                  draw(st.integers(2, p + 1))))
        else:
            gens.append(Generator(f"y{i}", draw(st.sampled_from([2, 4])), kind))
    spec = make_algebra(p, draw(st.permutations(gens)))
    cap = 10
    by_degree = spec.basis_by_degree(cap + 1)
    atoms = {}
    for i, g in enumerate(spec.generators):
        power = 1
        while power * g.total_degree <= cap:
            mono = tuple(power if j == i else 0 for j in range(len(gens)))
            atoms[mono] = {m: c for m in by_degree[power * g.total_degree + 1]
                           if (c := draw(st.integers(0, p - 1)))}
            if g.kind != "divided":
                break
            power *= p
    return spec, atoms, cap


@given(atoms_on_mixed_slots())
@settings(max_examples=80, deadline=None)
def test_factorwise_leibniz_equals_the_whole_monomial_peel(case):
    spec, atoms, cap = case
    reference = _peel_leibniz(spec, atoms)
    table = spec.basis_by_degree(cap)
    monos = [m for n in range(cap + 1) for m in table[n]]
    for mono, img in zip(monos, _evaluated(spec, leibniz(spec, atoms), monos)):
        assert img == reference(mono), spec.format_mono(mono)


def test_factorwise_leibniz_equals_the_peel_where_a_truncation_breaks_it():
    # x truncated of height 3 at p = 5 with d(x) = e: h x^2 e = 3 x^2 e != 0,
    # so the extension is no derivation, and both orders still agree
    spec = make_algebra(5, [exterior("e", 3), truncated("x", 2, 3), divided("g", 2)])
    atoms = {(0, 1, 0): {(1, 0, 0): 1}, (0, 0, 1): {(1, 0, 0): 2},
             (0, 0, 5): {(1, 0, 4): 1}}
    assert truncation_residuals(spec, leibniz(spec, atoms)) == {1: {(1, 2, 0): 3}}
    reference = _peel_leibniz(spec, atoms)
    table = spec.basis_by_degree(16)
    monos = [m for n in range(17) for m in table[n]]
    assert any(m[2] >= 5 for m in monos)
    for mono, img in zip(monos, _evaluated(spec, leibniz(spec, atoms), monos)):
        assert img == reference(mono), spec.format_mono(mono)


# -- check_morphism on monomial maps against the per-degree map_rank --------------------


def map_rank_rows(source, target, images, cap):
    """The DegreeRank rows of check_morphism's per-degree map_rank path."""
    image_of_mono, _ = algebra_map(source, target, images)
    sb, tb = source.basis_by_degree(cap), target.basis_by_degree(cap)
    return tuple(DegreeRank(n, len(sb[n]), len(tb[n]),
                            map_rank(target.field, sb[n], {m: i for i, m in enumerate(tb[n])},
                                     image_of_mono))
                 for n in range(cap + 1))


@st.composite
def monomial_maps(draw):
    """A random target algebra and a source whose generators each go to a
    unit times one target monomial or to zero: exterior sources onto odd
    monomials, polynomial and truncated ones onto even monomials (powers
    overflow exterior and truncated slots), divided sources onto gamma_1 of
    a divided slot, which a polynomial source may share."""
    p = draw(st.sampled_from([3, 5, 7]))
    target = make_algebra(p, draw(st.permutations([
        exterior("a", 1), exterior("b", 3), truncated("u", 2, draw(st.integers(2, p + 1))),
        polynomial("k", 4), divided("g", 2)])))
    monos = [m for n in range(1, 9) for m in target.basis_by_degree(8)[n]]
    gamma1 = target.mono_from_names({"g": 1})
    gens, images = [], {}
    for i in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["image", "image", "gamma", "zero"]))
        if kind == "gamma":
            gens.append(draw(st.sampled_from([divided, polynomial]))(f"s{i}", 2))
            images[f"s{i}"] = {gamma1: draw(st.integers(1, p - 1))}
            continue
        m = draw(st.sampled_from(monos))
        degree = target.total_degree_of(m)
        if degree % 2:
            gens.append(exterior(f"s{i}", degree))
        elif draw(st.booleans()):
            gens.append(polynomial(f"s{i}", degree))
        else:
            gens.append(truncated(f"s{i}", degree, draw(st.integers(2, p + 1))))
        images[f"s{i}"] = {} if kind == "zero" else {m: draw(st.integers(1, p - 1))}
    return make_algebra(p, draw(st.permutations(gens))), target, images, draw(st.integers(0, 24))


@given(monomial_maps())
@settings(max_examples=80, deadline=None)
def test_check_morphism_on_monomial_maps_matches_map_rank(case):
    source, target, images, cap = case
    assert check_morphism(source, target, images, cap).degrees == \
        map_rank_rows(source, target, images, cap)


def test_check_morphism_counts_two_factors_in_one_divided_slot():
    # x -> gamma_1 and the divided y -> gamma_1: x^a y^(b) -> binom(a+b, a) a! gamma_(a+b),
    # zero from a = p on and wherever a + b carries in base p
    target = make_algebra(3, [divided("g", 2)])
    source = make_algebra(3, [polynomial("x", 2), divided("y", 2)])
    images = {"x": [(1, {"g": 1})], "y": [(2, {"g": 1})]}
    report = check_morphism(source, target, images, 16)
    assert report.degrees == map_rank_rows(source, target, images, 16)
    assert [r.rank for r in report.degrees[::2]] == [1, 1, 1, 1, 1, 1, 1, 1, 1]
    assert not report.injective and report.surjective
