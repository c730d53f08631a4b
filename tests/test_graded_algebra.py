import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thhlab.fp_linalg import PrimeField
from thhlab.graded_algebra import (
    AlgebraSpec,
    DegreeMismatch,
    DuplicateName,
    MixedSpec,
    ParityViolation,
    UnsupportedKind,
    add,
    algebra_map,
    bigraded_dims,
    check_morphism,
    dims_convolve,
    divided,
    exterior,
    hilbert,
    make_algebra,
    multiply,
    polynomial,
    tensor,
    truncated,
)


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
    other = make_algebra(3, [exterior("l1", 5)])
    x = spec.element([(1, {"l1": 1})])
    y = spec.element([(2, {"m2": 1})])
    assert str(multiply(spec, x, y)) == "2*l1*m2"
    assert add(spec, x, x).terms == {spec.mono_from_names({"l1": 1}): 2}
    with pytest.raises(MixedSpec):
        multiply(spec, x, other.element([(1, {"l1": 1})]))


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
    a = spec.element({m1: 1})
    b = spec.element({m2: 1})
    c = spec.element({m3: 1})
    left = multiply(spec, multiply(spec, a, b), c)
    right = multiply(spec, a, multiply(spec, b, c))
    assert left.terms == right.terms


@given(spec_and_monos(n_monos=2))
def test_multiplication_graded_commutative(sm):
    spec, (m1, m2) = sm
    a = spec.element({m1: 1})
    b = spec.element({m2: 1})
    sign = (-1) ** (spec.parity_of(m1) * spec.parity_of(m2))
    fwd = multiply(spec, a, b)
    rev = multiply(spec, b, a)
    expected = spec.scale_dict(sign, rev.terms)
    assert fwd.terms == expected


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
    x = spec.element([(1, {"x": 1})])
    y = spec.element([(1, {"y": 1})])
    s = add(spec, x, spec.element([(2, {"x": 1})]))  # 3x, still truncated
    power = spec.element({spec.unit: 1})
    for _ in range(p):
        power = multiply(spec, power, s)
    assert power.is_zero()
    assert multiply(spec, y, y).is_zero()


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
