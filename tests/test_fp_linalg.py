import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thhlab.fp_linalg import (
    CompositionNonzero,
    DimensionMismatch,
    FpMatrix,
    PrimeField,
    homology_dim,
    map_matrix,
    map_rank,
    solve,
    span_contains,
    sparse_homology,
    spans_equal,
    support_components,
)
from thhlab.graded_algebra import exterior, make_algebra

F3 = PrimeField(3)
F5 = PrimeField(5)

odd_primes = st.sampled_from([3, 5, 7])


def mat(field, rows):
    return FpMatrix(field, np.array(rows, dtype=np.int64))


def zeros(field, nrows, ncols):
    return FpMatrix(field, np.zeros((nrows, ncols), dtype=np.int64))


@st.composite
def fp_matrices(st_draw, max_rows=5, max_cols=5):
    p = st_draw(odd_primes)
    m = st_draw(st.integers(0, max_rows))
    n = st_draw(st.integers(0, max_cols))
    entries = st_draw(
        st.lists(st.integers(-3 * p, 3 * p), min_size=m * n, max_size=m * n)
    )
    data = np.array(entries, dtype=np.int64).reshape(m, n)
    return FpMatrix(PrimeField(p), data)


def test_field_rejects_two_and_composites():
    for bad in (2, 1, 0, -3, 4, 9, 15):
        with pytest.raises(ValueError):
            PrimeField(bad)


def test_rank_frozen_examples():
    assert mat(F5, [[1, 2], [2, 4]]).rank() == 1
    assert FpMatrix(F3, np.eye(2, dtype=np.int64)).rank() == 2
    assert zeros(F3, 3, 4).rank() == 0


def test_rref_normalizes_pivots():
    A = mat(F5, [[2, 4], [1, 3]])
    R, pivots = A.rref()
    assert pivots == (0, 1)
    assert np.array_equal(R.data, np.eye(2, dtype=np.int64))


def test_from_columns():
    A = FpMatrix.from_columns(F3, 3, [{0: 1, 2: -1}, {1: 4}])
    assert np.array_equal(A.data, np.array([[1, 0], [0, 1], [2, 0]]))


def test_map_matrix_places_images_by_target_index():
    # d(a) = b - c, d(b) = 4c, on target basis (c, b)
    images = {"a": {"b": 1, "c": -1}, "b": {"c": 4}}
    A = map_matrix(F3, ["a", "b"], {"c": 0, "b": 1}, images.get)
    assert np.array_equal(A.data, np.array([[2, 1], [1, 0]]))
    assert map_matrix(F3, [], {"c": 0}, images.get).shape == (1, 0)


# -- sparse ranks and composites against a dense reference ---------------------------


@st.composite
def sparse_maps(draw, p, source=None):
    """A map on a basis as sparse images {target key: coefficient}.  Keys are
    one-tuples on both sides, so a source key often equals a target key, and
    coefficients hit multiples of p."""
    if source is None:
        source = [(i,) for i in range(draw(st.integers(0, 6)))]
    target = draw(st.permutations([(j,) for j in range(draw(st.integers(0, 6)))]))
    images = {}
    for s in source:
        keys = draw(st.lists(st.sampled_from(target), max_size=3, unique=True)) if target else []
        images[s] = {k: draw(st.integers(-2 * p, 2 * p)) for k in keys}
    return source, {k: i for i, k in enumerate(target)}, images


@settings(max_examples=300)
@given(st.data())
def test_map_rank_matches_the_dense_rank(data):
    p = data.draw(odd_primes)
    field = PrimeField(p)
    source, index, images = data.draw(sparse_maps(p))
    dense = map_matrix(field, source, index, images.__getitem__).rank()
    assert map_rank(field, source, index, images.__getitem__) == dense


@pytest.mark.parametrize("p", [3, 5, 7])
def test_map_rank_frozen_maps(p):
    field = PrimeField(p)
    keys = [(0,), (1,), (2,)]
    index = {k: i for i, k in enumerate(keys)}

    def rank(images, source=keys, target=index):
        image = lambda s: images.get(s, {})
        got = map_rank(field, source, target, image)
        assert got == map_matrix(field, source, target, image).rank()
        return got

    # the identity: every source key equals its target key
    assert rank({k: {k: 1} for k in keys}) == 3
    # a multiple of p is no entry, so it does not count as a rank-1 component
    assert rank({(0,): {(0,): p}, (1,): {(1,): -2 * p}}) == 0
    # components with several entries: rank 1 and rank 2
    assert rank({(0,): {(0,): 1, (1,): 1}, (1,): {(0,): 2, (1,): 2}}) == 1
    assert rank({(0,): {(0,): 1, (1,): 1}, (1,): {(1,): 1, (2,): 1}}) == 2
    # empty source, empty target, and a map into the zero space
    assert rank({}, source=[]) == 0
    assert rank({}, target={}) == 0
    assert rank({(0,): {}}, source=[(0,)], target={}) == 0


def test_map_rank_rejects_an_image_outside_the_target():
    images = {"a": {"b": 1}, "b": {"z": 0}}
    for build in (map_matrix, map_rank):
        with pytest.raises(KeyError):
            build(F3, ["a", "b"], {"b": 0}, images.get)


def test_support_components_join_keys_through_entries():
    comps = support_components({"a": {"x": 1}, "b": {"x": 2, "y": 1}, "c": {"z": 1}})
    assert sorted(map(sorted, comps)) == [["a", "b", "x", "y"], ["c", "z"]]
    assert support_components({}) == []


@st.composite
def graded_sparse_maps(draw):
    """A sparse map of degree -1 on keys (grade, i) in grades 0..3, drawn in a
    shuffled order.  Images of one or two keys make larger components that
    share grades beside one-entry ones, and grades 1 and 2 hold keys without
    an image that boundaries from the grade above hit.  d.d need not vanish."""
    p = draw(odd_primes)
    grades = [[(g, i) for i in range(draw(st.integers(0, 8)))] for g in range(4)]
    d = {}
    for g in range(1, 4):
        sources = st.lists(st.sampled_from(grades[g]), min_size=len(grades[g]) // 2, unique=True)
        for a in draw(sources) if grades[g] else []:
            img = draw(st.lists(st.sampled_from(grades[g - 1]), min_size=1, max_size=2,
                                unique=True)) if grades[g - 1] else []
            d[a] = {b: draw(st.integers(1, p - 1)) for b in img}
    return PrimeField(p), dict(draw(st.permutations(list(d.items())))), grades


@settings(max_examples=150)
@given(graded_sparse_maps())
def test_sparse_homology_matches_a_dense_reference_per_grade(drawn):
    # per grade: the rank of d out of it, and as survivors the cycles whose
    # unit columns are pivots of [boundaries into the grade | unit columns]
    field, d, grades = drawn
    image = lambda k: d.get(k, {})
    index = [{k: i for i, k in enumerate(keys)} for keys in grades]
    rank, survivors = {}, set()
    for g, keys in enumerate(grades):
        out = map_matrix(field, keys, index[g - 1], image).rank() if g else 0
        if out:
            rank[g] = out
        inward = grades[g + 1] if g + 1 < len(grades) else []
        cycles = [k for k in keys if not image(k)]
        _, pivots = map_matrix(field, inward + cycles, index[g],
                               lambda k: {k: 1} if k[0] == g else image(k)).rref()
        survivors |= {cycles[c - len(inward)] for c in pivots if c >= len(inward)}
    got_rank, dead = sparse_homology(field, d, lambda k: k[0])
    assert got_rank == rank
    assert {k for keys in grades for k in keys} - dead == survivors


def test_sparse_homology_frozen_cases():
    grade = {"a": 0, "b": 1, "c": 1, "x": 2, "y": 2}.__getitem__
    # two keys mapping to each other are two entries, one rank in each grade
    assert sparse_homology(F3, {"a": {"b": 1}, "b": {"a": 2}}, grade) == ({0: 1, 1: 1}, {"a", "b"})
    # a key mapping to itself; a key in no entry survives
    assert sparse_homology(F3, {"a": {"a": 2}, "c": {}}, grade) == ({0: 1}, {"a"})
    # x and y hit b + c and b - c: rank 2, and neither cycle survives
    assert sparse_homology(F5, {"x": {"b": 1, "c": 1}, "y": {"b": 1, "c": 4}}, grade) \
        == ({2: 2}, {"x", "y", "b", "c"})
    # x hits b + c: c is in the span of the boundary and b, so b survives
    assert sparse_homology(F5, {"x": {"b": 1, "c": 1}}, grade) == ({2: 1}, {"x", "c"})


@settings(max_examples=200)
@given(st.data())
def test_sparse_composite_matches_the_dense_product(data):
    p = data.draw(odd_primes)
    field = PrimeField(p)
    x, y_index, f = data.draw(sparse_maps(p))
    y = list(y_index)
    _, z_index, g = data.draw(sparse_maps(p, source=y))
    linear = make_algebra(p, [exterior("e", 1)]).linear
    F = map_matrix(field, x, y_index, f.__getitem__).data
    G = map_matrix(field, y, z_index, g.__getitem__).data
    product = (G @ F) % p  # entries below p, so int64 is exact
    for j, s in enumerate(x):
        col = linear(g.__getitem__, f[s])
        assert all(c % p for c in col.values())
        assert {k: c % p for k, c in col.items()} == {
            k: int(product[i, j]) for k, i in z_index.items() if product[i, j]
        }


def test_matmul_shape_check():
    with pytest.raises(DimensionMismatch):
        zeros(F3, 2, 3) @ zeros(F3, 2, 3)
    with pytest.raises(DimensionMismatch):
        zeros(F3, 2, 2) @ zeros(F5, 2, 2)


def test_homology_dim_small_complex():
    # F_3 --0--> F_3^2 --[1 2]--> F_3 has one-dimensional middle homology.
    d_in = zeros(F3, 2, 1)
    d_out = mat(F3, [[1, 2]])
    assert homology_dim(d_in, d_out) == 1


def test_homology_dim_rejects_nonzero_composition():
    d_in = mat(F3, [[1], [0]])
    d_out = mat(F3, [[1, 0]])
    with pytest.raises(CompositionNonzero):
        homology_dim(d_in, d_out)


def test_homology_dim_rejects_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        homology_dim(zeros(F3, 2, 1), zeros(F3, 1, 3))


def test_solve_inconsistent_returns_none():
    A = mat(F5, [[1, 2], [2, 4]])
    assert solve(A, [1, 0]) is None
    assert solve(A, [1, 2]) is not None


def test_span_helpers_frozen():
    A = mat(F5, [[1, 0], [0, 1]])
    B = mat(F5, [[2, 3]])
    assert span_contains(A, B)
    assert not span_contains(B, A)
    assert spans_equal(B, mat(F5, [[4, 6]]))
    with pytest.raises(DimensionMismatch):
        spans_equal(A, mat(F5, [[1, 0, 0]]))


@given(fp_matrices())
def test_rref_is_idempotent(A):
    R, pivots = A.rref()
    R2, pivots2 = R.rref()
    assert pivots == pivots2
    assert np.array_equal(R.data, R2.data)


@given(fp_matrices(), st.randoms(use_true_random=False))
def test_rank_invariant_under_row_permutation(A, rng):
    perm = list(range(A.shape[0]))
    rng.shuffle(perm)
    B = FpMatrix(A.field, A.data[perm])
    assert A.rank() == B.rank()


@given(fp_matrices())
def test_kernel_rows_annihilate(A):
    K = A.kernel()
    assert K.shape[0] + A.rank() == A.shape[1]
    if K.shape[0]:
        assert (A @ FpMatrix(A.field, K.data.T)).is_zero()


@given(fp_matrices())
def test_homology_of_zero_maps_is_full_dimension(A):
    n = A.shape[1]
    d_in = zeros(A.field, n, 2)
    d_out = zeros(A.field, 3, n)
    assert homology_dim(d_in, d_out) == n


@settings(max_examples=50)
@given(fp_matrices())
def test_homology_nonnegative_on_true_complexes(A):
    # Feed ker(A) back in as the incoming map: composition is zero by
    # construction and the middle homology must be nonnegative.
    K = A.kernel()
    d_in = FpMatrix(A.field, K.data.T)
    assert homology_dim(d_in, A) >= 0


@given(fp_matrices(max_rows=4, max_cols=4), st.data())
def test_solve_recovers_constructed_solutions(A, data):
    n = A.shape[1]
    x = np.array(
        data.draw(st.lists(st.integers(0, A.field.p - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    b = (A.data @ x) % A.field.p
    got = solve(A, b)
    assert got is not None
    assert np.array_equal((A.data @ got) % A.field.p, b)


@given(fp_matrices(), odd_primes)
def test_span_invariant_under_scaling(A, c):
    if A.shape[0] == 0:
        return
    scaled = FpMatrix(A.field, A.data * (1 + c))  # 1 + c is nonzero mod p for c < p
    if (1 + c) % A.field.p != 0:
        assert spans_equal(A, scaled)


# -- the int64 range -----------------------------------------------------------------

P_TOP = 2**31 - 1  # the largest prime the field accepts
F_TOP = PrimeField(P_TOP)


def test_field_rejects_primes_past_the_int64_bound():
    with pytest.raises(ValueError, match="2\\^31"):
        PrimeField(1099511627791)


def test_matmul_exact_at_the_bound():
    a = FpMatrix(F_TOP, [[P_TOP - 1] * 4])
    b = FpMatrix(F_TOP, [[P_TOP - 1]] * 4)
    assert (a @ b).data.tolist() == [[4]]


def test_rank_exact_at_the_bound():
    assert mat(F_TOP, [[1, P_TOP - 1], [P_TOP - 1, 1]]).rank() == 1


@given(st.data())
@settings(max_examples=50)
def test_matmul_matches_python_integers_at_the_bound(data):
    m, k, n = (data.draw(st.integers(1, 4)) for _ in range(3))
    entry = st.integers(0, P_TOP - 1)
    a = [[data.draw(entry) for _ in range(k)] for _ in range(m)]
    b = [[data.draw(entry) for _ in range(n)] for _ in range(k)]
    exact = [
        [sum(a[i][l] * b[l][j] for l in range(k)) % P_TOP for j in range(n)]
        for i in range(m)
    ]
    assert (FpMatrix(F_TOP, a) @ FpMatrix(F_TOP, b)).data.tolist() == exact


# -- the one-pass matching path of support_components against set union -------------


def union_find_components(entries):
    """Reference components: set union with path compression over every entry."""
    root = {}

    def find(k):
        while root[k] != k:
            root[k] = k = root[root[k]]
        return k

    for a, img in entries.items():
        for b in img:
            root[find(root.setdefault(b, b))] = find(root.setdefault(a, a))
    comps = {}
    for k in root:
        comps.setdefault(find(k), []).append(k)
    return list(comps.values())


@settings(max_examples=300)
@given(st.data())
def test_support_components_match_set_union_in_order(data):
    # one-tuple keys shared by sources and targets, images of at most two
    # keys, often one: many draws are matchings, many just miss being one
    keys = [(i,) for i in range(data.draw(st.integers(0, 8)))]
    entries = {}
    for a in data.draw(st.lists(st.sampled_from(keys), unique=True)) if keys else []:
        img = data.draw(st.lists(st.sampled_from(keys), max_size=2, unique=True))
        entries[a] = {b: 1 for b in img}
    assert support_components(entries) == union_find_components(entries)


@pytest.mark.parametrize("entries", [
    {"a": {"x": 1}, "b": {"y": 2}, "c": {}},  # a matching, with an empty image
    {"a": {"x": 1}, "b": {"x": 2}},  # a repeated target
    {"a": {"x": 1}, "x": {"y": 1}},  # a target that is also a source
    {"a": {"b": 1}, "c": {"a": 1}},  # a source hit after its own entry
    {"a": {"a": 1}},  # a key mapping to itself
    {"a": {"x": 1}, "b": {"y": 1, "z": 1}},  # an image of two keys
    {"a": {}, "b": {}},  # empty images only
])
def test_support_components_edge_cases_match_set_union(entries):
    assert support_components(entries) == union_find_components(entries)


@pytest.mark.parametrize("p", [3, 5])
def test_map_rank_on_matchings_and_near_matchings(p):
    field = PrimeField(p)
    keys = [(i,) for i in range(4)]
    index = {k: i for i, k in enumerate(keys)}
    cases = [
        {(0,): {(1,): 1}, (1,): {(2,): 2}, (2,): {}},  # source keys equal target keys
        {(0,): {(1,): 1}, (1,): {(1,): 1}},  # a repeated target: rank 1
        {(0,): {(1,): 1, (2,): p}, (1,): {(2,): 1}},  # p * (2,) drops, then a matching
        {(0,): {(1,): 2 * p}, (1,): {}, (2,): {}},  # every image vanishes mod p
    ]
    for images in cases:
        image = lambda s: images.get(s, {})
        dense = map_matrix(field, keys, index, image).rank()
        assert map_rank(field, keys, index, image) == dense
    assert [map_rank(field, keys, index, lambda s, im=im: im.get(s, {})) for im in cases] \
        == [2, 1, 2, 0]
    with pytest.raises(KeyError):  # off the target, even on a matching
        map_rank(field, keys, index, lambda s: {(9,): 1} if s == (2,) else {})
