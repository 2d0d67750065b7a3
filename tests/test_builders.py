import random

import pytest

from bicompat.algebra import (
    Endomorphism,
    Product,
    annihilator,
    basis_vector,
    centroid,
    is_associative,
    multiply,
)
from bicompat.builders import (
    BandSpec,
    CyclicQuiverError,
    NotInAnnihilatorError,
    NotInCentroidError,
    QuiverSpec,
    band_id_matching,
    band_swap_matching,
    centroid_product,
    centroid_product_span,
    direct_sum,
    example_3dim,
    example_6dim,
    example_band22,
    matrix_algebra,
    mutation,
    mutation_span,
    path_algebra,
    rectangular_band_algebra,
    zero_algebra,
)
from bicompat.compat import Kind, check, solve_linear
from bicompat.linalg import GF, QQ
from bicompat.suite import builder_zoo, rand_subspace_member, rand_vector


def test_band_tables():
    spec = BandSpec(2, 2)
    alg = rectangular_band_algebra(spec)
    assert alg.labels == ("e11", "e12", "e21", "e22")
    e12, e21 = spec.index(0, 1), spec.index(1, 0)
    out = multiply(alg.dot, basis_vector(QQ, 4, e12), basis_vector(QQ, 4, e21))
    assert out == basis_vector(QQ, 4, spec.index(0, 0))
    one = rectangular_band_algebra(BandSpec(1, 1))
    assert one.dot.coefficient(0, 0, 0) == QQ.one


def test_every_builder_is_associative():
    for field in (QQ, GF(2), GF(5)):
        for alg in builder_zoo(field):
            assert is_associative(alg.dot)
    assert is_associative(path_algebra(QuiverSpec(4, [(0, 1), (1, 2), (1, 3)])).dot)
    assert is_associative(example_6dim()[0].dot)


def test_matrix_algebra_units():
    alg = matrix_algebra(2, QQ)
    # E12 . E21 = E11
    out = multiply(alg.dot, basis_vector(QQ, 4, 1), basis_vector(QQ, 4, 2))
    assert out == basis_vector(QQ, 4, 0)


def test_unit_labels_stay_distinct_past_nine():
    # E1 then 11 and E11 then 1 must not both read "E111"
    assert matrix_algebra(3, QQ).labels[:4] == ("E11", "E12", "E13", "E21")
    assert rectangular_band_algebra(BandSpec(3, 2)).labels[-2:] == ("e31", "e32")
    for alg in (matrix_algebra(11, GF(2)), rectangular_band_algebra(BandSpec(11, 11), GF(2))):
        assert len(set(alg.labels)) == alg.dim == 121
    labels = matrix_algebra(11, GF(2)).labels
    assert (labels[0], labels[10], labels[110], labels[120]) == ("E11", "E1_11", "E11_1", "E11_11")


def test_direct_sum_blocks():
    two = direct_sum([matrix_algebra(1, QQ), matrix_algebra(1, QQ)])
    assert two.dim == 2
    assert multiply(two.dot, [1, 0], [0, 1]) == [QQ.zero, QQ.zero]
    assert multiply(two.dot, [1, 0], [1, 0]) == [QQ.one, QQ.zero]


def test_path_algebra_a3():
    alg = path_algebra(QuiverSpec(3, [(0, 1), (1, 2)]))
    # 3 trivial paths + 2 arrows + their composite
    assert alg.dim == 6
    assert alg.labels == ("e1", "e2", "e3", "a1", "a2", "a1*a2")
    a1 = basis_vector(QQ, 6, alg.index_of("a1"))
    a2 = basis_vector(QQ, 6, alg.index_of("a2"))
    assert multiply(alg.dot, a1, a2) == basis_vector(QQ, 6, alg.index_of("a1*a2"))
    assert multiply(alg.dot, a2, a1) == [QQ.zero] * 6
    e1 = basis_vector(QQ, 6, 0)
    assert multiply(alg.dot, e1, a1) == a1


def test_path_algebra_rejects_cycles():
    with pytest.raises(CyclicQuiverError):
        path_algebra(QuiverSpec(2, [(0, 1), (1, 0)]))


def test_mutation_edge_cases():
    alg = matrix_algebra(2, QQ)
    unit = [1, 0, 0, 1]
    assert mutation(alg.dot, unit) == alg.dot
    assert mutation(alg.dot, [0, 0, 0, 0]) == Product.zero(4, QQ)
    # x = E11: E12 .x E11 = 0 and E21 .x E12 = E22
    mx = mutation(alg.dot, [1, 0, 0, 0])
    assert multiply(mx, basis_vector(QQ, 4, 1), basis_vector(QQ, 4, 0)) == [QQ.zero] * 4
    assert multiply(mx, basis_vector(QQ, 4, 2), basis_vector(QQ, 4, 1)) == basis_vector(QQ, 4, 3)


def test_mutation_random_id_matching():
    rng = random.Random(3)
    for field in (GF(2), GF(3), QQ):
        for alg in builder_zoo(field):
            x = rand_vector(rng, field, alg.dim)
            mut = mutation(alg.dot, x)
            assert is_associative(mut)
            assert check(Kind.ID_MATCHING, mut, alg.dot).holds


def test_centroid_product_cases():
    alg = rectangular_band_algebra(BandSpec(2, 2))
    ident = Endomorphism.identity(QQ, 4)
    assert centroid_product(alg.dot, ident) == alg.dot
    zero = Endomorphism(QQ, [[0] * 4] * 4)
    assert centroid_product(alg.dot, zero) == Product.zero(4, QQ)
    twice = Endomorphism.scalar(QQ, 4, 2)
    doubled = centroid_product(alg.dot, twice)
    assert doubled == alg.dot.scale(2)
    # a map outside the centroid is rejected
    skew = Endomorphism(QQ, [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    with pytest.raises(NotInCentroidError):
        centroid_product(alg.dot, skew)


def test_centroid_product_random_totally_compatible():
    rng = random.Random(4)
    for field in (GF(2), GF(3), QQ):
        for alg in builder_zoo(field):
            space = centroid(alg.dot)
            phi = Endomorphism.from_flat(field, alg.dim, rand_subspace_member(rng, space))
            prod = centroid_product(alg.dot, phi, space)
            assert check(Kind.TOTALLY_COMPATIBLE, prod, alg.dot).holds
            assert check(Kind.INTERCHANGEABLE, prod, alg.dot).holds


def test_mutation_by_noncentral_not_totally_compatible():
    for alg in (matrix_algebra(2, QQ), matrix_algebra(2, GF(3))):
        f = alg.field
        found = False
        for i in range(alg.dim):
            mut = mutation(alg.dot, basis_vector(f, alg.dim, i))
            if not check(Kind.TOTALLY_COMPATIBLE, mut, alg.dot).holds:
                found = True
        assert found


def test_examples_shapes():
    alg3, star, star2 = example_3dim()
    assert alg3.labels == ("e1", "e2", "e3")
    assert is_associative(star) and is_associative(star2)
    alg6, star6 = example_6dim()
    assert alg6.dim == 6 and is_associative(star6)
    band, bstar = example_band22()
    assert is_associative(bstar)
    assert annihilator(band.dot).member([1, -1, -1, 1])


def test_band_id_matching_family():
    spec = BandSpec(2, 2)
    alg = rectangular_band_algebra(spec)
    ones = band_id_matching(spec, [[1, 1], [1, 1]])
    assert ones == alg.dot
    assert band_id_matching(spec, [[0, 0], [0, 0]]) == Product.zero(4, QQ)
    picked = band_id_matching(spec, [[1, 0], [0, 0]])
    # e11 * e11 = e11 (lambda_{j=1,k=1} = 1), e12 * e11 = 0 (lambda_{j=2,k=1} = 0)
    assert multiply(picked, basis_vector(QQ, 4, 0), basis_vector(QQ, 4, 0)) == basis_vector(QQ, 4, 0)
    assert multiply(picked, basis_vector(QQ, 4, 1), basis_vector(QQ, 4, 0)) == [QQ.zero] * 4
    ps = solve_linear(Kind.ID_MATCHING, alg.dot)
    assert is_associative(picked)
    assert check(Kind.ID_MATCHING, picked, alg.dot).holds
    assert ps.contains(picked)


def test_band_id_matching_space_equality():
    rng = random.Random(11)
    for spec in (BandSpec(2, 2), BandSpec(2, 3)):
        alg = rectangular_band_algebra(spec)
        ps = solve_linear(Kind.ID_MATCHING, alg.dot)
        assert ps.dim == spec.rows * spec.cols
        # each elementary lambda grid gives a member; they span the space
        from bicompat.linalg import Subspace

        rows = []
        for j in range(spec.cols):
            for k in range(spec.rows):
                lam = [[1 if (jj, kk) == (j, k) else 0 for kk in range(spec.rows)] for jj in range(spec.cols)]
                rows.append(band_id_matching(spec, lam).flatten())
        assert Subspace(QQ, alg.dim**3, rows) == ps.space


def test_band_swap_matching_family():
    spec = BandSpec(2, 2)
    alg = rectangular_band_algebra(spec)
    z = [1, -1, -1, 1]
    assert band_swap_matching(spec, 1) == alg.dot
    # the worked example: lambda = 0, r_{(0,1)} = z
    star = band_swap_matching(spec, 0, {(0, 1): z})
    assert star == example_band22()[1]
    assert check(Kind.SWAP_MATCHING, star, alg.dot).holds
    # r entries must be annihilator members
    with pytest.raises(NotInAnnihilatorError):
        band_swap_matching(spec, 0, {(0, 0): [1, 0, 0, 0]})
    # lambda = 1 with an annihilator bump: swap-matching holds; associativity
    # is checked separately rather than assumed
    bump = band_swap_matching(spec, 1, {(0, 0): z})
    assert check(Kind.SWAP_MATCHING, bump, alg.dot).holds
    assert is_associative(bump)  # regression: members of this family associate


def test_one_line_band_spaces_collapse():
    for spec in (BandSpec(1, 2), BandSpec(1, 3), BandSpec(2, 1)):
        alg = rectangular_band_algebra(spec)
        swap = solve_linear(Kind.SWAP_MATCHING, alg.dot)
        tc = solve_linear(Kind.TOTALLY_COMPATIBLE, alg.dot)
        assert swap.space == tc.space


def test_enough_idempotent_identities():
    for alg in (
        path_algebra(QuiverSpec(3, [(0, 1), (1, 2)])),
        direct_sum([matrix_algebra(1, QQ)] * 3),
    ):
        assert solve_linear(Kind.SWAP_MATCHING, alg.dot).space == centroid_product_span(alg.dot)
        assert solve_linear(Kind.ID_MATCHING, alg.dot).space == mutation_span(alg.dot)


def test_zero_algebra():
    alg = zero_algebra(3, GF(2))
    assert alg.dim == 3
    assert alg.dot == Product.zero(3, GF(2))
