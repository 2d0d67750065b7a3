import json
import random
from fractions import Fraction

import pytest

from bicompat.algebra import (
    Algebra,
    AlgebraError,
    Endomorphism,
    NonAssociativeError,
    Product,
    algebra_from_json,
    algebra_to_json,
    annihilator,
    apply_endo,
    associativity_witness,
    basis_vector,
    center,
    centralizer,
    centroid,
    find_units,
    is_associative,
    is_idempotent_algebra,
    matrix_inverse,
    multiply,
    product_from_json,
    product_to_json,
    transport_product,
)
from bicompat.builders import (
    BandSpec,
    example_3dim,
    matrix_algebra,
    rectangular_band_algebra,
    zero_algebra,
)
from bicompat.linalg import GF, QQ, LinalgError, Matrix, ShapeMismatchError, Subspace, rref

BAND22 = rectangular_band_algebra(BandSpec(2, 2))
M2Q = matrix_algebra(2, QQ)
ZVEC = [1, -1, -1, 1]  # e11 - e12 - e21 + e22


def test_multiply_band_table():
    # e12 . e21 = e11
    e12 = basis_vector(QQ, 4, BAND22.index_of("e12"))
    e21 = basis_vector(QQ, 4, BAND22.index_of("e21"))
    assert multiply(BAND22.dot, e12, e21) == basis_vector(QQ, 4, BAND22.index_of("e11"))


def test_multiply_bilinear_zero():
    assert multiply(M2Q.dot, [0, 0, 0, 0], [1, 2, 3, 4]) == [0, 0, 0, 0]


def test_multiply_3dim_example():
    alg, _, _ = example_3dim()
    e1, e2 = basis_vector(QQ, 3, 0), basis_vector(QQ, 3, 1)
    assert multiply(alg.dot, e1, e2) == basis_vector(QQ, 3, 2)


def test_associativity_pass_and_witness():
    assert associativity_witness(BAND22.dot) is None
    assert is_associative(Product.zero(2, QQ))
    # e1 p e1 = e2, e2 p e1 = e1: (e1 p e1) p e1 = e1 but e1 p (e1 p e1) = 0
    p = Product.from_triples(2, QQ, [(0, 0, 1, 1), (1, 0, 0, 1)])
    assert associativity_witness(p) == (0, 0, 0)


def test_algebra_constructor_checks():
    bad = Product.from_triples(2, QQ, [(0, 0, 1, 1), (1, 0, 0, 1)])
    with pytest.raises(NonAssociativeError):
        Algebra(QQ, ["a", "b"], bad)
    alg = Algebra(QQ, ["a", "b"], bad, check=False)
    assert alg.dim == 2
    with pytest.raises(AlgebraError):
        Algebra(QQ, [], Product.zero(1, QQ))
    with pytest.raises(AlgebraError):
        Algebra(QQ, ["a", "a"], Product.zero(2, QQ))


def test_find_units_matrix_algebra():
    sol = find_units(M2Q.dot, "two-sided")
    assert sol is not None
    assert sol.particular == tuple(QQ.coerce(v) for v in [1, 0, 0, 1])
    assert sol.dim == 0


def test_find_units_band_sides():
    # 2x2 band: no one-sided units at all
    assert find_units(BAND22.dot, "left") is None
    assert find_units(BAND22.dot, "right") is None
    # right-zero band (one row): every row element is a left unit; the
    # solution set is the affine line of coefficient sum 1
    band12 = rectangular_band_algebra(BandSpec(1, 2))
    sol = find_units(band12.dot, "left")
    assert sol is not None and sol.dim == 1
    assert sol.member([1, 0]) and sol.member([0, 1]) and not sol.member([1, 1])
    assert find_units(band12.dot, "right") is None


def test_find_units_zero_algebra_empty():
    assert find_units(zero_algebra(2, QQ).dot, "two-sided") is None


def test_idempotency():
    assert is_idempotent_algebra(BAND22.dot)
    assert is_idempotent_algebra(matrix_algebra(2, GF(3)).dot)
    alg, _, _ = example_3dim()
    assert not is_idempotent_algebra(alg.dot)


def test_center_matrix_algebra_is_scalars():
    c = center(M2Q.dot)
    assert c.dim == 1
    assert c.member([1, 0, 0, 1])


def test_center_commutative_full():
    comm = Product.from_triples(2, QQ, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)])
    assert center(comm) == Subspace.full(QQ, 2)


def test_center_band_equals_annihilator():
    # solver-derived: for the 2x2 band the commuting elements are exactly Ann
    c = center(BAND22.dot)
    assert c == annihilator(BAND22.dot)
    assert c.dim == 1 and c.member(ZVEC)


def test_centralizer_examples():
    e11 = basis_vector(QQ, 4, 0)
    cent = centralizer(BAND22.dot, e11)
    expected = Subspace(QQ, 4, [e11]).sum(annihilator(BAND22.dot))
    assert cent == expected and cent.dim == 2
    assert centralizer(BAND22.dot, [0, 0, 0, 0]) == Subspace.full(QQ, 4)
    assert centralizer(M2Q.dot, [1, 0, 0, 1]) == Subspace.full(QQ, 4)


def test_annihilator_examples():
    ann = annihilator(BAND22.dot)
    assert ann.dim == 1 and ann.member(ZVEC)
    assert annihilator(M2Q.dot).dim == 0
    assert annihilator(zero_algebra(3, QQ).dot) == Subspace.full(QQ, 3)


def test_centroid_examples():
    band_gamma = centroid(BAND22.dot)
    assert band_gamma.dim == 1
    assert band_gamma.member(Endomorphism.identity(QQ, 4).flatten())
    assert centroid(M2Q.dot).dim == 1
    assert centroid(zero_algebra(3, QQ).dot) == Subspace.full(QQ, 9)


def test_centroid_matches_center_on_unital():
    # unital case: left multiplication by a central element is in the centroid,
    # and evaluating a centroid map at the unit lands back in the center
    for alg in (M2Q, matrix_algebra(2, GF(5))):
        f = alg.field
        cen = center(alg.dot)
        gam = centroid(alg.dot)
        assert cen.dim == gam.dim
        for row in cen.basis:
            rows = [multiply(alg.dot, list(row), basis_vector(f, alg.dim, j)) for j in range(alg.dim)]
            phi = [rows[r][c] for r in range(alg.dim) for c in range(alg.dim)]
            assert gam.member(phi)
        unit = find_units(alg.dot, "two-sided").particular
        for row in gam.basis:
            phi = Endomorphism.from_flat(f, alg.dim, list(row))
            assert cen.member(phi.apply(list(unit)))


def test_apply_endo():
    phi = Endomorphism.identity(QQ, 3)
    assert apply_endo(phi, [1, 2, 3]) == [QQ.coerce(v) for v in [1, 2, 3]]
    zero = Endomorphism(QQ, [[0] * 3] * 3)
    assert apply_endo(zero, [1, 2, 3]) == [QQ.zero] * 3
    twice = Endomorphism.scalar(QQ, 3, 2)
    assert apply_endo(twice, [1, 2, 3]) == [QQ.coerce(v) for v in [2, 4, 6]]


def test_annihilator_inside_every_centralizer():
    rng = random.Random(5)
    for alg in (BAND22, M2Q, zero_algebra(3, QQ)):
        ann = annihilator(alg.dot)
        for _ in range(5):
            x = [rng.randrange(-2, 3) for _ in range(alg.dim)]
            cent = centralizer(alg.dot, x)
            assert cent.contains_subspace(ann)


def test_center_contains_two_sided_units():
    sol = find_units(M2Q.dot, "two-sided")
    assert center(M2Q.dot).member(sol.particular)


def test_transport_preserves_associativity():
    g = Matrix(QQ, [[1, 1, 0], [0, 1, 0], [2, 0, 1]])
    alg, star, _ = example_3dim()
    moved = transport_product(star, g)
    assert is_associative(moved)
    # transported non-associative product stays non-associative
    bad = Product.from_triples(3, QQ, [(0, 0, 1, 1), (1, 0, 0, 1)])
    assert not is_associative(transport_product(bad, g))
    with pytest.raises(ShapeMismatchError):
        transport_product(bad, Matrix(QQ, [[1, 0], [0, 1]]))


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
def test_matrix_inverse(field):
    rng = random.Random(55 + field.characteristic)
    seen = set()
    for _ in range(60):
        n = rng.randrange(0, 5)
        g = Matrix(field, [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(n)])
        eye = Matrix.identity(field, n)
        invertible = rref(g)[1] == n
        if invertible:
            ginv = matrix_inverse(g)
            assert g.mul(ginv) == eye and ginv.mul(g) == eye
        else:
            with pytest.raises(LinalgError):
                matrix_inverse(g)
        seen.add(invertible)
    assert seen == {True, False}
    with pytest.raises(LinalgError):
        matrix_inverse(Matrix(field, [[1, 2], [2, 4]]))
    with pytest.raises(ShapeMismatchError):
        matrix_inverse(Matrix(field, [[1, 0]]))


def test_product_flatten_roundtrip():
    p = BAND22.dot
    assert Product.from_flat(4, QQ, p.flatten()) == p
    # zero entries of the exact types are skipped, any other value is coerced
    assert Product.from_flat(1, GF(5), [5]) == Product.zero(1, GF(5))
    for field, junk in ((QQ, False), (QQ, None), (GF(5), Fraction(0))):
        with pytest.raises(TypeError):
            Product.from_flat(1, field, [junk])


def test_json_roundtrips():
    doc = algebra_to_json(M2Q)
    again = algebra_from_json(json.loads(json.dumps(doc)))
    assert again == M2Q
    _, star, _ = example_3dim()
    pd = product_to_json(star)
    assert product_from_json(json.loads(json.dumps(pd))) == star


def test_json_rejects_malformed():
    from bicompat.algebra import FileFormatError

    with pytest.raises(FileFormatError):
        algebra_from_json({"dim": 0, "field": "Q", "labels": [], "table": []})
    with pytest.raises(FileFormatError):
        algebra_from_json({"dim": 1, "field": "R", "labels": ["e"], "table": []})
    with pytest.raises(FileFormatError):
        algebra_from_json({"dim": 1, "field": "Q", "labels": ["e"], "table": [[0, 0, 0, 1.5]]})
    with pytest.raises(FileFormatError):
        product_from_json({"dim": 2, "field": "Q", "product": [[0, 0, 5, "1"]]})


def test_scalar_serialization_in_tables():
    from fractions import Fraction

    p = Product.from_triples(2, QQ, [(0, 0, 0, Fraction(-3, 2))])
    doc = product_to_json(p)
    assert doc["product"] == [[0, 0, 0, "-3/2"]]
    p5 = Product.from_triples(2, GF(5), [(0, 0, 0, 7)])
    assert product_to_json(p5)["product"] == [[0, 0, 0, "2"]]
