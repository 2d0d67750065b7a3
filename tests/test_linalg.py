import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from bicompat import linalg
from bicompat.linalg import (
    GF,
    QQ,
    FieldMismatchError,
    LinalgError,
    Matrix,
    Scalar,
    Subspace,
    _kernel_pure,
    kernel,
    kernel_from_rows,
    rref,
    solve,
    subspace_intersect,
    subspace_member,
    subspace_sum,
)

FIELDS = [QQ, GF(2), GF(3), GF(5)]


def rand_matrix(rng, field, nrows, ncols):
    if field == QQ:
        return Matrix(field, [[rng.randrange(-4, 5) for _ in range(ncols)] for _ in range(nrows)])
    return Matrix(field, [[rng.randrange(field.p) for _ in range(ncols)] for _ in range(nrows)])


# ---------------------------------------------------------------------------
# scalars


def test_rational_scalars_canonical():
    s = Scalar.of(QQ, Fraction(2, 4))
    assert s.value == Fraction(1, 2)
    assert str(s) == "1/2"
    assert str(Scalar.of(QQ, -3)) == "-3"
    assert QQ.parse("6/4") == Fraction(3, 2)
    with pytest.raises(LinalgError):
        QQ.parse("1.5")


def test_prime_field_scalars_reduced():
    f5 = GF(5)
    assert f5.coerce(7) == 2
    assert f5.coerce(-1) == 4
    assert str(Scalar.of(f5, 9)) == "4"
    assert f5.inv(2) == 3
    with pytest.raises(LinalgError):
        GF(6)


def test_mixed_field_arithmetic_rejected():
    a = Scalar.of(QQ, 1)
    b = Scalar.of(GF(3), 1)
    with pytest.raises(FieldMismatchError):
        a + b
    with pytest.raises(FieldMismatchError):
        Scalar.of(GF(3), Scalar.of(QQ, 1))


def test_scalar_arithmetic():
    half = Scalar.of(QQ, Fraction(1, 2))
    assert (half + half).value == 1
    assert (half * half).value == Fraction(1, 4)
    assert (-half).value == Fraction(-1, 2)
    assert not Scalar.of(QQ, 0)


# ---------------------------------------------------------------------------
# rref / kernel / solve examples


def test_rref_identity_already_reduced():
    m = Matrix.identity(QQ, 2)
    r, rank = rref(m)
    assert r == m and rank == 2


def test_rref_rank_one():
    r, rank = rref(Matrix(QQ, [[1, 1], [1, 1]]))
    assert rank == 1
    assert r.rows == ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(0)))


def test_rref_rank_one_mod_2():
    r, rank = rref(Matrix(GF(2), [[1, 1], [1, 1]]))
    assert rank == 1
    assert r.rows == ((1, 1), (0, 0))


def test_kernel_examples():
    assert kernel(Matrix.identity(QQ, 3)).dim == 0
    k = kernel(Matrix(QQ, [[1, 1]]))
    assert k.dim == 1
    assert k.basis == ((Fraction(1), Fraction(-1)),)
    assert kernel(Matrix.zeros(QQ, 2, 3)) == Subspace.full(QQ, 3)


def test_solve_examples():
    sol = solve(Matrix.identity(QQ, 2), [5, 7])
    assert sol.particular == (Fraction(5), Fraction(7))
    assert sol.dim == 0

    sol = solve(Matrix(QQ, [[1, 1]]), [2])
    assert sol.particular == (Fraction(2), Fraction(0))
    assert sol.directions.basis == ((Fraction(1), Fraction(-1)),)
    assert sol.member([1, 1])

    assert solve(Matrix(QQ, [[0]]), [1]) is None


def test_subspace_lattice_examples():
    full = Subspace.full(QQ, 2)
    s = Subspace(QQ, 2, [[1, 0]])
    assert subspace_intersect(full, s) == s
    assert subspace_member([0, 0], s)
    t = Subspace(QQ, 2, [[0, 1]])
    assert subspace_intersect(s, t) == Subspace.zero(QQ, 2)
    assert subspace_sum(s, t) == full


def test_subspace_mismatches_rejected():
    s = Subspace(QQ, 2, [[1, 0]])
    t = Subspace(GF(3), 2, [[1, 0]])
    with pytest.raises(FieldMismatchError):
        subspace_intersect(s, t)
    with pytest.raises(Exception):
        subspace_sum(s, Subspace(QQ, 3, [[1, 0, 0]]))


def test_subspace_equality_is_syntactic():
    a = Subspace(QQ, 3, [[1, 1, 0], [0, 0, 1]])
    b = Subspace(QQ, 3, [[1, 1, 1], [0, 0, 2]])
    assert a == b
    assert hash(a) == hash(b)


# ---------------------------------------------------------------------------
# properties on randomized matrices


@pytest.mark.parametrize("field", FIELDS)
def test_rref_idempotent(field):
    rng = random.Random(123 + field.characteristic)
    for _ in range(25):
        m = rand_matrix(rng, field, rng.randrange(1, 6), rng.randrange(1, 6))
        r1, rank1 = rref(m)
        r2, rank2 = rref(r1)
        assert r1 == r2 and rank1 == rank2


@pytest.mark.parametrize("field", FIELDS)
def test_rank_nullity(field):
    rng = random.Random(4242 + field.characteristic)
    for _ in range(25):
        m = rand_matrix(rng, field, rng.randrange(1, 6), rng.randrange(1, 6))
        _, rank = rref(m)
        assert kernel(m).dim + rank == m.ncols


@pytest.mark.parametrize("field", FIELDS)
def test_kernel_vectors_annihilate(field):
    rng = random.Random(777 + field.characteristic)
    for _ in range(20):
        m = rand_matrix(rng, field, rng.randrange(1, 5), rng.randrange(1, 5))
        for row in kernel(m).basis:
            assert all(v == field.zero for v in m.matvec(row))


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_subspace_ops_congruent_with_membership(field):
    rng = random.Random(99 + field.characteristic)
    for _ in range(15):
        n = 4
        s1 = kernel(rand_matrix(rng, field, 2, n))
        s2 = kernel(rand_matrix(rng, field, 2, n))
        inter = subspace_intersect(s1, s2)
        for row in inter.basis:
            assert s1.member(row) and s2.member(row)
        total = subspace_sum(s1, s2)
        for row in list(s1.basis) + list(s2.basis):
            assert total.member(row)
        assert inter.dim + total.dim == s1.dim + s2.dim


def rand_sparse_system(rng, field, nrows, ncols, width):
    """Random {col: coeff} rows with exact and rescaled duplicates mixed in."""

    def coeff():
        if field == QQ:
            return Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 1, 2, 3, 7]))
        return rng.randrange(1, field.p) + field.p * rng.randrange(-2, 3)

    rows = []
    for _ in range(nrows):
        roll = rng.random()
        if rows and roll < 0.2:
            rows.append(dict(rng.choice(rows)))
        elif rows and roll < 0.4:
            s = coeff()
            rows.append({c: v * s for c, v in rng.choice(rows).items()})
        else:
            rows.append({rng.randrange(ncols): coeff() for _ in range(rng.randrange(1, width + 1))})
    return rows


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5), GF(32003), GF(2147483659)])
def test_fast_kernel_matches_pure(field):
    rng = random.Random(31337 + field.characteristic)
    for nrows, ncols, width in [(260, 150, 3)] + [(rng.randrange(1, 40), rng.randrange(1, 30), 4) for _ in range(40)]:
        rows = rand_sparse_system(rng, field, nrows, ncols, width)
        assert kernel_from_rows(field, ncols, rows) == _kernel_pure(field, ncols, rows)


def test_fast_kernel_fraction_rows():
    rows = [{0: Fraction(1, 2), 1: Fraction(1, 3)}, {2: Fraction(2, 7), 3: Fraction(-1, 7)}]
    ker = kernel_from_rows(QQ, 4, rows)
    assert ker == _kernel_pure(QQ, 4, rows)
    assert ker.dim == 2


def count_primes(monkeypatch):
    used = []
    inner = linalg._kernel_modp

    def counted(rows, ncols, p):
        used.append(p)
        assert len(used) <= 8, "no certificate after 8 primes"
        return inner(rows, ncols, p)

    monkeypatch.setattr(linalg, "_kernel_modp", counted)
    return used


def test_kernel_crt_lifts_tall_answers(monkeypatch):
    # The kernel holds entries like 1000003/999983: beyond what one 31-bit
    # prime can reconstruct, so residues of several primes are combined.
    rows = [{0: 999983, 1: -1000003, 2: 3}, {1: 65537, 2: -65539, 3: 1}, {0: 1, 3: Fraction(1, 70001)}]
    used = count_primes(monkeypatch)
    ker = kernel_from_rows(QQ, 5, rows)
    assert ker == _kernel_pure(QQ, 5, rows)
    assert max(max(abs(v.numerator), v.denominator) for row in ker.basis for v in row) > 2**16
    assert len(used) >= 2


@pytest.mark.parametrize(
    "rows, ncols",
    [
        # modulo 2**31 - 1 the rank drops from 2 to 1
        ([{0: 1, 1: 2**31 - 1}, {0: 1}], 3),
        # the rank holds, but the kernel (2**31 - 1, 1) reduces to (0, 1):
        # its pivot moves right
        ([{0: 1, 1: -(2**31 - 1)}], 2),
    ],
)
def test_kernel_discards_unlucky_prime(monkeypatch, rows, ncols):
    used = count_primes(monkeypatch)
    assert kernel_from_rows(QQ, ncols, rows) == _kernel_pure(QQ, ncols, rows)
    assert used[0] == 2**31 - 1 and len(used) >= 2


def test_band_4x4_fits_in_one_gigabyte():
    # 196608 rows x 4096 unknowns: a dense float64 copy alone is 6.4 GB.
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from bicompat.builders import BandSpec, rectangular_band_algebra\n"
        "from bicompat.compat import Kind, solve_linear\n"
        "from bicompat.linalg import QQ\n"
        "alg = rectangular_band_algebra(BandSpec(4, 4), QQ)\n"
        "print(solve_linear(Kind.TOTALLY_COMPATIBLE, alg.dot).space.dim)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


def test_large_prime_fields():
    t = time.perf_counter()
    assert GF(2**61 - 1).p == 2**61 - 1
    assert time.perf_counter() - t < 1.0
    with pytest.raises(LinalgError):
        GF(3215031751)  # 151 * 751 * 28351, a strong pseudoprime to bases 2, 3, 5, 7
    with pytest.raises(LinalgError):
        GF(2**127 - 1)  # prime, but beyond the deterministic Miller-Rabin range
