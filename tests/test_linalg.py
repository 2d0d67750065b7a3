import ast
import itertools
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from _reference import _rref_rows, kernel_modp_pivot_rows, kernel_pure, span_pure

from bicompat import linalg
from bicompat.algebra import matrix_inverse, transport_product
from bicompat.builders import BandSpec, matrix_algebra, rectangular_band_algebra
from bicompat.compat import Kind, solve_linear
from bicompat.linalg import (
    GF,
    QQ,
    FieldMismatchError,
    LinalgError,
    Matrix,
    Scalar,
    ShapeMismatchError,
    Subspace,
    kernel,
    kernel_from_rows,
    rref,
    solve,
    subspace_intersect,
    subspace_member,
    subspace_sum,
)
from bicompat.suite import rand_invertible

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
    with pytest.raises(ShapeMismatchError):
        sol.member([1, 1, 99])
    with pytest.raises(LinalgError):
        sol.member([2, 0, "x"])
    with pytest.raises(LinalgError):
        sol.member([2, "x"])
    with pytest.raises(TypeError):
        sol.member([2, None])

    assert solve(Matrix(QQ, [[0]]), [1]) is None


def test_subspace_lattice_examples():
    full = Subspace.full(QQ, 2)
    s = Subspace(QQ, 2, [[1, 0]])
    assert subspace_intersect(full, s) == s
    assert subspace_member([0, 0], s)
    t = Subspace(QQ, 2, [[0, 1]])
    assert subspace_intersect(s, t) == Subspace.zero(QQ, 2)
    assert subspace_sum(s, t) == full


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
def test_subspace_full_is_identity_space(field):
    for n in (0, 1, 4):
        rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        full, ref = Subspace.full(field, n), Subspace(field, n, rows)
        assert full == ref and hash(full) == hash(ref)
        assert full.basis == ref.basis and full.pivots == ref.pivots
        assert all(type(v) is type(field.one) for row in full.basis for v in row)
    assert kernel_from_rows(field, 3, [{}, {0: 0}]) == Subspace(field, 3, Matrix.identity(field, 3).rows)


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


@pytest.mark.parametrize("field", FIELDS + [GF(2**61 - 1)])
def test_solve_properties(field):
    rng = random.Random(2024 + field.characteristic)
    for _ in range(60):
        nrows, ncols = rng.randrange(1, 6), rng.randrange(1, 6)
        m = rand_matrix(rng, field, nrows, ncols)
        if rng.random() < 0.5:
            b = m.matvec([rng.randrange(-3, 4) for _ in range(ncols)])
        else:
            b = [field.coerce(rng.randrange(-3, 4)) for _ in range(nrows)]
        sol = solve(m, b)
        reduced, rank = rref(m)
        _, rank_aug = rref(Matrix(field, [row + (bv,) for row, bv in zip(m.rows, b)]))
        assert (sol is None) == (rank_aug > rank)
        if sol is None:
            continue
        assert m.matvec(sol.particular) == b
        pivots = {next(c for c, v in enumerate(row) if v != field.zero) for row in reduced.rows[:rank]}
        assert all(v == field.zero for c, v in enumerate(sol.particular) if c not in pivots)
        ref = kernel_pure(field, ncols, [dict(enumerate(row)) for row in m.rows])
        assert (sol.directions.basis, sol.directions.pivots) == (ref.basis, ref.pivots)


def diff_matrices(rng, field):
    """Seeded matrices for the span differential, edge cases first: no rows,
    ambient 0, zero rows, duplicate and rescaled rows, full rank squares and
    singular squares, then random shapes."""
    z = field.zero
    dup = rand_matrix(rng, field, 2, 5).rows
    out = [
        Matrix(field, []),
        Matrix(field, [(), ()]),
        Matrix.zeros(field, 3, 4),
        Matrix(field, [dup[0], dup[1], dup[0], [field.mul(field.coerce(3), v) for v in dup[1]], [z] * 5]),
        Matrix.identity(field, 4),
    ]
    for n in (1, 3, 5):
        g = rand_invertible(rng, field, n)
        out.append(g)
        rows = [list(r) for r in g.rows]
        rows[-1] = [field.add(a, field.mul(field.coerce(2), b)) for a, b in zip(rows[0], rows[n // 2])]
        out.append(Matrix(field, rows))  # singular when n > 1
    return out + [rand_matrix(rng, field, rng.randrange(1, 7), rng.randrange(1, 7)) for _ in range(25)]


def solve_pure(m, b):
    """(particular, directions) of m x = b by dense Gauss-Jordan, or None."""
    f, nc = m.field, m.ncols
    work = [list(r) + [bv] for r, bv in zip(m.rows, b)]
    pivots = _rref_rows(f, work)
    if pivots and pivots[-1] == nc:
        return None
    particular = [f.zero] * nc
    for row, pc in zip(work, pivots):
        particular[pc] = row[nc]
    return tuple(particular), kernel_pure(f, nc, [dict(enumerate(r)) for r in m.rows])


def intersect_pure(s, t):
    """s & t from the kernel of [s.basis^T | -t.basis^T], all by dense Gauss-Jordan."""
    f, n = s.field, s.ambient_dim
    coeffs = [dict(enumerate([a[i] for a in s.basis] + [f.neg(b[i]) for b in t.basis])) for i in range(n)]
    combos = kernel_pure(f, s.dim + t.dim, coeffs).basis
    vecs = [[f.zero] * n for _ in combos]
    for vec, kv in zip(vecs, combos):
        for k, row in zip(kv, s.basis):
            vec[:] = [f.add(x, f.mul(k, y)) for x, y in zip(vec, row)]
    return span_pure(f, n, vecs)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5), GF(2**31 - 1)], ids=["Q", "F2", "F5", "F2^31-1"])
def test_engine_spans_match_dense_gauss_jordan(field):
    # Every echelon form in the library comes from the sparse engine; here
    # each one is compared with the dense Gauss-Jordan of the test reference.
    rng = random.Random(2460 + field.characteristic)
    ms = diff_matrices(rng, field)
    for m in ms:
        space, ref = Subspace(field, m.ncols, m.rows), span_pure(field, m.ncols, m.rows)
        assert (space.basis, space.pivots) == (ref.basis, ref.pivots), m.rows
        assert all(type(v) is type(field.one) for row in space.basis for v in row)
        reduced, rank = rref(m)
        work = [list(r) for r in m.rows]
        rank_pure = len(_rref_rows(field, work))
        assert (reduced.rows, rank) == (Matrix(field, work).rows, rank_pure)
        for b in (m.matvec([rng.randrange(-3, 4) for _ in range(m.ncols)]), [rng.randrange(-3, 4) for _ in m.rows]):
            sol, ref_sol = solve(m, b), solve_pure(m, [field.coerce(v) for v in b])
            assert (sol is None) == (ref_sol is None)
            if sol is not None:
                assert sol.particular == ref_sol[0]
                assert (sol.directions.basis, sol.directions.pivots) == (ref_sol[1].basis, ref_sol[1].pivots)
        if m.nrows == m.ncols:
            n = m.nrows
            eye = Matrix.identity(field, n).rows
            work = [list(r) + list(e) for r, e in zip(m.rows, eye)]
            if _rref_rows(field, work) == list(range(n)):
                assert matrix_inverse(m).rows == Matrix(field, [r[n:] for r in work]).rows
            else:
                with pytest.raises(LinalgError):
                    matrix_inverse(m)
    for m1, m2 in itertools.product(ms, repeat=2):
        if m1.ncols == m2.ncols:
            s, t = Subspace(field, m1.ncols, m1.rows), Subspace(field, m2.ncols, m2.rows)
            for got, want in ((s.intersect(t), intersect_pure(s, t)), (s.sum(t), span_pure(field, s.ambient_dim, s.basis + t.basis))):
                assert (got.basis, got.pivots) == (want.basis, want.pivots)


def test_engine_span_lifts_tall_entries(monkeypatch):
    # The RREF holds entries of height above 2**31: one prime cannot reconstruct them.
    rows = [[3**20, 2**31 + 11, 1, 0], [0, 7, 5**13, 1]]
    used = count_primes(monkeypatch)
    space, ref = Subspace(QQ, 4, rows), span_pure(QQ, 4, rows)
    assert (space.basis, space.pivots) == (ref.basis, ref.pivots)
    assert max(max(abs(v.numerator), v.denominator) for row in space.basis for v in row) > 2**31
    assert len(used) >= 2


def test_engine_span_of_one_long_row():
    row = rectangular_band_algebra(BandSpec(4, 4), QQ).dot.flatten()
    space, ref = Subspace(QQ, 4096, [row]), span_pure(QQ, 4096, [row])
    assert (space.basis, space.pivots) == (ref.basis, ref.pivots)


def test_private_linalg_names_stay_in_linalg():
    # The canonical-form helpers are linalg's own: other modules use its public API.
    offenders = []
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module in ("linalg", "bicompat.linalg"):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "linalg":
                names = [node.attr]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {name}" for name in names if name.startswith("_")]
    assert not offenders, offenders


def rand_sparse_system(rng, field, nrows, ncols, width, raw=False):
    """Random {col: coeff} rows with exact and rescaled duplicates mixed in.

    With raw=True every value is a plain int of either sign, zeros and
    multiples of p included, and some rows are empty."""

    def coeff():
        if raw:
            return rng.choice([0, 1, -1, 2, -3]) + (field.p if field.characteristic else 5) * rng.randrange(-2, 3)
        if field == QQ:
            return Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 1, 2, 3, 7]))
        return rng.randrange(1, field.p) + field.p * rng.randrange(-2, 3)

    rows = []
    for _ in range(nrows):
        roll = rng.random()
        if raw and roll < 0.05:
            rows.append({})
        elif rows and roll < 0.2:
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
    systems = [(0, []), (0, [{}, {}]), (3, [{}, {}]), (3, [{1: 0}, {}])]
    for raw in (False, True):
        for nrows, ncols, width in [(260, 150, 3)] + [(rng.randrange(1, 40), rng.randrange(1, 30), 4) for _ in range(40)]:
            systems.append((ncols, rand_sparse_system(rng, field, nrows, ncols, width, raw)))
    for ncols, rows in systems:
        ker, ref = kernel_from_rows(field, ncols, rows), kernel_pure(field, ncols, rows)
        # the engine's basis is taken as it is: it must already be the canonical one
        assert ker == ref
        assert (ker.basis, ker.pivots) == (ref.basis, ref.pivots)
        assert all(type(v) is type(field.one) for row in ker.basis for v in row)
        rebuilt = Subspace(field, ncols, ker.basis)
        assert (rebuilt.basis, rebuilt.pivots) == (ker.basis, ker.pivots)


ENGINE_PRIMES = [2, 5, 32003, 2**31 - 1]


def raw_int_rows(rng, p, nrows, ncols, width):
    """(col, int) rows in column order as the Q route hands them to the engine:
    unreduced, of either sign, with zeros, multiples of p and empty rows."""
    values = [0, 1, -1, 2, -3, p, -2 * p, p + 1, 3 * p - 1, -(2**40) - 7]
    rows = []
    for _ in range(nrows):
        cols = sorted(rng.sample(range(ncols), min(ncols, rng.randrange(width + 1))))
        rows.append(tuple((c, rng.choice(values)) for c in cols))
    return rows


def dense_int_rows(rng, nrows, ncols, rank=None):
    """Dense integer rows; with `rank`, each row is a combination of `rank` fixed ones."""
    if rank is None:
        return [tuple((c, rng.randrange(-9, 10)) for c in range(ncols)) for _ in range(nrows)]
    gens = dense_int_rows(rng, rank, ncols)
    rows = []
    for _ in range(nrows):
        coeffs = [rng.randrange(-3, 4) for _ in gens]
        rows.append(tuple((c, sum(k * g[c][1] for k, g in zip(coeffs, gens))) for c in range(ncols)))
    return rows


@pytest.mark.parametrize("p", ENGINE_PRIMES)
def test_kernel_update_matches_pivot_rows(p):
    # The kernel-update engine must return exactly the pivot-row engine's
    # vectors: the same free columns, in the same order, with the same residues.
    rng = random.Random(8080 + p)
    field = GF(p)
    systems = [([], 0), ([()], 0), ([], 4), ([(), ()], 4), ([((1, p),), ((0, -p), (2, 0))], 3)]
    for raw in (False, True):
        for nrows, ncols, width in [(260, 150, 3)] + [(rng.randrange(1, 40), rng.randrange(1, 30), 4) for _ in range(30)]:
            rows = rand_sparse_system(rng, field, nrows, ncols, width, raw)
            systems.append((linalg._distinct_rows(field, rows), ncols))
    for _ in range(30):
        ncols = rng.randrange(1, 25)
        systems.append((raw_int_rows(rng, p, rng.randrange(60), ncols, 6), ncols))
    systems += [
        (dense_int_rows(rng, 8, 40), 40),  # wide
        (dense_int_rows(rng, 120, 10), 10),  # tall
        (dense_int_rows(rng, 150, 16, rank=5), 16),  # tall and mostly redundant
    ]
    for rows, ncols in systems:
        assert linalg._kernel_modp(rows, ncols, p) == kernel_modp_pivot_rows(rows, ncols, p), (rows, ncols)


def test_kernel_update_matches_pivot_rows_on_solve_rows(monkeypatch):
    # The dense, overdetermined integer rows that solve_linear builds on base
    # changes of M2 and band 2x2, as the Q route hands them to the engine.
    captured = []
    inner = linalg._kernel_modp

    def capture(rows, ncols, p):
        captured.append((rows, ncols))
        return inner(rows, ncols, p)

    monkeypatch.setattr(linalg, "_kernel_modp", capture)
    rng = random.Random(2718)
    for alg in (matrix_algebra(2, QQ), rectangular_band_algebra(BandSpec(2, 2), QQ)):
        for kind in Kind:
            dot = transport_product(alg.dot, rand_invertible(rng, QQ, alg.dim))
            before = len(captured)
            solve_linear(kind, dot)
            rows, ncols = captured[before]
            assert len(rows) > ncols
            for p in ENGINE_PRIMES:
                assert inner(rows, ncols, p) == kernel_modp_pivot_rows(rows, ncols, p), (kind, p)


def test_fast_kernel_fraction_rows():
    rows = [{0: Fraction(1, 2), 1: Fraction(1, 3)}, {2: Fraction(2, 7), 3: Fraction(-1, 7)}]
    ker = kernel_from_rows(QQ, 4, rows)
    assert ker == kernel_pure(QQ, 4, rows)
    assert ker.dim == 2


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
def test_kernel_rows_check_zero_like_values(field):
    # only int (and over Q Fraction) zeros are dropped unchecked: other values are coerced
    junk = [False, None, 0.0] + ([] if field == QQ else [Fraction(0)])
    for v in junk:
        with pytest.raises(TypeError):
            kernel_from_rows(field, 2, [{0: v}])
    # junk beside int entries is checked too
    for row in ({0: 1, 1: None}, {0: 2, 1: False}, {0: 1, 1: 0.0}):
        with pytest.raises(TypeError):
            kernel_from_rows(field, 2, [row])
    with pytest.raises(LinalgError):
        kernel_from_rows(field, 2, [{0: ""}])
    with pytest.raises(FieldMismatchError):
        kernel_from_rows(field, 2, [{0: Scalar.of(GF(7) if field == QQ else QQ, 0)}])
    zeros = [{0: 0, 1: "0"}, {1: Scalar.of(field, 0)}] + ([{0: Fraction(0)}] if field == QQ else [{0: 5}])
    assert kernel_from_rows(field, 2, zeros) == Subspace.full(field, 2)


@pytest.mark.parametrize("col", [5, 3, -1, "a", 1.0, True])
def test_kernel_rows_refuse_bad_columns(col):
    with pytest.raises(ShapeMismatchError):
        kernel_from_rows(QQ, 3, [{0: 1}, {col: 1}])


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
    assert ker == kernel_pure(QQ, 5, rows)
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
        # rows are not rescaled: the first row's content is 2**31 - 1, so
        # modulo that prime the row is zero and the rank drops from 2 to 1
        ([{0: 2**31 - 1, 1: 2 * (2**31 - 1)}, {1: 1, 2: 1}], 3),
    ],
)
def test_kernel_discards_unlucky_prime(monkeypatch, rows, ncols):
    used = count_primes(monkeypatch)
    assert kernel_from_rows(QQ, ncols, rows) == kernel_pure(QQ, ncols, rows)
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


def test_band_4x4_solve_grows_peak_rss_by_under_40_mb():
    # The row intake keeps each distinct row once: a list of every raw row
    # (196608 of them here, most duplicates) took the peak up by about 70 MB.
    code = (
        "import resource\n"
        "from bicompat.builders import BandSpec, rectangular_band_algebra\n"
        "from bicompat.compat import Kind, solve_linear\n"
        "from bicompat.linalg import QQ\n"
        "alg = rectangular_band_algebra(BandSpec(4, 4), QQ)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "dim = solve_linear(Kind.TOTALLY_COMPATIBLE, alg.dot).space.dim\n"
        "print(dim, (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    dim, grown_mb = proc.stdout.split()
    assert dim == "1"
    assert float(grown_mb) < 40, f"peak RSS grew by {grown_mb} MB"
