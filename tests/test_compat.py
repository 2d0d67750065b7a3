import dataclasses
import itertools
import random
from collections import defaultdict
from fractions import Fraction

import pytest
from _reference import kernel_pure

from bicompat import algebra
from bicompat.algebra import (
    Endomorphism,
    NonAssociativeError,
    Product,
    annihilator,
    associativity_witness,
    basis_vector,
    center,
    centralizer,
    centroid,
    is_associative,
    multiply,
    transport_product,
)
from bicompat.builders import (
    BandSpec,
    example_3dim,
    example_6dim,
    example_band22,
    matrix_algebra,
    mutation,
    mutation_span,
    rectangular_band_algebra,
    zero_algebra,
)
from bicompat.compat import (
    E1,
    E2,
    E3,
    E4,
    IDENTITIES,
    AssociativityCertificate,
    CompatReport,
    InternalContradictionError,
    Kind,
    Witness,
    all_members_associative,
    check,
    check_compatible_dual,
    remark13_audit,
    solve_linear,
    sum_product,
)
from bicompat.linalg import GF, QQ, Matrix, Subspace
from bicompat.suite import builder_zoo, rand_invertible, rand_subspace_member, rand_vector


def test_sum_product():
    _, star, _ = example_3dim()
    zero = Product.zero(3, QQ)
    assert sum_product(star, zero) == star
    assert sum_product(star, star.neg()) == zero
    alg, star, _ = example_3dim()
    total = sum_product(alg.dot, star)
    # e1@e1 = e1 and e1@e2 = e2 + e3
    assert total.coefficient(0, 0, 0) == QQ.one
    assert total.coefficient(0, 1, 1) == QQ.one
    assert total.coefficient(0, 1, 2) == QQ.one


def test_check_matrix_3dim():
    alg, star, star2 = example_3dim()
    dot = alg.dot
    assert check(Kind.SWAP_MATCHING, star, dot).holds
    assert not check(Kind.ID_MATCHING, star, dot).holds
    assert not check(Kind.INTERCHANGEABLE, star, dot).holds
    assert check(Kind.ID_MATCHING, star2, dot).holds
    assert not check(Kind.SWAP_MATCHING, star2, dot).holds
    assert not check(Kind.INTERCHANGEABLE, star2, dot).holds


def test_check_matrix_6dim():
    alg, star = example_6dim()
    assert check(Kind.INTERCHANGEABLE, star, alg.dot).holds
    assert not check(Kind.ID_MATCHING, star, alg.dot).holds
    assert not check(Kind.SWAP_MATCHING, star, alg.dot).holds


def test_check_star_equals_dot_every_kind():
    alg = matrix_algebra(2, QQ)
    for kind in Kind:
        assert check(kind, alg.dot, alg.dot).holds


def test_check_witness_is_replayable():
    alg, star, _ = example_3dim()
    report = check(Kind.ID_MATCHING, star, alg.dot)
    assert not report.holds
    w = report.witness
    assert w is not None and w.lhs != w.rhs
    assert report.to_json(QQ)["witness"]["triple"] == list(w.triple)


def test_check_requires_associative_base():
    bad = Product.from_triples(2, QQ, [(0, 0, 1, 1), (1, 0, 0, 1)])
    ok = Product.zero(2, QQ)
    with pytest.raises(NonAssociativeError):
        check(Kind.COMPATIBLE, ok, bad)
    # candidates need not be associative
    assert check(Kind.COMPATIBLE, bad, ok).holds


def test_dual_route_compatibility():
    m2 = matrix_algebra(2, QQ)
    mut = mutation(m2.dot, basis_vector(QQ, 4, 1))
    assert check_compatible_dual(mut, m2.dot).holds
    assert check_compatible_dual(Product.zero(4, QQ), m2.dot).holds
    alg, star, _ = example_3dim()
    assert check_compatible_dual(star, alg.dot).holds


def test_dual_route_on_random_space_members():
    rng = random.Random(8)
    for field in (GF(2), GF(3)):
        alg = rectangular_band_algebra(BandSpec(1, 2), field)
        for kind in Kind:
            ps = solve_linear(kind, alg.dot)
            for _ in range(5):
                star = Product.from_flat(2, field, rand_subspace_member(rng, ps.space))
                if is_associative(star):
                    check_compatible_dual(star, alg.dot)  # must not raise


def test_solve_linear_band22_dims():
    alg = rectangular_band_algebra(BandSpec(2, 2))
    assert solve_linear(Kind.ID_MATCHING, alg.dot).dim == 4
    assert solve_linear(Kind.SWAP_MATCHING, alg.dot).dim == 5
    assert solve_linear(Kind.TOTALLY_COMPATIBLE, alg.dot).dim == 1
    assert solve_linear(Kind.INTERCHANGEABLE, alg.dot).dim == 1


def test_solve_linear_m2_dims_and_mutation_span():
    alg = matrix_algebra(2, QQ)
    ps = solve_linear(Kind.ID_MATCHING, alg.dot)
    assert ps.dim == 4
    assert ps.space == mutation_span(alg.dot)
    assert solve_linear(Kind.SWAP_MATCHING, alg.dot).dim == 1


def test_membership_iff_check_holds():
    rng = random.Random(17)
    for field in (GF(3), QQ):
        for alg in (
            rectangular_band_algebra(BandSpec(2, 2), field),
            matrix_algebra(2, field),
            zero_algebra(2, field),
        ):
            for kind in Kind:
                ps = solve_linear(kind, alg.dot)
                for _ in range(4):
                    member = Product.from_flat(alg.dim, field, rand_subspace_member(rng, ps.space))
                    assert check(kind, member, alg.dot).holds
                    assert ps.contains(member)
                # a random non-member must fail the check
                for _ in range(4):
                    flat = [field.coerce(rng.randrange(-2, 3)) for _ in range(alg.dim**3)]
                    cand = Product.from_flat(alg.dim, field, flat)
                    assert ps.contains(cand) == check(kind, cand, alg.dot).holds


def test_implication_lattice_randomized():
    rng = random.Random(29)
    for field in (GF(2), GF(3)):
        for alg in (
            rectangular_band_algebra(BandSpec(1, 2), field),
            example_3dim(field)[0],
            zero_algebra(3, field),
        ):
            spaces = {kind: solve_linear(kind, alg.dot) for kind in Kind}
            for kind, ps in spaces.items():
                for _ in range(6):
                    star = Product.from_flat(alg.dim, field, rand_subspace_member(rng, ps.space))
                    holds = {k: check(k, star, alg.dot).holds for k in Kind}
                    if holds[Kind.TOTALLY_COMPATIBLE]:
                        assert all(holds.values())
                    if holds[Kind.ID_MATCHING] or holds[Kind.SWAP_MATCHING]:
                        assert holds[Kind.COMPATIBLE]


def test_space_basis_products_check_back():
    # every basis element of a solution space passes the defining check
    for alg in (rectangular_band_algebra(BandSpec(2, 2)), matrix_algebra(2, GF(3))):
        for kind in Kind:
            ps = solve_linear(kind, alg.dot)
            for prod in ps.basis_products():
                assert check(kind, prod, alg.dot).holds


def test_totally_compatible_space_inside_others():
    for alg in (rectangular_band_algebra(BandSpec(2, 2)), matrix_algebra(2, QQ)):
        tc = solve_linear(Kind.TOTALLY_COMPATIBLE, alg.dot).space
        for kind in (Kind.ID_MATCHING, Kind.SWAP_MATCHING, Kind.INTERCHANGEABLE, Kind.COMPATIBLE):
            assert solve_linear(kind, alg.dot).space.contains_subspace(tc)


def test_all_members_associative_band_tc():
    alg = rectangular_band_algebra(BandSpec(2, 2))
    cert = all_members_associative(solve_linear(Kind.TOTALLY_COMPATIBLE, alg.dot))
    assert cert.status == "pass"


def test_all_members_associative_m2_id_matching():
    alg = matrix_algebra(2, QQ)
    cert = all_members_associative(solve_linear(Kind.ID_MATCHING, alg.dot))
    assert cert.status == "pass"


def test_all_members_associative_finds_failure():
    # compatible space of the 3-dim example contains non-associative members
    alg, _, _ = example_3dim()
    ps = solve_linear(Kind.COMPATIBLE, alg.dot)
    cert = all_members_associative(ps)
    assert cert.status == "fail"
    assert cert.member is not None and cert.witness is not None
    # replay the witness: the named member really is non-associative
    f = QQ
    member = Product.zero(3, f)
    for coeff, base in zip(cert.member, ps.basis_products()):
        if coeff != f.zero:
            member = member.add(base.scale(coeff))
    assert not is_associative(member)


def test_all_members_associative_char2_enumeration():
    alg = rectangular_band_algebra(BandSpec(2, 2), GF(2))
    assert all_members_associative(solve_linear(Kind.SWAP_MATCHING, alg.dot)).status == "pass"
    # the criterion against brute-force enumeration on every small F_2 space
    compared = 0
    for alg in builder_zoo(GF(2)):
        for kind in Kind:
            ps = solve_linear(kind, alg.dot)
            if ps.dim > 12:
                continue
            cert = all_members_associative(ps)
            assert cert.all_associative == _enumerated_all_associative(ps)
            if not cert.all_associative:
                member = Product.zero(alg.dim, GF(2))
                for coeff, prod in zip(cert.member, ps.basis_products()):
                    if coeff:
                        member = member.add(prod)
                assert _reference_associativity_witness(member) == cert.witness
            compared += 1
    assert compared >= 20


def test_remark13_audit_consistency():
    alg = rectangular_band_algebra(BandSpec(2, 2))
    audit = remark13_audit(alg.dot, alg.dot.scale(3))
    assert not audit.contradiction
    assert all(audit.conditions.values())

    alg3, star, _ = example_3dim()
    audit = remark13_audit(star, alg3.dot)
    assert not audit.contradiction
    assert not any(audit.conditions.values())

    zero3 = zero_algebra(3, QQ)
    audit = remark13_audit(star, zero3.dot)
    assert not audit.contradiction
    assert all(audit.conditions.values())


def test_remark13_requires_associative():
    bad = Product.from_triples(2, QQ, [(0, 0, 1, 1), (1, 0, 0, 1)])
    with pytest.raises(NonAssociativeError):
        remark13_audit(bad, Product.zero(2, QQ))


# -- a Product evaluates its associativity once ------------------------------


@pytest.fixture
def assoc_evaluations(monkeypatch):
    """One entry per associativity evaluation (the checkers call their own binding)."""
    seen = []
    first_defect = algebra._first_defect

    def counting(terms, n, modulus):
        seen.append(n)
        return first_defect(terms, n, modulus)

    monkeypatch.setattr(algebra, "_first_defect", counting)
    return seen


def test_checks_evaluate_base_associativity_once(assoc_evaluations):
    m2 = matrix_algebra(2, QQ)
    base = Product(m2.dim, QQ, m2.dot.tables)  # a new object: not evaluated yet
    star = mutation(m2.dot, [1, 2, 0, -1])
    before = len(assoc_evaluations)
    for _ in range(3):
        for kind in Kind:
            check(kind, star, base)
    assert len(assoc_evaluations) == before + 1
    for _ in range(3):
        assert not remark13_audit(star, base).contradiction
        solve_linear(Kind.ID_MATCHING, base)
    assert len(assoc_evaluations) == before + 2  # the star's, once
    check_compatible_dual(star, base)
    check_compatible_dual(star, base)
    assert len(assoc_evaluations) == before + 4  # each call sums into a new product


def test_non_associative_base_raises_the_same_witness(assoc_evaluations):
    bad = Product.from_triples(2, QQ, [(0, 0, 1, 1), (1, 0, 0, 1)])
    ok = Product.zero(2, QQ)
    calls = [lambda k=kind: check(k, ok, bad) for kind in Kind]
    calls += [lambda: solve_linear(Kind.ID_MATCHING, bad), lambda: remark13_audit(ok, bad)]
    calls += [lambda: remark13_audit(bad, ok), lambda: check_compatible_dual(ok, bad)]
    witnesses = []
    for call in calls * 2:
        with pytest.raises(NonAssociativeError) as exc:
            call()
        witnesses.append(exc.value.witness)
    assert witnesses == [_reference_associativity_witness(bad)] * len(witnesses)
    assert len(assoc_evaluations) == 2  # bad's, then ok's in remark13_audit(ok, bad)


def test_new_products_evaluate_their_own_witness(assoc_evaluations):
    m2 = matrix_algebra(2, QQ).dot
    bad = Product.from_triples(2, QQ, [(0, 0, 1, 1), (1, 0, 0, 1)])
    for p in (m2, bad):
        n, f = p.dim, p.field
        witness = associativity_witness(p)
        before = len(assoc_evaluations)
        assert associativity_witness(p) == witness and len(assoc_evaluations) == before
        g = Matrix.identity(f, n)
        new = [
            Product(n, f, p.tables),
            p.add(Product.zero(n, f)),
            p.scale(1),
            Product.from_flat(n, f, p.flatten()),
            transport_product(p, g),
        ]
        for q in new:
            assert q == p and associativity_witness(q) == witness
        assert len(assoc_evaluations) == before + len(new)


def test_space_builds_its_basis_products_once(assoc_evaluations):
    ps = solve_linear(Kind.SWAP_MATCHING, rectangular_band_algebra(BandSpec(2, 2)).dot)
    before = len(assoc_evaluations)
    assert all_members_associative(ps).all_associative
    assert len(assoc_evaluations) == before + ps.dim == before + 5  # each member, once
    products = ps.basis_products()
    assert all_members_associative(ps).all_associative and ps.to_json()["dimension"] == 5
    assert len(assoc_evaluations) == before + 5
    assert all(p is q for p, q in zip(products, ps.basis_products()))
    # a replaced space builds the products of its own basis
    smaller = dataclasses.replace(ps, space=Subspace(QQ, ps.space.ambient_dim, ps.space.basis[1:]))
    assert smaller != ps and dataclasses.replace(ps, space=ps.space) == ps
    assert [p.flatten() for p in smaller.basis_products()] == [list(row) for row in smaller.space.basis]
    assert all_members_associative(smaller).all_associative
    assert len(assoc_evaluations) == before + 5 + 4


# -- test-only references built on the public `multiply` ---------------------


def _expressions(star, dot, i, j, k):
    f, n = dot.field, dot.dim
    bi, bj, bk = (basis_vector(f, n, x) for x in (i, j, k))
    return {
        E1: multiply(dot, multiply(star, bi, bj), bk),
        E2: multiply(star, multiply(dot, bi, bj), bk),
        E3: multiply(star, bi, multiply(dot, bj, bk)),
        E4: multiply(dot, bi, multiply(star, bj, bk)),
    }


def _side(exprs, values, field):
    out = [field.zero] * len(values[E1])
    for e in exprs:
        out = [field.add(a, b) for a, b in zip(out, values[e])]
    return tuple(out)


def _reference_first_failure(identities, star, dot):
    """First failing (identity, i, j, k) in that order, as a Witness, or None."""
    n = dot.dim
    memo = {}
    for idx, (lhs, rhs) in enumerate(identities):
        for i, j, k in itertools.product(range(n), repeat=3):
            if (i, j, k) not in memo:
                memo[i, j, k] = _expressions(star, dot, i, j, k)
            values = memo[i, j, k]
            left, right = _side(lhs, values, dot.field), _side(rhs, values, dot.field)
            if left != right:
                return Witness(idx, (i, j, k), left, right)
    return None


def _reference_check(kind, star, dot):
    w = _reference_first_failure(IDENTITIES[kind], star, dot)
    return CompatReport(kind, w is None, w)


def _reference_associativity_witness(p):
    w = _reference_first_failure((((E1,), (E4,)),), p, p)
    return None if w is None else w.triple


def _reference_certificate(ps):
    """Diagonal defects first, then the cross term of each pair a < b, which is
    the defect of P_a + P_b once every diagonal defect is zero."""
    f = ps.base.field
    basis = ps.basis_products()
    d = len(basis)
    for a in range(d):
        w = _reference_associativity_witness(basis[a])
        if w is not None:
            return AssociativityCertificate("fail", tuple(f.one if x == a else f.zero for x in range(d)), w)
    for a, b in itertools.combinations(range(d), 2):
        w = _reference_associativity_witness(basis[a].add(basis[b]))
        if w is not None:
            coords = tuple(f.one if x in (a, b) else f.zero for x in range(d))
            return AssociativityCertificate("fail", coords, w)
    return AssociativityCertificate("pass", None, None)


def _enumerated_all_associative(ps):
    """Brute force over all 2^d members of a space over F_2."""
    basis = ps.basis_products()
    for mask in range(2 ** len(basis)):
        member = Product.zero(ps.base.dim, ps.base.field)
        for a, prod in enumerate(basis):
            if mask >> a & 1:
                member = member.add(prod)
        if _reference_associativity_witness(member) is not None:
            return False
    return True


def _random_product(rng, n, field, density):
    triples = []
    for i, j, k in itertools.product(range(n), repeat=3):
        if rng.random() < density:
            if field == QQ:
                v = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            else:
                v = rng.randrange(field.p)
            triples.append((i, j, k, v))
    return Product.from_triples(n, field, triples)


DIFF_FIELDS = [QQ, GF(2), GF(5), GF(2**61 - 1)]

AUDIT_ATOMS = {
    "eq_13": ((E1,), (E3,)),
    "eq_24": ((E2,), (E4,)),
    "eq_14": ((E1,), (E4,)),
    "eq_23": ((E2,), (E3,)),
    "eq_12": ((E1,), (E2,)),
    "eq_34": ((E3,), (E4,)),
    "compatible": ((E1, E2), (E3, E4)),
}


@pytest.mark.parametrize("field", DIFF_FIELDS, ids=str)
def test_evaluator_matches_reference(field):
    rng = random.Random(41)
    for alg in (
        rectangular_band_algebra(BandSpec(2, 2), field),
        matrix_algebra(2, field),
        example_3dim(field)[0],
        zero_algebra(3, field),
    ):
        dot, n = alg.dot, alg.dim
        stars = [_random_product(rng, n, field, density) for density in (0.06, 0.3, 0.9)]
        scales = (3, Fraction(-2, 7)) if field == QQ else (3, field.p - 1)
        stars += [dot.scale(c) for c in scales]
        stars += [s for s in example_3dim(field)[1:] if n == 3]
        for star in stars:
            for kind in Kind:
                assert check(kind, star, dot) == _reference_check(kind, star, dot)
            assert associativity_witness(star) == _reference_associativity_witness(star)
            if is_associative(star):
                atoms = remark13_audit(star, dot).atoms
                for name, identity in AUDIT_ATOMS.items():
                    assert atoms[name] == (_reference_first_failure([identity], star, dot) is None)
        for kind in Kind:
            # includes the failing compatible space of the 3-dim example
            ps = solve_linear(kind, dot)
            assert all(_reference_check(kind, p, dot).holds for p in ps.basis_products()), kind
            assert all_members_associative(ps) == _reference_certificate(ps)


# -- row builders against field arithmetic on basis tensors ------------------

ROW_FIELDS = [QQ, GF(2), GF(5), GF(32003)]


def _row_builder_inputs(field):
    """Builder-zoo products and seeded base changes of them; over Q also
    rational structure constants, so the integer tables carry a scale > 1.
    The reference is slow, so dim 4 is left to F_2, and Q has one seeded
    base change, by a matrix with 1/3 entries."""
    rng = random.Random(43 + field.characteristic)
    dots = []
    for alg in builder_zoo(field):
        if alg.dim <= 3 or field == GF(2):
            dots.append(alg.dot)
        if alg.dim <= 3 and field != QQ:
            dots.append(transport_product(alg.dot, rand_invertible(rng, field, alg.dim)))
    if field == QQ:
        dot = example_3dim(QQ)[0].dot
        thirds = Matrix(QQ, [[1, 0, 0], [Fraction(1, 3), 1, 0], [Fraction(-2, 3), Fraction(1, 3), 1]])
        dots += [dot.scale(Fraction(1, 2)), transport_product(dot, thirds.mul(rand_invertible(rng, QQ, 3)))]
    return dots


def _kernel_of_columns(field, ncols, column):
    """kernel_pure of the system whose column c is the {row key: value} map column(c)."""
    rows = defaultdict(dict)
    for c in range(ncols):
        for key, v in column(c).items():
            if v != field.zero:
                rows[key][c] = v
    return kernel_pure(field, ncols, list(rows.values()))


def _unit(field, size, c):
    return [field.one if x == c else field.zero for x in range(size)]


def _reference_solve(dot):
    """Every kind's solution space, column by column: the unknown X runs over
    the basis tensors, and E1..E4 come from the public `multiply`."""
    f, n = dot.field, dot.dim
    b = [basis_vector(f, n, i) for i in range(n)]
    dots = {(i, j): multiply(dot, b[i], b[j]) for i, j in itertools.product(range(n), repeat=2)}
    triples = list(itertools.product(range(n), repeat=3))
    values = []  # values[c][i, j, k]: E1..E4 at the triple, with X the basis tensor c
    for c in range(n**3):
        x = Product.from_flat(n, f, _unit(f, n**3, c))
        xs = {ij: multiply(x, b[ij[0]], b[ij[1]]) for ij in dots}
        values.append({
            (i, j, k): {
                E1: multiply(dot, xs[i, j], b[k]),
                E2: multiply(x, dots[i, j], b[k]),
                E3: multiply(x, b[i], dots[j, k]),
                E4: multiply(dot, b[i], xs[j, k]),
            }
            for i, j, k in triples
        })

    def column(identities, c):
        out = {}
        for idx, (lhs, rhs) in enumerate(identities):
            for t in triples:
                left, right = _side(lhs, values[c][t], f), _side(rhs, values[c][t], f)
                for l in range(n):
                    out[idx, t, l] = f.sub(left[l], right[l])
        return out

    return {kind: _kernel_of_columns(f, n**3, lambda c: column(IDENTITIES[kind], c)) for kind in Kind}


@pytest.mark.parametrize("field", ROW_FIELDS, ids=str)
def test_solve_linear_matches_reference(field):
    for dot in _row_builder_inputs(field):
        want = _reference_solve(dot)
        for kind in Kind:
            assert solve_linear(kind, dot).space == want[kind], (dot, kind)


@pytest.mark.parametrize("field", ROW_FIELDS, ids=str)
def test_structure_spaces_match_reference(field):
    rng = random.Random(47 + field.characteristic)
    for dot in _row_builder_inputs(field):
        f, n = dot.field, dot.dim
        basis = [basis_vector(f, n, i) for i in range(n)]

        def commutator(u, x):
            return [f.sub(a, b) for a, b in zip(multiply(dot, basis[u], x), multiply(dot, x, basis[u]))]

        def center_col(u):
            return {(i, l): v for i, b in enumerate(basis) for l, v in enumerate(commutator(u, b))}

        def annihilator_col(u):
            sides = (multiply(dot, basis[u], b) for b in basis), (multiply(dot, b, basis[u]) for b in basis)
            return {(s, i, l): v for s, side in enumerate(sides) for i, w in enumerate(side) for l, v in enumerate(w)}

        def centroid_col(c):
            phi = Endomorphism.from_flat(f, n, _unit(f, n * n, c))
            out = {}
            for i, j in itertools.product(range(n), repeat=2):
                image = phi.apply(multiply(dot, basis[i], basis[j]))
                left = multiply(dot, basis[i], phi.apply(basis[j]))
                right = multiply(dot, phi.apply(basis[i]), basis[j])
                for l in range(n):
                    out[0, i, j, l] = f.sub(image[l], left[l])
                    out[1, i, j, l] = f.sub(image[l], right[l])
            return out

        assert center(dot) == _kernel_of_columns(f, n, center_col)
        assert annihilator(dot) == _kernel_of_columns(f, n, annihilator_col)
        assert centroid(dot) == _kernel_of_columns(f, n * n, centroid_col)
        for x in (basis[0], rand_vector(rng, f, n), rand_vector(rng, f, n)):
            assert centralizer(dot, x) == _kernel_of_columns(f, n, lambda u: dict(enumerate(commutator(u, x))))
