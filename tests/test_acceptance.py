"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints a `[acceptance NN] PASS` line once its assertions went
through (visible with `pytest -s` or in failure output).
"""

import json
import random
from pathlib import Path

from bicompat.algebra import (
    Endomorphism,
    Product,
    annihilator,
    basis_vector,
    centralizer,
    centroid,
    is_associative,
    transport_product,
)
from bicompat.builders import (
    BandSpec,
    QuiverSpec,
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
from bicompat.cli import main
from bicompat.compat import Kind, check, remark13_audit
from bicompat.linalg import GF, QQ, Subspace
from bicompat.suite import (
    builder_zoo,
    cached_solve,
    rand_invertible,
    rand_subspace_member,
    rand_vector,
)
from bicompat.freealg import (
    CPoly,
    NCPoly,
    concat_star,
    concatenation_coords,
    cpoly_identity_suite,
    cpoly_single_var_product,
    generator_chain_space,
    left_zero_star,
    mutation_star,
    star_condition,
    verify_id_matching_truncated,
)


def _report(num, text):
    print(f"[acceptance {num:02d}] PASS {text}")


def test_c01_first_section_examples():
    alg, star, star2 = example_3dim()
    dot = alg.dot
    assert check(Kind.SWAP_MATCHING, star, dot).holds
    assert not check(Kind.ID_MATCHING, star, dot).holds
    assert not check(Kind.INTERCHANGEABLE, star, dot).holds
    assert check(Kind.ID_MATCHING, star2, dot).holds
    assert not check(Kind.SWAP_MATCHING, star2, dot).holds
    assert not check(Kind.INTERCHANGEABLE, star2, dot).holds
    alg6, star6 = example_6dim()
    assert check(Kind.INTERCHANGEABLE, star6, alg6.dot).holds
    assert not check(Kind.ID_MATCHING, star6, alg6.dot).holds
    assert not check(Kind.SWAP_MATCHING, star6, alg6.dot).holds
    _report(1, "3-dim and 6-dim example check matrices reproduce exactly")


def test_c02_matrix_algebra_solution_spaces():
    for alg, matrix_size in ((matrix_algebra(2, QQ), 2), (matrix_algebra(3, GF(5)), 3)):
        idspace = cached_solve(Kind.ID_MATCHING, alg.dot)
        assert idspace.dim == matrix_size**2
        assert idspace.space == mutation_span(alg.dot)
        image = centroid_product_span(alg.dot)
        for kind in (Kind.SWAP_MATCHING, Kind.INTERCHANGEABLE, Kind.TOTALLY_COMPATIBLE):
            ps = cached_solve(kind, alg.dot)
            assert ps.dim == 1
            assert ps.space == image
    _report(2, "M2(Q) and M3(F5): id-matching = mutations, one-sided notions = centroid image")


def test_c03_mutation_and_centroid_product_draws():
    rng = random.Random(424242)
    fields = (GF(2), GF(3), QQ)
    zoos = {f: builder_zoo(f) for f in fields}
    centroids = {}
    passes = 0
    for t in range(200):
        field = fields[t % 3]
        alg = zoos[field][t % len(zoos[field])]
        x = rand_vector(rng, field, alg.dim)
        mut = mutation(alg.dot, x)
        assert is_associative(mut)
        assert check(Kind.ID_MATCHING, mut, alg.dot).holds
        passes += 1
    for t in range(200):
        field = fields[t % 3]
        alg = zoos[field][t % len(zoos[field])]
        key = (field, alg.labels)
        if key not in centroids:
            centroids[key] = centroid(alg.dot)
        space = centroids[key]
        phi = Endomorphism.from_flat(field, alg.dim, rand_subspace_member(rng, space))
        prod = centroid_product(alg.dot, phi, space)
        assert is_associative(prod)
        assert check(Kind.TOTALLY_COMPATIBLE, prod, alg.dot).holds
        passes += 1
    assert passes == 400
    _report(3, f"{passes}/400 random mutation and centroid-product draws pass")


def test_c04_noncentral_mutation_witness():
    alg = matrix_algebra(2, QQ)
    mut = mutation(alg.dot, basis_vector(QQ, 4, alg.index_of("E12")))
    assert check(Kind.ID_MATCHING, mut, alg.dot).holds
    report = check(Kind.TOTALLY_COMPATIBLE, mut, alg.dot)
    assert not report.holds
    assert report.witness is not None
    i, j, k = report.witness.triple
    assert report.witness.lhs != report.witness.rhs
    _report(4, f"mutation by E12 on M2(Q) fails total compatibility at triple {(i, j, k)}")


def test_c05_rectangular_band_classifications():
    zvec = [1, -1, -1, 1]
    for rows in (1, 2, 3):
        for cols in (1, 2, 3):
            spec = BandSpec(rows, cols)
            alg = rectangular_band_algebra(spec)
            ann = annihilator(alg.dot)
            ann_dim = (rows - 1) * (cols - 1)
            assert ann.dim == ann_dim
            assert cached_solve(Kind.ID_MATCHING, alg.dot).dim == rows * cols
            assert cached_solve(Kind.SWAP_MATCHING, alg.dot).dim == 1 + rows * cols * ann_dim
            assert cached_solve(Kind.TOTALLY_COMPATIBLE, alg.dot).dim == 1
            assert centroid(alg.dot).dim == 1
            for i in range(rows):
                for j in range(cols):
                    e = basis_vector(QQ, alg.dim, spec.index(i, j))
                    assert centralizer(alg.dot, e) == Subspace(QQ, alg.dim, [e]).sum(ann)
    band22 = rectangular_band_algebra(BandSpec(2, 2))
    ann22 = annihilator(band22.dot)
    assert ann22 == Subspace(QQ, 4, [zvec])
    _report(5, "band solve dims, annihilators, centroids and centralizers all match")


def test_c06_band22_example_product():
    alg, star = example_band22()
    assert is_associative(star)
    assert check(Kind.SWAP_MATCHING, star, alg.dot).holds
    assert not check(Kind.TOTALLY_COMPATIBLE, star, alg.dot).holds
    _report(6, "2x2 band example: associative, swap-matching, not totally compatible")


def test_c07_one_line_bands_collapse():
    for k in range(1, 5):
        for spec in (BandSpec(1, k), BandSpec(k, 1)):
            alg = rectangular_band_algebra(spec)
            swap = cached_solve(Kind.SWAP_MATCHING, alg.dot)
            tc = cached_solve(Kind.TOTALLY_COMPATIBLE, alg.dot)
            assert swap.space == tc.space
    _report(7, "left-zero and right-zero bands: swap-matching space = totally-compatible space")


def test_c08_enough_idempotents_finite_scale():
    algebras = [
        path_algebra(QuiverSpec(3, [(0, 1), (1, 2)])),
        direct_sum([matrix_algebra(1, QQ)] * 3),
    ]
    for alg in algebras:
        assert cached_solve(Kind.SWAP_MATCHING, alg.dot).space == centroid_product_span(alg.dot)
        assert cached_solve(Kind.ID_MATCHING, alg.dot).space == mutation_span(alg.dot)
    _report(8, "path algebra and direct sum: swap = centroid image, id = mutation span")


def test_c09_zero_multiplication_totally_compatible():
    rng = random.Random(99)
    alg = zero_algebra(3, QQ)
    templates = [
        Product.zero(3, QQ),
        example_3dim()[0].dot,
        example_3dim()[1],
        Product.from_triples(3, QQ, [(i, i, i, 1) for i in range(3)]),
    ]
    for t in range(50):
        g = rand_invertible(rng, QQ, 3)
        cand = transport_product(templates[t % len(templates)], g)
        assert is_associative(cand)
        assert check(Kind.TOTALLY_COMPATIBLE, cand, alg.dot).holds
    assert centroid(alg.dot) == Subspace.full(QQ, 9)
    _report(9, "50 associative products totally compatible with zero product; centroid dim 9")


def test_c10_equivalence_audit_batch():
    rng = random.Random(1313)
    audits = 0
    pool = []
    for field in (GF(2), GF(3)):
        algebras = [
            rectangular_band_algebra(BandSpec(1, 2), field),
            rectangular_band_algebra(BandSpec(1, 3), field),
            zero_algebra(3, field),
            example_3dim(field)[0],
            direct_sum([matrix_algebra(1, field)] * 2),
            rectangular_band_algebra(BandSpec(3, 1), field),
        ]
        for alg in algebras:
            members = []
            for kind in Kind:
                ps = cached_solve(kind, alg.dot)
                for _ in range(6):
                    cand = Product.from_flat(alg.dim, field, rand_subspace_member(rng, ps.space))
                    if is_associative(cand):
                        members.append(cand)
            pool.append((alg, members))
    while audits < 500:
        for alg, members in pool:
            if audits >= 500 or not members:
                continue
            m1 = members[audits % len(members)]
            m2 = members[(audits // 2) % len(members)]
            for pair in ((m1, alg.dot), (m1, m2)):
                audit = remark13_audit(*pair)
                assert not audit.contradiction
                audits += 1
            holds = {kind: check(kind, m1, alg.dot).holds for kind in Kind}
            if holds[Kind.TOTALLY_COMPATIBLE]:
                assert all(holds.values())
            if holds[Kind.ID_MATCHING] or holds[Kind.SWAP_MATCHING]:
                assert holds[Kind.COMPATIBLE]
    assert audits >= 500
    _report(10, f"{audits} audits: no contradictions, implication lattice intact")


def test_c11_free_algebra_suite():
    X = ("x", "y")
    stars = {
        "concatenation": concat_star(QQ, X),
        "left-zero": left_zero_star(QQ, X),
        "mutation": mutation_star(QQ, X, NCPoly(QQ, X, {"xy": 1})),
    }
    for name, sm in stars.items():
        assert star_condition(sm) is None, name
        assert verify_id_matching_truncated(sm, 4) is None, name
        # non-vacuous: every word triple of total degree <= 5 (248 of them)
        assert verify_id_matching_truncated(sm, sm.max_degree() + 5) is None, name
    space = generator_chain_space(X, 4)
    vec = concatenation_coords(X, 4)
    assert space.dim == 1
    assert space == Subspace(QQ, len(vec), [vec])
    for e in (1, 2, 3):
        star = cpoly_single_var_product(CPoly.monomial(QQ, ("x",), (e,)))
        assert cpoly_identity_suite(star, 6) is None
    _report(11, "star conditions, truncated verification, generator solve and shift products")


# Recorded `paper --machine` output; the benchmark checks answers against it too.
GOLDEN_PAPER = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "paper_machine.jsonl"


def test_c12_determinism(capsys):
    outs = []
    for argv in (
        ["paper", "--machine"],
        ["paper", "--machine"],
        ["paper", "--machine", "--workers", "1"],
        ["paper", "--machine", "--workers", "4"],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0
        outs.append(captured.out.encode("utf-8"))
    assert outs[0] == outs[1] == outs[2] == outs[3]
    assert outs[0] == GOLDEN_PAPER.read_bytes()
    lines = outs[0].decode().strip().split("\n")
    assert all(json.loads(line)["ok"] for line in lines)
    _report(12, f"verification suite byte-identical across runs and worker counts ({len(lines)} entries)")
