"""The classification verification suite behind `bicompat paper`.

Each entry re-derives one published classification statement from scratch
through the solvers and checkers and reports pass/fail with a short
deterministic detail string.  Entries are pure; the runner may evaluate
them on several workers and still emits results in fixed suite order.
"""

from __future__ import annotations

import itertools
import random
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

from .algebra import (
    Endomorphism,
    Product,
    annihilator,
    basis_vector,
    centralizer,
    centroid,
    find_units,
    is_associative,
    is_idempotent_algebra,
    transport_product,
)
from .builders import (
    BandSpec,
    QuiverSpec,
    band_id_matching,
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
from .compat import (
    Kind,
    all_members_associative,
    check,
    remark13_audit,
    solve_linear,
)
from .freealg import (
    ConditionNotVerifiedError,
    CPoly,
    NCPoly,
    StarMap,
    concat_star,
    concatenation_coords,
    cpoly_identity_suite,
    cpoly_multi_var_product,
    cpoly_single_var_product,
    extend_star,
    generator_chain_space,
    left_zero_star,
    mutation_star,
    right_zero_star,
    star_condition,
    truncated_centroid_dim,
    verify_id_matching_truncated,
    words_up_to,
)
from .linalg import GF, QQ, Matrix, Subspace


@lru_cache(maxsize=None)
def cached_solve(kind: Kind, dot: Product):
    return solve_linear(kind, dot)


def rand_scalar(rng, field):
    if field == QQ:
        return rng.randrange(-3, 4)
    return rng.randrange(field.p)


def rand_vector(rng, field, n):
    return [field.coerce(rand_scalar(rng, field)) for _ in range(n)]


def rand_invertible(rng, field, n):
    """Random product of unitriangular factors and a permutation; always invertible."""
    f = field
    low = [[f.one if i == j else (f.coerce(rand_scalar(rng, f)) if i > j else f.zero) for j in range(n)] for i in range(n)]
    up = [[f.one if i == j else (f.coerce(rand_scalar(rng, f)) if i < j else f.zero) for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    pm = [[f.one if perm[i] == j else f.zero for j in range(n)] for i in range(n)]
    return Matrix(f, low).mul(Matrix(f, up)).mul(Matrix(f, pm))


def rand_subspace_member(rng, space):
    f = space.field
    out = [f.zero] * space.ambient_dim
    for row in space.basis:
        c = f.coerce(rand_scalar(rng, f))
        if c != f.zero:
            out = [f.add(a, f.mul(c, b)) for a, b in zip(out, row)]
    return out


def builder_zoo(field):
    """Small associative algebras used for randomized draws."""
    return [
        rectangular_band_algebra(BandSpec(1, 2), field),
        rectangular_band_algebra(BandSpec(2, 2), field),
        matrix_algebra(2, field),
        example_3dim(field)[0],
        zero_algebra(3, field),
        direct_sum([matrix_algebra(1, field)] * 3),
    ]


def _one_space(dot, kinds, span=None):
    """Whether the cached solution spaces of `kinds` against dot, and span(dot) if given, are one space."""
    spaces = [cached_solve(kind, dot).space for kind in kinds]
    if span is not None:
        spaces.append(span(dot))
    return all(s == spaces[0] for s in spaces[1:])


_ONE_SIDED = (Kind.SWAP_MATCHING, Kind.INTERCHANGEABLE, Kind.TOTALLY_COMPATIBLE)


def _kindset(star, dot):
    return {kind: check(kind, star, dot).holds for kind in Kind}


def _lattice_ok(holds):
    tc = holds[Kind.TOTALLY_COMPATIBLE]
    if tc and not (
        holds[Kind.ID_MATCHING]
        and holds[Kind.SWAP_MATCHING]
        and holds[Kind.INTERCHANGEABLE]
        and holds[Kind.COMPATIBLE]
    ):
        return False
    if holds[Kind.ID_MATCHING] and not holds[Kind.COMPATIBLE]:
        return False
    if holds[Kind.SWAP_MATCHING] and not holds[Kind.COMPATIBLE]:
        return False
    return True


# ---------------------------------------------------------------------------
# Entries.  Each returns (ok, detail).


def _entry_example_3dim():
    alg, star, star2 = example_3dim()
    dot = alg.dot
    got = (
        check(Kind.SWAP_MATCHING, star, dot).holds,
        check(Kind.ID_MATCHING, star, dot).holds,
        check(Kind.INTERCHANGEABLE, star, dot).holds,
        check(Kind.ID_MATCHING, star2, dot).holds,
        check(Kind.SWAP_MATCHING, star2, dot).holds,
        check(Kind.INTERCHANGEABLE, star2, dot).holds,
    )
    want = (True, False, False, True, False, False)
    ok = got == want and is_associative(star) and is_associative(star2)
    return ok, f"star {got[:3]}, star2 {got[3:]}"


def _entry_example_6dim():
    alg, star = example_6dim()
    got = (
        check(Kind.INTERCHANGEABLE, star, alg.dot).holds,
        check(Kind.ID_MATCHING, star, alg.dot).holds,
        check(Kind.SWAP_MATCHING, star, alg.dot).holds,
    )
    ok = got == (True, False, False) and is_associative(star)
    return ok, f"interchangeable/id/swap = {got}"


def _entry_example_band22():
    alg, star = example_band22()
    assoc = is_associative(star)
    swap = check(Kind.SWAP_MATCHING, star, alg.dot).holds
    tc = check(Kind.TOTALLY_COMPATIBLE, star, alg.dot).holds
    ann = annihilator(alg.dot)
    zvec = [1, -1, -1, 1]
    ann_ok = ann.dim == 1 and ann.member(zvec)
    ok = assoc and swap and not tc and ann_ok
    return ok, f"assoc={assoc} swap={swap} tc={tc} ann_dim={ann.dim}"


def _entry_lemma_21():
    rng = random.Random(20250201)
    trials = 0
    for field in (GF(2), GF(3), QQ):
        for alg in builder_zoo(field):
            for _ in range(4):
                x = rand_vector(rng, field, alg.dim)
                mut = mutation(alg.dot, x)
                if not is_associative(mut):
                    return False, f"mutation not associative over {field}"
                if not check(Kind.ID_MATCHING, mut, alg.dot).holds:
                    return False, f"mutation not id-matching over {field}"
                trials += 1
    return True, f"{trials} mutation draws id-matching and associative"


def _entry_lemma_23():
    rng = random.Random(20250202)
    trials = 0
    for field in (GF(2), GF(3), QQ):
        for alg in builder_zoo(field):
            space = centroid(alg.dot)
            for _ in range(4):
                flat = rand_subspace_member(rng, space)
                phi = Endomorphism.from_flat(field, alg.dim, flat)
                prod = centroid_product(alg.dot, phi, space)
                if not is_associative(prod):
                    return False, f"centroid product not associative over {field}"
                if not check(Kind.TOTALLY_COMPATIBLE, prod, alg.dot).holds:
                    return False, f"centroid product not totally compatible over {field}"
                if not check(Kind.INTERCHANGEABLE, prod, alg.dot).holds:
                    return False, f"centroid product not interchangeable over {field}"
                trials += 1
    return True, f"{trials} centroid-product draws totally compatible"


def _entry_prop_22():
    details = []
    for alg, want in ((matrix_algebra(2, QQ), 4), (matrix_algebra(3, GF(5)), 9)):
        dim = cached_solve(Kind.ID_MATCHING, alg.dot).dim
        if dim != want or not _one_space(alg.dot, [Kind.ID_MATCHING], mutation_span):
            return False, f"id-matching space != mutation span on dim {alg.dim}"
        details.append(f"dim {alg.dim}: {dim}")
    return True, "id-matching = mutations; " + ", ".join(details)


def _entry_prop_25():
    for alg in (matrix_algebra(2, QQ), matrix_algebra(3, GF(5))):
        dim = cached_solve(Kind.TOTALLY_COMPATIBLE, alg.dot).dim
        if dim != 1 or not _one_space(alg.dot, _ONE_SIDED, centroid_product_span):
            return False, f"one-sided spaces != centroid image of dim 1 on dim {alg.dim}"
    return True, "swap = interchangeable = totally-compatible = centroid image, dim 1"


def _entry_cor_26():
    alg = matrix_algebra(2, QQ)
    x = basis_vector(QQ, 4, 1)  # E12 is non-central
    mut = mutation(alg.dot, x)
    idm = check(Kind.ID_MATCHING, mut, alg.dot)
    tc = check(Kind.TOTALLY_COMPATIBLE, mut, alg.dot)
    ok = idm.holds and not tc.holds and tc.witness is not None
    trip = tc.witness.triple if tc.witness else None
    return ok, f"id-matching holds, totally-compatible fails at {trip}"


def _entry_rem_13():
    rng = random.Random(20250203)
    audits = 0
    for field in (GF(2), GF(3)):
        algebras = [
            rectangular_band_algebra(BandSpec(1, 2), field),
            rectangular_band_algebra(BandSpec(1, 3), field),
            zero_algebra(3, field),
            example_3dim(field)[0],
            direct_sum([matrix_algebra(1, field)] * 2),
        ]
        for alg in algebras:
            spaces = [cached_solve(kind, alg.dot) for kind in Kind]
            members = []
            for ps in spaces:
                for _ in range(4):
                    cand = Product.from_flat(alg.dim, field, rand_subspace_member(rng, ps.space))
                    if is_associative(cand):
                        members.append(cand)
            for m in members:
                audit = remark13_audit(m, alg.dot)
                if audit.contradiction:
                    return False, f"contradiction over {field}"
                if not _lattice_ok(_kindset(m, alg.dot)):
                    return False, f"implication lattice violated over {field}"
                audits += 1
            for m1, m2 in zip(members, members[1:]):
                audit = remark13_audit(m1, m2)
                if audit.contradiction:
                    return False, f"pair contradiction over {field}"
                audits += 1
    return True, f"{audits} audits, no contradiction, lattice intact"


def _entry_rem_25_zero():
    rng = random.Random(20250204)
    alg = zero_algebra(3, QQ)
    templates = [
        Product.zero(3, QQ),
        example_3dim(QQ)[0].dot,
        example_3dim(QQ)[1],
        Product.from_triples(3, QQ, [(i, i, i, 1) for i in range(3)]),
    ]
    count = 0
    while count < 50:
        g = rand_invertible(rng, QQ, 3)
        cand = transport_product(templates[count % len(templates)], g)
        if not is_associative(cand):
            return False, "transport broke associativity"
        if not check(Kind.TOTALLY_COMPATIBLE, cand, alg.dot).holds:
            return False, "associative product not totally compatible with zero product"
        count += 1
    cdim = centroid(alg.dot).dim
    return cdim == 9, f"{count} associative products totally compatible; centroid dim {cdim}"


def _bands(limit=3, field=QQ):
    return [
        (BandSpec(r, c), rectangular_band_algebra(BandSpec(r, c), field))
        for r in range(1, limit + 1)
        for c in range(1, limit + 1)
    ]


def _entry_prop_31():
    algebras = [alg for _, alg in _bands()] + [
        matrix_algebra(2, QQ),
        path_algebra(QuiverSpec(3, [(0, 1), (1, 2)])),
        direct_sum([matrix_algebra(1, QQ)] * 3),
    ]
    for alg in algebras:
        if not is_idempotent_algebra(alg.dot):
            return False, f"builder algebra of dim {alg.dim} not idempotent"
        if not _one_space(alg.dot, [Kind.INTERCHANGEABLE, Kind.TOTALLY_COMPATIBLE]):
            return False, f"interchangeable != totally-compatible on dim {alg.dim}"
    return True, f"{len(algebras)} idempotent algebras: interchangeable space = totally-compatible space"


def _entry_prop_32():
    candidates = [
        matrix_algebra(2, QQ),
        rectangular_band_algebra(BandSpec(1, 2), QQ),
        rectangular_band_algebra(BandSpec(1, 3), QQ),
        rectangular_band_algebra(BandSpec(3, 1), QQ),
        direct_sum([matrix_algebra(1, QQ)] * 3),
    ]
    used = 0
    for alg in candidates:
        has_unit = find_units(alg.dot, "left") is not None or find_units(alg.dot, "right") is not None
        if not has_unit:
            return False, f"expected a one-sided unit on dim {alg.dim}"
        if not _one_space(alg.dot, [Kind.SWAP_MATCHING, Kind.TOTALLY_COMPATIBLE]):
            return False, f"swap-matching != totally-compatible on dim {alg.dim}"
        used += 1
    return True, f"{used} one-sided-unital algebras: swap space = totally-compatible space"


def _entry_prop_33():
    rng = random.Random(20250205)
    for spec, alg in _bands():
        ps = cached_solve(Kind.ID_MATCHING, alg.dot)
        want = spec.rows * spec.cols
        if ps.dim != want:
            return False, f"band {spec.rows}x{spec.cols}: id dim {ps.dim} != {want}"
        lam = [[rand_scalar(rng, QQ) for _ in range(spec.rows)] for _ in range(spec.cols)]
        prod = band_id_matching(spec, lam)
        if not is_associative(prod):
            return False, f"band {spec.rows}x{spec.cols}: lambda product not associative"
        if not ps.contains(prod):
            return False, f"band {spec.rows}x{spec.cols}: lambda product outside space"
    return True, "id-matching dims = |I||J| and lambda products are members"


def _entry_lemma_36():
    for spec, alg in _bands():
        ann = annihilator(alg.dot)
        for i in range(spec.rows):
            for j in range(spec.cols):
                e = basis_vector(QQ, alg.dim, spec.index(i, j))
                cent = centralizer(alg.dot, e)
                expected = Subspace(QQ, alg.dim, [e]).sum(ann)
                if cent != expected:
                    return False, f"band {spec.rows}x{spec.cols}: centralizer(e{i+1}{j+1}) mismatch"
    return True, "centralizer(e_ij) = span{e_ij} + annihilator on all bands"


def _entry_prop_38():
    for spec, alg in _bands():
        ps = cached_solve(Kind.SWAP_MATCHING, alg.dot)
        ann_dim = (spec.rows - 1) * (spec.cols - 1)
        want = 1 + spec.rows * spec.cols * ann_dim
        if ps.dim != want:
            return False, f"band {spec.rows}x{spec.cols}: swap dim {ps.dim} != {want}"
        cert = all_members_associative(ps)
        # regression: every member of the swap space is associative
        if cert.status != "pass":
            return False, f"band {spec.rows}x{spec.cols}: member verdict {cert.status}"
    return True, "swap dims = 1 + |I||J| dim Ann; every member associative"


def _entry_cor_39():
    for spec, alg in _bands():
        ps = cached_solve(Kind.TOTALLY_COMPATIBLE, alg.dot)
        span = Subspace(QQ, alg.dim**3, [alg.dot.flatten()])
        if ps.dim != 1 or ps.space != span:
            return False, f"band {spec.rows}x{spec.cols}: tc space is not span(dot)"
    return True, "totally-compatible space = scalar multiples of the band product"


def _entry_gamma_band():
    for spec, alg in _bands():
        c = centroid(alg.dot)
        ident = Endomorphism.identity(QQ, alg.dim).flatten()
        if c.dim != 1 or not c.member(ident):
            return False, f"band {spec.rows}x{spec.cols}: centroid dim {c.dim}"
    return True, "band centroids are the scalars"


def _entry_left_right_zero():
    for spec in [BandSpec(1, k) for k in range(2, 5)] + [BandSpec(k, 1) for k in range(2, 5)]:
        if not _one_space(rectangular_band_algebra(spec, QQ).dot, _ONE_SIDED, centroid_product_span):
            return False, f"band {spec.rows}x{spec.cols}: spaces differ"
    return True, "one-line bands: swap = interchangeable = totally-compatible = centroid image"


def _enough_idempotents_algebras():
    return [
        path_algebra(QuiverSpec(3, [(0, 1), (1, 2)]), QQ),
        direct_sum([matrix_algebra(1, QQ)] * 3),
        direct_sum([matrix_algebra(1, QQ), matrix_algebra(2, QQ)]),
    ]


def _entry_id_enough_idemp():
    for alg in _enough_idempotents_algebras():
        if not _one_space(alg.dot, [Kind.ID_MATCHING], mutation_span):
            return False, f"id-matching space != mutation span on dim {alg.dim}"
    return True, "id-matching = products a.x.b on path algebra and direct sums"


def _entry_comp_enough_idemp():
    for alg in _enough_idempotents_algebras():
        if not _one_space(alg.dot, _ONE_SIDED, centroid_product_span):
            return False, f"spaces differ on dim {alg.dim}"
    return True, "swap = interchangeable = totally-compatible = centroid image"


def _entry_prop_41():
    rng = random.Random(20250206)
    X = ("x", "y")
    for _ in range(40):
        words1 = words_up_to(X, 3)
        p = NCPoly(QQ, X, {rng.choice(words1): rng.randrange(1, 4) for _ in range(3)})
        q = NCPoly(QQ, X, {rng.choice(words1): rng.randrange(1, 4) for _ in range(3)})
        if p.is_zero() or q.is_zero():
            continue
        if p.mul(q).is_zero():
            return False, "zero divisors in the free algebra"
    stars = [
        concat_star(QQ, X),
        concat_star(QQ, X, 2),
        left_zero_star(QQ, X),
        right_zero_star(QQ, X),
        mutation_star(QQ, X, NCPoly(QQ, X, {"xy": 1})),
    ]
    letters = [NCPoly.var(QQ, X, x) for x in X]
    applied = 0
    for sm in stars:
        # (G1, G2, G3, G4) = ((a*b).c, (a.b)*c, a*(b.c), a.(b*c)) on the letter triples,
        # which decide every family (see identity_witness_truncated)
        sides = []
        for a, b, c in itertools.product(letters, repeat=3):
            ab, bc = extend_star(sm, a, b), extend_star(sm, b, c)
            sides.append((ab.mul(c), extend_star(sm, a.mul(b), c), extend_star(sm, a, b.mul(c)), a.mul(bc)))
        # swap-matching is G1 = G4 and G2 = G3, and on words G2 = G3 follows from G1 = G4
        # because G1 = G3 and G2 = G4 by the extension's definition
        if all(g1 == g4 for g1, _, _, g4 in sides):
            if not all(g1 == g2 == g3 == g4 for g1, g2, g3, g4 in sides):
                return False, "swap-matching star is not totally compatible"
            applied += 1
    return True, f"no zero divisors; swap implies totally-compatible for {applied} stars"


def _entry_prop_42():
    X = ("x", "y")
    stars = {
        "concatenation": concat_star(QQ, X),
        "left-zero": left_zero_star(QQ, X),
        "mutation": mutation_star(QQ, X, NCPoly(QQ, X, {"xy": 1})),
    }
    for name, sm in stars.items():
        try:
            verify_id_matching_truncated(sm, sm.max_degree() + 3)
        except ConditionNotVerifiedError:
            return False, f"{name} star fails the extension condition"
    # regression: the sparse star x*x = y also satisfies the condition
    weird = StarMap(QQ, X, {("x", "x"): NCPoly.var(QQ, X, "y")})
    if star_condition(weird) is not None:
        return False, "x*x=y star unexpectedly fails the condition"
    return True, "conditions and truncated verification pass; x*x=y passes the condition"


def _entry_lemma_44():
    X = ("x", "y")
    space = generator_chain_space(X, 4)
    vec = concatenation_coords(X, 4)
    expected = Subspace(QQ, len(vec), [vec])
    ok = space.dim == 1 and space == expected
    return ok, f"generator solution space dim {space.dim}, spanned by concatenation"


def _entry_gamma_free():
    got = {d: truncated_centroid_dim("nc", ("x", "y"), d) for d in (2, 3)}
    frozen = {2: 9, 3: 17}
    return got == frozen, f"truncated dims {got} (frozen regression {frozen})"


def _entry_gamma_kx():
    got_single = {d: truncated_centroid_dim("commutative", ("x",), d) for d in (3, 4)}
    got_two = truncated_centroid_dim("commutative", ("x", "y"), 2)
    ok = got_single == {3: 3, 4: 4} and got_two == 7
    return ok, f"single-variable dims {got_single}; two-variable d=2 dim {got_two}"


def _entry_kx_single():
    for e in (1, 2, 3):
        p = CPoly.monomial(QQ, ("x",), (e,))
        star = cpoly_single_var_product(p)
        if cpoly_identity_suite(star, 6) is not None:
            return False, f"suite fails for p = x^{e}"
    return True, "all four identity families hold at degree 6 for p = x, x^2, x^3"


def _entry_kx_multi():
    X = ("x", "y")
    ps = [CPoly.one(QQ, X), CPoly.var(QQ, X, "x"), CPoly.var(QQ, X, "x").mul(CPoly.var(QQ, X, "y"))]
    for p in ps:
        star = cpoly_multi_var_product(p)
        if cpoly_identity_suite(star, 4) is not None:
            return False, "multiplier product fails the identity suite"
    return True, f"{len(ps)} multiplier products pass all identity families at degree 4"


SUITE = [
    ("example-3dim", "separating 3-dim example", _entry_example_3dim),
    ("example-6dim", "separating 6-dim example", _entry_example_6dim),
    ("example-band22", "2x2 band swap-matching example", _entry_example_band22),
    ("lemma-2.1", "mutations are id-matching", _entry_lemma_21),
    ("lemma-2.3", "centroid products are totally compatible", _entry_lemma_23),
    ("prop-2.2", "id-matching = mutations on matrix algebras", _entry_prop_22),
    ("prop-2.5", "one-sided notions collapse on matrix algebras", _entry_prop_25),
    ("cor-2.6", "non-central mutation separates id-matching from total", _entry_cor_26),
    ("rem-1.3", "equivalence lattice audit", _entry_rem_13),
    ("rem-2.5-zero", "everything is totally compatible over zero multiplication", _entry_rem_25_zero),
    ("prop-3.1", "idempotent: interchangeable = totally compatible", _entry_prop_31),
    ("prop-3.2", "one-sided unit: swap-matching = totally compatible", _entry_prop_32),
    ("prop-3.3", "band id-matching family", _entry_prop_33),
    ("lemma-3.6", "band centralizers", _entry_lemma_36),
    ("prop-3.8", "band swap-matching family", _entry_prop_38),
    ("cor-3.9", "band totally compatible family", _entry_cor_39),
    ("gamma-band", "band centroid is scalar", _entry_gamma_band),
    ("prop-left-right-zero", "one-line bands collapse", _entry_left_right_zero),
    ("prop-id-enough-idemp", "id-matching on path algebras and sums", _entry_id_enough_idemp),
    ("prop-comp-enough-idemp", "swap-matching on path algebras and sums", _entry_comp_enough_idemp),
    ("prop-4.1", "no zero divisors: swap implies totally compatible", _entry_prop_41),
    ("prop-4.2", "star maps extend to id-matching products", _entry_prop_42),
    ("lemma-4.4", "generator solutions are scalar concatenation", _entry_lemma_44),
    ("gamma-free", "truncated centroid of the free algebra", _entry_gamma_free),
    ("gamma-kx", "truncated centroid of polynomial algebras", _entry_gamma_kx),
    ("prop-kx-single", "single-variable shift products", _entry_kx_single),
    ("prop-kx-multi", "multi-variable multiplier products", _entry_kx_multi),
]

SUITE_IDS = [entry_id for entry_id, _, _ in SUITE]


class UnknownEntryError(ValueError):
    pass


def run_suite(only=None, workers=1):
    """Run entries (all, or the one named by `only`) and return ordered results."""
    entries = SUITE
    if only is not None:
        entries = [e for e in SUITE if e[0] == only]
        if not entries:
            raise UnknownEntryError(f"unknown suite entry {only!r}")

    def run_one(entry):
        entry_id, description, fn = entry
        ok, detail = fn()
        return {"id": entry_id, "description": description, "ok": bool(ok), "detail": detail}

    if workers <= 1:
        return [run_one(e) for e in entries]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_one, entries))
