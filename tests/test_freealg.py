import itertools
import math
import random
from fractions import Fraction

import pytest
from _reference import poly_product, poly_terms

from bicompat.freealg import (
    MAX_CENTROID_CARRIER,
    MAX_LETTERS,
    AlphabetMismatchError,
    ConditionNotVerifiedError,
    CPoly,
    FreeAlgebraError,
    NCPoly,
    NonzeroConstantTermError,
    StarMap,
    TruncatedWitness,
    WrongVariableCountError,
    concat_star,
    concatenation_coords,
    cpoly_identity_suite,
    cpoly_multi_var_product,
    cpoly_single_var_product,
    decompose_left,
    decompose_right,
    extend_star,
    generator_chain_space,
    identity_witness_truncated,
    left_zero_star,
    monomials_up_to,
    mutation_star,
    nc_add,
    nc_degree,
    nc_mul,
    right_zero_star,
    star_condition,
    starmap_from_json,
    truncated_centroid_dim,
    verify_id_matching_truncated,
    words_up_to,
)
from bicompat.linalg import GF, QQ, Subspace

X = ("x", "y")


def V(letter):
    return NCPoly.var(QQ, X, letter)


def W(word, coeff=1):
    return NCPoly.word(QQ, X, word, coeff)


# ---------------------------------------------------------------------------
# arithmetic


def test_word_product_is_concatenation():
    assert nc_mul(V("x"), V("y")) == W("xy")
    assert nc_mul(nc_add(V("x"), V("y")), V("x")) == W("xx").add(W("yx"))
    assert nc_degree(nc_mul(W("xy").add(W("yx")), V("x"))) == 3


def test_degrees_add_for_nonzero():
    rng = random.Random(6)
    words = words_up_to(X, 3)
    for _ in range(30):
        p = NCPoly(QQ, X, {rng.choice(words): rng.randrange(1, 5) for _ in range(2)})
        q = NCPoly(QQ, X, {rng.choice(words): rng.randrange(1, 5) for _ in range(2)})
        prod = nc_mul(p, q)
        assert not prod.is_zero()
        assert prod.degree() == p.degree() + q.degree()


def test_alphabet_mismatch_rejected():
    with pytest.raises(AlphabetMismatchError):
        nc_mul(V("x"), NCPoly.var(QQ, ("x", "z"), "z"))
    # monomials that do not fit the alphabet, or are not words or int exponent tuples
    for make in (
        lambda: NCPoly(QQ, X, {"xz": 1}),
        lambda: NCPoly(QQ, X, {("x", "y"): 1}),
        lambda: CPoly(QQ, ("x",), {(1.5,): 1}),
        lambda: CPoly(QQ, ("x",), {(True,): 1}),
        lambda: CPoly(QQ, ("x",), {(-1,): 1}),
        lambda: CPoly(QQ, X, {(1,): 1}),
        lambda: CPoly(QQ, ("x",), {1: 1}),
        lambda: CPoly.var(QQ, X, "z"),
        lambda: CPoly.monomial(QQ, ("x",), 5),
    ):
        with pytest.raises(FreeAlgebraError):
            make()


def test_zero_and_constants():
    zero = NCPoly.zero(QQ, X)
    assert zero.degree() is None
    assert nc_mul(zero, V("x")).is_zero()
    const = NCPoly(QQ, X, {"": 2})
    assert not const.is_aug_zero()


def test_str_of_both_kinds():
    F5 = GF(5)
    assert str(NCPoly.zero(QQ, X)) == str(CPoly.zero(QQ, X)) == "0"
    assert str(NCPoly(QQ, X, {"": 3, "x": 1})) == "3*1 + x"
    assert str(CPoly(QQ, ("x",), {(0,): 3, (2,): 2})) == "3 + 2*x^2"
    assert str(NCPoly(QQ, X, {"": 1, "yx": 1, "xy": Fraction(-1, 2)})) == "1 + -1/2*xy + yx"
    assert str(CPoly(QQ, X, {(0, 0): 1, (0, 1): Fraction(2, 3)})) == "1 + 2/3*y"
    assert str(NCPoly(F5, X, {"xy": 7, "": 1, "y": -1})) == "1 + 4*y + 2*xy"
    assert str(CPoly(F5, X, {(1, 2): 6})) == str(CPoly(QQ, X, {(1, 2): 1})) == "x*y^2"
    assert str(CPoly(F5, X, {(1, 2): 4, (1, 0): 3, (0, 0): -2})) == "3 + 3*x + 4*x*y^2"


@pytest.mark.parametrize("f", [QQ, GF(2), GF(5)], ids=["Q", "F2", "F5"])
def test_poly_arithmetic_matches_reference(f):
    rng = random.Random(str(f))
    kinds = (
        (NCPoly, words_up_to(X, 3, start=0), lambda w1, w2: w1 + w2, len, ""),
        (CPoly, monomials_up_to(X, 3, start=0), lambda e1, e2: (e1[0] + e2[0], e1[1] + e2[1]), sum, (0, 0)),
    )
    values = [Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)] if f == QQ else list(range(-3, 4))
    for poly, monos, combine, deg, unit in kinds:
        for _ in range(60):
            a, b = ({rng.choice(monos): rng.choice(values) for _ in range(rng.randrange(5))} for _ in range(2))
            p, q = poly(f, X, a), poly(f, X, b)
            ta, tb = poly_terms(f, a.items()), poly_terms(f, b.items())
            assert p.terms == ta and q.terms == tb
            c = rng.choice(values)
            neg_b = [(m, f.neg(v)) for m, v in tb.items()]
            expected = {
                "add": (p.add(q), poly_terms(f, [*ta.items(), *tb.items()])),
                "sub": (p.sub(q), poly_terms(f, [*ta.items(), *neg_b])),
                "scale": (p.scale(c), poly_terms(f, ((m, f.mul(f.coerce(c), v)) for m, v in ta.items()))),
                "scale0": (p.scale(0), {}),
                "mul": (p.mul(q), poly_product(f, ta, tb, combine)),
            }
            for name, (got, terms) in expected.items():
                assert type(got) is poly and got.terms == terms, (name, a, b)
                assert got == poly(f, X, terms) and hash(got) == hash(poly(f, X, terms))
            assert p.degree() == max(map(deg, ta), default=None)
            assert p.constant_term() == ta.get(unit, f.zero)
            assert p.is_aug_zero() == (unit not in ta)
            assert p.is_zero() == (not ta)
    nc, com = NCPoly.var(f, X, "x"), CPoly.var(f, X, "x")
    for p, q in ((nc, com), (com, nc)):
        for op in (p.add, p.sub, p.mul):
            with pytest.raises(TypeError):
                op(q)
    assert nc != com and NCPoly.zero(f, X) != CPoly.zero(f, X)


# ---------------------------------------------------------------------------
# decompositions


def test_decompose_right_examples():
    q = W("xy").add(W("x"))
    parts = decompose_right(q)
    assert parts["x"] == NCPoly(QQ, X, {"y": 1, "": 1})
    assert parts["y"].is_zero()


def test_decompose_left_examples():
    q = W("xy").add(W("yx"))
    parts = decompose_left(q)
    assert parts["x"] == W("y")
    assert parts["y"] == W("x")


def test_decompose_requires_aug_zero():
    with pytest.raises(NonzeroConstantTermError):
        decompose_right(NCPoly(QQ, X, {"": 1, "x": 1}))


def test_decompose_roundtrip_random():
    rng = random.Random(12)
    words = words_up_to(X, 4)
    for _ in range(25):
        q = NCPoly(QQ, X, {rng.choice(words): rng.randrange(-3, 4) for _ in range(4)})
        right = decompose_right(q)
        back = NCPoly.zero(QQ, X)
        for u, part in right.items():
            back = back.add(part.mul_word_left(u))
        assert back == q
        left = decompose_left(q)
        back = NCPoly.zero(QQ, X)
        for v, part in left.items():
            back = back.add(part.mul_word_right(v))
        assert back == q


# ---------------------------------------------------------------------------
# star maps


def test_star_conditions():
    assert star_condition(concat_star(QQ, X)) is None
    assert star_condition(left_zero_star(QQ, X)) is None
    assert star_condition(right_zero_star(QQ, X)) is None
    assert star_condition(mutation_star(QQ, X, W("xy"))) is None
    assert star_condition(mutation_star(QQ, X, NCPoly(QQ, X, {"": 1, "x": 1}))) is None
    # regression: the sparse star x*x = y satisfies the condition
    weird = StarMap(QQ, X, {("x", "x"): V("y")})
    assert star_condition(weird) is None
    # the concatenation star x*y = c xy, c = 0 included, and its alphabet checks
    for f in (QQ, GF(2), GF(5)):
        for c in (1, 3, -1, 0):
            sm = concat_star(f, "xyz", c)
            assert sm.alphabet == ("x", "y", "z") and star_condition(sm) is None
            assert sm.table == {(a, b): NCPoly.word(f, "xyz", a + b, c) for a in "xyz" for b in "xyz"}
    assert all(p.is_zero() for p in concat_star(QQ, X, 0).table.values())
    for bad, message in (("", "nonempty"), ("xx", "distinct"), (["ab"], "single characters"), ([1], "single")):
        with pytest.raises(FreeAlgebraError, match=message):
            concat_star(QQ, bad)


def test_star_condition_failure_found():
    # x*y = x, all else zero: fails because left parts of x*y hit zero images
    broken = StarMap(QQ, X, {("x", "y"): V("x")})
    witness = star_condition(broken)
    assert witness is not None
    assert witness.lhs != witness.rhs


def test_star_images_must_be_aug_zero():
    with pytest.raises(NonzeroConstantTermError):
        StarMap(QQ, X, {("x", "x"): NCPoly(QQ, X, {"": 1})})


def test_extend_star_examples():
    cs = concat_star(QQ, X)
    a, b = W("xy"), W("yx")
    assert extend_star(cs, a, b) == a.mul(b)
    lz = left_zero_star(QQ, X)
    assert extend_star(lz, W("yx"), W("yx")) == W("yxx")
    mut = mutation_star(QQ, X, W("xy"))
    assert extend_star(mut, V("x"), V("y")) == W("x").mul(W("xy")).mul(W("y"))


def test_extend_star_bilinear():
    lz = left_zero_star(QQ, X)
    a = W("x", 2).add(W("yx", 3))
    b = W("y", 5)
    out = extend_star(lz, a, b)
    expected = extend_star(lz, W("x"), W("y")).scale(10).add(
        extend_star(lz, W("yx"), W("y")).scale(15)
    )
    assert out == expected


def test_extend_star_requires_condition():
    broken = StarMap(QQ, X, {("x", "y"): V("x")})
    with pytest.raises(ConditionNotVerifiedError):
        extend_star(broken, V("x"), V("y"))


def test_verify_truncated():
    assert verify_id_matching_truncated(concat_star(QQ, X), 4) is None
    assert verify_id_matching_truncated(left_zero_star(QQ, X), 4) is None
    assert verify_id_matching_truncated(left_zero_star(QQ, X), 7) is None
    assert verify_id_matching_truncated(mutation_star(QQ, X, W("xy")), 5) is None
    weird = StarMap(QQ, X, {("x", "x"): V("y")})
    assert verify_id_matching_truncated(weird, 6) is None
    # degree - max image degree = 5 checks the 248 word triples of total degree <= 5
    stars = [concat_star(QQ, X), left_zero_star(QQ, X), mutation_star(QQ, X, W("xy")), weird]
    for sm in stars:
        assert verify_id_matching_truncated(sm, sm.max_degree() + 5) is None


def test_truncated_checks_answer_every_cap():
    # both checks are decided on the letter triples, so a large cap costs nothing and is answered
    cs = concat_star(QQ, X)
    for cap in (14, 10**9):
        assert identity_witness_truncated(cs, "id-matching", cap) is None
        assert identity_witness_truncated(cs, "totally-compatible", cap) is None
        assert verify_id_matching_truncated(cs, cap) is None
    lz = left_zero_star(QQ, X)
    assert identity_witness_truncated(lz, "swap-matching", 10**9) == TruncatedWitness("G1=G4", ("x", "x", "y"))
    # the family is checked first, then the condition, at every cap
    broken = StarMap(QQ, X, {("x", "y"): V("x")})
    with pytest.raises(FreeAlgebraError, match="unknown identity family"):
        identity_witness_truncated(broken, "nope", 10**9)
    for cap in (2, 10**9):
        with pytest.raises(ConditionNotVerifiedError):
            identity_witness_truncated(broken, "id-matching", cap)
        with pytest.raises(ConditionNotVerifiedError):
            verify_id_matching_truncated(broken, cap)


def test_starmap_letter_budget():
    letters = [chr(ord("A") + i) for i in range(MAX_LETTERS + 1)]
    doc = {"field": "Q", "vars": letters[:MAX_LETTERS], "table": {"A,B": [["AB", "1"]]}}
    assert len(starmap_from_json(doc).alphabet) == MAX_LETTERS
    doc["vars"] = letters
    with pytest.raises(FreeAlgebraError, match="variables"):
        starmap_from_json(doc)


def test_swap_implies_totally_compatible_with_margin():
    stars = [
        concat_star(QQ, X),
        concat_star(QQ, X, 3),
        left_zero_star(QQ, X),
        right_zero_star(QQ, X),
        mutation_star(QQ, X, W("xy")),
    ]
    d = 5
    for sm in stars:
        if identity_witness_truncated(sm, "swap-matching", d) is None:
            margin = d - sm.max_degree()
            assert identity_witness_truncated(sm, "totally-compatible", margin) is None


def test_left_zero_star_is_not_swap_matching():
    lz = left_zero_star(QQ, X)
    w = identity_witness_truncated(lz, "swap-matching", 4)
    assert isinstance(w, TruncatedWitness)
    # a cap of 2 admits no triple; 3 admits the letter triples, x.x.y first failing
    assert identity_witness_truncated(lz, "swap-matching", 2) is None
    assert identity_witness_truncated(lz, "swap-matching", 3) == TruncatedWitness("G1=G4", ("x", "x", "y"))


# ---------------------------------------------------------------------------
# differential: the term-dict evaluator against public NCPoly arithmetic

_REF_IDENTITIES = {
    "id-matching": ("G1=G3", "G2=G4"),
    "swap-matching": ("G1=G4", "G2=G3"),
    "interchangeable": ("G1=G2", "G3=G4"),
    "totally-compatible": ("G1=G2", "G2=G4", "G4=G3"),
}


def _ref_extend(sm, a, b):
    """sum over terms of a1 . S(x, y) . b1, with word products, mul, scale and add."""
    f, letters = sm.field, sm.alphabet
    out = NCPoly.zero(f, letters)
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            left, right = NCPoly.word(f, letters, wa[:-1]), NCPoly.word(f, letters, wb[1:])
            term = left.mul(sm.image(wa[-1], wb[0])).mul(right)
            out = out.add(term.scale(f.mul(ca, cb)))
    return out


def _ref_condition(sm):
    """First (x, y, z) with sum_v L_v . (v star z) != sum_u (x star u) . R_u, as (triple, lhs, rhs)."""
    f, letters = sm.field, sm.alphabet
    for x, y, z in itertools.product(letters, repeat=3):
        lhs = rhs = NCPoly.zero(f, letters)
        for v, part in decompose_left(sm.image(x, y)).items():
            lhs = lhs.add(part.mul(sm.image(v, z)))
        for u, part in decompose_right(sm.image(y, z)).items():
            rhs = rhs.add(sm.image(x, u).mul(part))
        if lhs != rhs:
            return (x, y, z), lhs, rhs
    return None


def _ref_triples(letters, cap):
    def words(n):
        return ["".join(t) for t in itertools.product(letters, repeat=n)]

    for ta in range(1, cap - 1):
        for tb in range(1, cap - ta):
            for tc in range(1, cap - ta - tb + 1):
                for wa, wb, wc in itertools.product(words(ta), words(tb), words(tc)):
                    yield wa, wb, wc


def _ref_sides(sm, cap):
    f, letters = sm.field, sm.alphabet
    for wa, wb, wc in _ref_triples(letters, cap):
        a, b, c = (NCPoly.word(f, letters, w) for w in (wa, wb, wc))
        yield (wa, wb, wc), {
            "G1": _ref_extend(sm, a, b).mul(c),
            "G2": _ref_extend(sm, a.mul(b), c),
            "G3": _ref_extend(sm, a, b.mul(c)),
            "G4": a.mul(_ref_extend(sm, b, c)),
        }


def _ref_witness(sm, kind, cap):
    if _ref_condition(sm) is not None:
        raise ConditionNotVerifiedError("reference: condition fails")
    for triple, g in _ref_sides(sm, cap):
        for name in _REF_IDENTITIES[kind]:
            lhs, rhs = name.split("=")
            if g[lhs] != g[rhs]:
                return TruncatedWitness(name, triple)
    return None


def _ref_verify(sm, degree):
    cap = degree - sm.max_degree()
    witness = _ref_witness(sm, "id-matching", cap)
    if witness is not None:
        return witness
    f, letters = sm.field, sm.alphabet
    for wa, wb, wc in _ref_triples(letters, cap):
        a, b, c = (NCPoly.word(f, letters, w) for w in (wa, wb, wc))
        if _ref_extend(sm, _ref_extend(sm, a, b), c) != _ref_extend(sm, a, _ref_extend(sm, b, c)):
            return TruncatedWitness("(a*b)*c=a*(b*c)", (wa, wb, wc))
    return None


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ConditionNotVerifiedError:
        return ConditionNotVerifiedError


def _ratio(f, n, d):
    return f.div(f.coerce(n), f.coerce(d))


def _diff_stars(rng, f, letters):
    x, y = letters[0], letters[1]

    # the same rationals in every field: residues of large height over F_(2^61 - 1)
    values = [_ratio(f, n, d) for n, d in ((1, 1), (-1, 1), (2, 1), (3, 1), (1, 2), (-2, 3))]

    def poly(words):
        return NCPoly(f, letters, {w: rng.choice(values) for w in words})

    def rational(w, n, d):
        return NCPoly(f, letters, {w: _ratio(f, n, d)})

    some = ["".join(t) for n in (1, 2) for t in itertools.product(letters, repeat=n)]
    return [
        concat_star(f, letters),
        concat_star(f, letters, 3),
        left_zero_star(f, letters),  # not swap-matching: gives witnesses
        right_zero_star(f, letters),
        mutation_star(f, letters, poly([x + y])),
        mutation_star(f, letters, poly(["", y, x + y])),  # constant term, seeded (rational) coefficients
        mutation_star(f, letters, rational("", 1, 2).add(rational(y, 1, 3))),  # coprime denominators
        mutation_star(f, letters, poly(rng.sample(some, 2))),
        StarMap(f, letters, {(x, x): NCPoly.var(f, letters, y)}),
        StarMap(f, letters, {(x, y): NCPoly.var(f, letters, x)}),  # fails the condition
        StarMap(f, letters, {(x, y): rational(x, 1, 2), (y, x): rational(y, 2, 3)}),  # fails, rational witness
        StarMap(f, letters, {(u, v): poly(rng.sample(some, 2)) for u in letters for v in letters}),
    ]


@pytest.mark.parametrize(
    "field, letters, cap",
    [
        (QQ, ("x", "y"), 5),
        (GF(5), ("x", "y"), 5),
        (GF(2**61 - 1), ("x", "y"), 5),
        (QQ, ("x", "y", "z"), 4),
        (GF(5), ("x", "y", "z"), 4),
    ],
    ids=["Q-2", "F5-2", "F2^61-1-2", "Q-3", "F5-3"],
)
def test_truncated_evaluator_matches_reference(field, letters, cap):
    rng = random.Random(cap * len(letters) + (field != QQ))
    witnesses = raised = 0
    stars = _diff_stars(rng, field, letters)
    if field == QQ:  # image denominators 2 and 3 in one star: its integer table has scale 6
        scales = [math.lcm(*(v.denominator for p in sm.table.values() for v in p.terms.values())) for sm in stars]
        assert max(scales) >= 6
    for sm in stars:
        got = star_condition(sm)
        assert (got and (got.triple, got.lhs, got.rhs)) == _ref_condition(sm)
        found = 0
        for kind in _REF_IDENTITIES:
            got = _outcome(identity_witness_truncated, sm, kind, cap)
            ref = _outcome(_ref_witness, sm, kind, cap)
            assert got == ref, (sm.table, kind)
            found += isinstance(got, TruncatedWitness)
            # the first witness of the full scan is a letter triple
            assert not isinstance(ref, TruncatedWitness) or all(len(w) == 1 for w in ref.words), (sm.table, kind)
        witnesses += found
        sides = dict(_ref_sides(sm, cap))
        # On words the extension gives G1 = G3 and G2 = G4 by its definition, for every
        # star, so identity_witness_truncated compares only G1 and G2.
        assert all(g["G1"] == g["G3"] and g["G2"] == g["G4"] for g in sides.values()), sm.table
        # G1 and G2 share the prefix a[:-1] and the suffix c[1:], so (a, b, c) has G1 != G2
        # exactly when (a[-1], b, c[0]) has; by induction along b, some triple fails exactly
        # when a letter triple does, so identity_witness_truncated evaluates only letter
        # triples.  A star with a witness makes the set nonempty.
        failing = {t for t, g in sides.items() if g["G1"] != g["G2"]}
        assert failing == {(wa, wb, wc) for wa, wb, wc in sides if (wa[-1], wb, wc[0]) in failing}, sm.table
        assert bool(failing) == any(len(wa + wb + wc) == 3 for wa, wb, wc in failing), sm.table
        assert failing or not found, sm.table
        # By the same definition (a*b)*c = a*(b*c) on every triple with len(b) >= 2, for every
        # star, and with a one-letter b the two sides differ exactly by the condition's defect,
        # so verify_id_matching_truncated evaluates nothing once the condition holds.
        failing_b = set()
        for wa, wb, wc in _ref_triples(letters, cap):
            a, b, c = (NCPoly.word(field, letters, w) for w in (wa, wb, wc))
            if _ref_extend(sm, _ref_extend(sm, a, b), c) != _ref_extend(sm, a, _ref_extend(sm, b, c)):
                failing_b.add(len(wb))
        assert failing_b == ({1} if _ref_condition(sm) else set()), sm.table
        degree = sm.max_degree() + cap
        got = _outcome(verify_id_matching_truncated, sm, degree)
        assert got == _outcome(_ref_verify, sm, degree), sm.table
        raised += got is ConditionNotVerifiedError
        if got is ConditionNotVerifiedError:
            continue
        words = ["".join(t) for n in (1, 2, 3) for t in itertools.product(letters, repeat=n)]
        for _ in range(4):
            a, b = (
                NCPoly(field, letters, {w: _ratio(field, rng.randrange(-3, 4), rng.choice((1, 2, 3, 7))) for w in ws})
                for ws in (rng.sample(words, 3), rng.sample(words, 3))
            )
            assert extend_star(sm, a, b) == _ref_extend(sm, a, b)
        # x * xy = S(x, x) . y and xx * y = x . S(x, y) meet in xxy for the concatenation
        # stars, where their coefficients 1 and -1 cancel
        a = NCPoly(field, letters, {"x": 1, "xx": -1})
        b = NCPoly(field, letters, {"xy": 1, "y": 1})
        assert extend_star(sm, a, b) == _ref_extend(sm, a, b)
    assert witnesses >= 4 and raised >= 2


# ---------------------------------------------------------------------------
# generator-level solve


def test_generator_chain_space_is_concatenation_line():
    space = generator_chain_space(X, 4)
    vec = concatenation_coords(X, 4)
    assert space.dim == 1
    assert space == Subspace(QQ, len(vec), [vec])


def test_generator_chain_space_other_degrees():
    for d in (2, 3):
        space = generator_chain_space(X, d)
        vec = concatenation_coords(X, d)
        assert space.dim == 1 and space.member(vec)


# ---------------------------------------------------------------------------
# truncated centroids


def test_truncated_centroid_nc_frozen():
    frozen = {X: {2: 9, 3: 17, 4: 33, 5: 65}, ("x", "y", "z"): {2: 28, 3: 82}}
    for f in (QQ, GF(2), GF(3)):
        for letters, dims in frozen.items():
            assert {d: truncated_centroid_dim("nc", letters, d, f) for d in dims} == dims, (f, letters)


def test_truncated_centroid_commutative_single_var():
    for d in (2, 3, 4, 5):
        assert truncated_centroid_dim("commutative", ("x",), d) == d


def test_truncated_centroid_commutative_two_vars_frozen():
    frozen = {X: {2: 7, 3: 11, 4: 16, 5: 22, 6: 29, 7: 37}, ("x", "y", "z"): {2: 19, 3: 34, 4: 55}}
    for f in (QQ, GF(2), GF(3)):
        for letters, dims in frozen.items():
            assert {d: truncated_centroid_dim("commutative", letters, d, f) for d in dims} == dims, (f, letters)


def test_truncated_centroid_over_prime_field():
    assert truncated_centroid_dim("commutative", ("x",), 3, GF(5)) == 3


def test_truncated_centroid_validations():
    with pytest.raises(WrongVariableCountError):
        truncated_centroid_dim("nc", ("x",), 3)
    with pytest.raises(Exception):
        truncated_centroid_dim("nc", X, 1)
    with pytest.raises(FreeAlgebraError, match="unknown centroid kind"):
        truncated_centroid_dim("free", X, 3)


def test_truncated_centroid_carrier_budget():
    # nc on x, y to degree 5 has 62 words; to degree 6, 126
    assert len(words_up_to(X, 5)) <= MAX_CENTROID_CARRIER < len(words_up_to(X, 6))
    assert truncated_centroid_dim("nc", X, 5) == 65
    for kind, letters, degree in (
        ("nc", X, 6),
        ("commutative", ("x",), MAX_CENTROID_CARRIER + 1),
        ("commutative", ("x",), 10**9),
        ("commutative", tuple("abcdefghij"), 2),  # 10 + 55 monomials
        ("nc", tuple(chr(ord("A") + i) for i in range(MAX_LETTERS)), 2),
    ):
        with pytest.raises(FreeAlgebraError, match=f"over {MAX_CENTROID_CARRIER} words or monomials"):
            truncated_centroid_dim(kind, letters, degree)


# ---------------------------------------------------------------------------
# commutative products


def test_single_var_shift_product():
    x = ("x",)
    p = CPoly.monomial(QQ, x, (2,))
    star = cpoly_single_var_product(p)
    a, b = CPoly.monomial(QQ, x, (1,)), CPoly.monomial(QQ, x, (1,))
    # p = x^2 recovers ordinary multiplication
    assert star.mul(a, b) == a.mul(b)
    star_x = cpoly_single_var_product(CPoly.monomial(QQ, x, (1,)))
    assert star_x.mul(a, a) == CPoly.monomial(QQ, x, (1,))
    assert star_x.mul(a, CPoly.monomial(QQ, x, (2,))) == CPoly.monomial(QQ, x, (2,))
    zero = cpoly_single_var_product(CPoly.zero(QQ, x))
    assert zero.mul(a, b).is_zero()
    # seeded polynomials against the term-by-term expansion sum ca cb x^(m + n - 2) p
    rng = random.Random(5)
    for f in (QQ, GF(2), GF(3), GF(5)):
        for _ in range(50):
            p, a, b = ({(rng.randrange(1, 6),): rng.randrange(-3, 4) for _ in range(rng.randrange(4))} for _ in range(3))
            expected = poly_terms(
                f,
                [
                    ((m + n - 2 + e,), f.mul(f.mul(f.coerce(ca), f.coerce(cb)), f.coerce(cp)))
                    for (m,), ca in a.items()
                    for (n,), cb in b.items()
                    for (e,), cp in p.items()
                ],
            )
            got = cpoly_single_var_product(CPoly(f, x, p)).mul(CPoly(f, x, a), CPoly(f, x, b))
            assert got.terms == expected, (f, p, a, b)


def test_single_var_requirements():
    with pytest.raises(WrongVariableCountError):
        cpoly_single_var_product(CPoly.var(QQ, X, "x"))
    with pytest.raises(NonzeroConstantTermError):
        cpoly_single_var_product(CPoly.one(QQ, ("x",)))


def test_single_var_suites():
    for e in (1, 2, 3):
        star = cpoly_single_var_product(CPoly.monomial(QQ, ("x",), (e,)))
        assert cpoly_identity_suite(star, 6) is None


def test_multi_var_product():
    star = cpoly_multi_var_product(CPoly.one(QQ, X))
    a, b = CPoly.var(QQ, X, "x"), CPoly.var(QQ, X, "y")
    assert star.mul(a, b) == a.mul(b)
    starx = cpoly_multi_var_product(CPoly.var(QQ, X, "x"))
    assert starx.mul(a, b) == CPoly(QQ, X, {(2, 1): 1})
    assert cpoly_identity_suite(starx, 4) is None
    with pytest.raises(WrongVariableCountError):
        cpoly_multi_var_product(CPoly.var(QQ, ("x",), "x"))


def test_monomials_enumeration():
    monos = monomials_up_to(X, 2)
    assert monos == [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
