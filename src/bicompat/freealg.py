"""Noncommutative and commutative polynomials for free non-unital algebras.

There is one polynomial implementation, a map from monomials to nonzero
coefficients, with two kinds of monomial: words over a finite alphabet of
single-letter variables (`NCPoly`), which multiply by concatenation, and
exponent tuples (`CPoly`), which multiply by adding entry by entry.  The
non-unital algebras are the spans of the nonempty words and of the
nonconstant monomials.
Star maps assign a zero-constant-term polynomial to every ordered pair of
letters; the ones satisfying the compatibility condition extend to bilinear
products on the whole algebra.  The truncated identity checks of such an
extension are decided on the letter triples alone, by the arguments in
`identity_witness_truncated` and `verify_id_matching_truncated`, so every
degree cap costs the same k^3 scan at most.  Every value is integer-scaled,
still exact (the star images times the lcm of their denominators over Q,
residues over F_p), and no term is ever dropped, except in
`truncated_centroid_dim`, which works in the quotient by words of degree
above the cap.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass

from .algebra import AlgebraError
from .linalg import QQ, FieldMismatchError, ShapeMismatchError, Subspace, kernel_from_rows


class FreeAlgebraError(AlgebraError):
    pass


class AlphabetMismatchError(FreeAlgebraError):
    pass


class NonzeroConstantTermError(FreeAlgebraError):
    pass


class ConditionNotVerifiedError(FreeAlgebraError):
    pass


class WrongVariableCountError(FreeAlgebraError):
    pass


# Input budgets: a star map document has at most MAX_LETTERS variables (an
# algebra document's MAX_DIM), so a truncated check scans at most 32^3 letter
# triples; a truncated centroid has at most MAX_CENTROID_CARRIER words or
# monomials: with c of them there are at most c^2 unknowns and about c^3 equations.
MAX_LETTERS = 32
MAX_CENTROID_CARRIER = 64


def _check_alphabet(alphabet):
    alphabet = tuple(alphabet)
    if not alphabet:
        raise FreeAlgebraError("alphabet must be nonempty")
    if any(not (isinstance(a, str) and len(a) == 1) for a in alphabet):
        raise FreeAlgebraError("variables must be single characters")
    if len(set(alphabet)) != len(alphabet):
        raise FreeAlgebraError("variables must be distinct")
    return alphabet


class _Poly:
    """Polynomial over a field: a finite map monomial -> nonzero coefficient.

    The subclasses fix the monomials: `_check_mono` validates one,
    `_mono_mul` multiplies two, `_mono_deg` is the degree, `_unit` the
    constant monomial and `_mono_str` prints one.
    """

    __slots__ = ("field", "alphabet", "terms")

    def __init__(self, field, alphabet, terms=None):
        self.field = field
        self.alphabet = _check_alphabet(alphabet)
        clean = {}
        for m, v in (terms or {}).items():
            self._check_mono(m)
            v = field.coerce(v)
            if v != field.zero:
                clean[m] = v
        self.terms = clean

    @classmethod
    def _clean(cls, field, alphabet, terms):
        """Trusted constructor: a checked alphabet, checked monomials and nonzero field values."""
        poly = cls.__new__(cls)
        poly.field, poly.alphabet, poly.terms = field, alphabet, terms
        return poly

    @classmethod
    def zero(cls, field, alphabet):
        return cls(field, alphabet, {})

    def _peer(self, other):
        if not isinstance(other, type(self)):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if other.field != self.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")
        if other.alphabet != self.alphabet:
            raise AlphabetMismatchError(f"{self.alphabet} vs {other.alphabet}")

    def _accumulate(self, terms, pairs):
        """The polynomial `terms` plus the (monomial, value) pairs, zeros dropped; mutates `terms`."""
        f = self.field
        for m, v in pairs:
            nv = f.add(terms.get(m, f.zero), v)
            if nv == f.zero:
                terms.pop(m, None)
            else:
                terms[m] = nv
        return self._clean(f, self.alphabet, terms)

    def add(self, other):
        self._peer(other)
        return self._accumulate(dict(self.terms), other.terms.items())

    def sub(self, other):
        self._peer(other)
        return self.add(other.scale(self.field.neg(self.field.one)))

    def scale(self, c):
        f = self.field
        c = f.coerce(c)
        if c == f.zero:
            return self._clean(f, self.alphabet, {})
        return self._clean(f, self.alphabet, {m: f.mul(c, v) for m, v in self.terms.items()})

    def mul(self, other):
        self._peer(other)
        mul, combine = self.field.mul, self._mono_mul
        return self._accumulate(
            {}, ((combine(m1, m2), mul(v1, v2)) for m1, v1 in self.terms.items() for m2, v2 in other.terms.items())
        )

    def degree(self):
        """Maximal monomial degree, or None for the zero polynomial."""
        return max(map(self._mono_deg, self.terms), default=None)

    def constant_term(self):
        return self.terms.get(self._unit(), self.field.zero)

    def is_aug_zero(self):
        return self._unit() not in self.terms

    def is_zero(self):
        return not self.terms

    def sorted_terms(self):
        deg = self._mono_deg
        return sorted(self.terms.items(), key=lambda t: (deg(t[0]), t[0]))

    def __eq__(self, other):
        return (
            isinstance(other, type(self))
            and other.field == self.field
            and other.alphabet == self.alphabet
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.field, self.alphabet, tuple(self.sorted_terms())))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m, v in self.sorted_terms():
            mono, s = self._mono_str(m), self.field.to_str(v)
            if not mono:
                bits.append(s)
            elif s == "1":
                bits.append(mono)
            else:
                bits.append(f"{s}*{mono}")
        return " + ".join(bits)


class NCPoly(_Poly):
    """Noncommutative polynomial: finite map word -> coefficient."""

    __slots__ = ()

    _mono_mul = staticmethod(operator.add)
    _mono_deg = staticmethod(len)

    def _check_mono(self, w):
        if not isinstance(w, str):
            raise FreeAlgebraError(f"word {w!r} is not a string")
        if any(ch not in self.alphabet for ch in w):
            raise FreeAlgebraError(f"word {w!r} uses letters outside the alphabet")

    def _unit(self):
        return ""

    def _mono_str(self, w):
        return w or "1"

    @classmethod
    def word(cls, field, alphabet, w, coeff=1):
        return cls(field, alphabet, {w: coeff})

    @classmethod
    def var(cls, field, alphabet, x):
        return cls.word(field, alphabet, x)

    def mul_word_left(self, w):
        return self.word(self.field, self.alphabet, w).mul(self)

    def mul_word_right(self, w):
        return self.mul(self.word(self.field, self.alphabet, w))


class CPoly(_Poly):
    """Commutative polynomial: finite map exponent tuple -> coefficient."""

    __slots__ = ()

    _mono_deg = staticmethod(sum)

    @staticmethod
    def _mono_mul(e1, e2):
        return tuple(map(operator.add, e1, e2))

    def _check_mono(self, exps):
        if not (
            isinstance(exps, tuple)
            and len(exps) == len(self.alphabet)
            and all(isinstance(e, int) and not isinstance(e, bool) and e >= 0 for e in exps)
        ):
            raise FreeAlgebraError(f"bad exponent tuple {exps!r}")

    def _unit(self):
        return (0,) * len(self.alphabet)

    def _mono_str(self, exps):
        return "*".join(f"{x}^{k}" if k > 1 else x for x, k in zip(self.alphabet, exps) if k)

    @classmethod
    def one(cls, field, alphabet):
        return cls(field, alphabet, {(0,) * len(tuple(alphabet)): 1})

    @classmethod
    def monomial(cls, field, alphabet, exps, coeff=1):
        try:
            exps = tuple(exps)
        except TypeError:
            raise FreeAlgebraError(f"bad exponent tuple {exps!r}") from None
        return cls(field, alphabet, {exps: coeff})

    @classmethod
    def var(cls, field, alphabet, x):
        alphabet = tuple(alphabet)
        if x not in alphabet:
            raise FreeAlgebraError(f"variable {x!r} is not in the alphabet")
        return cls.monomial(field, alphabet, [int(a == x) for a in alphabet])


def nc_add(p: NCPoly, q: NCPoly) -> NCPoly:
    return p.add(q)


def nc_mul(p: NCPoly, q: NCPoly) -> NCPoly:
    return p.mul(q)


def nc_degree(p: NCPoly):
    return p.degree()


def words_up_to(alphabet, degree, *, start=1):
    """Nonempty words in length-lexicographic order (alphabet order within)."""
    alphabet = _check_alphabet(alphabet)
    out = []
    for n in range(start, degree + 1):
        out.extend("".join(t) for t in itertools.product(alphabet, repeat=n))
    return out


def decompose_right(q: NCPoly):
    """Write q = sum_u u . R_u over first letters u; q needs zero constant term."""
    if not q.is_aug_zero():
        raise NonzeroConstantTermError("decomposition needs zero constant term")
    parts = {u: {} for u in q.alphabet}
    for w, v in q.terms.items():
        parts[w[0]][w[1:]] = v
    return {u: NCPoly._clean(q.field, q.alphabet, t) for u, t in parts.items()}


def decompose_left(q: NCPoly):
    """Write q = sum_v L_v . v over last letters v; q needs zero constant term."""
    if not q.is_aug_zero():
        raise NonzeroConstantTermError("decomposition needs zero constant term")
    parts = {u: {} for u in q.alphabet}
    for w, v in q.terms.items():
        parts[w[-1]][w[:-1]] = v
    return {u: NCPoly._clean(q.field, q.alphabet, t) for u, t in parts.items()}


@dataclass(frozen=True)
class StarWitness:
    triple: tuple
    lhs: NCPoly
    rhs: NCPoly


def _scaled(*term_dicts):
    """(s, dicts): the values of every term dict times s, as ints.

    s is the positive lcm of the denominators over Q; over F_p the values are
    residues, ints with denominator 1, so s = 1.
    """
    s = math.lcm(*(v.denominator for t in term_dicts for v in t.values()))
    return s, [{w: v.numerator * (s // v.denominator) for w, v in t.items()} for t in term_dicts]


def _unscaled(sm, terms, scale):
    """The NCPoly with the field values terms / scale."""
    f = sm.field
    return NCPoly._clean(f, sm.alphabet, {w: f.div(f.coerce(v), scale) for w, v in terms.items()})


class StarMap:
    """Assignment (x, y) -> polynomial with zero constant term, for letters x, y.

    `_ints` holds the images times `_scale` as {word: int} dicts (see
    `_scaled`): the table that the extension and the truncated checks evaluate on.
    """

    __slots__ = ("field", "alphabet", "table", "_scale", "_ints", "_verdict")

    def __init__(self, field, alphabet, table):
        self.field = field
        self.alphabet = _check_alphabet(alphabet)
        fixed = {}
        for x in self.alphabet:
            for y in self.alphabet:
                poly = table.get((x, y))
                if poly is None:
                    poly = NCPoly.zero(field, self.alphabet)
                if not isinstance(poly, NCPoly):
                    raise TypeError("star map entries must be NCPoly")
                if poly.field != field or poly.alphabet != self.alphabet:
                    raise AlphabetMismatchError("star image over wrong field or alphabet")
                if not poly.is_aug_zero():
                    raise NonzeroConstantTermError(f"image of ({x},{y}) has a constant term")
                fixed[(x, y)] = poly
        self.table = fixed
        self._scale, ints = _scaled(*(p.terms for p in fixed.values()))
        self._ints = dict(zip(fixed, ints))
        self._verdict = None

    def image(self, x, y):
        return self.table[(x, y)]

    def max_degree(self):
        degs = [p.degree() for p in self.table.values() if not p.is_zero()]
        return max(degs) if degs else 0

    def condition_witness(self):
        if self._verdict is None:
            self._verdict = (_star_condition(self),)
        return self._verdict[0]

    def __repr__(self):
        return f"StarMap({self.alphabet}, {self.field})"


def _star_condition(sm: StarMap):
    # sum_v L_v . (v star z) and sum_u (x star u) . R_u, for x star y = sum_v L_v . v
    # and y star z = sum_u u . R_u, are the extension on (x star y, z) and (x, y star z);
    # both have degree 2 in the integer table, so they compare at scale s^2
    ints, p = sm._ints, sm.field.characteristic
    for x, y, z in itertools.product(sm.alphabet, repeat=3):
        lhs = _extend_terms(ints, p, ints[(x, y)], {z: 1})
        rhs = _extend_terms(ints, p, {x: 1}, ints[(y, z)])
        if lhs != rhs:
            return StarWitness((x, y, z), *(_unscaled(sm, t, sm._scale**2) for t in (lhs, rhs)))
    return None


def star_condition(sm: StarMap):
    """None when the extension condition holds; otherwise the first witness."""
    return sm.condition_witness()


def _extend_terms(ints, p, a, b):
    """Terms of the bilinear extension on int term dicts a and b, zeros dropped.

    A pair of words wa, wb gives wa[:-1] . S(wa[-1], wb[0]) . wb[1:].  Values
    come from the integer table `ints` and are reduced mod p when p > 0.
    """
    out = {}
    for wa, ca in a.items():
        pre = wa[:-1]
        for wb, cb in b.items():
            c, post = ca * cb, wb[1:]
            for u, v in ints[(wa[-1], wb[0])].items():
                w = pre + u + post
                out[w] = out.get(w, 0) + c * v
    if p:
        return {w: r for w, v in out.items() if (r := v % p)}
    return {w: v for w, v in out.items() if v}


def _require_condition(sm):
    if sm.condition_witness() is not None:
        raise ConditionNotVerifiedError("star map fails the extension condition")


def extend_star(sm: StarMap, a: NCPoly, b: NCPoly) -> NCPoly:
    """Bilinear extension a1 . (x star y) . b1 on words a = a1 x, b = y b1."""
    _require_condition(sm)
    if a.field != sm.field or a.alphabet != sm.alphabet:
        raise AlphabetMismatchError("left factor over wrong field or alphabet")
    if b.field != sm.field or b.alphabet != sm.alphabet:
        raise AlphabetMismatchError("right factor over wrong field or alphabet")
    if not (a.is_aug_zero() and b.is_aug_zero()):
        raise NonzeroConstantTermError("extension needs zero constant terms")
    sa, (ta,) = _scaled(a.terms)
    sb, (tb,) = _scaled(b.terms)
    terms = _extend_terms(sm._ints, sm.field.characteristic, ta, tb)
    return _unscaled(sm, terms, sm._scale * sa * sb)


# Identity families for truncated verification, with star = extension of sm and
# dot = concatenation: G1 = (a*b).c, G2 = (a.b)*c, G3 = a*(b.c), G4 = a.(b*c).  On words
# G1 = G3 = a[:-1] S(a[-1], b[0]) b[1:] c and G2 = G4 = a b[:-1] S(b[-1], c[0]) c[1:] by
# definition, so a family fails exactly where G1 != G2 (id-matching never), at the identity named.
_STAR_IDENTITIES = {
    "id-matching": None,
    "swap-matching": "G1=G4",
    "interchangeable": "G1=G2",
    "totally-compatible": "G1=G2",
}


@dataclass(frozen=True)
class TruncatedWitness:
    identity: str
    words: tuple


def identity_witness_truncated(sm: StarMap, kind: str, total_degree_cap: int):
    """First violated identity instance over word triples of bounded total degree: the first G1 != G2.

    The triples run by deg a, deg b, deg c, then words, but only the letter
    triples are evaluated, so every cap >= 3 has the same answer.  On words
    G1 = a[:-1] [S(a[-1], b[0]) b[1:] c[0]] c[1:] and
    G2 = a[:-1] [a[-1] b[:-1] S(b[-1], c[0])] c[1:], brackets G1 and G2 at
    (a[-1], b, c[0]), so (a, b, c) fails exactly when (a[-1], b, c[0]) does.
    If S(x, y) z = x S(y, z) on all letters, then by induction along b
    S(x, b0) b1..bm z = x b0..b(m-1) S(bm, z), and no triple fails; otherwise
    the first failing letter triple comes first.
    """
    if kind not in _STAR_IDENTITIES:
        raise FreeAlgebraError(f"unknown identity family {kind!r}")
    _require_condition(sm)  # id-matching too
    name, ints = _STAR_IDENTITIES[kind], sm._ints
    if name is None or total_degree_cap < 3:
        return None
    # G1 = S(x, y) z and G2 = x S(y, z) have degree 1 in the integer table, so they compare at scale s
    for x, y, z in itertools.product(sm.alphabet, repeat=3):
        if {w + z: v for w, v in ints[(x, y)].items()} != {x + w: v for w, v in ints[(y, z)].items()}:
            return TruncatedWitness(name, (x, y, z))
    return None


def verify_id_matching_truncated(sm: StarMap, degree: int):
    """Check the matching identities and associativity of the extension: None, or a refusal.

    None of the word triples with deg a + deg b + deg c + (maximal star image
    degree) <= degree can fail once the condition holds, whatever the degree.
    The matching identities hold on words by the definition of the extension
    (see `_STAR_IDENTITIES`), and so does (a*b)*c = a*(b*c) for a longer b.
    For a one-letter b, (a*b)*c - a*(b*c) is
    a[:-1] . (the condition's lhs - rhs at (a[-1], b, c[0])) . c[1:] = 0.
    """
    _require_condition(sm)
    return None


def concat_star(field, alphabet, scalar=1) -> StarMap:
    """x star y = scalar * xy, the mutation star by a constant; extends to scalar times concatenation."""
    return mutation_star(field, alphabet, NCPoly.word(field, alphabet, "", scalar))


def left_zero_star(field, alphabet) -> StarMap:
    """x star y = x, the left-zero semigroup structure on the letters."""
    table = {(x, y): NCPoly.var(field, alphabet, x) for x in alphabet for y in alphabet}
    return StarMap(field, alphabet, table)


def right_zero_star(field, alphabet) -> StarMap:
    table = {(x, y): NCPoly.var(field, alphabet, y) for x in alphabet for y in alphabet}
    return StarMap(field, alphabet, table)


def mutation_star(field, alphabet, p: NCPoly) -> StarMap:
    """x star y = x . p . y for a fixed polynomial p (constant term allowed)."""
    if p.field != field or p.alphabet != tuple(alphabet):
        raise AlphabetMismatchError("mutation polynomial over wrong field or alphabet")
    table = {}
    for x in alphabet:
        for y in alphabet:
            table[(x, y)] = p.mul_word_left(x).mul_word_right(y)
    return StarMap(field, alphabet, table)


# ---------------------------------------------------------------------------
# Commutative products.


class SingleVarShiftProduct:
    """a * b = (a.b / x^2) . p on K[x]^+, realized as an exponent shift."""

    def __init__(self, p: CPoly):
        if len(p.alphabet) != 1:
            raise WrongVariableCountError("single-variable product needs |X| = 1")
        if not p.is_aug_zero():
            raise NonzeroConstantTermError("p must have zero constant term")
        self.p = p
        self.field = p.field
        self.alphabet = p.alphabet

    def mul(self, a: CPoly, b: CPoly) -> CPoly:
        a._peer(self.p)
        b._peer(self.p)
        if not (a.is_aug_zero() and b.is_aug_zero()):
            raise NonzeroConstantTermError("factors must have zero constant term")
        # neither factor has a constant term, so every exponent of a.b is at least 2
        ab = a.mul(b)
        return CPoly._clean(self.field, self.alphabet, {(e - 2,): v for (e,), v in ab.terms.items()}).mul(self.p)


class MultiplierProduct:
    """a * b = p . a . b, the product determined by multiplication by p."""

    def __init__(self, p: CPoly):
        if len(p.alphabet) < 2:
            raise WrongVariableCountError("multiplier product is for |X| >= 2")
        self.p = p
        self.field = p.field
        self.alphabet = p.alphabet

    def mul(self, a: CPoly, b: CPoly) -> CPoly:
        a._peer(self.p)
        b._peer(self.p)
        return self.p.mul(a).mul(b)


def cpoly_single_var_product(p: CPoly) -> SingleVarShiftProduct:
    return SingleVarShiftProduct(p)


def cpoly_multi_var_product(p: CPoly) -> MultiplierProduct:
    return MultiplierProduct(p)


def monomials_up_to(alphabet, degree, *, start=1):
    """Exponent tuples of total degree in [start, degree], degree-major order."""
    alphabet = _check_alphabet(alphabet)
    k = len(alphabet)
    out = []
    for total in range(start, degree + 1):
        for combo in itertools.combinations_with_replacement(range(k), total):
            e = [0] * k
            for i in combo:
                e[i] += 1
            out.append(tuple(e))
    return out


def cpoly_identity_suite(star, d: int):
    """All pairwise mixed-triple identities on monomial triples of degree <= d.

    Passing means every id-matching, swap-matching, interchangeable and
    totally-compatible identity instance holds.  Returns None or a witness.
    """
    field, alphabet = star.field, star.alphabet
    monos = monomials_up_to(alphabet, d - 2)
    for ea in monos:
        pa = CPoly.monomial(field, alphabet, ea)
        for eb in monos:
            if sum(ea) + sum(eb) >= d:
                continue
            pb = CPoly.monomial(field, alphabet, eb)
            for ec in monos:
                if sum(ea) + sum(eb) + sum(ec) > d:
                    continue
                pc = CPoly.monomial(field, alphabet, ec)
                g1 = star.mul(pa, pb).mul(pc)
                g2 = star.mul(pa.mul(pb), pc)
                g3 = star.mul(pa, pb.mul(pc))
                g4 = pa.mul(star.mul(pb, pc))
                for name, lhs, rhs in (
                    ("G1=G3", g1, g3),
                    ("G2=G4", g2, g4),
                    ("G1=G4", g1, g4),
                    ("G2=G3", g2, g3),
                    ("G1=G2", g1, g2),
                    ("G3=G4", g3, g4),
                ):
                    if lhs != rhs:
                        return TruncatedWitness(name, (ea, eb, ec))
    return None


# ---------------------------------------------------------------------------
# Truncated centroid computation (quotient by degree > cap).


def truncated_centroid_dim(kind: str, alphabet, degree: int, field=QQ) -> int:
    """Dimension of the centroid equations' solution space under truncation.

    Linear maps act on the span of words (or nonconstant monomials) of
    degree <= `degree`; the equations x.phi(y) = phi(x.y) = phi(x).y run
    over pairs with deg x + deg y <= `degree` and are compared in the
    quotient that drops components of degree above the cap.  A carrier of
    more than MAX_CENTROID_CARRIER elements is refused before it is built.
    """
    if degree < 2:
        raise FreeAlgebraError("degree cap must be at least 2")
    if kind not in ("nc", "commutative"):
        raise FreeAlgebraError(f"unknown centroid kind {kind!r}")
    alphabet = _check_alphabet(alphabet)
    if kind == "nc" and len(alphabet) < 2:
        raise WrongVariableCountError("noncommutative centroid needs |X| >= 2")
    k, count = len(alphabet), 0
    for t in range(1, degree + 1):
        count += k**t if kind == "nc" else math.comb(t + k - 1, t)
        if count > MAX_CENTROID_CARRIER:
            raise FreeAlgebraError(
                f"{kind} centroid, {k} letters, degree {degree}: over {MAX_CENTROID_CARRIER} words or monomials"
            )
    poly, monos = (NCPoly, words_up_to) if kind == "nc" else (CPoly, monomials_up_to)
    carrier = monos(alphabet, degree)
    index = {w: i for i, w in enumerate(carrier)}
    size = len(carrier)
    # the product table within the cap, and its quotients: (u, t) -> s and (t, s) -> u for u.s = t
    deg = poly._mono_deg
    table = {(u, s): poly._mono_mul(u, s) for u in carrier for s in carrier if deg(u) + deg(s) <= degree}
    left = {(u, t): s for (u, s), t in table.items()}
    right = {(t, s): u for (u, s), t in table.items()}
    rows = []
    for (w1, w2), w in table.items():
        for t in carrier:
            # phi(w)[t] - (w1 . phi(w2))[t] = 0 and phi(w)[t] - (phi(w1) . w2)[t] = 0
            for s, other in ((left.get((w1, t)), w2), (right.get((t, w2)), w1)):
                row = {index[w] * size + index[t]: 1}
                if s is not None:
                    row[index[other] * size + index[s]] = -1
                rows.append(row)
    return kernel_from_rows(field, size * size, rows).dim


def generator_chain_space(alphabet, degree: int, field=QQ) -> Subspace:
    """Solutions of (a*b).c = a.(b*c) on letters, unknowns x*y of degree <= cap.

    These are the chain equalities expressible when only the generator star
    values are unknown; the expected space is spanned by concatenation.
    """
    alphabet = _check_alphabet(alphabet)
    words = words_up_to(alphabet, degree)
    windex = {w: i for i, w in enumerate(words)}
    pairs = [(x, y) for x in alphabet for y in alphabet]
    pindex = {p: i for i, p in enumerate(pairs)}
    nwords = len(words)

    def col(pair, w):
        return pindex[pair] * nwords + windex[w]

    rows = []
    # coordinates live on words of degree 2 .. degree + 1
    coords = words_up_to(alphabet, degree + 1, start=2)
    for a in alphabet:
        for b in alphabet:
            for c in alphabet:
                for t in coords:
                    row = Counter()
                    # (a*b).c contributes S_ab[w] at t = w.c
                    if t.endswith(c) and len(t) > 1 and (t[:-1] in windex):
                        row[col((a, b), t[:-1])] += 1
                    # a.(b*c) contributes S_bc[w] at t = a.w
                    if t.startswith(a) and len(t) > 1 and (t[1:] in windex):
                        row[col((b, c), t[1:])] -= 1
                    rows.append(row)
    return kernel_from_rows(field, len(pairs) * nwords, rows)


def concatenation_coords(alphabet, degree: int, field=QQ):
    """Coordinates of the concatenation star in the generator_chain_space layout."""
    alphabet = _check_alphabet(alphabet)
    words = words_up_to(alphabet, degree)
    windex = {w: i for i, w in enumerate(words)}
    pairs = [(x, y) for x in alphabet for y in alphabet]
    vec = [field.zero] * (len(pairs) * len(words))
    for i, (x, y) in enumerate(pairs):
        vec[i * len(words) + windex[x + y]] = field.one
    return vec


# ---------------------------------------------------------------------------
# Serialization.


def ncpoly_to_json(p: NCPoly):
    return [[w, p.field.to_str(v)] for w, v in p.sorted_terms()]


def ncpoly_from_json(field, alphabet, data) -> NCPoly:
    if not isinstance(data, list):
        raise FreeAlgebraError("polynomial document must be a list of [word, coeff]")
    terms = {}
    f = field
    for entry in data:
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)):
            raise FreeAlgebraError(f"bad polynomial entry {entry!r}")
        w, c = entry
        terms[w] = f.add(terms.get(w, f.zero), f.parse(c))
    return NCPoly(field, alphabet, terms)


def starmap_from_json(obj) -> StarMap:
    from .linalg import LinalgError, field_from_json

    if not isinstance(obj, dict):
        raise FreeAlgebraError("star map document must be a JSON object")
    try:
        field = field_from_json(obj.get("field"))
    except LinalgError as exc:
        raise FreeAlgebraError(str(exc)) from None
    alphabet = obj.get("vars")
    if not (isinstance(alphabet, list) and alphabet):
        raise FreeAlgebraError("star map document needs 'vars'")
    if len(alphabet) > MAX_LETTERS:
        raise FreeAlgebraError(f"{len(alphabet)} variables; a star map has at most {MAX_LETTERS}")
    alphabet = _check_alphabet(alphabet)
    table = {}
    raw = obj.get("table", {})
    if not isinstance(raw, dict):
        raise FreeAlgebraError("'table' must be an object keyed by 'x,y'")
    for key, val in raw.items():
        parts = key.split(",")
        if len(parts) != 2 or any(p not in alphabet for p in parts):
            raise FreeAlgebraError(f"bad star map key {key!r}")
        table[(parts[0], parts[1])] = ncpoly_from_json(field, alphabet, val)
    return StarMap(field, alphabet, table)
