"""Independent dense exact evaluation, used to check the library's answers.

Products are turned into dense n x n x n integer arrays.  Over Q each
product is first multiplied by the least common multiple of its
denominators: every mixed expression E1..E4 is bilinear in (star, dot), so
positive rescaling keeps every verdict and every first failing triple, and
witness values are divided back exactly.  Over F_p the arrays hold residues.
Nothing here calls the library's checkers or solvers.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Same expression numbering and identity order as the library's checker.
IDENTITIES = {
    "compatible": (((1, 2), (3, 4)),),
    "id-matching": (((1,), (3,)), ((2,), (4,))),
    "swap-matching": (((1,), (4,)), ((2,), (3,))),
    "interchangeable": (((1,), (2,)), ((3,), (4,))),
    "totally-compatible": (((1,), (2,)), ((2,), (4,)), ((4,), (3,))),
}
ATOMS = {
    "eq_13": ((1,), (3,)),
    "eq_24": ((2,), (4,)),
    "eq_14": ((1,), (4,)),
    "eq_23": ((2,), (3,)),
    "eq_12": ((1,), (2,)),
    "eq_34": ((3,), (4,)),
    "compatible": ((1, 2), (3, 4)),
}


def modulus(field):
    """The prime of an F_p field object, or None over Q."""
    return getattr(field, "p", None)


class Dense:
    """A product as an integer array `arr` with value arr / scale."""

    def __init__(self, product):
        self.n = product.dim
        self.p = modulus(product.field)
        triples = product.triples()
        self.scale = 1
        if self.p is None:
            for *_, v in triples:
                self.scale = math.lcm(self.scale, Fraction(v).denominator)
        arr = np.zeros((self.n,) * 3, dtype=object)
        for i, j, k, v in triples:
            arr[i, j, k] = int(Fraction(v) * self.scale) if self.p is None else int(v) % self.p
        self.arr = _compact(arr)


def _compact(arr):
    """int64 when every entry is small enough for exact contractions, else object."""
    big = max((abs(int(x)) for x in arr.flat), default=0)
    return arr.astype(np.int64) if big < 2**20 else arr


def _contract(a, b, pattern, p):
    if a.dtype == object or b.dtype == object:
        out = np.einsum(pattern, a.astype(object), b.astype(object))
    else:
        out = np.einsum(pattern, a, b)
    return out % p if p is not None else out


def expressions(star: Dense, dot: Dense):
    """E1..E4 as arrays indexed [i, j, k, l] (all scaled by star.scale * dot.scale)."""
    s, d, p = star.arr, dot.arr, dot.p
    return {
        1: _contract(s, d, "ijm,mkl->ijkl", p),  # (a*b).c
        2: _contract(d, s, "ijm,mkl->ijkl", p),  # (a.b)*c
        3: _contract(d, s, "jkm,iml->ijkl", p),  # a*(b.c)
        4: _contract(s, d, "jkm,iml->ijkl", p),  # a.(b*c)
    }


def _side(exprs, e, p):
    total = sum(e[x] for x in exprs)
    return total % p if p is not None else total


def first_failure(lhs, rhs, e, p):
    """First (i, j, k) in lexicographic order where the two sides differ."""
    diff = _side(lhs, e, p) - _side(rhs, e, p)
    if p is not None:
        diff %= p
    bad = np.argwhere(np.any(diff != 0, axis=3))
    return tuple(int(x) for x in bad[0]) if len(bad) else None


def side_values(exprs, e, triple, scale, p):
    vec = _side(exprs, e, p)[triple]
    if p is not None:
        return tuple(int(x) % p for x in vec)
    return tuple(Fraction(int(x), scale) for x in vec)


def check_report(kind, star: Dense, dot: Dense, e=None):
    """(holds, witness) exactly as the library's check must report them.

    witness is (identity index, triple, lhs values, rhs values) or None.
    """
    e = e or expressions(star, dot)
    scale = star.scale * dot.scale
    for idx, (lhs, rhs) in enumerate(IDENTITIES[kind]):
        triple = first_failure(lhs, rhs, e, dot.p)
        if triple is not None:
            return False, (
                idx,
                triple,
                side_values(lhs, e, triple, scale, dot.p),
                side_values(rhs, e, triple, scale, dot.p),
            )
    return True, None


def report_matches(report, kind, star: Dense, dot: Dense, e=None):
    holds, witness = check_report(kind, star, dot, e)
    if report.holds != holds:
        return False
    if witness is None:
        return report.witness is None
    w = report.witness
    got = (w.identity, tuple(w.triple), tuple(w.lhs), tuple(w.rhs))
    return got == witness


def _expression_matrices(dot: Dense):
    """E1..E4 as linear maps of the star, arrays [i, j, k, l, a, b, c] (coefficient of star[a, b, c])."""
    n = dot.n
    d = dot.arr.astype(object)
    eye = np.array([[int(i == j) for j in range(n)] for i in range(n)], dtype=object)
    return {
        1: np.einsum("ia,jb,ckl->ijklabc", eye, eye, d),  # sum_m star[i,j,m] dot[m,k,l]
        2: np.einsum("ija,kb,lc->ijklabc", d, eye, eye),  # sum_m dot[i,j,m] star[m,k,l]
        3: np.einsum("ia,jkb,lc->ijklabc", eye, d, eye),  # sum_m dot[j,k,m] star[i,m,l]
        4: np.einsum("ja,kb,icl->ijklabc", eye, eye, d),  # sum_m star[j,k,m] dot[i,m,l]
    }


def solution_dim(kind, dot: Dense):
    """Dimension of the space of stars satisfying `kind` against `dot`.

    The identities are written out as a dense system in the n^3 structure
    constants of the star and eliminated with `rref`.  Zero and repeated
    rows are dropped first; that leaves the rank unchanged.
    """
    n, p = dot.n, dot.p
    m = _expression_matrices(dot)
    rows = set()
    for lhs, rhs in IDENTITIES[kind]:
        block = (sum(m[x] for x in lhs) - sum(m[x] for x in rhs)).reshape(n**4, n**3)
        if p is not None:
            block %= p
        rows.update(tuple(int(x) for x in row) for row in block if row.any())
    return n**3 - len(rref(sorted(rows), p))


def associativity_witness(prod: Dense):
    """First (i, j, k) with (b_i b_j) b_k != b_i (b_j b_k), or None."""
    a, p = prod.arr, prod.p
    left = _contract(a, a, "ijm,mkl->ijkl", p)
    right = _contract(a, a, "jkm,iml->ijkl", p)
    e = {1: left, 2: right}
    return first_failure((1,), (2,), e, p)


def audit_matches(audit, star: Dense, dot: Dense, e=None):
    """Atoms equal the dense ones, and every condition equals total compatibility."""
    e = e or expressions(star, dot)
    atoms = {name: first_failure(l, r, e, dot.p) is None for name, (l, r) in ATOMS.items()}
    total = atoms["eq_12"] and atoms["eq_13"] and atoms["eq_14"]
    return (
        dict(audit.atoms) == atoms
        and not audit.contradiction
        and all(v == total for v in audit.conditions.values())
    )


def all_members_associative(basis, p):
    """Every member of span(basis) is associative (characteristic != 2).

    The associator of sum x_a P_a is sum_a x_a^2 A(P_a, P_a) plus
    sum_{a<b} x_a x_b (A(P_a, P_b) + A(P_b, P_a)); all members are
    associative iff every one of these coefficient tensors is zero.
    """
    prods = [Dense(b).arr for b in basis]
    if not prods:
        return True
    stack = np.stack(prods)
    if stack.dtype == object:
        raise ValueError("entries too large for the dense associator check")
    for a in range(len(prods)):
        left = np.einsum("ijm,bmkl->bijkl", stack[a], stack)
        right = np.einsum("bjkm,iml->bijkl", stack, stack[a])
        left2 = np.einsum("bijm,mkl->bijkl", stack, stack[a])
        right2 = np.einsum("jkm,biml->bijkl", stack[a], stack)
        cross = left - right + left2 - right2
        if p is not None:
            cross %= p
        if cross.any():
            return False
    return True


# -- exact linear algebra on short lists of vectors --------------------------


def _field_ops(p):
    if p is None:
        return Fraction, (lambda a, b: a / b)
    return (lambda v: int(v) % p), (lambda a, b: a * pow(int(b), -1, p) % p)


def rref(vectors, p):
    """Nonzero rows of the reduced row echelon form over Q (p None) or F_p."""
    conv, div = _field_ops(p)
    rows = [[conv(v) for v in vec] for vec in vectors]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][c]
        rows[r] = [div(x, lead) if x else x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y if y else x for x, y in zip(rows[i], rows[r])]
                if p is not None:
                    rows[i] = [x % p for x in rows[i]]
        r += 1
    return rows[:r]


def same_span(a, b, p):
    """span(a) == span(b)."""
    ra, rb = len(rref(a, p)), len(rref(b, p))
    return ra == rb == len(rref(list(a) + list(b), p))


def height(vectors):
    """Largest numerator or denominator in the reduced row echelon form of span(vectors) over Q."""
    return max((max(abs(x.numerator), x.denominator) for row in rref(vectors, None) for x in row), default=0)


def inverse(g, p):
    """Inverse of an invertible square matrix (list of rows) over Q or F_p."""
    n = len(g)
    rows = rref([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(g)], p)
    if [row[:n] for row in rows] != [[int(i == j) for j in range(n)] for i in range(n)]:
        raise ValueError("base change is not invertible")
    return [row[n:] for row in rows]


def _integral(values):
    """Python ints proportional to a list of rationals."""
    vals = [Fraction(v) for v in values]
    scale = math.lcm(*(v.denominator for v in vals)) if vals else 1
    return [int(v * scale) for v in vals]


def transport(basis, n, g, p):
    """g^-1(P(g a, g b)) for each product P of `basis`, given as flat n^3 lists, up to a nonzero scale.

    Row i of g holds the old coordinates of the new basis vector i.  Over Q
    each result is scaled to integers, which leaves every span unchanged.
    """
    ginv = [x for row in inverse(g, p) for x in row]
    if p is None:
        ginv = _integral(ginv)
    G = np.array([[int(x) for x in row] for row in g], dtype=object)
    Ginv = np.array([int(x) for x in ginv], dtype=object).reshape(n, n)
    out = []
    for flat in basis:
        P = np.array([int(v) for v in (_integral(flat) if p is None else flat)], dtype=object).reshape(n, n, n)
        t = np.einsum("ia,abm->ibm", G, P)
        t = np.einsum("jb,ibm->ijm", G, t)
        t = np.einsum("ijm,mk->ijk", t, Ginv)
        if p is not None:
            t = t % p
        out.append([int(x) for x in t.reshape(-1)])
    return out
