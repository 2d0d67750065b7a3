"""Pairwise compatibility notions for bilinear products on one space.

For a fixed associative product `dot` and a candidate `star`, the mixed
triple expressions are

    E1 = (a*b).c    E2 = (a.b)*c    E3 = a*(b.c)    E4 = a.(b*c)

and each notion is a set of linear identities between them:

    compatible            E1 + E2 = E3 + E4
    id-matching           E1 = E3,  E2 = E4
    swap-matching         E1 = E4,  E2 = E3
    interchangeable       E1 = E2,  E3 = E4
    totally compatible    E1 = E2,  E2 = E4,  E4 = E3

Checkers evaluate identities on basis triples; solvers return the full
linear space of coefficient tensors satisfying a notion against `dot`.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass

from .algebra import (
    AlgebraError,
    NonAssociativeError,
    Product,
    _first_defect,
    _int_tables,
    _IntTables,
    _slice_vector,
    _walk,
    associativity_witness,
    require_associative,
)
from .linalg import (
    FieldMismatchError,
    LinalgError,
    ShapeMismatchError,
    Subspace,
    kernel_of_int_rows,
)


class Kind(enum.Enum):
    COMPATIBLE = "compatible"
    ID_MATCHING = "id-matching"
    SWAP_MATCHING = "swap-matching"
    INTERCHANGEABLE = "interchangeable"
    TOTALLY_COMPATIBLE = "totally-compatible"

    @classmethod
    def parse(cls, name):
        for kind in cls:
            if kind.value == name:
                return kind
        raise AlgebraError(f"unknown compatibility kind {name!r}")


# Expression ids.  E1=(a*b).c  E2=(a.b)*c  E3=a*(b.c)  E4=a.(b*c)
E1, E2, E3, E4 = 1, 2, 3, 4

IDENTITIES = {
    Kind.COMPATIBLE: (((E1, E2), (E3, E4)),),
    Kind.ID_MATCHING: (((E1,), (E3,)), ((E2,), (E4,))),
    Kind.SWAP_MATCHING: (((E1,), (E4,)), ((E2,), (E3,))),
    Kind.INTERCHANGEABLE: (((E1,), (E2,)), ((E3,), (E4,))),
    Kind.TOTALLY_COMPATIBLE: (((E1,), (E2,)), ((E2,), (E4,)), ((E4,), (E3,))),
}

# Each expression as (outer, first, second): the contraction `algebra._walk`
# of a (first, second) pair drawn from (star, dot).  E1 = outer(star, dot),
# E2 = outer(dot, star), E3 = inner(dot, star), E4 = inner(star, dot).
_EXPRESSIONS = {E1: (True, 0, 1), E2: (True, 1, 0), E3: (False, 1, 0), E4: (False, 0, 1)}


class InternalContradictionError(AlgebraError):
    """Two supposedly equivalent evaluation routes disagreed."""


@dataclass(frozen=True, slots=True)
class Witness:
    identity: int
    triple: tuple
    lhs: tuple
    rhs: tuple


@dataclass(frozen=True, slots=True)
class CompatReport:
    kind: Kind
    holds: bool
    witness: Witness | None

    def to_json(self, field):
        out = {"kind": self.kind.value, "holds": self.holds}
        if self.witness is None:
            out["witness"] = None
        else:
            out["witness"] = {
                "identity": self.witness.identity,
                "triple": list(self.witness.triple),
                "lhs": [field.to_str(v) for v in self.witness.lhs],
                "rhs": [field.to_str(v) for v in self.witness.rhs],
            }
        return out


def sum_product(p1: Product, p2: Product) -> Product:
    """Coefficient-wise sum of two products on the same space."""
    return p1.add(p2)


def _check_pair(star, dot):
    if not isinstance(star, Product) or not isinstance(dot, Product):
        raise TypeError("expected Products")
    if star.field != dot.field:
        raise FieldMismatchError(f"{star.field} vs {dot.field}")
    if star.dim != dot.dim:
        raise ShapeMismatchError("product dimensions differ")


def _terms(exprs, star, dot, sign):
    """Signed contraction terms of a sum of expressions, on integer tables."""
    pair = (star, dot)
    return [(pair[a], pair[b], outer, sign) for outer, a, b in map(_EXPRESSIONS.get, exprs)]


def _identity_defect(identity, star, dot, n, modulus):
    """First basis triple where lhs - rhs of the identity is nonzero, or None."""
    lhs, rhs = identity
    return _first_defect(_terms(lhs, star, dot, 1) + _terms(rhs, star, dot, -1), n, modulus)


def check(kind: Kind, star: Product, dot: Product) -> CompatReport:
    """Evaluate a notion's identities on all basis triples; star may be anything."""
    _check_pair(star, dot)
    require_associative(dot)
    n, f = dot.dim, dot.field
    s, d = _int_tables(star), _int_tables(dot)
    for ident_idx, identity in enumerate(IDENTITIES[kind]):
        triple = _identity_defect(identity, s, d, n, f.characteristic)
        if triple is not None:
            scale = s.scale * d.scale
            lhs, rhs = (_slice_vector(_terms(side, s, d, 1), n, triple, f, scale) for side in identity)
            return CompatReport(kind, False, Witness(ident_idx, triple, lhs, rhs))
    return CompatReport(kind, True, None)


def check_compatible_dual(star: Product, dot: Product) -> CompatReport:
    """Compatibility decided two ways: identity route and sum-associativity route.

    Both products must be associative; the two routes must agree.
    """
    _check_pair(star, dot)
    require_associative(dot)
    require_associative(star, "candidate product")
    report = check(Kind.COMPATIBLE, star, dot)
    via_sum = associativity_witness(sum_product(star, dot)) is None
    if via_sum != report.holds:
        raise InternalContradictionError(
            f"identity route says {report.holds}, sum-associativity route says {via_sum}"
        )
    return report


@dataclass(frozen=True, slots=True)
class ProductSpace:
    """All bilinear products satisfying a notion's identities against `base`."""

    base: Product
    kind: Kind
    space: Subspace
    # built on the first basis_products() call and kept, with each Product's associativity witness
    _products: tuple | None = dataclasses.field(default=None, init=False, compare=False, repr=False)

    @property
    def dim(self):
        return self.space.dim

    def basis_products(self):
        if self._products is None:
            n, f = self.base.dim, self.base.field
            object.__setattr__(self, "_products", tuple(Product.from_flat(n, f, row) for row in self.space.basis))
        return list(self._products)

    def contains(self, star: Product):
        _check_pair(star, self.base)
        return self.space.member(star.flatten())

    def to_json(self):
        f = self.base.field
        return {
            "kind": self.kind.value,
            "dimension": self.dim,
            "ambient": self.space.ambient_dim,
            "basis": [
                [[i, j, k, f.to_str(v)] for i, j, k, v in prod.triples()]
                for prod in self.basis_products()
            ],
        }


# Above this many unknowns solve_linear refuses the system: n = 16 (the 4x4
# band) is the largest that the tests, the suite and the benchmark solve,
# and a full solution space is held as a dense n^3 x n^3 basis.
MAX_UNKNOWNS = 4096


def solve_linear(kind: Kind, dot: Product) -> ProductSpace:
    """The full solution space of the notion's identities, as unknown tensor X.

    No associativity is imposed on members.  Raises LinalgError when X has
    more than MAX_UNKNOWNS coordinates.
    """
    n = dot.dim
    if n**3 > MAX_UNKNOWNS:
        raise LinalgError(f"{n}^3 = {n**3} unknowns exceed the solver budget of {MAX_UNKNOWNS}")
    require_associative(dot)
    x = _IntTables(n, [(c // (n * n), c // n % n, c % n, c) for c in range(n**3)])  # X: values are columns
    t = _int_tables(dot)
    rows = {}  # each distinct zero-free row once, in order of first occurrence
    for lhs, rhs in IDENTITIES[kind]:
        terms = _terms(lhs, x, t, 1) + _terms(rhs, x, t, -1)
        for i in range(n):
            by_slot = [{} for _ in range(n**3)]
            for p, q, outer, sign in terms:
                x_leads = (p if outer else q) is x
                for offset, s, entries in _walk(p, q, outer, i, n):
                    if x_leads:  # s is the column, entries hold dot's coefficients
                        for key, w in entries:
                            row = by_slot[offset + key]
                            row[s] = row.get(s, 0) + sign * w
                    else:  # s is dot's coefficient, entries hold the columns
                        s *= sign
                        for key, col in entries:
                            row = by_slot[offset + key]
                            row[col] = row.get(col, 0) + s
            for row in filter(None, by_slot):
                rows[tuple([(c, v) for c, v in row.items() if v])] = None
    rows.pop((), None)  # a row whose terms all cancelled
    return ProductSpace(dot, kind, kernel_of_int_rows(dot.field, n**3, rows))


@dataclass(frozen=True, slots=True)
class AssociativityCertificate:
    status: str  # "pass" | "fail"
    member: tuple | None  # coordinates in the space basis
    witness: tuple | None  # basis triple where the member fails

    @property
    def all_associative(self):
        return self.status == "pass"


def all_members_associative(ps: ProductSpace) -> AssociativityCertificate:
    """Decide whether every member of the solution space is associative.

    The associativity defect of sum_a x_a P_a is sum_a x_a^2 D_a plus
    sum_{a<b} x_a x_b C_ab, with D_a the defect of P_a and C_ab the polarized
    cross term, which is the compatibility defect (E1 + E2) - (E3 + E4) of the
    pair (star, dot) = (P_a, P_b).  Over F_q with q >= 3 each variable has
    degree below q, and over F_2 (x^2 = x on points) the defect is
    multilinear; either way it is zero at every point iff every D_a and every
    C_ab is zero.  A failing member is e_a or e_a + e_b, whose defect is D_a
    or C_ab.
    """
    f = ps.base.field
    n = ps.base.dim
    basis = ps.basis_products()
    d = len(basis)
    zero, one = f.zero, f.one
    for a in range(d):
        w = associativity_witness(basis[a])
        if w is not None:
            coords = tuple(one if x == a else zero for x in range(d))
            return AssociativityCertificate("fail", coords, w)
    tables = [_int_tables(p) for p in basis]
    for a in range(d):
        p = tables[a]
        for b in range(a + 1, d):
            q = tables[b]
            w = _identity_defect(IDENTITIES[Kind.COMPATIBLE][0], p, q, n, f.characteristic)
            if w is not None:
                coords = tuple(one if x in (a, b) else zero for x in range(d))
                return AssociativityCertificate("fail", coords, w)
    return AssociativityCertificate("pass", None, None)


@dataclass(frozen=True, slots=True)
class EquivalenceAudit:
    """Truth values of the equivalent formulations of total compatibility."""

    atoms: dict
    conditions: dict
    contradiction: bool

    def to_json(self):
        return {
            "atoms": dict(self.atoms),
            "conditions": dict(self.conditions),
            "contradiction": self.contradiction,
        }


def remark13_audit(p1: Product, p2: Product) -> EquivalenceAudit:
    """Check that the four (five, char != 2) characterizations agree on a pair.

    Both products must be associative.  The returned audit's contradiction
    flag must never be set; a set flag means the checker itself is broken.
    """
    _check_pair(p1, p2)
    require_associative(p2)
    require_associative(p1, "first product")
    n, modulus = p1.dim, p1.field.characteristic
    t1, t2 = _int_tables(p1), _int_tables(p2)
    # Expressions of the pair (p1, p2): E1..E4 with star=p1, dot=p2.
    atom_pairs = {
        "eq_13": ((E1,), (E3,)),
        "eq_24": ((E2,), (E4,)),
        "eq_14": ((E1,), (E4,)),
        "eq_23": ((E2,), (E3,)),
        "eq_12": ((E1,), (E2,)),
        "eq_34": ((E3,), (E4,)),
        "compatible": ((E1, E2), (E3, E4)),
    }
    atoms = {
        name: _identity_defect(identity, t1, t2, n, modulus) is None
        for name, identity in atom_pairs.items()
    }
    id_matching = atoms["eq_13"] and atoms["eq_24"]
    swap_matching = atoms["eq_14"] and atoms["eq_23"]
    interchangeable = atoms["eq_12"] and atoms["eq_34"]
    any_matching_eq = atoms["eq_13"] or atoms["eq_24"] or atoms["eq_14"] or atoms["eq_23"]
    conditions = {
        "totally_compatible": atoms["eq_12"] and atoms["eq_13"] and atoms["eq_14"],
        "interchangeable_plus_matching_eq": interchangeable and any_matching_eq,
        "matching_plus_interchange_eq": (id_matching or swap_matching)
        and (atoms["eq_12"] or atoms["eq_34"]),
        "matching_plus_other_sigma_eq": (id_matching and (atoms["eq_14"] or atoms["eq_23"]))
        or (swap_matching and (atoms["eq_13"] or atoms["eq_24"])),
    }
    if p1.field.characteristic != 2:
        conditions["interchangeable_and_compatible"] = interchangeable and atoms["compatible"]
    values = set(conditions.values())
    return EquivalenceAudit(atoms, conditions, len(values) > 1)
