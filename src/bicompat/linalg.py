"""Exact linear algebra over Q and prime fields F_p.

Scalars are plain values (`fractions.Fraction` over Q, small ints in [0, p)
over F_p); a field object supplies the arithmetic.  Matrices and subspaces
are immutable, and subspaces are canonicalized to reduced row echelon form
on construction, so subspace equality is entrywise comparison of bases.

Kernels are computed by one sparse modular engine: elimination modulo a
prime, and over Q rational reconstruction from several primes followed by
an exact certificate, so every returned object is exact.
"""

from __future__ import annotations

import heapq
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


class LinalgError(ValueError):
    pass


class FieldMismatchError(LinalgError):
    """Raised when values from different fields meet in one operation."""


class ShapeMismatchError(LinalgError):
    """Raised when operand dimensions do not line up."""


_RAT_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")
_INT_RE = re.compile(r"^[+-]?\d+$")


class RationalField:
    """The field of rationals; values are Fraction instances in lowest terms."""

    characteristic = 0

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, v):
        if isinstance(v, Scalar):
            if v.field != self:
                raise FieldMismatchError(f"scalar over {v.field} used over Q")
            return v.value
        if isinstance(v, bool):
            raise TypeError("bool is not a field value")
        if isinstance(v, (int, Fraction)):
            return Fraction(v)
        if isinstance(v, str):
            return self.parse(v)
        raise TypeError(f"cannot interpret {v!r} as a rational")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def div(self, a, b):
        return a * self.inv(b)

    def parse(self, s):
        if not isinstance(s, str) or not _RAT_RE.match(s.strip()):
            raise LinalgError(f"malformed rational {s!r}")
        return Fraction(s.strip())

    def to_str(self, v):
        return str(v)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


# Miller-Rabin with the first twelve prime bases decides primality of every
# n below this bound (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(p):
    """Deterministic Miller-Rabin; raises LinalgError above _MR_LIMIT."""
    if p >= _MR_LIMIT:
        raise LinalgError(f"{p} is too large to test for primality")
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """F_p for prime p; values are ints in [0, p)."""

    def __init__(self, p):
        if not isinstance(p, int) or not _is_prime(p):
            raise LinalgError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, v):
        if isinstance(v, Scalar):
            if v.field != self:
                raise FieldMismatchError(f"scalar over {v.field} used over {self}")
            return v.value
        if isinstance(v, bool):
            raise TypeError("bool is not a field value")
        if isinstance(v, int):
            return v % self.p
        if isinstance(v, str):
            return self.parse(v)
        raise TypeError(f"cannot interpret {v!r} as an element of {self}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def parse(self, s):
        if not isinstance(s, str) or not _INT_RE.match(s.strip()):
            raise LinalgError(f"malformed residue {s!r}")
        return int(s) % self.p

    def to_str(self, v):
        return str(v % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"F{self.p}"


QQ = RationalField()


@lru_cache(maxsize=None)
def GF(p):
    return PrimeField(p)


def field_to_json(field):
    if field == QQ:
        return "Q"
    return {"Fp": field.p}


def field_from_json(obj):
    if obj == "Q":
        return QQ
    if isinstance(obj, dict) and set(obj) == {"Fp"} and isinstance(obj["Fp"], int):
        return GF(obj["Fp"])
    raise LinalgError(f"unrecognized field description {obj!r}")


@dataclass(frozen=True)
class Scalar:
    """A field element tagged with its field.  Mixed-field arithmetic raises."""

    value: object
    field: object

    @classmethod
    def of(cls, field, v):
        return cls(field.coerce(v), field)

    def _peer(self, other):
        if not isinstance(other, Scalar):
            raise TypeError("Scalar arithmetic needs another Scalar")
        if other.field != self.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")
        return other.value

    def __add__(self, other):
        return Scalar(self.field.add(self.value, self._peer(other)), self.field)

    def __sub__(self, other):
        return Scalar(self.field.sub(self.value, self._peer(other)), self.field)

    def __mul__(self, other):
        return Scalar(self.field.mul(self.value, self._peer(other)), self.field)

    def __truediv__(self, other):
        return Scalar(self.field.div(self.value, self._peer(other)), self.field)

    def __neg__(self):
        return Scalar(self.field.neg(self.value), self.field)

    def __bool__(self):
        return self.value != self.field.zero

    def __str__(self):
        return self.field.to_str(self.value)

    @classmethod
    def parse(cls, field, s):
        return cls(field.parse(s), field)


class Matrix:
    """Immutable dense matrix with exact entries over one field."""

    __slots__ = ("field", "rows")

    def __init__(self, field, rows):
        self.field = field
        self.rows = tuple(tuple(field.coerce(v) for v in row) for row in rows)
        widths = {len(r) for r in self.rows}
        if len(widths) > 1:
            raise ShapeMismatchError("ragged rows")

    @classmethod
    def zeros(cls, field, nrows, ncols):
        z = field.zero
        return cls(field, [[z] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def entry(self, i, j):
        return self.rows[i][j]

    def scalar(self, i, j):
        return Scalar(self.rows[i][j], self.field)

    def transpose(self):
        return Matrix(self.field, list(zip(*self.rows)) if self.rows else [])

    def matvec(self, v):
        v = [self.field.coerce(x) for x in v]
        if len(v) != self.ncols:
            raise ShapeMismatchError("matvec length mismatch")
        f = self.field
        out = []
        for row in self.rows:
            acc = f.zero
            for a, b in zip(row, v):
                if a != f.zero and b != f.zero:
                    acc = f.add(acc, f.mul(a, b))
            out.append(acc)
        return out

    def mul(self, other):
        if not isinstance(other, Matrix):
            raise TypeError("Matrix.mul wants a Matrix")
        if other.field != self.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")
        if self.ncols != other.nrows:
            raise ShapeMismatchError("inner dimensions differ")
        f = self.field
        cols = list(zip(*other.rows)) if other.rows else []
        out = []
        for row in self.rows:
            out.append([
                _dot(f, row, col) for col in cols
            ])
        return Matrix(f, out)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and other.rows == self.rows
        )

    def __hash__(self):
        return hash((self.field, self.rows))

    def __repr__(self):
        return f"Matrix({self.field}, {self.nrows}x{self.ncols})"


def _dot(field, u, v):
    acc = field.zero
    for a, b in zip(u, v):
        if a != field.zero and b != field.zero:
            acc = field.add(acc, field.mul(a, b))
    return acc


def _rref_rows(field, rows):
    """Full Gauss-Jordan on a list of row lists, in place.  Returns pivot cols."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    zero = field.zero
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c] != zero), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][c])
        if inv != field.one:
            rows[r] = [field.mul(inv, v) for v in rows[r]]
        top = rows[r]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f != zero:
                rows[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(rows[i], top)]
        pivots.append(c)
        r += 1
    return pivots


def rref(m: Matrix):
    """Reduced row echelon form of m.  Returns (rref matrix, rank)."""
    rows = [list(r) for r in m.rows]
    pivots = _rref_rows(m.field, rows)
    return Matrix(m.field, rows), len(pivots)


def _kernel_basis_from_rref(field, rows, pivots, ncols):
    """Kernel basis vectors of an RREF system, one per free column."""
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    zero, one = field.zero, field.one
    for fcol in free:
        v = [zero] * ncols
        v[fcol] = one
        for i, pc in enumerate(pivots):
            if i < len(rows) and rows[i][fcol] != zero:
                v[pc] = field.neg(rows[i][fcol])
        basis.append(v)
    return basis


def _rref_shape_pivots(field, rows):
    """Pivot columns if rows already form a canonical RREF basis, else None."""
    zero, one = field.zero, field.one
    pivots = []
    for row in rows:
        pc = next((j for j, v in enumerate(row) if v != zero), None)
        if pc is None:
            return None
        if row[pc] != one:
            return None
        if pivots and pc <= pivots[-1]:
            return None
        pivots.append(pc)
    for i, row in enumerate(rows):
        for j, pc in enumerate(pivots):
            if j != i and row[pc] != zero:
                return None
    return pivots


class Subspace:
    """Linear subspace of a coordinate space, held as a canonical RREF basis."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots")

    def __init__(self, field, ambient_dim, rows):
        self.field = field
        self.ambient_dim = ambient_dim
        work = [[field.coerce(v) for v in row] for row in rows]
        for row in work:
            if len(row) != ambient_dim:
                raise ShapeMismatchError("basis row length != ambient dim")
        ready = _rref_shape_pivots(field, work)
        if ready is not None:
            canon, pivots = [tuple(r) for r in work], ready
        else:
            pivcols = _rref_rows(field, work)
            canon = [tuple(r) for r in work[: len(pivcols)]]
            pivots = pivcols
        self.basis = tuple(canon)
        self.pivots = tuple(pivots)

    @classmethod
    def zero(cls, field, ambient_dim):
        return cls(field, ambient_dim, [])

    @classmethod
    def full(cls, field, ambient_dim):
        return cls(field, ambient_dim, Matrix.identity(field, ambient_dim).rows)

    @property
    def dim(self):
        return len(self.basis)

    def basis_matrix(self):
        return Matrix(self.field, self.basis)

    def reduce(self, v):
        """Remainder of v after elimination against the basis."""
        f = self.field
        v = [f.coerce(x) for x in v]
        if len(v) != self.ambient_dim:
            raise ShapeMismatchError("vector length != ambient dim")
        for row, pc in zip(self.basis, self.pivots):
            c = v[pc]
            if c != f.zero:
                v = [f.sub(a, f.mul(c, b)) for a, b in zip(v, row)]
        return v

    def member(self, v):
        z = self.field.zero
        return all(x == z for x in self.reduce(v))

    def contains_subspace(self, other):
        self._check_peer(other)
        return all(self.member(row) for row in other.basis)

    def intersect(self, other):
        self._check_peer(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.field, self.ambient_dim)
        if self.ambient_dim == 0:
            return Subspace.zero(self.field, 0)
        f = self.field
        d1, d2 = self.dim, other.dim
        # columns: coefficients on self.basis then other.basis
        rows = []
        for i in range(self.ambient_dim):
            row = [self.basis[a][i] for a in range(d1)]
            row += [f.neg(other.basis[b][i]) for b in range(d2)]
            rows.append(row)
        ker = kernel(Matrix(f, rows))
        combo_rows = []
        for kv in ker.basis:
            vec = [f.zero] * self.ambient_dim
            for a in range(d1):
                if kv[a] != f.zero:
                    vec = [f.add(x, f.mul(kv[a], y)) for x, y in zip(vec, self.basis[a])]
            combo_rows.append(vec)
        return Subspace(f, self.ambient_dim, combo_rows)

    def sum(self, other):
        self._check_peer(other)
        return Subspace(self.field, self.ambient_dim, list(self.basis) + list(other.basis))

    def _check_peer(self, other):
        if not isinstance(other, Subspace):
            raise TypeError("expected a Subspace")
        if other.field != self.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")
        if other.ambient_dim != self.ambient_dim:
            raise ShapeMismatchError("ambient dimensions differ")

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and other.field == self.field
            and other.ambient_dim == self.ambient_dim
            and other.basis == self.basis
        )

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace({self.field}, dim {self.dim} of {self.ambient_dim})"


def subspace_member(v, s: Subspace):
    return s.member(v)


def subspace_intersect(s1: Subspace, s2: Subspace):
    return s1.intersect(s2)


def subspace_sum(s1: Subspace, s2: Subspace):
    return s1.sum(s2)


@dataclass(frozen=True)
class AffineSubspace:
    """Solution set particular + directions of a consistent linear system."""

    particular: tuple
    directions: Subspace

    @property
    def dim(self):
        return self.directions.dim

    def member(self, v):
        f = self.directions.field
        diff = [f.sub(f.coerce(a), b) for a, b in zip(v, self.particular)]
        return self.directions.member(diff)


def kernel(m: Matrix) -> Subspace:
    """The nullspace {v : m v = 0} as a canonical Subspace."""
    sparse = []
    zero = m.field.zero
    for row in m.rows:
        d = {j: v for j, v in enumerate(row) if v != zero}
        if d:
            sparse.append(d)
    return kernel_from_rows(m.field, m.ncols, sparse)


def solve(m: Matrix, b):
    """All solutions of m x = b, or None when the system is infeasible."""
    f = m.field
    b = [f.coerce(x) for x in b]
    if len(b) != m.nrows:
        raise ShapeMismatchError("rhs length != row count")
    nc = m.ncols
    rows = [list(r) + [bv] for r, bv in zip(m.rows, b)]
    if not rows:
        return AffineSubspace(tuple([f.zero] * nc), Subspace.full(f, nc))
    pivots = _rref_rows(f, rows)
    if pivots and pivots[-1] == nc:
        return None
    particular = [f.zero] * nc
    for i, pc in enumerate(pivots):
        particular[pc] = rows[i][nc]
    body = [row[:nc] for row in rows[: len(pivots)]]
    kb = _kernel_basis_from_rref(f, body, pivots, nc)
    return AffineSubspace(tuple(particular), Subspace(f, nc, kb))


# ---------------------------------------------------------------------------
# Kernels.  One sparse modular engine serves every system: rows are made
# primitive and deduplicated, eliminated modulo a prime, and the kernel is
# read off by back-substitution.  Over Q the residues of several 31-bit
# primes are lifted by CRT and rational reconstruction, and nothing is
# returned until every vector annihilates every row exactly.  The k
# certified vectors are RREF-shaped, hence independent, and k = dim ker_p >=
# dim ker_Q, so they are the canonical basis of ker_Q.


def kernel_from_rows(field, ncols, sparse_rows):
    """Kernel of the system whose rows are {col: coeff} dicts.

    The rows may arrive in any order; the returned Subspace is canonical.
    """
    rows = _distinct_rows(field, sparse_rows)
    if not rows or ncols == 0:
        return Subspace.full(field, ncols)
    if isinstance(field, PrimeField):
        basis = _kernel_modp(rows, ncols, field.p)
    else:
        basis = _kernel_q(rows, ncols)
    dense = [[field.zero] * ncols for _ in basis]
    for row, vec in zip(dense, basis):
        for c, v in vec.items():
            row[c] = v
    return Subspace(field, ncols, dense)


def _kernel_pure(field, ncols, sparse_rows):
    """Dense exact Gauss-Jordan kernel: the reference the engine is tested against."""
    zero = field.zero
    dense = []
    for rd in sparse_rows:
        row = [zero] * ncols
        for c, v in rd.items():
            row[c] = field.add(row[c], field.coerce(v))
        dense.append(row)
    pivots = _rref_rows(field, dense)
    basis = _kernel_basis_from_rref(field, dense[: len(pivots)], pivots, ncols)
    return Subspace(field, ncols, basis)


def _distinct_rows(field, sparse_rows):
    """Each nonzero row once up to scale, as (col, int) pairs, lightest first.

    Over Q a row is made primitive: integral, content 1, leading coefficient
    positive.  Over F_p it is made monic.
    """
    p = field.characteristic
    exact = int if p else Fraction
    seen = set()
    for rd in sparse_rows:
        items = []
        for c, v in sorted(rd.items()):
            # field.coerce is costly, and most values already have the field's type
            if type(v) is not exact:
                v = field.coerce(v)
            elif p:
                v %= p
            if v:
                items.append((c, v))
        if not items:
            continue
        if p:
            inv = pow(items[0][1], -1, p)
            row = tuple((c, v * inv % p) for c, v in items)
        else:
            den = math.lcm(*(v.denominator for _, v in items))
            ints = [v.numerator * (den // v.denominator) for _, v in items]
            g = math.gcd(*ints)
            if ints[0] < 0:
                g = -g
            row = tuple((c, x // g) for (c, _), x in zip(items, ints))
        seen.add(row)
    return sorted(seen, key=lambda r: (len(r), r))


def _kernel_modp(rows, ncols, p):
    """Canonical RREF basis of the kernel mod p, as {col: residue} rows.

    Each pivot row is monic at its largest column, so reducing by pivots
    from the largest column down never brings an eliminated pivot back.
    Back-substitution then writes each pivot variable as a combination of
    free ones to its left: the basis vector of free column f has its
    leading 1 at f and vanishes at every other free column, which is RREF.
    """
    pivots = {}
    for items in rows:
        row = {}
        for c, v in items:
            if v % p:
                row[c] = v % p
        hits = [-c for c in row if c in pivots]
        heapq.heapify(hits)
        while hits:
            pc = -heapq.heappop(hits)
            f = row.get(pc)
            if f is None:
                continue
            for c, a in pivots[pc].items():
                old = row.get(c)
                if old is None:
                    row[c] = -f * a % p
                    if c in pivots:
                        heapq.heappush(hits, -c)
                elif (old - f * a) % p:
                    row[c] = (old - f * a) % p
                else:
                    del row[c]
        if row:
            pc = max(row)
            inv = pow(row[pc], -1, p)
            pivots[pc] = {c: v * inv % p for c, v in row.items()}
    expr = {}
    for pc in sorted(pivots):
        e = {}
        for c, a in pivots[pc].items():
            if c != pc:
                for fc, b in expr.get(c, {c: 1}).items():
                    e[fc] = (e.get(fc, 0) - a * b) % p
        expr[pc] = {fc: b for fc, b in e.items() if b}
    basis = {fc: {fc: 1} for fc in range(ncols) if fc not in expr}
    for pc, e in expr.items():
        for fc, b in e.items():
            basis[fc][pc] = b
    return list(basis.values())


def _kernel_q(rows, ncols):
    """Canonical RREF basis of ker_Q: {col: Fraction} rows, certified exactly.

    Primes are ranked by the (dim, pivot columns) of their kernel: a
    smaller dim means a higher rank, and at equal rank the pivots of a
    good prime are never later than those of a bad one.  Residues are
    combined only across primes with the best signature seen.
    """
    best = None
    for p in filter(_is_prime, range(2**31 - 1, 2, -2)):
        basis = _kernel_modp(rows, ncols, p)
        sig = (len(basis), [min(v) for v in basis])
        if best is None or sig < best:
            best, modulus, acc = sig, 1, [{} for _ in basis]
        elif sig != best:
            continue
        inv = pow(modulus, -1, p)
        for lifted, vec in zip(acc, basis):
            for c in set(lifted) | set(vec):
                a = lifted.get(c, 0)
                lifted[c] = a + modulus * ((vec.get(c, 0) - a) * inv % p)
        modulus *= p
        bound = math.isqrt(modulus // 2)
        candidate = [{c: _rat_reconstruct(x, modulus, bound) for c, x in vec.items()} for vec in acc]
        if all(None not in vec.values() for vec in candidate) and _annihilates(rows, candidate):
            return candidate
    raise LinalgError("no prime below 2**31 certified the kernel")


def _rat_reconstruct(a, q, bound):
    """Smallest n/d with n = a*d mod q, |n|,d <= bound; None if ambiguous."""
    r0, r1 = q, a % q
    s0, s1 = 0, 1
    while r1 > bound:
        k = r0 // r1
        r0, r1 = r1, r0 - k * r1
        s0, s1 = s1, s0 - k * s1
    if s1 == 0 or abs(s1) > bound:
        return None
    n, d = (r1, s1) if s1 > 0 else (-r1, -s1)
    if math.gcd(n, d) != 1:
        return None
    return Fraction(n, d)


def _annihilates(rows, vectors):
    """Exact sparse check that every vector kills every integer row."""
    by_col = {}
    for i, vec in enumerate(vectors):
        den = math.lcm(*(v.denominator for v in vec.values()))
        for c, v in vec.items():
            by_col.setdefault(c, []).append((i, v.numerator * (den // v.denominator)))
    for items in rows:
        sums = {}
        for c, a in items:
            for i, v in by_col.get(c, ()):
                sums[i] = sums.get(i, 0) + a * v
        if any(sums.values()):
            return False
    return True
