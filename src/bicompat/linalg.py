"""Exact linear algebra over Q and prime fields F_p.

Scalars are plain values (`fractions.Fraction` over Q, small ints in [0, p)
over F_p); a field object supplies the arithmetic.  Matrices and subspaces
are immutable, and every subspace holds its canonical reduced row echelon
basis, so subspace equality is entrywise comparison of bases.

Every echelon form and kernel comes from one sparse modular engine:
kernel-update elimination modulo a prime, and over Q rational reconstruction
from several primes followed by an exact certificate.  Its kernel basis is
the canonical one, so `Subspace` takes it as it is.  A spanning set is one
engine run on its used columns in reverse order: that kernel's annihilator,
read back, is the span's canonical basis.  `rref`, `solve` and `intersect`
read their answers off spans and annihilators.
"""

from __future__ import annotations

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


_RAT_RE = re.compile(r"^[+-]?\d+(?:/0*[1-9]\d*)?$")
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


def rref(m: Matrix):
    """Reduced row echelon form of m, zero rows last.  Returns (rref matrix, rank)."""
    span = Subspace(m.field, m.ncols, m.rows)
    zero_row = (m.field.zero,) * m.ncols
    return Matrix(m.field, list(span.basis) + [zero_row] * (m.nrows - span.dim)), span.dim


class Subspace:
    """Linear subspace of a coordinate space, held as a canonical RREF basis."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots")

    def __init__(self, field, ambient_dim, rows):
        self.field = field
        self.ambient_dim = ambient_dim
        work = [[field.coerce(v) for v in row] for row in rows]
        if any(len(row) != ambient_dim for row in work):
            raise ShapeMismatchError("basis row length != ambient dim")
        # The engine runs on the used columns, reversed, so each kernel vector
        # ends at its 1 and each annihilator row starts at its 1, with 0 at
        # the other rows' 1s: the annihilator's rows are the RREF.
        rows = _distinct_rows(field, [{c: v for c, v in enumerate(row) if v} for row in work])
        cols = sorted({c for items in rows for c, _ in items}, reverse=True)
        local = {c: i for i, c in enumerate(cols)}
        ker = _kernel_basis(field, len(cols), [tuple([(local[c], v) for c, v in items]) for items in rows])
        ker = [{cols[c]: v for c, v in vec.items()} for vec in ker]
        span = _annihilator(field, cols[::-1], [vec.items() for vec in ker], [max(vec) for vec in ker])
        self.pivots = tuple(span)
        self.basis = tuple(_densify(field, ambient_dim, span.values()))

    @classmethod
    def _canonical(cls, field, ambient_dim, basis, pivots):
        """A subspace whose basis tuples are already its canonical RREF, set without re-checking."""
        space = cls.__new__(cls)
        space.field, space.ambient_dim = field, ambient_dim
        space.basis, space.pivots = tuple(basis), tuple(pivots)
        return space

    @classmethod
    def zero(cls, field, ambient_dim):
        return cls(field, ambient_dim, [])

    @classmethod
    def full(cls, field, ambient_dim):
        """The whole space, whose identity basis is canonical."""
        z, o = field.zero, field.one
        rows = [tuple(o if i == j else z for j in range(ambient_dim)) for i in range(ambient_dim)]
        return cls._canonical(field, ambient_dim, rows, range(ambient_dim))

    @property
    def dim(self):
        return len(self.basis)

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
        """The vectors in both spaces: the kernel of ann(self) + ann(other)."""
        self._check_peer(other)
        f, n = self.field, self.ambient_dim
        rows = [*_annihilator(f, range(n), map(enumerate, self.basis), self.pivots).values()]
        rows += _annihilator(f, range(n), map(enumerate, other.basis), other.pivots).values()
        return kernel_from_rows(f, n, rows)

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
        v = [f.coerce(x) for x in v]
        if len(v) != len(self.particular):
            raise ShapeMismatchError("vector length != ambient dim")
        return self.directions.member([f.sub(a, b) for a, b in zip(v, self.particular)])


def kernel(m: Matrix) -> Subspace:
    """The nullspace {v : m v = 0} as a canonical Subspace."""
    return kernel_from_rows(m.field, m.ncols, [dict(enumerate(row)) for row in m.rows])


def solve(m: Matrix, b):
    """All solutions of m x = b, or None when the system is infeasible.

    The particular solution is read off the canonical basis of the span of
    [m | b], with every free variable 0; the directions are `kernel(m)`.
    """
    f = m.field
    b = [f.coerce(x) for x in b]
    if len(b) != m.nrows:
        raise ShapeMismatchError("rhs length != row count")
    nc = m.ncols
    span = Subspace(f, nc + 1, [r + (bv,) for r, bv in zip(m.rows, b)])
    if nc in span.pivots:
        return None
    particular = [f.zero] * nc
    for row, pc in zip(span.basis, span.pivots):
        particular[pc] = row[nc]
    return AffineSubspace(tuple(particular), kernel(m))


# ---------------------------------------------------------------------------
# Kernels.  One sparse modular engine serves every system: rows are
# deduplicated entry for entry but not rescaled, and modulo a prime each
# one updates a kernel basis kept in RREF shape.  Over Q the residues of
# several 31-bit primes are lifted by CRT and rational reconstruction, and
# nothing is returned until every vector annihilates every row exactly.
# The k certified vectors are RREF-shaped, hence independent, and
# k = dim ker_p >= dim ker_Q, so they are the canonical basis of ker_Q.

# Rationals of height <= 32, one object each process-wide (as CPython keeps
# small ints): most basis entries are small, and answers are often held in bulk.
_SMALL_Q = {v: v for v in {Fraction(a, b) for a in range(-32, 33) for b in range(1, 33)}}


def shared_rational(v: Fraction) -> Fraction:
    """The process-wide object equal to v when v has height <= 32, else v itself."""
    return _SMALL_Q.get(v, v)


def kernel_from_rows(field, ncols, sparse_rows):
    """Kernel of the system whose rows are {col: value} mappings, as a canonical Subspace.

    A value is a Python int (exact in both characteristics, reduced mod p
    over F_p), a Fraction over Q, or anything `field.coerce` accepts.  Zero
    entries, empty rows, duplicate rows and rows at any nonzero scale are
    all allowed, so builders hand rows over raw.  Exact duplicates are
    dropped here; a row equal to another only up to scale goes to the
    engine, where it costs one sparse dot product.
    """
    rows = _distinct_rows(field, sparse_rows)
    if not all(type(c) is int and 0 <= c < ncols for c in {c for items in rows for c, _ in items}):
        raise ShapeMismatchError(f"a row has a column outside range({ncols})")
    return kernel_of_int_rows(field, ncols, rows)


def kernel_of_int_rows(field, ncols, rows):
    """Kernel of distinct integer rows, as a canonical Subspace: the engine
    entry for producers that build such rows themselves.

    Trusted, not checked: each row is a nonempty tuple of (col, int) pairs,
    0 <= col < ncols, no col twice, no int 0 (ints are exact in both
    characteristics), and no row occurs twice.  `kernel_from_rows` brings
    any other rows to this form.  Rows go lightest first, stably.
    """
    if not rows or ncols == 0:
        return Subspace.full(field, ncols)
    basis = _kernel_basis(field, ncols, rows)
    # the engine's vectors come in free-column order, each with its leading 1 there
    return Subspace._canonical(field, ncols, _densify(field, ncols, basis), [min(vec) for vec in basis])


def _kernel_basis(field, ncols, rows):
    """The engine's canonical kernel basis of distinct integer rows, as {col: value} rows."""
    rows = sorted(rows, key=len)
    if isinstance(field, PrimeField):
        return _kernel_modp(rows, ncols, field.p)
    return _kernel_q(rows, ncols)


def _densify(field, ncols, vecs):
    """{col: value} vectors as dense tuples, each distinct value held once."""
    dense, shared = [], {} if isinstance(field, PrimeField) else _SMALL_Q.copy()
    for vec in vecs:
        row = [field.zero] * ncols
        for c, v in vec.items():
            row[c] = shared.setdefault(v, v)
        dense.append(tuple(row))
    return dense


def _annihilator(field, cols, basis, pivots):
    """Rows spanning the vectors on `cols` orthogonal to an RREF-shaped basis.

    `basis` gives each row's (col, value) pairs: 1 at its pivot and 0 at
    the other pivots.  For each other column c the row e_c - sum_r
    basis[r][c] e_pivots[r] is orthogonal to every basis row; it is keyed c.
    """
    skip = set(pivots)
    ann = {c: {c: field.one} for c in cols if c not in skip}
    for items, pc in zip(basis, pivots):
        for c, v in items:
            if v and c != pc:
                ann[c][pc] = field.neg(v)
    return ann


def _distinct_rows(field, sparse_rows):
    """Each nonzero row once, as its zero-free (col, int) pairs, first occurrence first.

    Rows are not rescaled: int rows are taken as they are, other values are
    coerced (so junk raises) and over Q cleared of denominators.  Only
    exact duplicates go.  A prime dividing a row's content is just unlucky,
    and `_kernel_q` discards it.
    """
    p = field.characteristic
    exact = (int,) if p else (int, Fraction)
    seen = {}
    for rd in sparse_rows:
        # zeros of the exact types go now; any other value is coerced (and checked) below
        items = tuple([(c, v) for c, v in rd.items() if v or type(v) not in exact])
        if not all([type(v) is int for _, v in items]):
            # field.coerce is costly: only values of other types go through it
            items = [(c, v if type(v) in exact else field.coerce(v)) for c, v in items]
            if not p:
                den = math.lcm(*[v.denominator for _, v in items])
                items = [(c, v.numerator * (den // v.denominator)) for c, v in items]
            items = tuple([(c, v) for c, v in items if v])
        if items:
            seen[items] = None
    return seen


def _kernel_modp(rows, ncols, p):
    """Canonical RREF basis of the kernel mod p, as {col: residue} rows.

    Kernel-update elimination: `vecs` spans the kernel of the rows so far,
    one vector per free column f, with 1 at f, 0 at the other free columns
    and pivot entries right of f.  A row r is redundant when every
    s_f = r . vecs[f] is 0.  Otherwise the largest such g becomes a pivot:
    s_f/s_g times vecs[g] is subtracted from every other vecs[f] and vecs[g]
    goes, which keeps this shape.  The vectors left are the RREF basis.
    """
    vecs = {f: {f: 1} for f in range(ncols)}
    # holders[c]: the free columns f with vecs[f][c] != 0, mapped to vecs[f]
    holders = [{c: vecs[c]} for c in range(ncols)]
    for items in rows:
        s = {}
        for c, a in items:
            for f, vec in holders[c].items():
                s[f] = s.get(f, 0) + a * vec[c]
        g = -1
        for f, v in s.items():
            if f > g and v % p:
                g = f
        if g < 0:
            continue
        pivot = vecs.pop(g)
        for c in pivot:
            del holders[c][g]
        inv = pow(s.pop(g), -1, p)
        for f, v in s.items():
            k = v * inv % p
            if not k:
                continue
            vec = vecs[f]
            for c, b in pivot.items():
                if x := (vec.get(c, 0) - k * b) % p:
                    vec[c] = x
                    holders[c][f] = vec
                elif c in vec:
                    del vec[c]
                    del holders[c][f]
    return list(vecs.values())


def _kernel_q(rows, ncols):
    """Canonical RREF basis of ker_Q: {col: Fraction} rows, certified exactly.

    Primes are ranked by the (dim, pivot columns) of their kernel: a
    smaller dim means a higher rank, and at equal rank the pivots of a
    good prime are never later than those of a bad one.  Residues are
    combined only across primes with the best signature seen.
    """
    best = None
    p = 2**31 + 1
    while p := _prime_before(p):
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


@lru_cache(maxsize=None)
def _prime_before(q):
    """The largest prime below the odd number q, or None below 3: each prime is proved once."""
    return next(filter(_is_prime, range(q - 2, 2, -2)), None)


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
