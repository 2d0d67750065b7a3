"""Finite-dimensional algebras as structure-constant tensors.

A Product is a bilinear map stored sparsely as tables (i, j) -> {k: coeff},
meaning  b_i * b_j = sum_k coeff * b_k.  Products carry no associativity
requirement; an Algebra wraps a distinguished associative product together
with basis labels.  Structural subspaces (center, centroid, annihilator,
centralizer, unit sets) are computed by exact linear solves.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction

from .linalg import (
    FieldMismatchError,
    LinalgError,
    Matrix,
    ShapeMismatchError,
    Subspace,
    field_from_json,
    field_to_json,
    kernel_from_rows,
    rref,
    shared_rational,
    solve,
)


class AlgebraError(ValueError):
    pass


class NonAssociativeError(AlgebraError):
    """An associative product was required; carries the first bad triple."""

    def __init__(self, witness, message="product is not associative"):
        super().__init__(f"{message} (witness triple {witness})")
        self.witness = witness


class FileFormatError(AlgebraError):
    """Malformed algebra/product/starmap document."""


UNIT_SIDES = ("left", "right", "two-sided")


class Product:
    """A bilinear product on an n-dimensional space, as a sparse rank-3 tensor.

    A product is immutable after construction: every operation returns a new
    one.  So its integer tables (`_ints`) and its associativity witness
    (`_assoc`, held as a 1-tuple) are computed at most once, on first use,
    and kept on the object.
    """

    __slots__ = ("dim", "field", "tables", "_ints", "_assoc")

    def __init__(self, dim, field, tables):
        if dim < 1:
            raise AlgebraError("dimension must be at least 1")
        self.dim = dim
        self.field = field
        clean = {}
        for (i, j), col in tables.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise AlgebraError(f"pair index ({i},{j}) out of range")
            out = {}
            for k, v in col.items():
                if not 0 <= k < dim:
                    raise AlgebraError(f"output index {k} out of range")
                v = field.coerce(v)
                if v != field.zero:
                    out[k] = v
            if out:
                clean[(i, j)] = out
        self.tables = clean
        self._ints = self._assoc = None

    @classmethod
    def from_triples(cls, dim, field, triples):
        tables = {}
        for i, j, k, v in triples:
            col = tables.setdefault((i, j), {})
            v = field.coerce(v)
            col[k] = field.add(col.get(k, field.zero), v)
        return cls(dim, field, tables)

    @classmethod
    def zero(cls, dim, field):
        return cls(dim, field, {})

    @classmethod
    def from_flat(cls, dim, field, vec):
        """Inverse of flatten(): vec has length dim**3, layout (i*dim + j)*dim + k."""
        if len(vec) != dim**3:
            raise ShapeMismatchError("flat coefficient vector has wrong length")
        # zeros of the field's exact types are skipped; __init__ coerces the rest once
        exact = (int,) if field.characteristic else (int, Fraction)
        tables = {}
        for idx, v in enumerate(vec):
            if v or type(v) not in exact:
                tables.setdefault((idx // (dim * dim), idx // dim % dim), {})[idx % dim] = v
        return cls(dim, field, tables)

    def table(self, i, j):
        return self.tables.get((i, j), {})

    def coefficient(self, i, j, k):
        return self.table(i, j).get(k, self.field.zero)

    def triples(self):
        out = []
        for (i, j), col in self.tables.items():
            for k, v in col.items():
                out.append((i, j, k, v))
        out.sort(key=lambda t: t[:3])
        return out

    def flatten(self):
        n = self.dim
        vec = [self.field.zero] * n**3
        for (i, j), col in self.tables.items():
            base = (i * n + j) * n
            for k, v in col.items():
                vec[base + k] = v
        return vec

    def add(self, other):
        self._check_peer(other)
        f = self.field
        tables = {ij: dict(col) for ij, col in self.tables.items()}
        for ij, col in other.tables.items():
            mine = tables.setdefault(ij, {})
            for k, v in col.items():
                mine[k] = f.add(mine.get(k, f.zero), v)
        return Product(self.dim, f, tables)

    def scale(self, c):
        f = self.field
        c = f.coerce(c)
        tables = {
            ij: {k: f.mul(c, v) for k, v in col.items()}
            for ij, col in self.tables.items()
        }
        return Product(self.dim, f, tables)

    def neg(self):
        return self.scale(self.field.neg(self.field.one))

    def _check_peer(self, other):
        if not isinstance(other, Product):
            raise TypeError("expected a Product")
        if other.field != self.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")
        if other.dim != self.dim:
            raise ShapeMismatchError("product dimensions differ")

    def __eq__(self, other):
        return (
            isinstance(other, Product)
            and other.dim == self.dim
            and other.field == self.field
            and other.tables == self.tables
        )

    def __hash__(self):
        items = tuple(sorted((ij, tuple(sorted(col.items()))) for ij, col in self.tables.items()))
        return hash((self.dim, self.field, items))

    def __repr__(self):
        return f"Product(dim={self.dim}, {self.field}, {len(self.tables)} nonzero pairs)"


def basis_vector(field, n, i):
    v = [field.zero] * n
    v[i] = field.one
    return v


def multiply(p: Product, a, b):
    """Evaluate the bilinear map on coordinate vectors a and b."""
    f = p.field
    n = p.dim
    a = [f.coerce(x) for x in a]
    b = [f.coerce(x) for x in b]
    if len(a) != n or len(b) != n:
        raise ShapeMismatchError("vector length != product dimension")
    out = [f.zero] * n
    for i, av in enumerate(a):
        if av == f.zero:
            continue
        for j, bv in enumerate(b):
            if bv == f.zero:
                continue
            col = p.table(i, j)
            if not col:
                continue
            coef = f.mul(av, bv)
            for k, v in col.items():
                out[k] = f.add(out[k], f.mul(coef, v))
    return out


# ---------------------------------------------------------------------------
# Sparse integer contraction of two products.  Every identity the package
# checks is a signed sum of the two triple expressions of `_walk`, each
# bilinear in its pair of products, so positive rescaling of a product keeps
# every zero.
# Over Q the tables are cleared of denominators; over F_p they hold residues.


class _IntTables:
    """Integer structure constants of a bilinear map, indexed for contraction.

    `tail[i]` lists (j*n + k, v) for b_i b_j = ... + v b_k; `out[k]` lists
    ((i*n + j)*n, v), the same entries grouped by output index.  The entries
    of a Product are s * c for the positive integer `scale` s (see
    `_int_tables`); those of the unknown tensor in `solve_linear` are column
    numbers.
    """

    __slots__ = ("scale", "tail", "out")

    def __init__(self, n, entries, scale=1):
        self.scale = scale
        self.tail = [[] for _ in range(n)]
        self.out = [[] for _ in range(n)]
        for i, j, k, v in entries:
            self.tail[i].append((j * n + k, v))
            self.out[k].append(((i * n + j) * n, v))


def _int_tables(p: Product) -> _IntTables:
    """The integer tables of p, built on first use and kept on p.

    The scale is the lcm of the denominators over Q, and 1 over F_p, whose
    residues are integers already."""
    if p._ints is None:
        entries = [(i, j, k, v) for (i, j), col in p.tables.items() for k, v in col.items()]
        s = math.lcm(*(v.denominator for *_, v in entries))
        ints = [(i, j, k, v.numerator * (s // v.denominator)) for i, j, k, v in entries]
        p._ints = _IntTables(p.dim, ints, s)
    return p._ints


def _walk(p, q, outer, i, n):
    """The contraction of tables p and q at first index i, as (offset, s, entries).

    The coefficient of b_l in (b_i p b_j) q b_k when outer, or in
    b_i q (b_j p b_k) when not, is the sum of s * w over the yielded triples
    and the (key, w) in their entries with offset + key = (j*n + k)*n + l.
    s is an entry of the leading factor (p when outer, q when not), and
    entries is a list of the other factor's.
    """
    if outer:
        qt, nn = q.tail, n * n
        for jm, s in p.tail[i]:
            yield jm // n * nn, s, qt[jm % n]
    else:
        po = p.out
        for ml, s in q.tail[i]:
            yield ml % n, s, po[ml // n]


def _slice(terms, n, i):
    """The signed sum of (p, q, outer, sign) terms at first index i."""
    acc = defaultdict(int)
    for p, q, outer, sign in terms:
        for offset, s, entries in _walk(p, q, outer, i, n):
            s *= sign
            for key, w in entries:
                acc[offset + key] += s * w
    return acc


def _first_defect(terms, n, modulus):
    """Smallest (i, j, k) where the signed sum of terms is nonzero, or None.

    Over F_p (modulus p) nonzero means nonzero mod p; over Q modulus is 0."""
    nn = n * n
    for i in range(n):
        acc = _slice(terms, n, i)
        if modulus:
            bad = [key for key, v in acc.items() if v % modulus]
        else:
            bad = [key for key, v in acc.items() if v]
        if bad:
            key = min(bad)
            return (i, key // nn, key // n % n)
    return None


def _slice_vector(terms, n, triple, field, scale):
    """The field vector (over l) of the terms at basis triple (i, j, k), whose
    integer tables carry the combined positive scale `scale`."""
    i, j, k = triple
    acc = _slice(terms, n, i)
    base = (j * n + k) * n
    vals = [acc.get(base + l, 0) for l in range(n)]
    if field.characteristic:
        return tuple(v % field.p for v in vals)
    return tuple(shared_rational(Fraction(v, scale)) for v in vals)


def associativity_witness(p: Product):
    """First basis triple (i, j, k) where (b_i b_j) b_k != b_i (b_j b_k), or None.

    Evaluated once per product and kept on it."""
    if p._assoc is None:
        t = _int_tables(p)
        p._assoc = (_first_defect([(t, t, True, 1), (t, t, False, -1)], p.dim, p.field.characteristic),)
    return p._assoc[0]


def is_associative(p: Product):
    return associativity_witness(p) is None


def require_associative(p: Product, what="base product"):
    w = associativity_witness(p)
    if w is not None:
        raise NonAssociativeError(w, f"{what} is not associative")


def find_units(p: Product, side="two-sided"):
    """Affine set of unit elements for the requested side, or None when empty."""
    if side not in UNIT_SIDES:
        raise AlgebraError(f"side must be one of {UNIT_SIDES}")
    f = p.field
    n = p.dim
    rows = []
    rhs = []
    if side in ("left", "two-sided"):
        # e * b_i = b_i : coefficient of b_l is sum_u e_u c[u][i][l]
        for i in range(n):
            for l in range(n):
                rows.append([p.coefficient(u, i, l) for u in range(n)])
                rhs.append(f.one if l == i else f.zero)
    if side in ("right", "two-sided"):
        for i in range(n):
            for l in range(n):
                rows.append([p.coefficient(i, u, l) for u in range(n)])
                rhs.append(f.one if l == i else f.zero)
    return solve(Matrix(f, rows), rhs)


def is_idempotent_algebra(p: Product):
    """True when the span of all basis products is the whole space."""
    rows = []
    f = p.field
    n = p.dim
    for (i, j), col in p.tables.items():
        row = [f.zero] * n
        for k, v in col.items():
            row[k] = v
        rows.append(row)
    return Subspace(f, n, rows).dim == n


def center(p: Product) -> Subspace:
    """{x : x b_i = b_i x for every basis element}."""
    n = p.dim
    c = p.coefficient
    rows = [{u: c(u, i, l) - c(i, u, l) for u in range(n)} for i in range(n) for l in range(n)]
    return kernel_from_rows(p.field, n, rows)


def centralizer(p: Product, x) -> Subspace:
    """{a : a x = x a} for a fixed coordinate vector x."""
    f = p.field
    n = p.dim
    x = [f.coerce(v) for v in x]
    if len(x) != n:
        raise ShapeMismatchError("vector length != product dimension")
    c = p.coefficient
    rows = [
        {u: sum(xv * (c(u, j, l) - c(j, u, l)) for j, xv in enumerate(x) if xv) for u in range(n)}
        for l in range(n)
    ]
    return kernel_from_rows(f, n, rows)


def annihilator(p: Product) -> Subspace:
    """{a : a b_i = b_i a = 0 for every basis element}."""
    n = p.dim
    c = p.coefficient
    rows = []
    for i in range(n):
        for l in range(n):
            rows.append({u: c(u, i, l) for u in range(n)})
            rows.append({u: c(i, u, l) for u in range(n)})
    return kernel_from_rows(p.field, n, rows)


def centroid(p: Product) -> Subspace:
    """Maps commuting with every multiplication: x phi(y) = phi(x y) = phi(x) y.

    Solutions live in the n^2-dimensional endomorphism coordinate space,
    row-major: slot r*n + c holds the coefficient of b_c in phi(b_r).
    """
    n = p.dim
    # rows[0, i, j, l] is phi(b_i b_j) - b_i phi(b_j) at b_l, and
    # rows[1, i, j, l] is phi(b_i b_j) - phi(b_i) b_j at b_l.
    rows = defaultdict(lambda: defaultdict(int))
    for (a, b), col in p.tables.items():
        for k, v in col.items():
            # b_a b_b = ... + v b_k enters phi(b_a b_b), b_a phi(b_x) and phi(b_x) b_b
            for x in range(n):
                rows[0, a, b, x][k * n + x] += v
                rows[1, a, b, x][k * n + x] += v
                rows[0, a, x, k][x * n + b] -= v
                rows[1, x, b, k][x * n + a] -= v
    return kernel_from_rows(p.field, n * n, list(rows.values()))


class Endomorphism:
    """A linear map on coordinates; row r of the matrix is the image of b_r."""

    __slots__ = ("dim", "field", "matrix")

    def __init__(self, field, matrix_rows):
        self.field = field
        self.matrix = tuple(tuple(field.coerce(v) for v in row) for row in matrix_rows)
        self.dim = len(self.matrix)
        if any(len(r) != self.dim for r in self.matrix):
            raise ShapeMismatchError("endomorphism matrix must be square")

    @classmethod
    def identity(cls, field, n):
        return cls(field, Matrix.identity(field, n).rows)

    @classmethod
    def scalar(cls, field, n, c):
        c = field.coerce(c)
        z = field.zero
        return cls(field, [[c if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def from_flat(cls, field, n, vec):
        if len(vec) != n * n:
            raise ShapeMismatchError("flat endomorphism vector has wrong length")
        return cls(field, [vec[r * n : (r + 1) * n] for r in range(n)])

    def flatten(self):
        return [v for row in self.matrix for v in row]

    def apply(self, v):
        f = self.field
        v = [f.coerce(x) for x in v]
        if len(v) != self.dim:
            raise ShapeMismatchError("vector length != endomorphism dimension")
        out = [f.zero] * self.dim
        for r, coef in enumerate(v):
            if coef == f.zero:
                continue
            for c, m in enumerate(self.matrix[r]):
                if m != f.zero:
                    out[c] = f.add(out[c], f.mul(coef, m))
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Endomorphism)
            and other.field == self.field
            and other.matrix == self.matrix
        )

    def __repr__(self):
        return f"Endomorphism(dim={self.dim}, {self.field})"


def apply_endo(phi: Endomorphism, v):
    return phi.apply(v)


class Algebra:
    """An associative structure-constant algebra with labeled basis."""

    __slots__ = ("dim", "field", "labels", "dot")

    def __init__(self, field, labels, dot: Product, *, check=True):
        labels = tuple(labels)
        if len(labels) < 1:
            raise AlgebraError("algebras must have dimension at least 1")
        if len(set(labels)) != len(labels):
            raise AlgebraError("basis labels must be distinct")
        if dot.dim != len(labels):
            raise ShapeMismatchError("label count != product dimension")
        if dot.field != field:
            raise FieldMismatchError(f"{field} vs {dot.field}")
        if check:
            require_associative(dot, "algebra product")
        self.dim = dot.dim
        self.field = field
        self.labels = labels
        self.dot = dot

    def index_of(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise AlgebraError(f"unknown basis label {label!r}") from None

    def describe(self, v):
        """Human-readable combination of basis labels for a coordinate vector."""
        f = self.field
        parts = []
        for i, x in enumerate(v):
            x = f.coerce(x)
            if x == f.zero:
                continue
            if x == f.one:
                parts.append(self.labels[i])
            else:
                parts.append(f"{f.to_str(x)}*{self.labels[i]}")
        return " + ".join(parts) if parts else "0"

    def __eq__(self, other):
        return (
            isinstance(other, Algebra)
            and other.field == self.field
            and other.labels == self.labels
            and other.dot == self.dot
        )

    def __repr__(self):
        return f"Algebra(dim={self.dim}, {self.field})"


def transport_product(p: Product, g: Matrix) -> Product:
    """Base change: the product g^-1(p(g a, g b)); preserves associativity."""
    if g.field != p.field or g.nrows != p.dim or g.ncols != p.dim:
        raise ShapeMismatchError("base change matrix must be square of matching size")
    f = p.field
    n = p.dim
    ginv = Endomorphism(f, matrix_inverse(g).rows)
    triples = []
    for i in range(n):
        gi = list(g.rows[i])
        for j in range(n):
            gj = list(g.rows[j])
            for k, v in enumerate(ginv.apply(multiply(p, gi, gj))):
                if v != f.zero:
                    triples.append((i, j, k, v))
    return Product.from_triples(n, f, triples)


def matrix_inverse(g: Matrix) -> Matrix:
    if g.nrows != g.ncols:
        raise ShapeMismatchError("only square matrices invert")
    n = g.nrows
    eye = Matrix.identity(g.field, n)
    reduced, _ = rref(Matrix(g.field, [gr + er for gr, er in zip(g.rows, eye.rows)]))
    if any(row[:n] != er for row, er in zip(reduced.rows, eye.rows)):
        raise LinalgError("matrix is singular")
    return Matrix(g.field, [row[n:] for row in reduced.rows])


# ---------------------------------------------------------------------------
# JSON file formats.  Algebra documents:
#   {"dim": n, "field": "Q" | {"Fp": p}, "labels": [...],
#    "table": [[i, j, k, "coeff"], ...]}
# Product documents use the same layout with the triples under "product"
# (labels optional).  Indices are 0-based; omitted triples mean zero.
# A document's dim is at most MAX_DIM: a tiny file must not make a command
# allocate without bound, and `invariants` grows as dim^4 (its centroid has
# dim^2 unknowns).

MAX_DIM = 32


def algebra_to_json(alg: Algebra):
    return {
        "dim": alg.dim,
        "field": field_to_json(alg.field),
        "labels": list(alg.labels),
        "table": [[i, j, k, alg.field.to_str(v)] for i, j, k, v in alg.dot.triples()],
    }


def product_to_json(p: Product):
    return {
        "dim": p.dim,
        "field": field_to_json(p.field),
        "product": [[i, j, k, p.field.to_str(v)] for i, j, k, v in p.triples()],
    }


def _parse_triples(dim, field, raw, what):
    if not isinstance(raw, list):
        raise FileFormatError(f"{what} must be a list of [i, j, k, coeff] entries")
    triples = []
    for entry in raw:
        if not (isinstance(entry, list) and len(entry) == 4):
            raise FileFormatError(f"bad {what} entry {entry!r}")
        i, j, k, c = entry
        if not all(type(x) is int for x in (i, j, k)):
            raise FileFormatError(f"non-integer index in {what} entry {entry!r}")
        if not all(0 <= x < dim for x in (i, j, k)):
            raise FileFormatError(f"index out of range in {what} entry {entry!r}")
        if not isinstance(c, str):
            raise FileFormatError(f"coefficient must be a string in {entry!r}")
        try:
            triples.append((i, j, k, field.parse(c)))
        except LinalgError as exc:
            raise FileFormatError(str(exc)) from None
    return triples


def _parse_header(obj, what):
    if not isinstance(obj, dict):
        raise FileFormatError(f"{what} document must be a JSON object")
    dim = obj.get("dim")
    if type(dim) is not int or dim < 1:
        raise FileFormatError(f"{what} document needs a positive integer 'dim'")
    if dim > MAX_DIM:
        raise FileFormatError(f"{what} dim {dim} exceeds the document limit of {MAX_DIM}")
    try:
        field = field_from_json(obj.get("field"))
    except LinalgError as exc:
        raise FileFormatError(str(exc)) from None
    return dim, field


def product_from_json(obj) -> Product:
    dim, field = _parse_header(obj, "product")
    if "product" not in obj:
        raise FileFormatError("product document needs a 'product' table")
    return Product.from_triples(dim, field, _parse_triples(dim, field, obj["product"], "product"))


def algebra_from_json(obj, *, check=True) -> Algebra:
    dim, field = _parse_header(obj, "algebra")
    labels = obj.get("labels")
    if labels is None:
        labels = [f"b{i}" for i in range(dim)]
    if not (isinstance(labels, list) and len(labels) == dim and all(isinstance(s, str) for s in labels)):
        raise FileFormatError("'labels' must list one string per basis element")
    if "table" not in obj:
        raise FileFormatError("algebra document needs a 'table'")
    dot = Product.from_triples(dim, field, _parse_triples(dim, field, obj["table"], "table"))
    return Algebra(field, labels, dot, check=check)
