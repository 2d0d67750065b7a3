"""Builders for the algebra and product families used throughout.

Everything here returns exact structure-constant data: rectangular band
semigroup algebras, matrix algebras, path algebras of acyclic quivers,
direct sums, mutations a.x.b, centroid-determined products phi(a.b), the
band product families, and the three separating nilpotent examples.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    Algebra,
    AlgebraError,
    Endomorphism,
    Product,
    basis_vector,
    centroid,
    multiply,
    require_associative,
)
from .linalg import QQ, ShapeMismatchError


class NotInCentroidError(AlgebraError):
    pass


class NotInAnnihilatorError(AlgebraError):
    pass


class CyclicQuiverError(AlgebraError):
    pass


@dataclass(frozen=True)
class BandSpec:
    rows: int
    cols: int

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise AlgebraError("band sides must be positive")

    @property
    def dim(self):
        return self.rows * self.cols

    def index(self, i, j):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise AlgebraError(f"band index ({i},{j}) out of range")
        return i * self.cols + j


@dataclass(frozen=True)
class QuiverSpec:
    vertices: int
    arrows: tuple

    def __init__(self, vertices, arrows):
        if type(vertices) is not int or vertices < 1:
            raise AlgebraError("quiver needs a positive integer number of vertices")
        if not isinstance(arrows, (list, tuple)) or not all(
            isinstance(a, (list, tuple)) and len(a) == 2 and all(type(v) is int for v in a) for a in arrows
        ):
            raise AlgebraError("quiver arrows must be [source, target] pairs of integers")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "arrows", tuple(map(tuple, arrows)))
        for s, t in self.arrows:
            if not (0 <= s < vertices and 0 <= t < vertices):
                raise AlgebraError(f"arrow ({s},{t}) out of range")


def mutation(dot: Product, x) -> Product:
    """The product (a, b) -> a.x.b derived from an associative product."""
    require_associative(dot)
    f = dot.field
    n = dot.dim
    x = [f.coerce(v) for v in x]
    if len(x) != n:
        raise ShapeMismatchError("mutation element has wrong length")
    triples = []
    for i in range(n):
        left = multiply(dot, basis_vector(f, n, i), x)
        for j in range(n):
            out = multiply(dot, left, basis_vector(f, n, j))
            for k, v in enumerate(out):
                if v != f.zero:
                    triples.append((i, j, k, v))
    return Product.from_triples(n, f, triples)


def centroid_product(dot: Product, phi: Endomorphism, centroid_space=None) -> Product:
    """The product (a, b) -> phi(a.b) for phi in the centroid of dot."""
    if phi.field != dot.field or phi.dim != dot.dim:
        raise ShapeMismatchError("endomorphism does not match the product")
    space = centroid_space if centroid_space is not None else centroid(dot)
    if not space.member(phi.flatten()):
        raise NotInCentroidError("map is not in the centroid of the product")
    f = dot.field
    n = dot.dim
    triples = []
    for (i, j), col in dot.tables.items():
        vec = [f.zero] * n
        for k, v in col.items():
            vec[k] = v
        out = phi.apply(vec)
        for k, v in enumerate(out):
            if v != f.zero:
                triples.append((i, j, k, v))
    return Product.from_triples(n, f, triples)


def mutation_span(dot: Product):
    """Span of the mutations by basis elements, inside coefficient space."""
    from .linalg import Subspace

    f = dot.field
    n = dot.dim
    rows = [mutation(dot, basis_vector(f, n, i)).flatten() for i in range(n)]
    return Subspace(f, n**3, rows)


def centroid_product_span(dot: Product):
    """Span of the centroid-determined products, inside coefficient space."""
    from .linalg import Subspace

    f = dot.field
    n = dot.dim
    space = centroid(dot)
    rows = [
        centroid_product(dot, Endomorphism.from_flat(f, n, list(row)), space).flatten()
        for row in space.basis
    ]
    return Subspace(f, n**3, rows)


def _unit_label(prefix, a, b):
    """e12 for one-digit indices; e1_11 once one has two, so e1_11 and e11_1 differ."""
    return f"{prefix}{a}{b}" if a < 10 and b < 10 else f"{prefix}{a}_{b}"


def rectangular_band_algebra(spec: BandSpec, field=QQ) -> Algebra:
    """Semigroup algebra of the I x J band: e_ij . e_kl = e_il."""
    n = spec.dim
    triples = []
    for i in range(spec.rows):
        for j in range(spec.cols):
            for k in range(spec.rows):
                for l in range(spec.cols):
                    triples.append((spec.index(i, j), spec.index(k, l), spec.index(i, l), 1))
    labels = [_unit_label("e", i + 1, j + 1) for i in range(spec.rows) for j in range(spec.cols)]
    return Algebra(field, labels, Product.from_triples(n, field, triples), check=False)


def matrix_algebra(size: int, field=QQ) -> Algebra:
    """Full matrix algebra on matrix units: E_rc . E_uv = [c == u] E_rv."""
    if size < 1:
        raise AlgebraError("matrix size must be positive")
    n = size * size

    def idx(r, c):
        return r * size + c

    triples = []
    for r in range(size):
        for c in range(size):
            for v in range(size):
                triples.append((idx(r, c), idx(c, v), idx(r, v), 1))
    labels = [_unit_label("E", r + 1, c + 1) for r in range(size) for c in range(size)]
    return Algebra(field, labels, Product.from_triples(n, field, triples), check=False)


def zero_algebra(dim: int, field=QQ) -> Algebra:
    """Algebra with identically zero multiplication."""
    labels = [f"e{i + 1}" for i in range(dim)]
    return Algebra(field, labels, Product.zero(dim, field), check=False)


def direct_sum(algebras) -> Algebra:
    """Block-diagonal sum; labels are prefixed with their summand index."""
    algebras = list(algebras)
    if not algebras:
        raise AlgebraError("direct sum of nothing")
    field = algebras[0].field
    if any(a.field != field for a in algebras):
        raise AlgebraError("direct sum needs one common field")
    n = sum(a.dim for a in algebras)
    triples = []
    labels = []
    offset = 0
    for t, alg in enumerate(algebras):
        labels.extend(f"s{t + 1}.{lab}" for lab in alg.labels)
        for i, j, k, v in alg.dot.triples():
            triples.append((offset + i, offset + j, offset + k, v))
        offset += alg.dim
    return Algebra(field, labels, Product.from_triples(n, field, triples), check=False)


def _quiver_paths(spec: QuiverSpec):
    """All paths of an acyclic quiver: (source, arrow index tuple) pairs."""
    targets = {a: t for a, (_, t) in enumerate(spec.arrows)}
    by_source = {}
    for a, (s, _) in enumerate(spec.arrows):
        by_source.setdefault(s, []).append(a)
    # cycle detection on vertices
    state = {}

    def visit(v):
        if state.get(v) == 1:
            raise CyclicQuiverError("quiver has a directed cycle")
        if state.get(v) == 2:
            return
        state[v] = 1
        for a in by_source.get(v, ()):
            visit(targets[a])
        state[v] = 2

    for v in range(spec.vertices):
        visit(v)
    paths = [(v, ()) for v in range(spec.vertices)]
    frontier = [(spec.arrows[a][0], (a,)) for a in range(len(spec.arrows))]
    while frontier:
        paths.extend(frontier)
        nxt = []
        for src, arrows in frontier:
            end = targets[arrows[-1]]
            for a in by_source.get(end, ()):
                nxt.append((src, arrows + (a,)))
        frontier = nxt
    trivial = [p for p in paths if not p[1]]
    proper = sorted((p for p in paths if p[1]), key=lambda p: (len(p[1]), p[1]))
    return trivial + proper


def path_algebra(spec: QuiverSpec, field=QQ) -> Algebra:
    """Path algebra of an acyclic quiver; trivial paths are the idempotents.

    Paths multiply by concatenation: p.q is the composite path when p ends
    where q starts, else zero.
    """
    paths = _quiver_paths(spec)
    index = {p: i for i, p in enumerate(paths)}
    targets = {a: t for a, (_, t) in enumerate(spec.arrows)}

    def path_target(p):
        src, arrows = p
        return targets[arrows[-1]] if arrows else src

    def label(p):
        src, arrows = p
        if not arrows:
            return f"e{src + 1}"
        return "*".join(f"a{a + 1}" for a in arrows)

    triples = []
    for p in paths:
        for q in paths:
            if path_target(p) != q[0]:
                continue
            composite = (p[0], p[1] + q[1])
            triples.append((index[p], index[q], index[composite], 1))
    labels = [label(p) for p in paths]
    n = len(paths)
    return Algebra(field, labels, Product.from_triples(n, field, triples), check=False)


def example_3dim(field=QQ):
    """3-dim nilpotent algebra e1.e2 = e3 with its two one-sided companions.

    Returns (algebra, star, star2): star has e1*e1 = e1, e1*e2 = e2;
    star2 has e1*e1 = e1, e1*e3 = e3.  Both are associative.
    """
    dot = Product.from_triples(3, field, [(0, 1, 2, 1)])
    alg = Algebra(field, ("e1", "e2", "e3"), dot, check=False)
    star = Product.from_triples(3, field, [(0, 0, 0, 1), (0, 1, 1, 1)])
    star2 = Product.from_triples(3, field, [(0, 0, 0, 1), (0, 2, 2, 1)])
    return alg, star, star2


def example_6dim(field=QQ):
    """6-dim nilpotent algebra with an interchangeable, non-matching companion.

    dot: e1.e2 = e4, e1.e5 = e6, e4.e3 = e6, e2.e3 = e5;
    star: e1*e2 = e5, e1*e4 = e6.
    """
    dot = Product.from_triples(
        6, field, [(0, 1, 3, 1), (0, 4, 5, 1), (3, 2, 5, 1), (1, 2, 4, 1)]
    )
    alg = Algebra(field, ("e1", "e2", "e3", "e4", "e5", "e6"), dot, check=False)
    star = Product.from_triples(6, field, [(0, 1, 4, 1), (0, 3, 5, 1)])
    return alg, star


def example_band22(field=QQ):
    """2x2 band with the swap-matching product supported on (i, l) = (1, 2).

    star sends e_1j * e_k2 to e11 - e12 - e21 + e22 (an annihilator element)
    and everything else to zero: `band_swap_matching` with lam = 0 and r
    supported at (1, 2).  It is associative but not totally compatible.
    """
    spec = BandSpec(2, 2)
    return rectangular_band_algebra(spec, field), band_swap_matching(spec, 0, {(0, 1): [1, -1, -1, 1]}, field)


def band_id_matching(spec: BandSpec, lam, field=QQ) -> Product:
    """Band product e_ij * e_kl = lam[j][k] e_il; lam is a cols x rows grid."""
    rows = [list(r) for r in lam]
    if len(rows) != spec.cols or any(len(r) != spec.rows for r in rows):
        raise ShapeMismatchError("lambda grid must be cols x rows")
    f = field
    triples = []
    for i in range(spec.rows):
        for j in range(spec.cols):
            for k in range(spec.rows):
                for l in range(spec.cols):
                    v = f.coerce(rows[j][k])
                    if v != f.zero:
                        triples.append((spec.index(i, j), spec.index(k, l), spec.index(i, l), v))
    return Product.from_triples(spec.dim, f, triples)


def band_swap_matching(spec: BandSpec, lam, r=None, field=QQ) -> Product:
    """Band product e_ij * e_kl = lam e_il + r[(i, l)] with r values in Ann.

    r maps 0-based (i, l) pairs to coordinate vectors; entries are checked
    for annihilator membership.  Associativity is not guaranteed.
    """
    from .algebra import annihilator

    f = field
    lam = f.coerce(lam)
    band = rectangular_band_algebra(spec, field)
    ann = annihilator(band.dot)
    r = dict(r or {})
    fixed = {}
    for (i, l), vec in r.items():
        vec = [f.coerce(v) for v in vec]
        if len(vec) != spec.dim:
            raise ShapeMismatchError("annihilator part has wrong length")
        if not ann.member(vec):
            raise NotInAnnihilatorError(f"r[{(i, l)}] is not in the annihilator")
        fixed[(i, l)] = vec
    triples = []
    for i in range(spec.rows):
        for j in range(spec.cols):
            for k in range(spec.rows):
                for l in range(spec.cols):
                    a, b = spec.index(i, j), spec.index(k, l)
                    if lam != f.zero:
                        triples.append((a, b, spec.index(i, l), lam))
                    vec = fixed.get((i, l))
                    if vec:
                        for out, v in enumerate(vec):
                            if v != f.zero:
                                triples.append((a, b, out, v))
    return Product.from_triples(spec.dim, f, triples)
