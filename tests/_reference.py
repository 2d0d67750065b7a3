"""References used only by the tests.  For the sparse engine, which gives
every echelon form and kernel in the library: a dense exact Gauss-Jordan,
kept here so that no engine differential compares the engine with itself,
and the pivot-row form of modular elimination.  For the free-algebra
polynomials: arithmetic on plain {monomial: value} dicts."""

import heapq

from bicompat.linalg import Subspace


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


def span_pure(field, ncols, rows):
    """The span of the dense rows, canonicalized by dense Gauss-Jordan alone."""
    work = [[field.coerce(v) for v in row] for row in rows]
    pivots = _rref_rows(field, work)
    return Subspace._canonical(field, ncols, [tuple(row) for row in work[: len(pivots)]], pivots)


def kernel_pure(field, ncols, sparse_rows):
    """Kernel of the {col: value} rows by dense Gauss-Jordan, one basis vector per free column."""
    dense = []
    for rd in sparse_rows:
        row = [field.zero] * ncols
        for c, v in rd.items():
            row[c] = field.add(row[c], field.coerce(v))
        dense.append(row)
    pivots = _rref_rows(field, dense)
    rows = dense[: len(pivots)]
    basis = []
    for fcol in sorted(set(range(ncols)) - set(pivots)):
        vec = [field.zero] * ncols
        vec[fcol] = field.one
        for row, pc in zip(rows, pivots):
            vec[pc] = field.neg(row[fcol])
        basis.append(vec)
    return span_pure(field, ncols, basis)


def kernel_modp_pivot_rows(rows, ncols, p):
    """Canonical RREF basis of the kernel mod p, as {col: residue} rows, by pivot rows.

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


def poly_terms(field, pairs):
    """The (monomial, value) pairs summed into a {monomial: value} dict, zeros dropped."""
    out = {}
    for m, v in pairs:
        out[m] = field.add(out.get(m, field.zero), field.coerce(v))
    return {m: v for m, v in out.items() if v != field.zero}


def poly_product(field, a, b, combine):
    """Product of two {monomial: value} dicts, monomials multiplied by `combine`."""
    return poly_terms(field, ((combine(m1, m2), field.mul(v1, v2)) for m1, v1 in a.items() for m2, v2 in b.items()))
