"""Dense exact reference for the sparse kernel engine, used only by the tests."""

from bicompat.linalg import Matrix, Subspace, rref


def kernel_pure(field, ncols, sparse_rows):
    """Kernel of the {col: value} rows by dense Gauss-Jordan, one basis vector per free column."""
    dense = []
    for rd in sparse_rows:
        row = [field.zero] * ncols
        for c, v in rd.items():
            row[c] = field.add(row[c], field.coerce(v))
        dense.append(row)
    reduced, rank = rref(Matrix(field, dense))
    rows = reduced.rows[:rank]
    pivots = [next(c for c, v in enumerate(row) if v != field.zero) for row in rows]
    basis = []
    for fcol in sorted(set(range(ncols)) - set(pivots)):
        vec = [field.zero] * ncols
        vec[fcol] = field.one
        for row, pc in zip(rows, pivots):
            vec[pc] = field.neg(row[fcol])
        basis.append(vec)
    return Subspace(field, ncols, basis)
