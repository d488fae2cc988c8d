"""Structure theory: the center, the Jacobson radical, nilpotency.

Everything here is exact.  The radical comes from the kernel of the trace
form of the left regular representation, which identifies it in
characteristic zero; semisimplicity of the quotient and nilpotency of the
radical are rechecked rather than assumed.
"""

from __future__ import annotations

from .algebra import (
    FDAlgebra,
    TwoSidedIdeal,
    quotient_algebra,
    two_sided_ideal,
    unitalization,
)
from .errors import ValidationError
from .linalg import SparseMatrix, Subspace


def center(A: FDAlgebra) -> Subspace:
    """Elements commuting with the whole algebra, as a canonical subspace."""
    field = A.field
    rows = []
    for i in range(A.dim):
        basis = A.basis_vector(i)
        diff = A.left_mult_matrix(basis).sub(A.right_mult_matrix(basis))
        rows.extend(dict(r) for r in diff.rows if r)
    mat = SparseMatrix(len(rows), A.dim, field, rows=rows)
    return Subspace.from_vectors(A.dim, field, mat.kernel_basis())


def _trace_form_rows(A: FDAlgebra):
    # row j of the Gram matrix: x -> trace of left multiplication by x*e_j
    field = A.field
    tvec = A.trace_vector()
    rows = []
    for j in range(A.dim):
        row = {}
        for i in range(A.dim):
            total = field.zero
            for k, c in A.mul[i][j].items():
                total = field.add(total, field.mul(c, tvec[k]))
            if not field.is_zero(total):
                row[i] = total
        rows.append(row)
    return rows


def jacobson_radical(A: FDAlgebra) -> TwoSidedIdeal:
    """The radical, computed as the kernel of the regular trace form.

    Over a field of characteristic zero an element is in the radical
    exactly when trace(L_xy) vanishes for every y.  Nonunital algebras go
    through their unitalization, where the criterion applies; the radical
    never meets the adjoined unit.
    """
    if not A.is_unital:
        plus = unitalization(A).algebra
        kernel = SparseMatrix(plus.dim, plus.dim, plus.field,
                              rows=_trace_form_rows(plus)).kernel_basis()
        vectors = []
        for vec in kernel:
            if A.dim in vec:
                raise ValidationError(
                    "radical of the unitalization leaks onto the unit")
            vectors.append(vec)
        return two_sided_ideal(A, vectors, name="radical")
    kernel = SparseMatrix(A.dim, A.dim, A.field,
                          rows=_trace_form_rows(A)).kernel_basis()
    return two_sided_ideal(A, kernel, name="radical")


def is_nilpotent_subspace(A: FDAlgebra, space: Subspace) -> bool:
    """Whether products of elements of the subspace die out in few steps."""
    current = space
    for _ in range(A.dim + 1):
        if current.dim == 0:
            return True
        products = []
        for u in current.basis:
            for v in space.basis:
                prod = A.multiply(u, v)
                if prod:
                    products.append(prod)
        nxt = Subspace.from_vectors(A.dim, A.field, products)
        if nxt.dim >= current.dim:
            return False
        current = nxt
    return current.dim == 0


def semisimple_quotient(A: FDAlgebra):
    """(quotient data, radical), with the expected structure rechecked.

    The radical must come out nilpotent and the quotient must have zero
    radical of its own; both checks are cheap and catch a bad trace-form
    computation immediately.
    """
    radical = jacobson_radical(A)
    if not is_nilpotent_subspace(A, radical.space):
        raise ValidationError("radical candidate is not nilpotent")
    data = quotient_algebra(A, radical)
    again = SparseMatrix(data.algebra.dim, data.algebra.dim,
                         data.algebra.field,
                         rows=_trace_form_rows(data.algebra)).kernel_basis()
    if again:
        raise ValidationError("quotient by the radical is not semisimple")
    return data, radical
