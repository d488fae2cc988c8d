"""Structure theory: the center, the Jacobson radical, nilpotency, and the
split of a commutative algebra into idempotents.

Everything here is exact.  The radical comes from the kernel of the trace
form of the left regular representation, which identifies it in
characteristic zero; semisimplicity of the quotient and nilpotency of the
radical are rechecked rather than assumed.  Central idempotents are found
by splitting the center along operators whose eigenvalues lie in the
field; spectrum insists on a full split, hochschild takes the blocks the
field sees and cuts them further by idempotents that need not be
central.  A component of the split is the image of x -> e x, and its
identity comes from the one linear solve for the two-sided identity of a
span (_span_identity), which spectrum also uses to find the unit of an
algebra built without one.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .algebra import (
    FDAlgebra,
    TwoSidedIdeal,
    quotient_algebra,
    subalgebra_closure,
    two_sided_ideal,
    unitalization,
)
from .errors import NonUnital, ValidationError
from .linalg import SparseMatrix, Subspace, add_term, vec_axpy, vec_equal
from .scalars import divisors


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


# -- root finding for the idempotent split ----------------------------------------

def _rational_root_candidates(fracs: list) -> list:
    """Possible rational roots of a rational-coefficient polynomial.

    Standard numerator-denominator divisor candidates after clearing
    denominators; callers verify every candidate exactly.
    """
    coeffs = list(fracs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) <= 1:
        return []
    scale = math.lcm(*[f.denominator for f in coeffs])
    ints = [int(f * scale) for f in coeffs]
    low = 0
    while ints[low] == 0:
        low += 1
    out = [Fraction(0)] if low > 0 else []
    lead = ints[-1]
    for p in divisors(ints[low]):
        for q in divisors(lead):
            out.append(Fraction(p, q))
            out.append(Fraction(-p, q))
    return out


def _eval_is_zero(poly, x, field) -> bool:
    acc = field.zero
    for c in reversed(poly):
        acc = field.add(field.mul(acc, x), c)
    return field.is_zero(acc)


def _roots_in_field(poly, field) -> list:
    """Roots of a monic polynomial that are rational multiples of roots of unity.

    This family is complete for the corpus; an eigenvalue outside it is
    treated as unsplittable at this order and escalates the field search.
    """
    m = field.order
    found, seen = [], set()
    for k in range(max(m, 1)):
        if m > 1:
            subbed = [field.mul(c, field.zeta_pow[(k * i) % m])
                      for i, c in enumerate(poly)]
        else:
            subbed = list(poly)
        lead = field.to_coeffs(subbed[-1])
        slot = next(i for i, c in enumerate(lead) if c)
        slot_poly = [field.to_coeffs(c)[slot] for c in subbed]
        for r in _rational_root_candidates(slot_poly):
            root = field.scale(field.zeta_pow[k], r) if m > 1 \
                else field.from_rational(r)
            key = tuple(field.to_coeffs(root))
            if key in seen or not _eval_is_zero(poly, root, field):
                continue
            seen.add(key)
            found.append(root)
    return found


def _minimal_polynomial(op: SparseMatrix) -> list:
    """Monic minimal polynomial of a square matrix."""
    field, d = op.field, op.ncols
    power = SparseMatrix.identity(d, field)
    flats = []
    while True:
        flat = {}
        for j, col in enumerate(power.columns()):
            for i, c in col.items():
                flat[j * d + i] = c
        combo = SparseMatrix.from_columns(flats, d * d, field).solve(flat)
        if combo is not None:
            out = [field.neg(combo.get(i, field.zero))
                   for i in range(len(flats))]
            out.append(field.one)
            return out
        flats.append(flat)
        power = op.matmul(power)


# -- splitting a commutative algebra into idempotents ------------------------------

def _span_identity(A: FDAlgebra, vectors) -> dict | None:
    """The two-sided identity of the span of independent vectors, an
    element e of the span with e v = v = v e for each of them, or None when
    there is none."""
    field, d = A.field, A.dim
    # row block 2j holds w v_j and row block 2j + 1 holds v_j w, for the
    # column of each w among the vectors
    cols = []
    for w in vectors:
        col = {}
        for j, v in enumerate(vectors):
            for c, val in A.multiply(w, v).items():
                col[2 * j * d + c] = val
            for c, val in A.multiply(v, w).items():
                col[(2 * j + 1) * d + c] = val
        cols.append(col)
    rhs = {}
    for j, v in enumerate(vectors):
        for c, val in v.items():
            rhs[2 * j * d + c] = rhs[(2 * j + 1) * d + c] = val
    sol = SparseMatrix.from_columns(
        cols, 2 * len(vectors) * d, field).solve(rhs)
    if sol is None:
        return None
    e = {}
    for i, c in sol.items():
        vec_axpy(e, c, vectors[i], field)
    return e


def _try_split(Z: FDAlgebra, span: Subspace, complete: bool):
    """Split one component along an operator with an eigenvalue in the field.

    Each eigenvalue in the field gives its eigenspace as a piece; unless
    complete is set, the eigenvalues outside it, if any, give one more
    piece together (the components are semisimple, so the operator is
    diagonalizable over a splitting field).  Returns the idempotents of the
    pieces, or None when no basis operator separates the component over the
    current coefficients.
    """
    field = Z.field
    for g in range(Z.dim):
        op = span.restrict_operator(Z.left_mult_matrix(Z.basis_vector(g)))
        cols = op.columns()
        poly = _minimal_polynomial(op)
        roots = _roots_in_field(poly, field)
        # the eigenvalues outside the field make one more piece
        outside = len(roots) < len(poly) - 1 and not complete
        if len(roots) + outside < 2:
            continue
        pieces, total, rest = [], 0, None
        for lam in roots:
            shifted = []
            for i, col in enumerate(cols):
                entry = dict(col)
                add_term(entry, i, field.neg(lam), field)
                shifted.append(entry)
            shifted = SparseMatrix.from_columns(shifted, span.dim, field)
            ker = shifted.kernel_space()
            pieces.append(ker)
            total += ker.dim
            if outside:
                # they span the image of the product of the shifts by the
                # eigenvalues inside the field
                rest = shifted if rest is None else shifted.matmul(rest)
        if rest is not None:
            pieces.append(rest.column_space())
            total += pieces[-1].dim
        if total != span.dim:
            # the operator does not split the component; try another one
            continue
        idems = []
        for piece in pieces:
            vecs = []
            for combo in piece.basis:
                acc = {}
                for i, c in combo.items():
                    vec_axpy(acc, c, span.basis[i], field)
                vecs.append(acc)
            e = _span_identity(
                Z, Subspace.from_vectors(Z.dim, field, vecs).basis)
            if e is None:
                raise ValidationError(
                    "a direct summand of the center has no identity element")
            idems.append(e)
        return idems
    return None


def _split_unit(Z: FDAlgebra, complete: bool):
    """Split the unit of a commutative unital algebra into orthogonal
    idempotents along basis operators whose eigenvalues lie in the field.

    A component that no such operator separates stays whole: a field
    component such as the Q(zeta_5) summand of QZ5 over Q.  With complete
    set the first such component of dimension above one ends the search and
    None is returned, so the caller can retry over a larger field.
    """
    comps, whole = [dict(Z.unit)], [False]
    while True:
        spans = [Z.left_mult_matrix(e).column_space() for e in comps]
        target = next((i for i, s in enumerate(spans)
                       if s.dim > 1 and not whole[i]), None)
        if target is None:
            return comps
        pieces = _try_split(Z, spans[target], complete)
        if pieces is None:
            if complete:
                return None
            whole[target] = True
        else:
            comps[target:target + 1] = pieces
            whole[target:target + 1] = [False] * len(pieces)


def _split(A: FDAlgebra, generators, budget=None) -> list:
    """Orthogonal idempotents of A that sum to its unit and split the
    commutative subalgebra generated by the generators, the unit among
    them.

    The subalgebra modulo its radical is split as far as operators with
    eigenvalues in the field allow, stopping at field components, and each
    piece is lifted by e -> 3e^2 - 2e^3.  Idempotents of a commutative
    algebra lift uniquely modulo a nilpotent ideal, so the lifts are again
    orthogonal and sum to the unit.
    """
    field = A.field
    Z, include = subalgebra_closure(A, generators, budget=budget)
    data, _ = semisimple_quotient(Z)
    comps = _split_unit(data.algebra, complete=False)
    if len(comps) == 1:
        return [dict(A.unit)]
    three, minus_two = field.from_rational(3), field.from_rational(-2)
    out = []
    for e in comps:
        x = data.projection.matrix.solve(e)
        square = Z.multiply(x, x)
        while not vec_equal(square, x, field):
            cube = Z.multiply(square, x)
            x = {}
            vec_axpy(x, three, square, field)
            vec_axpy(x, minus_two, cube, field)
            square = Z.multiply(x, x)
        out.append(include.apply(x))
    return out


def block_idempotents(A: FDAlgebra, budget=None) -> list:
    """Orthogonal central idempotents of A that sum to its unit.

    They cut A into the blocks its field sees: the split of the center
    (QZ5 over Q gives two blocks, over Q(zeta_5) five).
    """
    if not A.is_unital:
        raise NonUnital("blocks are cut by idempotents summing to the unit")
    return _split(A, center(A).basis, budget=budget)


def _cut(A: FDAlgebra, f: dict, budget) -> list:
    """The pieces of the idempotent f along the first basis element x whose
    y = f x f is more than a multiple of f, or [f] when there is none."""
    field = A.field
    # x -> f x f is a projection onto f A f, so its trace is dim f A f
    if field.is_zero(field.sub(A.left_mult_matrix(f).product_trace(
            A.right_mult_matrix(f)), field.one)):
        return [f]
    lead = min(f)
    inv = field.inv(f[lead])
    for k in range(A.dim):
        y = A.multiply(A.multiply(f, A.basis_vector(k)), f)
        scale = field.mul(y.get(lead, field.zero), inv)
        if vec_equal(y, {j: field.mul(scale, c) for j, c in f.items()},
                     field):
            continue
        # f commutes with the pieces, so p f is p's part under f
        pieces = [A.multiply(p, f)
                  for p in _split(A, [A.unit, f, y], budget=budget)]
        pieces = [p for p in pieces if p]
        if len(pieces) > 1:
            return pieces
    return [f]


def split_idempotents(A: FDAlgebra, budget=None) -> list:
    """Orthogonal idempotents of A, central or not, that sum to its unit.

    They refine block_idempotents: an idempotent f is cut further while
    some basis element x makes y = f x f more than a multiple of f, by
    splitting the commutative subalgebra generated by 1, f and y and
    keeping the pieces under f.  In a split simple block the result is a
    full set of primitive idempotents (the diagonal of M_n(Q), say);
    commutative blocks, such as the Q(zeta_5) block of QZ5 over Q or a
    local algebra, stay whole.
    """
    idems = block_idempotents(A, budget=budget)
    i = 0
    while i < len(idems):
        pieces = _cut(A, idems[i], budget)
        idems[i:i + 1] = pieces
        if len(pieces) == 1:
            i += 1
        elif len(idems) > A.dim:
            # nonzero orthogonal idempotents are linearly independent
            raise ValidationError("idempotent refinement overran")
    return idems
