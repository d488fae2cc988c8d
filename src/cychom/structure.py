"""Structure theory: the center, the Jacobson radical, nilpotency, and the
split of a commutative algebra into idempotents.

Everything here is exact.  The radical comes from the kernel of the trace
form of the left regular representation, which identifies it in
characteristic zero; semisimplicity of the quotient and nilpotency of the
radical are rechecked rather than assumed.  Central idempotents are found
by splitting the center along elements whose eigenvalues lie in the
field; spectrum insists on a full split, hochschild takes the blocks the
field sees and cuts them further by idempotents that need not be
central.  The identity of a component of the split is a polynomial in one
element: for an eigenvalue lam of x in the component with identity e, it
is q(x)/q(lam), where p is the minimal polynomial of x in e A e and
q = p/(t - lam).  The one linear solve for the two-sided identity of a
span (_span_identity) serves spectrum, which uses it to find the unit of
an algebra built without one.
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
from .errors import AmbientMismatch, NonUnital, ValidationError
from .linalg import SparseMatrix, Subspace, vec_axpy, vec_equal
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
    if space.ambient_dim != A.dim:
        raise AmbientMismatch(
            "a subspace of %d coordinates in an algebra of dimension %d"
            % (space.ambient_dim, A.dim))
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


def _evaluate(poly, x, field):
    acc = field.zero
    for c in reversed(poly):
        acc = field.add(field.mul(acc, x), c)
    return acc


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
            if key in seen or not field.is_zero(_evaluate(poly, root, field)):
                continue
            seen.add(key)
            found.append(root)
    return found


def _minimal_polynomial(A: FDAlgebra, e: dict, x: dict):
    """(p, powers): the monic minimal polynomial p of x in an algebra with
    unit e, low degree first, and the powers e, x, x^2, ... below its
    degree."""
    field = A.field
    powers, power = [e], x
    while True:
        combo = SparseMatrix.from_columns(powers, A.dim, field).solve(power)
        if combo is not None:
            poly = [field.neg(combo.get(i, field.zero))
                    for i in range(len(powers))]
            poly.append(field.one)
            return poly, powers
        powers.append(power)
        power = A.multiply(power, x)


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


def _eigen_idempotents(field, poly, powers, roots) -> list:
    """The idempotents q(x)/q(lam), q = p/(t - lam), of the given roots lam
    of the minimal polynomial p of x, read off its powers e, x, x^2, ...;
    when p has other roots, e minus their sum follows."""
    pieces = []
    for lam in roots:
        # the coefficients of q by synthetic division
        q, acc = [None] * (len(poly) - 1), field.zero
        for i in range(len(poly) - 1, 0, -1):
            acc = q[i - 1] = field.add(field.mul(acc, lam), poly[i])
        # q(lam) is not zero: x is semisimple, so lam is a simple root
        scale, piece = field.inv(_evaluate(q, lam, field)), {}
        for c, power in zip(q, powers):
            vec_axpy(piece, field.mul(scale, c), power, field)
        pieces.append(piece)
    if len(roots) < len(poly) - 1:
        rest = dict(powers[0])
        for piece in pieces:
            vec_axpy(rest, field.neg(field.one), piece, field)
        pieces.append(rest)
    return pieces


def _split_unit(A: FDAlgebra, candidates, complete: bool):
    """Split the unit of A into orthogonal idempotents, each a polynomial
    in one product g e of a candidate g with a coarser idempotent e.  The
    candidates are commuting semisimple elements of A: the basis of a
    commutative semisimple algebra, or of the center of a semisimple one.

    A component e is cut along the first candidate g for which x = g e
    has eigenvalues in the field: each of them gives a piece, and so,
    unless complete is set, do the eigenvalues outside the field together.
    The pieces are cut again in turn.  A component that no candidate cuts
    stays whole: a field component such as the Q(zeta_5) summand of QZ5
    over Q.  With complete set a component that stays whole although some
    x = g e is not a multiple of e ends the search and None is returned,
    so the caller can retry over a larger field.
    """
    field = A.field

    def split(e):
        wide = False
        for g in candidates:
            poly, powers = _minimal_polynomial(A, e, A.multiply(g, e))
            if len(poly) == 2:
                continue
            wide = True
            roots = _roots_in_field(poly, field)
            if len(roots) == len(poly) - 1 or roots and not complete:
                break
        else:
            return None if complete and wide else [e]
        out = []
        for piece in _eigen_idempotents(field, poly, powers, roots):
            cut = split(piece)
            if cut is None:
                return None
            out.extend(cut)
        return out

    return split(dict(A.unit))


def _split(A: FDAlgebra, generators, budget=None) -> list:
    """Orthogonal idempotents of A that sum to its unit and split the
    commutative subalgebra generated by the generators, the unit among
    them.

    The subalgebra modulo its radical is split by _split_unit along its
    basis elements, as far as their eigenvalues in the field allow,
    stopping at field components, and each piece, a polynomial in one
    element, is lifted by e -> 3e^2 - 2e^3.  Idempotents of a commutative
    algebra lift uniquely modulo a nilpotent ideal, so the lifts are again
    orthogonal and sum to the unit.
    """
    field = A.field
    Z, include = subalgebra_closure(A, generators, budget=budget)
    data, _ = semisimple_quotient(Z)
    ss = data.algebra
    comps = _split_unit(
        ss, [ss.basis_vector(i) for i in range(ss.dim)], complete=False)
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
    (QZ5 over Q gives two blocks, over Q(zeta_5) five), each block's
    idempotent a polynomial in one element of the center, read off that
    element's minimal polynomial.
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
    splitting the commutative subalgebra generated by 1, f and y into
    idempotents that are polynomials in its elements, and keeping the
    pieces under f.  In a split simple block the result is a full set of
    primitive idempotents (the diagonal of M_n(Q), say); commutative
    blocks, such as the Q(zeta_5) block of QZ5 over Q or a local algebra,
    stay whole.
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
