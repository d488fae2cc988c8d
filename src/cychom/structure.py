"""Structure theory: the center, the Jacobson radical, nilpotency, and the
split of the unit into orthogonal idempotents.

Everything here is exact.  The radical comes from the kernel of the trace
form of the left regular representation, which identifies it in
characteristic zero; semisimplicity of the quotient and nilpotency of the
radical are rechecked rather than assumed.

One mechanism splits the unit (_split_unit).  A component e, an
idempotent, is cut along x = e g e for a candidate g, and every piece is a
polynomial in x read off its minimal polynomial p in e A e: for a root lam
of p in the field, of multiplicity k, and q = p/(t - lam)^k, q(x)/q(lam)
is the piece of lam up to a nilpotent, which is 0 when k = 1 and which the
lift u -> 3u^2 - 2u^3 removes otherwise.  No subalgebra is built.  The
candidates decide what is split: the center gives the blocks
(block_idempotents), the center and then the basis of A give idempotents
that need not be central (split_idempotents, which hochschild cuts A by),
and the center of the semisimple quotient over a large enough field gives
spectrum its complete split.  The one linear solve for the two-sided
identity of a span (_span_identity) serves spectrum, which uses it to find
the unit of an algebra built without one.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .algebra import (
    FDAlgebra,
    TwoSidedIdeal,
    adjoin_unit,
    quotient_algebra,
    two_sided_ideal,
)
from .errors import AmbientMismatch, NonUnital, ValidationError
from .linalg import Echelon, SparseMatrix, Subspace, _adapter, add_term, \
    cleared, vec_axpy, vec_equal
from .scalars import divisors


def center(A: FDAlgebra) -> Subspace:
    """Elements commuting with the whole algebra, as a canonical subspace:
    the kernel of the rows (b, k), x -> coordinate k of e_b x - x e_b, read
    off the structure constants (entry i is mul[b][i] - mul[i][b] at k)."""
    field, mul = A.field, A.mul
    rows = []
    for b in range(A.dim):
        by_k = [{} for _ in range(A.dim)]
        for i in range(A.dim):
            for k, c in mul[b][i].items():
                by_k[k][i] = c
            for k, c in mul[i][b].items():
                add_term(by_k[k], i, field.neg(c), field)
        rows.extend(row for row in by_k if row)
    mat = SparseMatrix(len(rows), A.dim, field, rows=rows)
    return Subspace.from_vectors(A.dim, field, mat.kernel_basis())


def _trace_form_kernel(A: FDAlgebra) -> list[dict]:
    """The kernel of the regular trace form (x, y) -> trace(L_xy)."""
    field = A.field
    tvec = A.trace_vector()
    # row j of the Gram matrix: x -> trace of left multiplication by x*e_j
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
    return SparseMatrix(A.dim, A.dim, field, rows=rows).kernel_basis()


def jacobson_radical(A: FDAlgebra) -> TwoSidedIdeal:
    """The radical, computed as the kernel of the regular trace form.

    Over a field of characteristic zero an element is in the radical
    exactly when trace(L_xy) vanishes for every y.  Nonunital algebras go
    through their unitalization, where the criterion applies; the radical
    never meets the adjoined unit.
    """
    if A.is_unital:
        kernel = _trace_form_kernel(A)
    else:
        kernel = _trace_form_kernel(adjoin_unit(A))
        if any(A.dim in vec for vec in kernel):
            raise ValidationError(
                "radical of the unitalization leaks onto the unit")
    return two_sided_ideal(A, kernel, name="radical")


def is_nilpotent_subspace(A: FDAlgebra, space: Subspace) -> bool:
    """Whether products of elements of the subspace die out in few steps."""
    if space.ambient_dim != A.dim:
        raise AmbientMismatch(
            "a subspace of %d coordinates in an algebra of dimension %d"
            % (space.ambient_dim, A.dim))
    current = space
    # each pass returns or lowers current.dim, so the loop ends
    while current.dim:
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
    return True


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
    if _trace_form_kernel(data.algebra):
        raise ValidationError("quotient by the radical is not semisimple")
    return data, radical


# -- root finding for the idempotent split ----------------------------------------

def _rational_root_candidates(ints: list) -> list:
    """The numerator-denominator divisor candidates p/q for the rational
    roots of an integer polynomial, low degree first, whose leading
    coefficient is not zero, as pairs (p, q); callers verify every
    candidate exactly."""
    low = 0
    while ints[low] == 0:
        low += 1
    out = [(0, 1)] if low > 0 else []
    lead = ints[-1]
    for p in divisors(ints[low]):
        for q in divisors(lead):
            out.append((p, q))
            out.append((-p, q))
    return out


def _vanishes_at(ints: list, p: int, q: int) -> bool:
    """Whether p/q (q > 0) is a root of an integer polynomial, low degree
    first: sum c_i p^i q^(n-i) == 0, by Horner's rule on ints."""
    value, qpow = ints[-1], 1
    for c in reversed(ints[:-1]):
        qpow *= q
        value = value * p + c * qpow
    return value == 0


def _cofactor(slots, scales, r, k, field):
    """(c, e, c(lam)) with poly = (t - lam)^e c and c(lam) not zero, at a
    root lam = zeta^k r of _root_factors, read off the int slots of
    P(t) = poly(zeta^k t): slots[j] is scales[j] times the j-th coordinate
    polynomial of P.

    With r = p/q in lowest terms, every slot is divided on ints by q t - p
    for as long as every slot vanishes at r; the quotients w_j are
    integral (Gauss's lemma), and slots[j] = q^e (t - r)^e w_j.  So
    C(t) = P(t) / (t - r)^e has the coordinates q^e w_j / scales[j], and
    C(t) = zeta^(k e) c(zeta^k t) gives c_i = zeta^(-k (e + i)) C_i and
    c(lam) = zeta^(-k e) C(r), each rotated on ints and divided once.
    """
    p, q, e = r.numerator, r.denominator, 0
    while all(_vanishes_at(ints, p, q) for ints in slots):
        quotients = []
        for ints in slots:
            quot, acc = [0] * (len(ints) - 1), 0
            for i in range(len(ints) - 1, 0, -1):
                acc = quot[i - 1] = (ints[i] + p * acc) // q
            quotients.append(quot)
        slots, e = quotients, e + 1
    # one denominator for all slots: C_i has the coordinates q^e C[j][i] / den
    den, top = math.lcm(*scales), len(slots[0]) - 1
    C = [[c * (den // scale) for c in ints]
         for ints, scale in zip(slots, scales)]

    def rotated(ints, i, below):
        # zeta^(-k (e + i)) q^e ints / below, an int where integral
        if k:
            ints = field.mul(tuple(ints), field.zeta_pow[
                -k * (e + i) % field.order])
        return field.from_coeffs([Fraction(c * q ** e, below) for c in ints])

    return ([rotated(coords, i, den) for i, coords in enumerate(zip(*C))], e,
            rotated([sum(c * p ** i * q ** (top - i) for i, c in enumerate(w))
                     for w in C], 0, den * q ** top))


def _root_factors(poly, field) -> list:
    """The _cofactor (q, k, q(lam)) of each root lam of a monic polynomial
    that is a rational multiple of a root of unity in the field.

    This family is complete for the corpus; an eigenvalue outside it is
    treated as unsplittable at this order and escalates the field search.
    For rational r, zeta^k r is a root of p exactly when r is a root of
    every coefficient slot of p(zeta^k t), since the value of a slot at r
    is that coordinate of p(zeta^k r).  So for each zeta^k every slot is
    cleared to ints once, the candidates r come from one slot whose
    leading coefficient is not zero, and a candidate goes to _cofactor
    only when every slot vanishes at it on ints, that is only at a root,
    for its cofactor and multiplicity, divided out on the same ints.
    """
    m = field.order
    found, seen = [], set()
    for k in range(max(m, 1)):
        if m > 1:
            subbed = [field.mul(c, field.zeta_pow[(k * i) % m])
                      for i, c in enumerate(poly)]
        else:
            subbed = list(poly)
        slots, scales = [], []
        for slot_poly in zip(*map(field.to_coeffs, subbed)):
            scale = math.lcm(*[c.denominator for c in slot_poly])
            scales.append(scale)
            slots.append([c.numerator * (scale // c.denominator)
                          for c in slot_poly])
        lead = next(ints for ints in slots if ints[-1])
        for p, q in _rational_root_candidates(lead):
            if not all(_vanishes_at(ints, p, q) for ints in slots):
                continue
            r = Fraction(p, q)
            root = field.scale(field.zeta_pow[k], r) if m > 1 \
                else field.from_rational(r)
            key = tuple(field.to_coeffs(root))
            if key not in seen:
                seen.add(key)
                found.append(_cofactor(slots, scales, r, k, field))
    return found


def _minimal_polynomial(A: FDAlgebra, e: dict, x: dict):
    """(p, powers): the monic minimal polynomial p of x in an algebra with
    unit e, low degree first, and the powers e, x, x^2, ... below its
    degree.

    The powers go one by one into a single integer echelon with leftmost
    pivots (linalg.Echelon, on the general row adapter: the powers to come
    are unknown), x^k as its coordinates and a one in the tag column
    dim + k.  The first power whose coordinates reduce to zero leaves the
    relation sum c_k x^k = 0 in its tags, and p is that row made monic at
    its last tag, with every coefficient an int where it is integral.
    """
    field, d = A.field, A.dim
    adapter = _adapter(field, None)
    echelon = Echelon(adapter)
    powers, power = [], e
    while True:
        k = len(powers)
        row = echelon.add(adapter.prim({**power, d + k: field.one}))
        if min(row) >= d:
            relation = adapter.monic(row, d + k)
            return [relation.get(d + i, field.zero)
                    for i in range(k + 1)], powers
        powers.append(power)
        power = A.multiply(power, x) if k else x


# -- splitting the unit into idempotents ------------------------------------

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


def _corner_trace(A: FDAlgebra, w: dict):
    """The trace of x -> w x w: the sum of (w e_i)_k (e_k w)_i over i, k."""
    field = A.field
    rights = [A.multiply(A.basis_vector(k), w) for k in range(A.dim)]
    total = field.zero
    for i in range(A.dim):
        for k, c in A.multiply(w, A.basis_vector(i)).items():
            if i in rights[k]:
                total = field.add(total, field.mul(c, rights[k][i]))
    return total


def _eigen_idempotents(A: FDAlgebra, powers, factors, rest: bool) -> list:
    """The idempotents of the roots lam in the field of the minimal
    polynomial of x, one for each (q, k, q(lam)) of _root_factors, read off
    the powers e, x, x^2, ... of x; when rest is set, e minus their sum
    follows.

    u = q(x)/q(lam) is 1 modulo (x - lam)^k and 0 modulo q(x), so it is
    the idempotent of lam in the algebra of polynomials in x up to a
    nilpotent.  That nilpotent is 0 when k = 1; otherwise the lift
    u -> 3u^2 - 2u^3 removes it, since an idempotent lifts uniquely
    through a nilpotent ideal of a commutative algebra.
    """
    field = A.field
    three, minus_two = field.from_rational(3), field.from_rational(-2)
    pieces = []
    for q, k, value in factors:
        scale, piece = field.inv(value), {}
        for c, power in zip(q, powers):
            vec_axpy(piece, field.mul(scale, c), power, field)
        square = A.multiply(piece, piece) if k > 1 else piece
        while not vec_equal(square, piece, field):
            cube = A.multiply(square, piece)
            piece = {}
            vec_axpy(piece, three, square, field)
            vec_axpy(piece, minus_two, cube, field)
            square = A.multiply(piece, piece)
        pieces.append(piece)
    if rest:
        other = dict(powers[0])
        for piece in pieces:
            vec_axpy(other, field.neg(field.one), piece, field)
        pieces.append(other)
    return pieces


def _split_unit(A: FDAlgebra, candidates, complete: bool):
    """Split the unit of A into orthogonal idempotents, each a polynomial
    in one element x = e g e of a candidate g and a coarser idempotent e.

    A component e is cut along the first candidate g whose x = e g e gives
    at least two pieces: one for each root of x's minimal polynomial p in
    e A e that lies in the field, and, unless complete is set, one for the
    roots outside it together.  A candidate with fewer, such as x = lam e
    plus a nilpotent, is passed over, and the pieces are cut again in
    turn.  A component with dim e A e = 1 (the trace of x -> e x e, read
    off the products by _corner_trace) is primitive and is not tried.  A
    component that no candidate cuts stays whole: a field component such
    as the Q(zeta_5) summand of QZ5 over Q, or a local one such as
    Q[x]/x^3.  With complete set a component that stays whole although the
    root multiplicities of some p add up to less than its degree is wide:
    the search ends and None is returned, so the caller can retry over a
    larger field.
    """
    if not A.is_unital:
        raise NonUnital("idempotents are cut from the unit")
    field = A.field

    def split(e):
        # x -> e x e projects onto e A e, so its trace is dim e A e; on the
        # cleared w = D e the trace of x -> w x w is D^2 dim e A e
        den, w = cleared(e, field)
        if field.is_zero(field.sub(_corner_trace(A, w),
                                   field.from_rational(den * den))):
            return [e]
        wide = False
        for g in candidates:
            poly, powers = _minimal_polynomial(
                A, e, A.multiply(A.multiply(e, g), e))
            if len(poly) == 2:
                continue
            factors = _root_factors(poly, field)
            rest = sum(k for _, k, _ in factors) < len(poly) - 1
            if complete and rest:
                wide = True
            elif len(factors) + rest > 1:
                break
        else:
            return None if wide else [e]
        out = []
        for piece in _eigen_idempotents(A, powers, factors, rest):
            cut = split(piece)
            if cut is None:
                return None
            out.extend(cut)
        return out

    return split(dict(A.unit))


def block_idempotents(A: FDAlgebra) -> list:
    """Orthogonal central idempotents of A that sum to its unit.

    They cut A into the blocks its field sees (QZ5 over Q gives two
    blocks, over Q(zeta_5) five): _split_unit along the basis of the
    center, so each is a polynomial in one central element, lifted through
    the radical of the center where that element is not semisimple.
    """
    return _split_unit(A, center(A).basis, complete=False)


def split_idempotents(A: FDAlgebra) -> list:
    """Orthogonal idempotents of A, central or not, that sum to its unit.

    _split_unit along the basis of the center and then the basis of A: the
    central candidates give the blocks of block_idempotents, in their
    order, and the basis elements cut each block further along x = e g e.
    In a split simple block the result is a full set of primitive
    idempotents (the diagonal of M_n(Q), say); commutative blocks, such as
    the Q(zeta_5) block of QZ5 over Q or a local algebra, stay whole.
    """
    return _split_unit(A, center(A).basis
                       + [A.basis_vector(i) for i in range(A.dim)],
                       complete=False)
