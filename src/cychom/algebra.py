"""Finite-dimensional associative algebras given by structure constants.

An algebra is a basis with a sparse multiplication tensor over Q or a
cyclotomic field.  Everything here is immutable after construction, and
each constructor validates its output, so downstream modules can assume
associativity and unit axioms hold.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import default_budget
from .errors import (
    AmbientMismatch,
    ClosureOverflow,
    FieldMismatch,
    NotAutomorphism,
    NotMultiplicative,
    NonUnital,
    SizeOverflow,
    ValidationError,
    check_int,
)
from .linalg import (SparseMatrix, Subspace, to_raw, vec_axpy, vec_equal,
                     vec_sub)
from .scalars import field_of_order, scalar_to_string


def _normalize_vec(vec, A) -> dict:
    """Copy a sparse vector over A, coercing entries to raw field values.

    A only needs ``dim`` and ``field``; a coordinate outside range(dim)
    raises ValidationError.
    """
    field = A.field
    out = {}
    for k, v in vec.items():
        if not 0 <= k < A.dim:
            raise ValidationError(
                "coordinate %r outside a basis of dimension %d" % (k, A.dim))
        raw = to_raw(v, field)
        if not field.is_zero(raw):
            out[k] = raw
    return out


@dataclass
class ValidationReport:
    ok: bool
    unital: bool
    messages: list
    failing_triple: tuple | None


class FDAlgebra:
    """A finite-dimensional algebra with sparse structure constants.

    ``mul[i][j]`` is the sparse coordinate vector of ``e_i * e_j``.  The
    optional ``unit`` is a coordinate vector; nonunital algebras (ideals
    viewed as algebras, augmentation kernels) simply omit it.
    """

    def __init__(self, dim, field_order=1, mul=None, labels=None, unit=None,
                 name=""):
        cap = default_budget().dim_cap
        check_int(dim, "algebra dimension", 1)
        if dim > cap:
            raise SizeOverflow(
                "algebra dimension %d exceeds cap %d" % (dim, cap))
        self.dim = dim
        self.field_order = field_order
        self.field = field_of_order(field_order)
        self.name = name
        if labels is None:
            labels = ["e%d" % i for i in range(dim)]
        if len(labels) != dim:
            raise ValidationError("expected %d basis labels" % dim)
        self.labels = list(labels)
        table = [[{} for _ in range(dim)] for _ in range(dim)]
        if isinstance(mul, list):
            if len(mul) != dim or any(len(row) != dim for row in mul):
                raise ValidationError(
                    "structure constants must form a %d x %d table" % (dim, dim))
            mul = {(i, j): mul[i][j] for i in range(dim) for j in range(dim)}
        for (i, j), entry in (mul or {}).items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValidationError(
                    "product key %r outside a basis of dimension %d"
                    % ((i, j), dim))
            table[i][j] = _normalize_vec(entry, self)
        self.mul = table
        # whether multiply may run on first coefficients (over Q always)
        self._rational_constants = field_order == 1 or not any(
            any(s[1:]) for row in table for entry in row
            for s in entry.values())
        self.unit = _normalize_vec(unit, self) if unit is not None else None

    @property
    def is_unital(self) -> bool:
        return self.unit is not None

    def basis_vector(self, i: int) -> dict:
        return {i: self.field.one}

    def multiply(self, u: dict, v: dict) -> dict:
        """Product of two sparse coordinate vectors.

        Two routes give the same values.  When every structure constant is
        rational (always over Q; over Q(zeta_m) read once, at construction)
        and every entry of u and v is rational, ``_native_product`` runs
        the whole product in native int and Fraction arithmetic: over Q on
        the entries themselves, over Q(zeta_m) on their first coefficients,
        each sum then wrapped as (c, 0, .., 0).  Otherwise the terms run in
        the field's arithmetic.  Vectors store no zeros and Q(zeta_m) is a
        field, so the product of two entries is never zero and needs no
        test; the terms are summed per coordinate and the coordinates whose
        sum is zero are dropped once, at the end.
        """
        field = self.field
        if field.order == 1:
            return {k: c for k, c in
                    _native_product(self.mul, u, v, False).items() if c}
        if self._rational_constants:
            u0 = _first_coefficients(u)
            v0 = None if u0 is None else _first_coefficients(v)
            if v0 is not None:
                pad = field.zero[1:]
                return {k: (c,) + pad for k, c in
                        _native_product(self.mul, u0, v0, True).items() if c}
        mul, add, one = field.mul, field.add, field.one
        out = {}
        get = out.get
        for i, a in u.items():
            row = self.mul[i]
            for j, b in v.items():
                c = mul(a, b)
                # group algebras and matrix units have constants of one
                for k, s in row[j].items():
                    t = c if s == one else mul(c, s)
                    prev = get(k)
                    out[k] = t if prev is None else add(prev, t)
        is_zero = field.is_zero
        return {k: c for k, c in out.items() if not is_zero(c)}

    def left_mult_matrix(self, vec: dict) -> SparseMatrix:
        """Matrix of x -> vec * x."""
        cols = [self.multiply(vec, self.basis_vector(j)) for j in range(self.dim)]
        return SparseMatrix.from_columns(cols, self.dim, self.field)

    def right_mult_matrix(self, vec: dict) -> SparseMatrix:
        """Matrix of x -> x * vec."""
        cols = [self.multiply(self.basis_vector(j), vec) for j in range(self.dim)]
        return SparseMatrix.from_columns(cols, self.dim, self.field)

    def trace_vector(self) -> list:
        """Traces of the left multiplication operators, one per basis element."""
        field = self.field
        out = []
        for k in range(self.dim):
            t = field.zero
            for i in range(self.dim):
                t = field.add(t, self.mul[k][i].get(i, field.zero))
            out.append(t)
        return out

    def commutators(self) -> list:
        """The nonzero commutators e_i e_j - e_j e_i with i < j."""
        out = []
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                v = vec_sub(self.mul[i][j], self.mul[j][i], self.field)
                if v:
                    out.append(v)
        return out

    def is_commutative(self) -> bool:
        field = self.field
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if not vec_equal(self.mul[i][j], self.mul[j][i], field):
                    return False
        return True

    def validate(self) -> ValidationReport:
        """Check associativity and unit axioms.

        Returns a report naming the first failing basis triple instead of
        raising, so callers can surface the exact defect.  Both sides of
        each triple are _combine sums, native when every structure constant
        is rational (over Q(zeta_m) on the table of first coefficients).
        """
        field = self.field
        mul, arith = self.mul, None if self._rational_constants else field
        if field.order > 1 and self._rational_constants:
            mul = [[{k: s[0] for k, s in entry.items()} for entry in row]
                   for row in mul]
        messages = []
        failing = None
        for i in range(self.dim):
            for j in range(self.dim):
                p = mul[i][j]
                for k in range(self.dim):
                    if _combine(mul, p, arith, k) != \
                            _combine(mul[i], mul[j][k], arith):
                        failing = (i, j, k)
                        messages.append(
                            "associativity fails at basis triple (%d, %d, %d)"
                            % (i, j, k))
                        break
                if failing:
                    break
            if failing:
                break
        unital = False
        if self.unit is not None and failing is None:
            unital = True
            for i in range(self.dim):
                e = self.basis_vector(i)
                if not vec_equal(self.multiply(self.unit, e), e, field):
                    messages.append("unit fails on the left at basis %d" % i)
                    failing = failing or (i, i, i)
                    unital = False
                    break
                if not vec_equal(self.multiply(e, self.unit), e, field):
                    messages.append("unit fails on the right at basis %d" % i)
                    failing = failing or (i, i, i)
                    unital = False
                    break
        return ValidationReport(ok=not messages, unital=unital,
                                messages=messages, failing_triple=failing)

    def require_valid(self) -> "FDAlgebra":
        report = self.validate()
        if not report.ok:
            raise ValidationError(report.messages[0])
        return self

    def element_str(self, vec: dict) -> str:
        """The vector as a sum of coefficient*label terms; a coefficient of
        more than one term in z is parenthesized."""
        if not vec:
            return "0"
        parts = []
        for k in sorted(vec):
            x = _wrap(vec[k], self.field)
            c = scalar_to_string(x, with_order=False)
            label = self.labels[k]
            if label == "1":
                parts.append(c)
            elif c == "1":
                parts.append(label)
            elif c == "-1":
                parts.append("-" + label)
            elif sum(1 for a in x.coeffs if a) > 1:
                parts.append("(%s)*%s" % (c, label))
            else:
                parts.append("%s*%s" % (c, label))
        return " + ".join(parts).replace("+ -", "- ")


def _combine(cols, vec: dict, field, k=None) -> dict:
    """The sum of vec[t] cols[t] over t (of the k-th entries cols[t][k]
    when k is given), sparse with no zero entries: in native + and * when
    field is None, every entry then rational, else in the field."""
    out = {}
    if field is None:
        for t, c in vec.items():
            for j, x in (cols[t] if k is None else cols[t][k]).items():
                s = out[j] + c * x if j in out else c * x
                if s:
                    out[j] = s
                else:
                    out.pop(j, None)
        return out
    for t, c in vec.items():
        vec_axpy(out, c, cols[t] if k is None else cols[t][k], field)
    return out


def _first_coefficients(vec: dict) -> dict | None:
    """{k: c} for a vector over Q(zeta_m) whose entries are all rational,
    each (c, 0, .., 0); None when an entry is irrational."""
    out = {}
    for k, e in vec.items():
        if any(e[1:]):
            return None
        out[k] = e[0]
    return out


def _native_product(table, u: dict, v: dict, first: bool) -> dict:
    """The sums over i and j of u[i] v[j] table[i][j][k], one per k, in
    native * and + on rationals, with no field call per term; a sum may be
    zero.  With first set the constants are coefficient tuples of rationals
    and their first coefficients are read."""
    out = {}
    get = out.get
    for i, a in u.items():
        row = table[i]
        for j, b in v.items():
            c = a * b
            for k, s in row[j].items():
                if first:
                    s = s[0]
                # group algebras and matrix units have constants of one
                t = c if s == 1 else c * s
                prev = get(k)
                out[k] = t if prev is None else prev + t
    return out


def _wrap(raw, field):
    from .scalars import Cyclotomic
    return Cyclotomic.from_raw(raw, field.order)


# ---------------------------------------------------------------------------
# linear and multiplicative maps


class AlgebraMap:
    """A linear map between algebras, with optional structure flags.

    The flags are contracts: ``validate`` confirms a flagged property on
    all basis pairs and raises when the matrix does not deliver it.
    """

    def __init__(self, source: FDAlgebra, target: FDAlgebra,
                 matrix: SparseMatrix, multiplicative=False, unital=False,
                 name=""):
        if matrix.nrows != target.dim or matrix.ncols != source.dim:
            raise ValidationError(
                "map matrix must be %d x %d, got %d x %d"
                % (target.dim, source.dim, matrix.nrows, matrix.ncols))
        if source.field_order != target.field_order:
            raise AmbientMismatch("source and target live over different fields")
        self.source = source
        self.target = target
        self.matrix = matrix
        self.multiplicative = multiplicative
        self.unital = unital
        self.name = name

    @classmethod
    def from_images(cls, source, target, images, **flags):
        cols = [_normalize_vec(v, target) for v in images]
        return cls(source, target,
                   SparseMatrix.from_columns(cols, target.dim, target.field),
                   **flags)

    @classmethod
    def identity(cls, algebra):
        return cls(algebra, algebra,
                   SparseMatrix.identity(algebra.dim, algebra.field),
                   multiplicative=True, unital=algebra.is_unital)

    def apply(self, vec: dict) -> dict:
        return self.matrix.mat_vec(vec)

    def compose(self, other: "AlgebraMap") -> "AlgebraMap":
        """self after other."""
        if other.target is not self.source and other.target.dim != self.source.dim:
            raise AmbientMismatch("composition dimensions do not match")
        return AlgebraMap(
            other.source, self.target, self.matrix.matmul(other.matrix),
            multiplicative=self.multiplicative and other.multiplicative,
            unital=self.unital and other.unital)

    def is_bijective(self) -> bool:
        return (self.source.dim == self.target.dim
                and self.matrix.rank() == self.source.dim)

    def validate(self) -> None:
        src, tgt = self.source, self.target
        if self.multiplicative:
            images = [self.apply(src.basis_vector(i)) for i in range(src.dim)]
            for i in range(src.dim):
                for j in range(src.dim):
                    lhs = self.apply(src.mul[i][j])
                    rhs = tgt.multiply(images[i], images[j])
                    if not vec_equal(lhs, rhs, tgt.field):
                        raise NotMultiplicative(
                            "map is not multiplicative on basis pair (%d, %d)"
                            % (i, j))
        if self.unital:
            if not (src.is_unital and tgt.is_unital):
                raise NonUnital("unital flag requires unital source and target")
            if not vec_equal(self.apply(src.unit), tgt.unit, tgt.field):
                raise NonUnital("map does not send unit to unit")

    def require_automorphism(self) -> "AlgebraMap":
        if self.source is not self.target:
            raise NotAutomorphism("automorphism must map an algebra to itself")
        if not self.is_bijective():
            raise NotAutomorphism("matrix is not invertible")
        try:
            AlgebraMap(self.source, self.target, self.matrix,
                       multiplicative=True,
                       unital=self.source.is_unital).validate()
        except (NotMultiplicative, NonUnital) as exc:
            raise NotAutomorphism(str(exc)) from exc
        return self

    def inverse(self) -> "AlgebraMap":
        if not self.is_bijective():
            raise NotAutomorphism("matrix is not invertible")
        return AlgebraMap(self.target, self.source, self.matrix.inverse(),
                          multiplicative=self.multiplicative,
                          unital=self.unital)


# ---------------------------------------------------------------------------
# ideals


class TwoSidedIdeal:
    """A subspace of an algebra closed under both multiplications."""

    def __init__(self, parent: FDAlgebra, space: Subspace, name=""):
        if space.ambient_dim != parent.dim:
            raise AmbientMismatch("ideal subspace has wrong ambient dimension")
        self.parent = parent
        self.space = space
        self.name = name

    @property
    def dim(self) -> int:
        return self.space.dim

    def contains(self, vec: dict) -> bool:
        return self.space.contains(vec)

    def validate(self) -> None:
        A = self.parent
        for x in self.space.basis:
            for a in range(A.dim):
                left = A.multiply(A.basis_vector(a), x)
                right = A.multiply(x, A.basis_vector(a))
                if not self.space.contains(left):
                    raise ValidationError(
                        "left absorption fails: e_%d times ideal basis leaves "
                        "the subspace" % a)
                if not self.space.contains(right):
                    raise ValidationError(
                        "right absorption fails: ideal basis times e_%d leaves "
                        "the subspace" % a)


def two_sided_ideal(A: FDAlgebra, vectors, name="") -> TwoSidedIdeal:
    """Wrap explicit basis vectors as an ideal, checking absorption."""
    space = Subspace.from_vectors(
        A.dim, A.field, [_normalize_vec(v, A) for v in vectors])
    ideal = TwoSidedIdeal(A, space, name=name)
    ideal.validate()
    return ideal


def ideal_generated_by(A: FDAlgebra, gens, name="") -> TwoSidedIdeal:
    """Smallest two-sided ideal containing the generators.

    Alternates left and right multiplication closure until the subspace
    stabilizes.  The generators themselves are kept, which is the
    unit-augmented convention needed when A has no unit.
    """
    vectors = [_normalize_vec(v, A) for v in gens]
    space = Subspace.from_vectors(A.dim, A.field, vectors)
    while True:
        new_vecs = []
        for x in space.basis:
            for a in range(A.dim):
                for prod in (A.multiply(A.basis_vector(a), x),
                             A.multiply(x, A.basis_vector(a))):
                    if not space.contains(prod):
                        new_vecs.append(prod)
        if not new_vecs:
            return TwoSidedIdeal(A, space, name=name)
        space = Subspace.from_vectors(
            A.dim, A.field, list(space.basis) + new_vecs)


# ---------------------------------------------------------------------------
# bimodules


class Bimodule:
    """An A-bimodule given by commuting left and right action matrices."""

    def __init__(self, algebra: FDAlgebra, dim: int, left, right,
                 labels=None, name=""):
        self.algebra = algebra
        self.dim = dim
        self.left = left
        self.right = right
        self.labels = labels or ["m%d" % i for i in range(dim)]
        self.name = name

    def act_left(self, i: int, vec: dict) -> dict:
        return self.left[i].mat_vec(vec)

    def act_right(self, vec: dict, i: int) -> dict:
        return self.right[i].mat_vec(vec)

    def validate(self) -> None:
        """Per basis pair, (ab)m = a(bm), m(ab) = (ma)b and a(mb) = (am)b,
        then the unit on either side, column by column of the action
        matrices by _combine: natively over Q, in the field otherwise."""
        A = self.algebra
        n, d = A.dim, self.dim
        for side in (self.left, self.right):
            if len(side) != n or any((m.nrows, m.ncols) != (d, d)
                                     for m in side):
                raise AmbientMismatch(
                    "a bimodule of dimension %d needs %d actions of shape "
                    "%d x %d on each side" % (d, n, d, d))
            if any(m.field.order != A.field_order for m in side):
                raise FieldMismatch("actions live over another field")
        arith = None if A.field_order == 1 else A.field
        left, right = ([m.columns() for m in side]
                       for side in (self.left, self.right))
        cols = range(d)
        for i in range(n):
            for j in range(n):
                p = A.mul[i][j]
                if any(_combine(left, p, arith, c) !=
                       _combine(left[i], left[j][c], arith) for c in cols):
                    raise ValidationError(
                        "left action is not multiplicative at pair (%d, %d)"
                        % (i, j))
                if any(_combine(right, p, arith, c) !=
                       _combine(right[j], right[i][c], arith) for c in cols):
                    raise ValidationError(
                        "right action does not reverse products at pair "
                        "(%d, %d)" % (i, j))
                if any(_combine(left[i], right[j][c], arith) !=
                       _combine(right[j], left[i][c], arith) for c in cols):
                    raise ValidationError(
                        "left and right actions fail to commute at pair "
                        "(%d, %d)" % (i, j))
        if A.is_unital:
            one = A.field.one
            if any(_combine(left, A.unit, arith, c) != {c: one} for c in cols):
                raise ValidationError("unit does not act as identity on the left")
            if any(_combine(right, A.unit, arith, c) != {c: one} for c in cols):
                raise ValidationError("unit does not act as identity on the right")


def _action_of(mats, vec, dim, field):
    out = SparseMatrix(dim, dim, field)
    for i, c in vec.items():
        out = out.add(mats[i].scaled(c))
    return out


def diagonal_bimodule(A: FDAlgebra) -> Bimodule:
    left = [A.left_mult_matrix(A.basis_vector(i)) for i in range(A.dim)]
    right = [A.right_mult_matrix(A.basis_vector(i)) for i in range(A.dim)]
    return Bimodule(A, A.dim, left, right, labels=A.labels, name=A.name)


def twisted_bimodule(A: FDAlgebra, g: AlgebraMap) -> Bimodule:
    """The bimodule with a.m = am and m.a = m g(a).

    g must be a unital algebra automorphism of A.
    """
    g.require_automorphism()
    left = [A.left_mult_matrix(A.basis_vector(i)) for i in range(A.dim)]
    right = [A.right_mult_matrix(g.apply(A.basis_vector(i)))
             for i in range(A.dim)]
    return Bimodule(A, A.dim, left, right, labels=A.labels,
                    name=A.name + "(twisted)")


# ---------------------------------------------------------------------------
# constructors


def ground_field(field_order=1) -> FDAlgebra:
    return FDAlgebra(1, field_order, {(0, 0): {0: 1}}, labels=["1"],
                     unit={0: 1}, name="ground_field").require_valid()


def functions_on_points(l: int, field_order=1) -> FDAlgebra:
    """Functions on l points: component-wise products of delta functions."""
    check_int(l, "number of points", 1)
    field = field_of_order(field_order)
    mul = {(i, i): {i: field.one} for i in range(l)}
    unit = {i: field.one for i in range(l)}
    labels = ["d%d" % i for i in range(l)]
    return FDAlgebra(l, field_order, mul, labels=labels, unit=unit,
                     name="points_%d" % l).require_valid()


def truncated_polynomial(N: int, field_order=1) -> FDAlgebra:
    """Q[x] / (x^N) on the basis 1, x, ..., x^(N-1)."""
    check_int(N, "truncation degree", 1)
    field = field_of_order(field_order)
    mul = {}
    for i in range(N):
        for j in range(N):
            if i + j < N:
                mul[(i, j)] = {i + j: field.one}
    labels = ["1"] + ["x" if k == 1 else "x^%d" % k for k in range(1, N)]
    return FDAlgebra(N, field_order, mul, labels=labels, unit={0: field.one},
                     name="trunc_poly_%d" % N).require_valid()


def matrix_algebra(base: FDAlgebra, N: int) -> FDAlgebra:
    """N x N matrices over a unital base algebra.

    Basis is E_pq tensor a_i with index ((p*N)+q)*dim(base)+i; the unit is
    the sum of diagonal matrix units tensored with the base unit.
    """
    if not base.is_unital:
        raise NonUnital("matrix algebra needs a unital base")
    check_int(N, "matrix size", 1)
    d = base.dim
    dim = N * N * d
    plain = d == 1 and base.labels == ["1"]

    def idx(p, q, i):
        return (p * N + q) * d + i

    mul = {}
    for p in range(N):
        for q in range(N):
            for r in range(N):
                for s in range(N):
                    if q != r:
                        continue
                    for i in range(d):
                        for j in range(d):
                            target = {idx(p, s, k): c
                                      for k, c in base.mul[i][j].items()}
                            if target:
                                mul[(idx(p, q, i), idx(r, s, j))] = target
    labels = []
    for p in range(N):
        for q in range(N):
            for i in range(d):
                tag = "E%d%d" % (p + 1, q + 1)
                labels.append(tag if plain else tag + "⊗" + base.labels[i])
    unit = {}
    for p in range(N):
        for i, c in base.unit.items():
            unit[idx(p, p, i)] = c
    name = "matrix_%d(%s)" % (N, base.name or "base")
    return FDAlgebra(dim, base.field_order, mul, labels=labels, unit=unit,
                     name=name).require_valid()


def _unflatten(base: FDAlgebra, flat: dict, N: int) -> tuple:
    """An element of matrix_algebra(base, N) as N x N sparse vectors over
    base: entry [p][q] collects the indices ((p*N)+q)*dim(base)+i."""
    rows = [[{} for _ in range(N)] for _ in range(N)]
    for j, c in flat.items():
        pq, i = divmod(j, base.dim)
        p, q = divmod(pq, N)
        rows[p][q][i] = c
    return tuple(tuple(row) for row in rows)


def upper_triangular(n: int, field_order=1) -> FDAlgebra:
    """Upper triangular n x n matrices over the ground field."""
    check_int(n, "matrix size", 1)
    field = field_of_order(field_order)
    pairs = [(p, q) for p in range(n) for q in range(p, n)]
    index = {pq: t for t, pq in enumerate(pairs)}
    mul = {}
    for (p, q) in pairs:
        for (r, s) in pairs:
            if q == r:
                mul[(index[(p, q)], index[(r, s)])] = {index[(p, s)]: field.one}
    labels = ["E%d%d" % (p + 1, q + 1) for (p, q) in pairs]
    unit = {index[(p, p)]: field.one for p in range(n)}
    return FDAlgebra(len(pairs), field_order, mul, labels=labels, unit=unit,
                     name="upper_tri_%d" % n).require_valid()


@dataclass
class DirectSumData:
    algebra: FDAlgebra
    include_left: AlgebraMap
    include_right: AlgebraMap
    project_left: AlgebraMap
    project_right: AlgebraMap


def direct_sum(A: FDAlgebra, B: FDAlgebra) -> DirectSumData:
    """Product algebra A x B with the four structural maps.

    The inclusions are multiplicative but not unital; the projections are
    both when the summands are unital.
    """
    if A.field_order != B.field_order:
        raise AmbientMismatch("direct sum needs a common scalar field")
    field = A.field
    dim = A.dim + B.dim
    mul = {}
    for i in range(A.dim):
        for j in range(A.dim):
            if A.mul[i][j]:
                mul[(i, j)] = dict(A.mul[i][j])
    for i in range(B.dim):
        for j in range(B.dim):
            if B.mul[i][j]:
                mul[(A.dim + i, A.dim + j)] = {
                    A.dim + k: c for k, c in B.mul[i][j].items()}
    labels = (["(%s,0)" % lbl for lbl in A.labels]
              + ["(0,%s)" % lbl for lbl in B.labels])
    unit = None
    if A.is_unital and B.is_unital:
        unit = dict(A.unit)
        for k, c in B.unit.items():
            unit[A.dim + k] = c
    name = "%s+%s" % (A.name or "A", B.name or "B")
    C = FDAlgebra(dim, A.field_order, mul, labels=labels, unit=unit,
                  name=name).require_valid()
    inc_a = AlgebraMap.from_images(
        A, C, [{i: field.one} for i in range(A.dim)], multiplicative=True)
    inc_b = AlgebraMap.from_images(
        B, C, [{A.dim + i: field.one} for i in range(B.dim)],
        multiplicative=True)
    proj_a = AlgebraMap.from_images(
        C, A, [{i: field.one} if i < A.dim else {} for i in range(dim)],
        multiplicative=True, unital=unit is not None and A.is_unital)
    proj_b = AlgebraMap.from_images(
        C, B, [{} if i < A.dim else {i - A.dim: field.one}
               for i in range(dim)],
        multiplicative=True, unital=unit is not None and B.is_unital)
    for m in (inc_a, inc_b, proj_a, proj_b):
        m.validate()
    return DirectSumData(C, inc_a, inc_b, proj_a, proj_b)


@dataclass
class QuotientData:
    algebra: FDAlgebra
    projection: AlgebraMap


def quotient_algebra(A: FDAlgebra, ideal: TwoSidedIdeal) -> QuotientData:
    """A / J with its multiplicative projection map.

    Quotient coordinates are the ambient coordinates away from the pivot
    columns of the ideal subspace, so residues of the canonical reduction
    read off directly.
    """
    if ideal.parent is not A:
        raise AmbientMismatch("ideal does not belong to this algebra")
    ideal.validate()
    free = [i for i in range(A.dim) if i not in set(ideal.space.pivot_cols)]
    if not free:
        raise ValidationError("quotient by the whole algebra is empty")
    pos = {f: t for t, f in enumerate(free)}

    def residue(vec):
        red = ideal.space.reduce(vec)
        return {pos[k]: c for k, c in red.items()}

    dim = len(free)
    mul = {}
    for a in range(dim):
        for b in range(dim):
            prod = residue(A.multiply(A.basis_vector(free[a]),
                                      A.basis_vector(free[b])))
            if prod:
                mul[(a, b)] = prod
    labels = [A.labels[f] for f in free]
    unit = residue(A.unit) if A.is_unital else None
    name = (A.name or "A") + "_mod_" + (ideal.name or "J")
    Q = FDAlgebra(dim, A.field_order, mul, labels=labels, unit=unit,
                  name=name).require_valid()
    proj = AlgebraMap.from_images(
        A, Q, [residue(A.basis_vector(i)) for i in range(A.dim)],
        multiplicative=True, unital=A.is_unital)
    proj.validate()
    return QuotientData(Q, proj)


@dataclass
class UnitalizationData:
    algebra: FDAlgebra
    include: AlgebraMap
    augmentation: AlgebraMap


def adjoin_unit(A: FDAlgebra) -> FDAlgebra:
    """A+ = A + Q with (a, s)(b, t) = (ab + sb + ta, st), validated.

    The original basis keeps its indices; the adjoined unit is the last
    coordinate.  Works whether or not A already has a unit.
    """
    field = A.field
    d = A.dim
    mul = {}
    for i in range(d):
        for j in range(d):
            if A.mul[i][j]:
                mul[(i, j)] = dict(A.mul[i][j])
    for i in range(d):
        mul[(i, d)] = {i: field.one}
        mul[(d, i)] = {i: field.one}
    mul[(d, d)] = {d: field.one}
    labels = list(A.labels) + ["u"]
    return FDAlgebra(d + 1, A.field_order, mul, labels=labels,
                     unit={d: field.one},
                     name=(A.name or "A") + "_plus").require_valid()


def unitalization(A: FDAlgebra) -> UnitalizationData:
    """adjoin_unit's A+ with the inclusion of A and the augmentation."""
    field, d, plus = A.field, A.dim, adjoin_unit(A)
    include = AlgebraMap.from_images(
        A, plus, [{i: field.one} for i in range(d)], multiplicative=True)
    include.validate()
    ground = ground_field(A.field_order)
    augmentation = AlgebraMap.from_images(
        plus, ground, [{} for _ in range(d)] + [{0: field.one}],
        multiplicative=True, unital=True)
    augmentation.validate()
    return UnitalizationData(plus, include, augmentation)


def subalgebra_closure(A: FDAlgebra, generators):
    """Smallest subalgebra containing the generators.

    Returns (algebra, inclusion map).  The result has no unit unless the
    closure happens to contain one; callers needing units should include
    the unit among the generators.
    """
    cap = default_budget().dim_cap
    field = A.field
    vectors = [_normalize_vec(v, A) for v in generators]
    space = Subspace.from_vectors(A.dim, field, vectors)
    while True:
        new_vecs = []
        for x in space.basis:
            for y in space.basis:
                prod = A.multiply(x, y)
                if not space.contains(prod):
                    new_vecs.append(prod)
        if not new_vecs:
            break
        space = Subspace.from_vectors(
            A.dim, field, list(space.basis) + new_vecs)
        if space.dim > cap:
            raise ClosureOverflow(
                "subalgebra closure exceeded dimension cap %d" % cap)
    if space.dim == 0:
        raise ValidationError("closure of zero generators is empty")
    return _algebra_on_subspace(A, space, (A.name or "A") + "_sub",
                                A.is_unital and space.contains(A.unit))


def ideal_as_algebra(ideal: TwoSidedIdeal):
    """View a two-sided ideal as a nonunital algebra on its own basis.

    Returns (algebra, inclusion map into the parent).
    """
    return _algebra_on_subspace(ideal.parent, ideal.space, ideal.name or "J",
                                False)


def _algebra_on_subspace(A: FDAlgebra, space: Subspace, name: str,
                         with_unit: bool):
    """The algebra A induces on a subspace closed under its product.

    Returns (algebra, inclusion map); the unit of A becomes the unit of the
    result when with_unit is set (the caller checks it lies in the space).
    """
    basis = list(space.basis)
    mul = {}
    for a, x in enumerate(basis):
        for b, y in enumerate(basis):
            entry = space.coords(A.multiply(x, y))
            if entry is None:
                raise ValidationError("subspace is not closed under products")
            if entry:
                mul[(a, b)] = entry
    unit = space.coords(A.unit) if with_unit else None
    sub = FDAlgebra(len(basis), A.field_order, mul, unit=unit, name=name)
    sub.require_valid()
    include = AlgebraMap.from_images(sub, A, basis, multiplicative=True,
                                     unital=with_unit)
    include.validate()
    return sub, include
