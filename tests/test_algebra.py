"""Algebra constructors, validation diagnostics, ideals, and bimodules."""

import random
from fractions import Fraction

import pytest

from cychom.algebra import (
    AlgebraMap,
    Bimodule,
    FDAlgebra,
    TwoSidedIdeal,
    adjoin_unit,
    diagonal_bimodule,
    direct_sum,
    functions_on_points,
    ground_field,
    ideal_as_algebra,
    ideal_generated_by,
    matrix_algebra,
    quotient_algebra,
    subalgebra_closure,
    truncated_polynomial,
    twisted_bimodule,
    two_sided_ideal,
    unitalization,
    upper_triangular,
)
from cychom import config
from cychom.errors import (
    AmbientMismatch,
    ClosureOverflow,
    FieldMismatch,
    NotAutomorphism,
    NotMultiplicative,
    NonUnital,
    SizeOverflow,
    ValidationError,
)
from cychom.groups import cyclic_group, group_algebra, symmetric_group_3
from cychom.hochschild import hh_with_coefficients
from cychom.linalg import SparseMatrix, Subspace, to_raw, vec_axpy, vec_equal
from cychom.scalars import Cyclotomic, field_of_order
from cychom.spectrum import extend_scalars


def one(A):
    return A.field.one


def test_ground_field_is_unital_line():
    Q = ground_field()
    assert Q.dim == 1
    assert Q.is_unital
    assert Q.multiply({0: 2}, {0: Fraction(1, 2)}) == {0: Fraction(1)}


def test_ground_field_with_fourth_root():
    C = ground_field(4)
    i = Cyclotomic.zeta(4)
    prod = C.multiply({0: i.raw}, {0: i.raw})
    assert Cyclotomic.from_raw(prod[0], 4) == -1


@pytest.mark.parametrize("m", [3, 5, 8])
def test_products_with_unit_constants_match_the_general_route(m):
    # constants of one (a group algebra over Q(zeta_m)) and others (2 and
    # zeta_m, in a table that need not be associative: multiply does not ask)
    from cychom.groups import group_algebra, symmetric_group_3
    from cychom.linalg import vec_axpy
    from cychom.spectrum import extend_scalars
    rng = random.Random(m)
    z = Cyclotomic.zeta(m)
    odd = FDAlgebra(2, m, mul={(0, 0): {0: 1}, (0, 1): {1: 2},
                               (1, 0): {0: z, 1: 1}, (1, 1): {0: 2 * z}})
    for A in (extend_scalars(group_algebra(symmetric_group_3()), m), odd):
        field = A.field

        def element():
            # nonzero entries, some of them rational
            out = {}
            for i in rng.sample(range(A.dim), min(A.dim, 3)):
                rational = rng.random() < 0.5
                coeffs = [Fraction(rng.randint(1, 4), 3)] + [
                    Fraction(0 if rational else rng.randint(-4, 4), 3)
                    for _ in range(field.degree - 1)]
                out[i] = to_raw(Cyclotomic(coeffs, m), field)
            return out

        for _ in range(10):
            u, v = element(), element()
            expected = {}
            for i, a in u.items():
                for j, b in v.items():
                    vec_axpy(expected, field.mul(a, b), A.mul[i][j], field)
            assert A.multiply(u, v) == expected


def test_points_algebra_products():
    A = functions_on_points(2)
    d0, d1 = A.basis_vector(0), A.basis_vector(1)
    assert A.multiply(d0, d0) == d0
    assert A.multiply(d0, d1) == {}
    assert A.unit == {0: 1, 1: 1}
    assert A.is_commutative()
    assert A.validate().ok


def test_truncated_polynomial_products():
    A = truncated_polynomial(3)
    x = A.basis_vector(1)
    assert A.multiply(x, x) == {2: 1}
    assert A.multiply(x, {2: 1}) == {}
    assert A.labels == ["1", "x", "x^2"]


def test_matrix_algebra_m2_is_valid_and_unital():
    M2 = matrix_algebra(ground_field(), 2)
    assert M2.dim == 4
    report = M2.validate()
    assert report.ok and report.unital
    # E11, E12, E21, E22 in index order
    E12, E21 = M2.basis_vector(1), M2.basis_vector(2)
    assert M2.multiply(E12, E21) == {0: 1}
    assert M2.multiply(E21, E12) == {3: 1}
    assert M2.multiply(E12, E12) == {}
    assert M2.labels == ["E11", "E12", "E21", "E22"]


def test_matrix_algebra_over_two_points():
    M = matrix_algebra(functions_on_points(2), 2)
    assert M.dim == 8
    assert M.validate().ok
    # blocks do not talk to each other
    a = M.basis_vector(0)   # E11 (x) d0
    b = M.basis_vector(1)   # E11 (x) d1
    assert M.multiply(a, b) == {}


def test_matrix_algebra_unit_coordinates():
    M3 = matrix_algebra(ground_field(), 3)
    assert M3.unit == {0: 1, 4: 1, 8: 1}


def test_upper_triangular_products():
    T = upper_triangular(2)
    assert T.dim == 3
    assert T.validate().unital
    E11, E12, E22 = (T.basis_vector(i) for i in range(3))
    assert T.multiply(E11, E12) == {1: 1}
    assert T.multiply(E12, E22) == {1: 1}
    assert T.multiply(E22, E12) == {}


# The stated bad-table probe (e0*e0 = e1, all other products zero) is in
# fact associative: both ways of bracketing e0*e0*e0 vanish.  validate
# must confirm that, and must catch a table that genuinely fails.

def test_nilpotent_square_table_is_associative():
    A = FDAlgebra(2, 1, {(0, 0): {1: 1}})
    report = A.validate()
    assert report.ok
    assert report.failing_triple is None


def test_validate_names_first_failing_triple():
    A = FDAlgebra(2, 1, {(0, 0): {1: 1}, (1, 0): {0: 1}})
    report = A.validate()
    assert not report.ok
    assert report.failing_triple == (0, 0, 0)
    assert "associativity" in report.messages[0]


def test_validate_reports_bad_unit():
    A = FDAlgebra(2, 1, {(0, 0): {0: 1}, (1, 1): {1: 1}}, unit={0: 1})
    report = A.validate()
    assert not report.ok
    assert not report.unital
    assert "unit" in report.messages[0]


def test_validate_reports_a_left_unit_that_fails_on_the_right():
    # span{E11, E12} with E11 as its unit: E11 x = x for both basis
    # vectors, but E12 E11 = 0
    A = FDAlgebra(2, 1, {(0, 0): {0: 1}, (0, 1): {1: 1}}, unit={0: 1})
    report = A.validate()
    assert not report.ok
    assert not report.unital
    assert report.messages == ["unit fails on the right at basis 1"]
    assert report.failing_triple == (1, 1, 1)


def test_require_valid_raises():
    A = FDAlgebra(2, 1, {(0, 0): {1: 1}, (1, 0): {0: 1}})
    with pytest.raises(ValidationError):
        A.require_valid()


def test_sizes_that_are_not_ints_are_refused():
    # bool is an int, and -1 squares to a valid matrix algebra dimension
    for dim in (True, 1.0, 0):
        with pytest.raises(ValidationError, match="algebra dimension"):
            FDAlgebra(dim, 1, {(0, 0): {0: 1}})
    with pytest.raises(ValidationError, match="field order"):
        FDAlgebra(1, True, {(0, 0): {0: 1}})
    for N in (-1, 0, 2.0, True):
        with pytest.raises(ValidationError, match="matrix size"):
            matrix_algebra(ground_field(), N)
    for build in (truncated_polynomial, functions_on_points,
                  upper_triangular, cyclic_group):
        for n in (True, 2.0, -1):
            with pytest.raises(ValidationError, match="must be"):
                build(n)


def test_out_of_range_coordinates_are_rejected():
    with pytest.raises(ValidationError):
        FDAlgebra(1, 1, {(0, 0): {5: 1}})
    with pytest.raises(ValidationError):
        FDAlgebra(1, 1, {(0, 0): {0: 1}}, unit={1: 1})
    # a product key outside the basis used to be dropped without a word
    with pytest.raises(ValidationError):
        FDAlgebra(2, 1, {(0, 0): {0: 1}, (3, 3): {1: 1}})
    with pytest.raises(ValidationError):
        FDAlgebra(2, 1, [[{0: 1}, {}]])
    # a field order below 1 names no field
    with pytest.raises(ValidationError):
        FDAlgebra(1, 0, {(0, 0): {0: 1}})
    # Q(zeta3) has degree 2: a raw value is two int or Fraction coefficients
    f3 = field_of_order(3)
    for bad in [(1, 2, 3), (1.5, 0), (1,)]:
        with pytest.raises(ValidationError):
            to_raw(bad, f3)
    with pytest.raises(ValidationError):
        FDAlgebra(1, 3, {(0, 0): {0: (1, 0, 0)}}, unit={0: (1, 0)})
    with pytest.raises(ValidationError):
        FDAlgebra(1, 1, {(0, 0): {0: 1.0}})
    raw = to_raw((1, Fraction(1, 2)), f3)
    assert raw == (1, Fraction(1, 2))
    # int when integral, else a Fraction, as over Q
    assert [type(c) for c in raw] == [int, Fraction]


def test_dimension_cap(monkeypatch):
    monkeypatch.setattr(config, "DEFAULT_DIM_CAP", 4)
    with pytest.raises(SizeOverflow):
        functions_on_points(5)


def test_trace_vector_matrix_algebra():
    M2 = matrix_algebra(ground_field(), 2)
    # left multiplication by a matrix unit E_pq has trace 2 on the diagonal
    assert M2.trace_vector() == [2, 0, 0, 2]


def test_element_str():
    A = truncated_polynomial(2)
    assert A.element_str({0: 1, 1: 2}) == "1 + 2*x"
    assert A.element_str({1: -1}) == "-x"
    assert A.element_str({1: 1}) == "x"
    assert A.element_str({}) == "0"


def test_element_str_parenthesizes_a_coefficient_of_several_terms():
    # over Q(zeta3), on the basis e, g, g2 of the group algebra of Z/3
    C3 = group_algebra(cyclic_group(3), 3)
    half_minus_z = Cyclotomic((Fraction(1, 2), -1), 3)
    z = Cyclotomic.zeta(3)
    assert C3.element_str({1: half_minus_z, 2: 1}) == "(1/2 - z)*g + g2"
    assert C3.element_str({0: -z, 2: 2 * z}) == "-z*e + 2*z*g2"
    # on the basis 1, x the unit's coefficient stands alone
    T2 = truncated_polynomial(2, 3)
    assert T2.element_str({0: half_minus_z, 1: half_minus_z}) == \
        "1/2 - z + (1/2 - z)*x"


# ---------------------------------------------------------------------------
# maps


def test_identity_map_validates():
    A = functions_on_points(3)
    AlgebraMap.identity(A).validate()


def test_swap_is_automorphism():
    A = functions_on_points(2)
    swap = AlgebraMap.from_images(A, A, [{1: 1}, {0: 1}],
                                  multiplicative=True, unital=True)
    swap.validate()
    swap.require_automorphism()
    inv = swap.inverse()
    assert inv.matrix.equals(swap.matrix)


def test_scaling_map_is_rejected():
    A = functions_on_points(2)
    bad = AlgebraMap.from_images(A, A, [{0: 1}, {1: 2}])
    with pytest.raises(NotAutomorphism):
        bad.require_automorphism()


def test_noninvertible_map_is_rejected():
    A = functions_on_points(2)
    bad = AlgebraMap.from_images(A, A, [{0: 1}, {0: 1}])
    with pytest.raises(NotAutomorphism):
        bad.require_automorphism()


def test_multiplicative_flag_checked():
    A = functions_on_points(2)
    bad = AlgebraMap.from_images(A, A, [{0: 1, 1: 1}, {1: 1}],
                                 multiplicative=True)
    with pytest.raises(NotMultiplicative):
        bad.validate()


def test_unital_flag_needs_units():
    A = truncated_polynomial(2)
    J = ideal_generated_by(A, [A.basis_vector(1)])
    JA, _ = ideal_as_algebra(J)
    m = AlgebraMap.from_images(JA, A, [{1: 1}], unital=True)
    with pytest.raises(NonUnital):
        m.validate()


def test_compose_tracks_flags():
    A = functions_on_points(2)
    swap = AlgebraMap.from_images(A, A, [{1: 1}, {0: 1}],
                                  multiplicative=True, unital=True)
    both = swap.compose(swap)
    assert both.multiplicative and both.unital
    assert both.matrix.equals(AlgebraMap.identity(A).matrix)


# ---------------------------------------------------------------------------
# ideals and quotients


def test_ideal_in_two_points():
    A = functions_on_points(2)
    J = ideal_generated_by(A, [A.basis_vector(0)])
    assert J.dim == 1
    assert J.contains(A.basis_vector(0))
    assert not J.contains(A.basis_vector(1))


def test_matrix_algebra_is_simple():
    M2 = matrix_algebra(ground_field(), 2)
    J = ideal_generated_by(M2, [M2.basis_vector(0)])
    assert J.dim == 4


def test_ideal_of_x_in_truncated_cubic():
    A = truncated_polynomial(3)
    J = ideal_generated_by(A, [A.basis_vector(1)])
    assert J.dim == 2
    assert J.contains(A.basis_vector(2))
    assert not J.contains(A.basis_vector(0))


def test_absorption_is_checked():
    M2 = matrix_algebra(ground_field(), 2)
    with pytest.raises(ValidationError):
        two_sided_ideal(M2, [M2.basis_vector(0)])


def test_quotient_of_cubic_by_x_is_ground_field():
    A = truncated_polynomial(3)
    J = ideal_generated_by(A, [A.basis_vector(1)])
    q = quotient_algebra(A, J)
    assert q.algebra.dim == 1
    assert q.algebra.is_unital
    assert q.projection.apply(A.basis_vector(1)) == {}
    assert q.projection.apply(A.unit) == q.algebra.unit
    q.projection.validate()


def test_quotient_dimension_law():
    T = upper_triangular(2)
    J = ideal_generated_by(T, [T.basis_vector(1)])
    q = quotient_algebra(T, J)
    assert q.algebra.dim == T.dim - J.dim
    assert q.algebra.is_commutative()


def test_quotient_by_everything_rejected():
    M2 = matrix_algebra(ground_field(), 2)
    J = ideal_generated_by(M2, [M2.basis_vector(0)])
    with pytest.raises(ValidationError):
        quotient_algebra(M2, J)


def test_ideal_as_algebra_is_nonunital():
    A = truncated_polynomial(3)
    J = ideal_generated_by(A, [A.basis_vector(1)])
    JA, include = ideal_as_algebra(J)
    assert JA.dim == 2
    assert not JA.is_unital
    assert JA.validate().ok
    assert JA.name == (J.name or "J")
    assert not include.unital
    # the whole algebra, viewed as an ideal, still gets no unit
    whole, _ = ideal_as_algebra(ideal_generated_by(A, [A.unit]))
    assert whole.dim == 3 and not whole.is_unital
    # a subspace that is not closed under products is refused
    line = TwoSidedIdeal(A, Subspace.from_vectors(A.dim, A.field,
                                                  [A.basis_vector(1)]))
    with pytest.raises(ValidationError):
        ideal_as_algebra(line)
    x = JA.basis_vector(0)
    assert include.apply(JA.multiply(x, x)) == A.multiply(
        A.basis_vector(1), A.basis_vector(1))


# ---------------------------------------------------------------------------
# sums, unitalization, closure


def test_direct_sum_structure():
    data = direct_sum(truncated_polynomial(2), ground_field())
    C = data.algebra
    assert C.dim == 3
    assert C.is_unital
    left_x = data.include_left.apply({1: 1})
    right_1 = data.include_right.apply({0: 1})
    assert C.multiply(left_x, right_1) == {}
    assert data.project_left.apply(left_x) == {1: 1}
    assert data.project_right.apply(left_x) == {}
    data.project_left.validate()
    data.project_right.validate()


def test_unitalization_of_zero_multiplication_line():
    # multiply out (a + s)(b + t) with ab = 0: the result is dual numbers
    Z = FDAlgebra(1, 1, {}, labels=["x"])
    assert Z.validate().ok and not Z.is_unital
    data = unitalization(Z)
    P = data.algebra
    D = truncated_polynomial(2)
    assert P.dim == 2
    x = P.basis_vector(0)
    assert P.multiply(x, x) == {}
    assert P.unit == {1: 1}
    # same table as the dual numbers after swapping the basis order
    flip = {0: 1, 1: 0}
    for i in range(2):
        for j in range(2):
            expect = {flip[k]: c for k, c in D.mul[i][j].items()}
            assert P.mul[flip[i]][flip[j]] == expect
    data.include.validate()
    data.augmentation.validate()
    assert data.augmentation.apply(P.unit) == {0: 1}
    assert data.augmentation.apply(x) == {}
    # the maps ride on the one builder of A+, which hp calls alone
    assert adjoin_unit(Z).mul == P.mul and adjoin_unit(Z).unit == P.unit


def test_unitalization_of_unital_algebra_keeps_old_unit_inside():
    A = ground_field()
    P = unitalization(A).algebra
    assert P.dim == 2
    # the old unit is an idempotent but not the new unit
    e = P.basis_vector(0)
    assert P.multiply(e, e) == e
    assert P.unit == {1: 1}


def test_closure_of_x_in_cubic():
    A = truncated_polynomial(3)
    sub, include = subalgebra_closure(A, [A.basis_vector(1)])
    assert sub.dim == 2
    assert not sub.is_unital
    assert not include.unital
    assert sub.name == A.name + "_sub"
    include.validate()


def test_closure_with_unit_gives_everything():
    A = truncated_polynomial(3)
    sub, include = subalgebra_closure(A, [A.unit, A.basis_vector(1)])
    assert sub.dim == 3
    assert sub.is_unital
    assert include.unital
    assert include.apply(sub.unit) == A.unit


def test_closure_is_idempotent():
    A = matrix_algebra(ground_field(), 2)
    diag = [A.basis_vector(0), A.basis_vector(3)]
    sub, include = subalgebra_closure(A, diag)
    again, _ = subalgebra_closure(A, [include.apply(sub.basis_vector(i))
                                      for i in range(sub.dim)])
    assert again.dim == sub.dim == 2


def test_closure_overflow(monkeypatch):
    M2 = matrix_algebra(ground_field(), 2)
    monkeypatch.setattr(config, "DEFAULT_DIM_CAP", 3)
    with pytest.raises(ClosureOverflow):
        subalgebra_closure(M2, [M2.basis_vector(1), M2.basis_vector(2)])


# ---------------------------------------------------------------------------
# bimodules


def test_identity_twist_is_diagonal_bimodule():
    A = functions_on_points(2)
    plain = diagonal_bimodule(A)
    twisted = twisted_bimodule(A, AlgebraMap.identity(A))
    for i in range(A.dim):
        assert plain.right[i].equals(twisted.right[i])
    plain.validate()


def test_swap_twist_permutes_right_action():
    A = functions_on_points(2)
    swap = AlgebraMap.from_images(A, A, [{1: 1}, {0: 1}],
                                  multiplicative=True, unital=True)
    M = twisted_bimodule(A, swap)
    d0 = A.basis_vector(0)
    # d0 . d0 = d0 * swap(d0) = d0 * d1 = 0 and d0 . d1 = d0
    assert M.act_right(d0, 0) == {}
    assert M.act_right(d0, 1) == d0
    assert M.act_left(0, d0) == d0
    M.validate()


def test_sign_twist_on_dual_numbers():
    A = truncated_polynomial(2)
    sign = AlgebraMap.from_images(A, A, [{0: 1}, {1: -1}],
                                  multiplicative=True, unital=True)
    M = twisted_bimodule(A, sign)
    M.validate()
    x = A.basis_vector(1)
    unit = A.unit
    # (a.m).b = a.(m.b) spot check with a = x, m = 1, b = x
    lhs = M.act_right(M.act_left(1, unit), 1)
    rhs = M.act_left(1, M.act_right(unit, 1))
    assert lhs == rhs == {}
    assert M.act_right(unit, 1) == {1: -1}
    assert M.act_left(1, unit) == x


def _two_dimensional_bimodule(left, right):
    # a module of dimension 2 over Q x Q, given by the matrices by which
    # its two idempotents act on either side
    A = functions_on_points(2)
    return Bimodule(A, 2, [SparseMatrix.from_dense(m, A.field) for m in left],
                    [SparseMatrix.from_dense(m, A.field) for m in right])


_DIAGONAL = ([[1, 0], [0, 0]], [[0, 0], [0, 1]])
_IDENTITY = ([[1, 0], [0, 1]], [[1, 0], [0, 1]])
_ZERO = ([[0, 0], [0, 0]], [[0, 0], [0, 0]])
# a second complete pair of orthogonal idempotents, not diagonal
_SHEARED = ([[1, 1], [0, 0]], [[0, -1], [0, 1]])


@pytest.mark.parametrize("left, right, message", [
    (_IDENTITY, _DIAGONAL,
     "left action is not multiplicative at pair (0, 1)"),
    (_DIAGONAL, _IDENTITY,
     "right action does not reverse products at pair (0, 1)"),
    (_DIAGONAL, _SHEARED,
     "left and right actions fail to commute at pair (0, 0)"),
    (_ZERO, _DIAGONAL, "unit does not act as identity on the left"),
    (_DIAGONAL, _ZERO, "unit does not act as identity on the right"),
], ids=["left", "right", "commute", "left unit", "right unit"])
def test_bimodule_validation_names_the_failing_axiom(left, right, message):
    M = _two_dimensional_bimodule(left, right)
    with pytest.raises(ValidationError) as caught:
        M.validate()
    assert str(caught.value) == message
    assert _raised(lambda: _parent_bimodule_validate(M)) == \
        (ValidationError, message)


def test_bimodule_validation_accepts_either_pair_on_both_sides():
    _two_dimensional_bimodule(_DIAGONAL, _DIAGONAL).validate()
    _two_dimensional_bimodule(_SHEARED, _SHEARED).validate()


def test_twist_requires_automorphism():
    A = functions_on_points(2)
    bad = AlgebraMap.from_images(A, A, [{0: 1}, {0: 1}])
    with pytest.raises(NotAutomorphism):
        twisted_bimodule(A, bad)


# ---------------------------------------------------------------------------
# the validators against their parent routes in the field's arithmetic


def _parent_validate(A):
    """FDAlgebra.validate with every sum in the field's arithmetic, the
    route the native one replaced."""
    field = A.field
    messages = []
    failing = None
    for i in range(A.dim):
        for j in range(A.dim):
            p = A.mul[i][j]
            for k in range(A.dim):
                lhs = {}
                for t, c in p.items():
                    vec_axpy(lhs, c, A.mul[t][k], field)
                rhs = {}
                for t, c in A.mul[j][k].items():
                    vec_axpy(rhs, c, A.mul[i][t], field)
                if not vec_equal(lhs, rhs, field):
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
    if A.unit is not None and failing is None:
        unital = True
        for i in range(A.dim):
            e = A.basis_vector(i)
            if not vec_equal(A.multiply(A.unit, e), e, field):
                messages.append("unit fails on the left at basis %d" % i)
                failing = failing or (i, i, i)
                unital = False
                break
            if not vec_equal(A.multiply(e, A.unit), e, field):
                messages.append("unit fails on the right at basis %d" % i)
                failing = failing or (i, i, i)
                unital = False
                break
    return (not messages, unital, messages, failing)


def _parent_bimodule_validate(M):
    """Bimodule.validate on whole matrices: each action of a product as a
    sum of scaled matrices, against matmul, by SparseMatrix.equals."""
    A = M.algebra
    field = A.field

    def action_of(mats, vec):
        out = SparseMatrix(M.dim, M.dim, field)
        for i, c in vec.items():
            out = out.add(mats[i].scaled(c))
        return out

    for i in range(A.dim):
        for j in range(A.dim):
            if not action_of(M.left, A.mul[i][j]).equals(
                    M.left[i].matmul(M.left[j])):
                raise ValidationError(
                    "left action is not multiplicative at pair (%d, %d)"
                    % (i, j))
            if not action_of(M.right, A.mul[i][j]).equals(
                    M.right[j].matmul(M.right[i])):
                raise ValidationError(
                    "right action does not reverse products at pair "
                    "(%d, %d)" % (i, j))
            if not M.left[i].matmul(M.right[j]).equals(
                    M.right[j].matmul(M.left[i])):
                raise ValidationError(
                    "left and right actions fail to commute at pair "
                    "(%d, %d)" % (i, j))
    if A.is_unital:
        ident = SparseMatrix.identity(M.dim, field)
        if not action_of(M.left, A.unit).equals(ident):
            raise ValidationError("unit does not act as identity on the left")
        if not action_of(M.right, A.unit).equals(ident):
            raise ValidationError("unit does not act as identity on the right")


def _raised(call):
    try:
        call()
    except ValidationError as exc:
        return type(exc), str(exc)
    return None


def _rescaled(A, scales):
    """A on the basis s_i e_i, for nonzero raw scalars s_i: the constant
    of f_k in f_i f_j is s_i s_j c / s_k."""
    field = A.field
    inv = [field.inv(s) for s in scales]
    mul = {(i, j): {k: field.mul(field.mul(scales[i], scales[j]),
                                 field.mul(c, inv[k]))
                    for k, c in A.mul[i][j].items()}
           for i in range(A.dim) for j in range(A.dim)}
    unit = {k: field.mul(c, inv[k]) for k, c in A.unit.items()}
    return FDAlgebra(A.dim, A.field_order, mul, unit=unit).require_valid()


def _inner_twist(A, u):
    """The twisted bimodule of x -> e_u x e_u^-1 for a basis element e_u
    of a group algebra."""
    v = next(h for h in range(A.dim)
             if A.multiply(A.basis_vector(u), A.basis_vector(h)) == A.unit)
    images = [A.multiply(A.multiply(A.basis_vector(u), A.basis_vector(g)),
                         A.basis_vector(v)) for g in range(A.dim)]
    return twisted_bimodule(A, AlgebraMap.from_images(
        A, A, images, multiplicative=True, unital=True))


def _validation_corpus():
    QS3 = group_algebra(symmetric_group_3())
    zeta3 = field_of_order(3).zeta_pow[1]
    J = ideal_generated_by(truncated_polynomial(3), [{1: 1}])
    return {
        # over Q
        "Q": ground_field(),
        "points3": functions_on_points(3),
        "cubic": truncated_polynomial(3),
        "M2(Q)": matrix_algebra(ground_field(), 2),
        "U3": upper_triangular(3),
        "QZ3": group_algebra(cyclic_group(3)),
        "QS3": QS3,
        "QS3-scaled": _rescaled(QS3, [2, 3, 1, 1, Fraction(1, 6), 1]),
        "Q[x]/x^2 + M2(Q)": direct_sum(
            truncated_polynomial(2), matrix_algebra(ground_field(), 2)).algebra,
        "(x)": ideal_as_algebra(J)[0],
        # over Q(zeta_m), every constant rational
        "QZ5-zeta5": extend_scalars(group_algebra(cyclic_group(5)), 5),
        "QZ4-zeta4": group_algebra(cyclic_group(4), field_order=4),
        # over Q(zeta3), with irrational constants
        "QZ3-zeta3-scaled": _rescaled(
            group_algebra(cyclic_group(3), field_order=3),
            [field_of_order(3).one, zeta3, field_of_order(3).one]),
    }


def _perturbed_algebra(A, rng):
    """A copy of A with one structure constant moved by a random nonzero
    amount, rational or (over Q(zeta_m), half the time) not."""
    field = A.field
    i, j, k = (rng.randrange(A.dim) for _ in range(3))
    amount = field.from_rational(Fraction(rng.choice([-3, -1, 1, 2]),
                                          rng.randint(1, 3)))
    if field.order > 1 and rng.random() < 0.5:
        amount = field.mul(amount, field.zeta_pow[1])
    mul = {(a, b): dict(A.mul[a][b]) for a in range(A.dim)
           for b in range(A.dim)}
    mul[(i, j)][k] = field.add(mul[(i, j)].get(k, field.zero), amount)
    return FDAlgebra(A.dim, A.field_order, mul, unit=A.unit)


def _assert_validators_agree(A):
    report = A.validate()
    parent = _parent_validate(A)
    assert (report.ok, report.unital, report.messages,
            report.failing_triple) == parent
    assert _raised(A.require_valid) == (
        None if parent[0] else (ValidationError, parent[2][0]))


@pytest.mark.parametrize("name", sorted(_validation_corpus()))
def test_validate_matches_its_field_route(name):
    A = _validation_corpus()[name]
    _assert_validators_agree(A)
    rng = random.Random(name)
    refused = 0
    for _ in range(6):
        B = _perturbed_algebra(A, rng)
        _assert_validators_agree(B)
        refused += not B.validate().ok
    assert refused


def test_validate_takes_the_native_route_on_rational_constants():
    corpus = _validation_corpus()
    assert corpus["QZ5-zeta5"]._rational_constants
    assert not corpus["QZ3-zeta3-scaled"]._rational_constants
    assert any(type(c) is Fraction for row in corpus["QS3-scaled"].mul
               for entry in row for c in entry.values())


def _bimodule_corpus():
    corpus = _validation_corpus()
    out = {name: diagonal_bimodule(corpus[name])
           for name in ("points3", "cubic", "M2(Q)", "QS3", "QS3-scaled",
                        "(x)", "QZ5-zeta5", "QZ3-zeta3-scaled")}
    A = functions_on_points(2)
    out["points2 swapped"] = twisted_bimodule(A, AlgebraMap.from_images(
        A, A, [{1: 1}, {0: 1}], multiplicative=True, unital=True))
    out["QS3 conjugated"] = _inner_twist(corpus["QS3"], 1)
    out["QZ3 conjugated"] = _inner_twist(corpus["QZ3"], 1)
    return out


def _perturbed_bimodule(M, rng):
    """A copy of M with one entry of one action matrix moved by a random
    nonzero amount."""
    field = M.algebra.field
    sides = [list(M.left), list(M.right)]
    side, t = rng.randrange(2), rng.randrange(M.algebra.dim)
    r, c = rng.randrange(M.dim), rng.randrange(M.dim)
    amount = field.from_rational(Fraction(rng.choice([-2, -1, 1, 3]),
                                          rng.randint(1, 2)))
    rows = [dict(row) for row in sides[side][t].rows]
    total = field.add(rows[r].get(c, field.zero), amount)
    if field.is_zero(total):
        del rows[r][c]
    else:
        rows[r][c] = total
    sides[side][t] = SparseMatrix(M.dim, M.dim, field, rows=rows)
    return Bimodule(M.algebra, M.dim, *sides)


@pytest.mark.parametrize("name", sorted(_bimodule_corpus()))
def test_bimodule_validate_matches_its_matrix_route(name):
    M = _bimodule_corpus()[name]
    assert _raised(M.validate) is None
    assert _raised(lambda: _parent_bimodule_validate(M)) is None
    rng = random.Random(name)
    refused = 0
    for _ in range(4):
        B = _perturbed_bimodule(M, rng)
        got = _raised(B.validate)
        assert got == _raised(lambda: _parent_bimodule_validate(B))
        refused += got is not None
    assert refused


# ---------------------------------------------------------------------------
# malformed bimodules, maps and constructor arguments


def test_bimodule_with_too_few_actions_is_refused():
    A = functions_on_points(2)
    M = diagonal_bimodule(A)
    short = Bimodule(A, 2, M.left[:1], M.right)
    with pytest.raises(AmbientMismatch, match="needs 2 actions"):
        short.validate()
    with pytest.raises(AmbientMismatch, match="needs 2 actions"):
        hh_with_coefficients(A, Bimodule(A, 2, M.left, M.right[:1]), 1)


def test_bimodule_with_an_action_of_the_wrong_shape_is_refused():
    A = functions_on_points(2)
    M = diagonal_bimodule(A)
    wide = SparseMatrix(2, 3, A.field)
    with pytest.raises(AmbientMismatch, match="of shape 2 x 2"):
        Bimodule(A, 2, [M.left[0], wide], M.right).validate()


def test_bimodule_with_actions_over_another_field_is_refused():
    A = functions_on_points(2)
    M = diagonal_bimodule(A)
    over_i = diagonal_bimodule(functions_on_points(2, field_order=4))
    with pytest.raises(FieldMismatch, match="another field"):
        Bimodule(A, 2, M.left, over_i.right).validate()


def test_labels_must_match_the_dimension():
    with pytest.raises(ValidationError, match="expected 2 basis labels"):
        FDAlgebra(2, 1, {(0, 0): {0: 1}}, labels=["a"])


def test_map_matrix_shape_and_fields_are_checked():
    A, B = functions_on_points(2), functions_on_points(3)
    with pytest.raises(ValidationError, match="must be 3 x 2, got 2 x 2"):
        AlgebraMap(A, B, SparseMatrix.identity(2, A.field))
    C = functions_on_points(2, field_order=3)
    with pytest.raises(AmbientMismatch, match="different fields"):
        AlgebraMap(A, C, SparseMatrix.identity(2, A.field))


def test_compose_needs_matching_dimensions():
    A, B = functions_on_points(2), functions_on_points(3)
    f = AlgebraMap(A, A, SparseMatrix.identity(2, A.field))
    g = AlgebraMap(B, B, SparseMatrix.identity(3, B.field))
    with pytest.raises(AmbientMismatch, match="composition dimensions"):
        f.compose(g)


def test_unital_flag_checks_the_image_of_the_unit():
    # the projection of Q x Q onto its first factor, into Q x Q, is
    # multiplicative but sends the unit to the idempotent (1, 0)
    A = functions_on_points(2)
    first = AlgebraMap.from_images(A, A, [{0: 1}, {}],
                                   multiplicative=True, unital=True)
    with pytest.raises(NonUnital, match="does not send unit to unit"):
        first.validate()


def test_automorphism_and_inverse_refusals():
    A, B = functions_on_points(2), functions_on_points(2)
    across = AlgebraMap(A, B, SparseMatrix.identity(2, A.field))
    with pytest.raises(NotAutomorphism, match="to itself"):
        across.require_automorphism()
    collapse = AlgebraMap.from_images(A, A, [{0: 1}, {0: 1}])
    with pytest.raises(NotAutomorphism, match="not invertible"):
        collapse.inverse()


def test_ideal_refusals():
    A = truncated_polynomial(3)
    with pytest.raises(AmbientMismatch, match="wrong ambient dimension"):
        TwoSidedIdeal(A, Subspace.from_vectors(2, A.field, [{1: 1}]))
    # span{E12} in M2(Q): E21 E12 = E22 leaves it, first on the left
    M = matrix_algebra(ground_field(), 2)
    with pytest.raises(ValidationError, match="left absorption fails"):
        two_sided_ideal(M, [{1: 1}])
    other = two_sided_ideal(truncated_polynomial(3), [{2: 1}])
    with pytest.raises(AmbientMismatch, match="does not belong"):
        quotient_algebra(A, other)


def test_constructor_refusals():
    J = ideal_generated_by(truncated_polynomial(2), [{1: 1}])
    JA, _ = ideal_as_algebra(J)
    with pytest.raises(NonUnital, match="unital base"):
        matrix_algebra(JA, 2)
    with pytest.raises(AmbientMismatch, match="common scalar field"):
        direct_sum(ground_field(), ground_field(3))
    with pytest.raises(ValidationError, match="zero generators"):
        subalgebra_closure(truncated_polynomial(2), [])
