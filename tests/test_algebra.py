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
    ClosureOverflow,
    NotAutomorphism,
    NotMultiplicative,
    NonUnital,
    SizeOverflow,
    ValidationError,
)
from cychom.groups import cyclic_group, group_algebra
from cychom.linalg import SparseMatrix, Subspace, to_raw
from cychom.scalars import Cyclotomic, field_of_order


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
    with pytest.raises(ValidationError) as caught:
        _two_dimensional_bimodule(left, right).validate()
    assert str(caught.value) == message


def test_bimodule_validation_accepts_either_pair_on_both_sides():
    _two_dimensional_bimodule(_DIAGONAL, _DIAGONAL).validate()
    _two_dimensional_bimodule(_SHEARED, _SHEARED).validate()


def test_twist_requires_automorphism():
    A = functions_on_points(2)
    bad = AlgebraMap.from_images(A, A, [{0: 1}, {0: 1}])
    with pytest.raises(NotAutomorphism):
        twisted_bimodule(A, bad)
