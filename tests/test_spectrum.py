"""Spectra: blocks, central characters, filtrations, page one, morphisms."""

import itertools
import math
from fractions import Fraction

import pytest

from cychom.algebra import (
    AlgebraMap,
    FDAlgebra,
    direct_sum,
    functions_on_points,
    ground_field,
    ideal_as_algebra,
    matrix_algebra,
    truncated_polynomial,
    two_sided_ideal,
    upper_triangular,
)
from cychom import config, spectrum, structure
from cychom.cyclic import hc
from cychom.errors import (
    AmbientMismatch,
    FiltrationNotRespected,
    NonUnital,
    SplittingFieldTooLarge,
    ValidationError,
)
from cychom.crossprod import variety_crossed_product
from cychom.groups import (
    FiniteVarietyAction,
    cyclic_group,
    dihedral_group_4,
    group_algebra,
    group_metadata,
    quaternion_group,
    symmetric_group_3,
)
from cychom.hochschild import hh
from cychom.linalg import SparseMatrix, Subspace, add_term, vec_add, \
    vec_axpy, vec_equal, vec_sub
from cychom.scalars import divisors, field_of_order, lift_raw
from cychom.spectrum import (
    IdealFiltration,
    abelian_filtration_report,
    central_character,
    extend_scalars,
    intersect_subspaces,
    spectral_e1,
    spectrum_preserving_check,
    standard_filtration,
    weakly_spectrum_preserving_check,
    wedderburn_blocks,
)
from cychom.structure import _cofactor, _minimal_polynomial, \
    _rational_root_candidates, _root_factors, _span_identity, _split_unit, \
    _vanishes_at, block_idempotents, center, is_nilpotent_subspace, \
    jacobson_radical, split_idempotents


def algebra_corpus():
    return [
        ("ground", ground_field()),
        ("points2", functions_on_points(2)),
        ("points3", functions_on_points(3)),
        ("points5", functions_on_points(5)),
        ("dual", truncated_polynomial(2)),
        ("cubic", truncated_polynomial(3)),
        ("matrix2", matrix_algebra(ground_field(), 2)),
        ("upper2", upper_triangular(2)),
        ("QZ2", group_algebra(cyclic_group(2))),
        ("QZ3", group_algebra(cyclic_group(3))),
        ("QZ4", group_algebra(cyclic_group(4))),
        ("QS3", group_algebra(symmetric_group_3())),
        ("QD4", group_algebra(dihedral_group_4())),
        ("QQ8", group_algebra(quaternion_group())),
    ]


def vec_key(vec, field):
    return tuple(sorted((k, tuple(field.to_coeffs(c)))
                        for k, c in vec.items()))


def grid_search_center_atoms(A, denominator):
    """Independent block count: enumerate idempotents of the center.

    Every coordinate of a central idempotent of a group algebra of order
    n lies in (1/n)Z with absolute value at most 1, so a finite grid is
    exhaustive.  Solutions of e*e = e are collected exactly and the
    minimal nonzero ones are returned.  Completeness is certified inside:
    the atoms must be pairwise orthogonal and sum to the unit, which
    fails if the grid missed a primitive idempotent.  Only the
    multiplication table is used, nothing from the splitting machinery.
    """
    field = A.field
    central = center(A)
    prods = [[[coords.get(k, field.zero) for k in range(central.dim)]
              for coords in (central.coords(A.multiply(u, v))
                             for v in central.basis)]
             for u in central.basis]
    values = [Fraction(k, denominator)
              for k in range(-denominator, denominator + 1)]
    idems = []
    for combo in itertools.product(values, repeat=central.dim):
        square = [Fraction(0)] * central.dim
        for i, ci in enumerate(combo):
            if not ci:
                continue
            for j, cj in enumerate(combo):
                if not cj:
                    continue
                for t, val in enumerate(prods[i][j]):
                    square[t] += ci * cj * val
        if any(combo) and list(combo) == square:
            idem = {}
            for c, row in zip(combo, central.basis):
                vec_axpy(idem, field.from_rational(c), row, field)
            idems.append(idem)
    def divides(e, f):
        prod = A.multiply(e, f)
        diff = dict(prod)
        for k, c in f.items():
            diff[k] = field.sub(diff.get(k, field.zero), c)
        return all(field.is_zero(c) for c in diff.values())
    atoms = [e for e in idems
             if not any(f is not e and divides(e, f) for f in idems)]
    total = {}
    for e in atoms:
        for k, c in e.items():
            total[k] = field.add(total.get(k, field.zero), c)
    unit = dict(A.unit)
    assert all(field.is_zero(field.sub(total.get(k, field.zero),
                                       unit.get(k, field.zero)))
               for k in set(total) | set(unit))
    for e, f in itertools.combinations(atoms, 2):
        assert all(field.is_zero(c) for c in A.multiply(e, f).values())
    return atoms


def cyclic_character_idempotents(n):
    """The n averaging idempotents of a cyclic group algebra, by formula."""
    field = field_of_order(n)
    out = []
    for j in range(n):
        vec = {}
        for k in range(n):
            coeff = field.scale(field.zeta_pow[(-j * k) % n], Fraction(1, n))
            vec[k] = coeff
        out.append({k: c for k, c in vec.items() if not field.is_zero(c)})
    return out


# -- the radical on the three reference algebras ----------------------------------


def test_radical_of_matrix_algebra_is_zero():
    assert jacobson_radical(matrix_algebra(ground_field(), 2)).dim == 0


def test_radical_of_cubic_is_the_nilpotent_span():
    A = truncated_polynomial(3)
    rad = jacobson_radical(A)
    assert rad.dim == 2
    one = A.field.one
    assert rad.contains({1: one})
    assert rad.contains({2: one})
    assert not rad.contains({0: one})
    # the ideal (x) as a nonunital algebra is its own radical
    ideal = ideal_as_algebra(two_sided_ideal(A, [{1: one}, {2: one}]))[0]
    assert not ideal.is_unital
    assert jacobson_radical(ideal).dim == 2


def test_radical_of_upper_triangular_is_the_strict_part():
    A = upper_triangular(2)
    rad = jacobson_radical(A)
    assert rad.dim == 1
    assert rad.contains({A.labels.index("E12"): A.field.one})
    # so does its nonunital subalgebra span{E11, E12}, where E11 is a left
    # unit and nothing is a right one
    rad = jacobson_radical(FDAlgebra(2, 1, {(0, 0): {0: 1}, (0, 1): {1: 1}},
                                     labels=["E11", "E12"]))
    assert rad.dim == 1
    assert rad.contains({1: 1})


# -- block decompositions ----------------------------------------------------------


def test_blocks_of_s3_match_the_grid_search():
    A = group_algebra(symmetric_group_3())
    atoms = grid_search_center_atoms(A, denominator=6)
    report = wedderburn_blocks(A)
    assert report.field_order == 1
    assert sorted(report.sizes) == [1, 1, 2]
    assert len(atoms) == len(report.blocks) == 3
    field = A.field
    found = {vec_key(b.idempotent, field) for b in report.blocks}
    assert found == {vec_key(e, field) for e in atoms}


def test_blocks_of_three_groups_are_unchanged():
    # the split step is shared with block_idempotents; the reports keep
    # their idempotents, in order
    F = Fraction
    s, t = F(1, 6), F(1, 8)
    expected = {
        "S3": [{0: s, 1: -s, 2: -s, 3: -s, 4: s, 5: s},
               {0: s, 1: s, 2: s, 3: s, 4: s, 5: s},
               {0: F(2, 3), 4: F(-1, 3), 5: F(-1, 3)}],
        "D4": [{0: t, 1: -t, 2: t, 3: -t, 4: -t, 5: t, 6: -t, 7: t},
               {0: t, 1: -t, 2: t, 3: -t, 4: t, 5: -t, 6: t, 7: -t},
               {0: t, 1: t, 2: t, 3: t, 4: -t, 5: -t, 6: -t, 7: -t},
               {k: t for k in range(8)},
               {0: F(1, 2), 2: F(-1, 2)}],
    }
    for G, sizes in ((symmetric_group_3(), (1, 1, 2)),
                     (dihedral_group_4(), (1, 1, 1, 1, 2))):
        report = wedderburn_blocks(group_algebra(G))
        assert (report.field_order, report.sizes) == (1, sizes)
        assert [b.idempotent for b in report.blocks] == expected[G.name]
    report = wedderburn_blocks(group_algebra(cyclic_group(5)))
    assert (report.field_order, report.sizes) == (5, (1,) * 5)
    field = report.algebra.field
    assert {vec_key(b.idempotent, field) for b in report.blocks} == \
        {vec_key(e, field) for e in cyclic_character_idempotents(5)}


@pytest.mark.parametrize("A, count", [
    (group_algebra(symmetric_group_3()), 3),
    (group_algebra(cyclic_group(5)), 2),
    (extend_scalars(group_algebra(cyclic_group(5)), 5), 5),
    (truncated_polynomial(3), 1),
    (upper_triangular(2), 1),
    # Q[Z4] = Q + Q + Q(i)
    (group_algebra(cyclic_group(4)), 3),
], ids=["QS3", "QZ5", "QZ5-zeta5", "cubic", "upper2", "QZ4"])
def test_block_idempotents_cut_the_unit(A, count):
    field = A.field
    blocks = block_idempotents(A)
    assert len(blocks) == count
    total = {}
    for i, e in enumerate(blocks):
        for j, f in enumerate(blocks):
            assert vec_equal(A.multiply(e, f), e if i == j else {}, field)
        assert A.left_mult_matrix(e).equals(A.right_mult_matrix(e))
        total = vec_add(total, e, field)
    assert vec_equal(total, A.unit, field)


def _t_squared_t_minus_one():
    # Q[t]/t^2(t - 1) on the basis t, t^2, 1: the radical is spanned by
    # t - t^2, so t is the idempotent t^2 up to a nilpotent, and the lift
    # 3t^2 - 2t^3 takes it to t^2
    return FDAlgebra(3, 1, {(0, 0): {1: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
                            (1, 1): {1: 1}, (2, 0): {0: 1}, (0, 2): {0: 1},
                            (2, 1): {1: 1}, (1, 2): {1: 1}, (2, 2): {2: 1}},
                     unit={2: 1}).require_valid()


def _rebased_upper_triangular():
    # upper_triangular(3) on the basis E12 + E33, E11, E12, E13, E22, E23
    U = upper_triangular(3)
    basis = [{1: 1, 5: 1}] + [U.basis_vector(k) for k in range(5)]
    back = SparseMatrix.from_columns(basis, 6, U.field).inverse()
    mul = {(i, j): back.mat_vec(U.multiply(u, v))
           for i, u in enumerate(basis) for j, v in enumerate(basis)}
    return FDAlgebra(6, 1, mul, unit=back.mat_vec(U.unit)).require_valid()


def test_block_idempotents_lift_through_the_radical():
    # Q[x]/x^3 + Q + Q(zeta_5): the center has a radical, and the lifted
    # idempotents are the units of the summands
    A = direct_sum(truncated_polynomial(3),
                   direct_sum(ground_field(),
                              group_algebra(cyclic_group(5))).algebra).algebra
    blocks = block_idempotents(A)
    assert len(blocks) == 4
    assert sorted(A.left_mult_matrix(e).rank() for e in blocks) == [1, 1, 3, 4]
    B = _t_squared_t_minus_one()
    blocks = block_idempotents(B)
    assert {vec_key(e, B.field) for e in blocks} == \
        {vec_key({1: 1}, B.field), vec_key({1: -1, 2: 1}, B.field)}
    assert hh(B, 3).dims == hh(B, 3, normalized=False).dims
    with pytest.raises(NonUnital):
        block_idempotents(ideal_as_algebra(
            two_sided_ideal(truncated_polynomial(2), [{1: 1}]))[0])


def test_block_idempotents_are_unchanged():
    # pinned in order, like the wedderburn_blocks idempotents above
    F = Fraction
    s, f = F(1, 6), F(1, 5)
    A = group_algebra(symmetric_group_3())
    assert block_idempotents(A) == [
        {0: F(2, 3), 4: F(-1, 3), 5: F(-1, 3)},
        {0: s, 1: s, 2: s, 3: s, 4: s, 5: s},
        {0: s, 1: -s, 2: -s, 3: -s, 4: s, 5: s}]
    # Q[x]/x^3 + Q + QZ5 on the basis 1, x, x^2 | 1 | e, g, ..., g^4
    B = direct_sum(truncated_polynomial(3),
                   direct_sum(ground_field(),
                              group_algebra(cyclic_group(5))).algebra).algebra
    assert block_idempotents(B) == [
        {k: f for k in range(4, 9)},
        {4: 4 * f, 5: -f, 6: -f, 7: -f, 8: -f},
        {3: 1},
        {0: 1}]


def test_split_idempotents_are_unchanged():
    # block_idempotents, then split_idempotents, pinned in order
    F = Fraction
    h, t, s = F(1, 2), F(1, 3), F(1, 6)
    cases = [
        (group_algebra(symmetric_group_3()),
         [{0: 2 * t, 4: -t, 5: -t}, {k: s for k in range(6)},
          {0: s, 1: -s, 2: -s, 3: -s, 4: s, 5: s}],
         [{0: t, 1: t, 2: -s, 3: -s, 4: -s, 5: -s},
          {0: t, 1: -t, 2: s, 3: s, 4: -s, 5: -s},
          {k: s for k in range(6)},
          {0: s, 1: -s, 2: -s, 3: -s, 4: s, 5: s}]),
        (direct_sum(truncated_polynomial(3),
                    matrix_algebra(ground_field(), 2)).algebra,
         [{3: 1, 6: 1}, {0: 1}], [{6: 1}, {3: 1}, {0: 1}]),
        (matrix_algebra(truncated_polynomial(2), 2),
         [{0: 1, 6: 1}], [{6: 1}, {0: 1}]),
        (_t_squared_t_minus_one(),
         [{1: -1, 2: 1}, {1: 1}], [{1: -1, 2: 1}, {1: 1}]),
        # the largest point-action crossed product, C(3) x S3
        (_point_action_product(
            symmetric_group_3(), [(0, 1, 2), (1, 0, 2), (2, 1, 0),
                                  (0, 2, 1), (1, 2, 0), (2, 0, 1)]),
         [{0: h, 1: h, 2: h, 5: h, 7: h, 9: h},
          {0: h, 1: h, 2: h, 5: -h, 7: -h, 9: -h}],
         [{2: h, 5: h}, {1: h, 7: h}, {0: h, 9: h},
          {2: h, 5: -h}, {1: h, 7: -h}, {0: h, 9: -h}]),
    ]
    for A, blocks, idems in cases:
        assert block_idempotents(A) == blocks
        assert split_idempotents(A) == idems


def test_split_idempotents_over_q_keep_integral_values_as_ints():
    A = direct_sum(truncated_polynomial(3),
                   matrix_algebra(ground_field(), 2)).algebra
    assert all(type(v) is int for e in split_idempotents(A)
               for v in e.values())


def test_a_non_central_cut_lifts_its_pieces():
    # E12 + E33 has minimal polynomial t^2 (t - 1), so the cut of the unit
    # along it reads the piece of the root 0 off q = t - 1 as
    # E11 + E22 - E12, which only the lift makes idempotent
    A = _rebased_upper_triangular()
    poly, _ = _minimal_polynomial(A, A.unit, A.basis_vector(0))
    assert poly == [0, 0, -1, 1]
    # E22, E11 and E33 = (E12 + E33) - E12
    assert split_idempotents(A) == [{4: 1}, {1: 1}, {0: 1, 2: -1}]
    assert block_idempotents(A) == [A.unit]


def test_minimal_polynomial_of_an_element():
    A = group_algebra(cyclic_group(5))
    poly, powers = _minimal_polynomial(A, A.unit, A.basis_vector(1))
    assert poly == [-1, 0, 0, 0, 0, 1]
    assert powers == [A.basis_vector(k) for k in range(5)]
    T = truncated_polynomial(3)
    poly, powers = _minimal_polynomial(T, T.unit, T.basis_vector(1))
    assert poly == [0, 0, 0, 1]
    assert powers == [T.basis_vector(k) for k in range(3)]


# -- the parent routes of the split, kept as oracles --------------------------

def _add_term_multiply(A, u, v):
    """FDAlgebra.multiply term by term through add_term, testing each
    product of entries for zero."""
    field = A.field
    out = {}
    for i, a in u.items():
        for j, b in v.items():
            c = field.mul(a, b)
            if field.is_zero(c):
                continue
            for k, s in A.mul[i][j].items():
                add_term(out, k, c if s == field.one else field.mul(c, s),
                         field)
    return out


def _solve_per_power_minimal_polynomial(A, e, x):
    """_minimal_polynomial by a fresh solve against e, x, .., x^(k-1) for
    each new power x^k."""
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
        power = _add_term_multiply(A, power, x)


def _every_candidate_root_factors(poly, field):
    """_root_factors with _cofactor run in the field on every rational
    candidate, found on the Fraction slot polynomial."""
    m = field.order
    found, seen = [], set()
    for k in range(max(m, 1)):
        subbed = [field.mul(c, field.zeta_pow[(k * i) % m])
                  for i, c in enumerate(poly)] if m > 1 else list(poly)
        lead = field.to_coeffs(subbed[-1])
        slot = next(i for i, c in enumerate(lead) if c)
        coeffs = [Fraction(field.to_coeffs(c)[slot]) for c in subbed]
        scale = math.lcm(*[f.denominator for f in coeffs])
        ints = [int(f * scale) for f in coeffs]
        low = next(i for i, c in enumerate(ints) if c)
        candidates = [Fraction(0)] if low > 0 else []
        for p in divisors(ints[low]):
            for q in divisors(ints[-1]):
                candidates += [Fraction(p, q), Fraction(-p, q)]
        for r in candidates:
            root = field.scale(field.zeta_pow[k], r) if m > 1 \
                else field.from_rational(r)
            key = tuple(field.to_coeffs(root))
            if key in seen:
                continue
            factor = _cofactor(poly, root, field)
            if factor[1]:
                seen.add(key)
                found.append(factor)
    return found


def _stacked_center(A):
    """center from the stacked matrices L_b - R_b of the basis vectors."""
    field = A.field
    rows = []
    for b in range(A.dim):
        diff = SparseMatrix.from_columns(
            [vec_sub(A.multiply({b: field.one}, {i: field.one}),
                     A.multiply({i: field.one}, {b: field.one}), field)
             for i in range(A.dim)], A.dim, field)
        rows += [row for row in diff.rows if row]
    kernel = SparseMatrix(len(rows), A.dim, field, rows=rows).kernel_basis()
    return Subspace.from_vectors(A.dim, field, kernel)


def _matrix_trace(A, w):
    """tr(L_w R_w), the diagonal of the product of the two multiplication
    matrices."""
    field = A.field
    product = A.left_mult_matrix(w).matmul(A.right_mult_matrix(w))
    total = field.zero
    for i, row in enumerate(product.rows):
        if i in row:
            total = field.add(total, row[i])
    return total


def _scaled_group_algebra():
    """QS3 on the basis 2e, 3g_1, g_2, .., so its structure constants and
    its unit are Fractions."""
    A = group_algebra(symmetric_group_3())
    scales = [2, 3, 1, 1, 6, 1]
    mul = {(i, j): {k: Fraction(s * scales[i] * scales[j], scales[k])
                    for k, s in A.mul[i][j].items()}
           for i in range(A.dim) for j in range(A.dim)}
    unit = {k: Fraction(c, scales[k]) for k, c in A.unit.items()}
    return FDAlgebra(A.dim, 1, mul, unit=unit).require_valid()


def _twisted_cubic():
    """Q(zeta3)[x]/x^3 on the basis 1, zeta3 x, x^2, so that
    (zeta3 x)^2 = zeta3^2 x^2 has an irrational structure constant."""
    zeta_squared = field_of_order(3).zeta_pow[2]
    mul = {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (1, 0): {1: 1},
           (2, 0): {2: 1}, (1, 1): {2: zeta_squared}}
    return FDAlgebra(3, 3, mul, unit={0: 1}).require_valid()


def _multiply_route(A, u, v):
    """Which route of FDAlgebra.multiply the product u v takes."""
    if A.field.order > 1 and any(any(s[1:]) for row in A.mul
                                 for entry in row for s in entry.values()):
        return "irrational constants"
    if A.field.order > 1 and any(any(e[1:]) for w in (u, v)
                                 for e in w.values()):
        return "irrational operands"
    return "rational"


# the routes of FDAlgebra.multiply that a case's products must reach
MULTIPLY_ROUTES = {
    "QS3": {"rational"},
    "QS3-zeta3": {"rational"},
    "QZ5-zeta5": {"rational", "irrational operands"},
    "x3-zeta3": {"irrational constants"},
}


@pytest.mark.parametrize("build", [
    lambda: group_algebra(symmetric_group_3()),
    lambda: group_algebra(dihedral_group_4()),
    lambda: group_algebra(quaternion_group()),
    lambda: group_algebra(cyclic_group(4)),
    lambda: group_algebra(cyclic_group(5)),
    lambda: matrix_algebra(truncated_polynomial(2), 2),
    lambda: upper_triangular(3),
    _rebased_upper_triangular,
    _t_squared_t_minus_one,
    _scaled_group_algebra,
    lambda: extend_scalars(group_algebra(symmetric_group_3()), 3),
    lambda: extend_scalars(group_algebra(cyclic_group(3)), 3),
    lambda: extend_scalars(group_algebra(cyclic_group(4)), 4),
    lambda: extend_scalars(group_algebra(dihedral_group_4()), 4),
    lambda: extend_scalars(group_algebra(cyclic_group(5)), 5),
    _twisted_cubic,
], ids=["QS3", "QD4", "QQ8", "QZ4", "QZ5", "M2(T2)", "U3", "U3-rebased",
        "t2(t-1)", "QS3-scaled", "QS3-zeta3", "QZ3-zeta3", "QZ4-zeta4",
        "QD4-zeta4", "QZ5-zeta5", "x3-zeta3"])
def test_the_split_matches_its_parent_routes(build, monkeypatch, request):
    # every minimal polynomial, root search, primitivity trace and product
    # that hh's split and set-up meet, against the solve per power,
    # _cofactor on every candidate, tr(L_w R_w) and the add_term product,
    # and the center against the stacked L_b - R_b; the first two and the
    # center also keep the raw rule (an int where a rational is integral),
    # so repr must agree, and so must the products on their rational route:
    # over Q the values, over Q(zeta_m) the first coefficients, the others
    # an int 0
    A = build()
    cuts, polys, products, traced = [], [], [], []
    minimal_polynomial, root_factors, corner_trace = \
        structure._minimal_polynomial, structure._root_factors, \
        structure._corner_trace

    def spy_cut(A, e, x):
        cuts.append((e, x))
        return minimal_polynomial(A, e, x)

    def spy_roots(poly, field):
        polys.append(poly)
        return root_factors(poly, field)

    def spy_trace(A, w):
        traced.append(w)
        return corner_trace(A, w)

    def spy_product(u, v):
        products.append((u, v))
        return FDAlgebra.multiply(A, u, v)

    monkeypatch.setattr(structure, "_minimal_polynomial", spy_cut)
    monkeypatch.setattr(structure, "_root_factors", spy_roots)
    monkeypatch.setattr(structure, "_corner_trace", spy_trace)
    monkeypatch.setattr(A, "multiply", spy_product)
    block_idempotents(A)
    hh(A, 1)
    monkeypatch.undo()
    assert cuts and products and traced
    new, stacked = center(A), _stacked_center(A)
    assert new.pivot_cols == stacked.pivot_cols
    assert repr([sorted(v.items()) for v in new.basis]) == \
        repr([sorted(v.items()) for v in stacked.basis])
    for w in traced:
        assert corner_trace(A, w) == _matrix_trace(A, w)
    for e, x in cuts:
        assert repr(_minimal_polynomial(A, e, x)) == \
            repr(_solve_per_power_minimal_polynomial(A, e, x))
    for poly in polys:
        assert repr(_root_factors(poly, A.field)) == \
            repr(_every_candidate_root_factors(poly, A.field))
    routes = set()
    for u, v in products:
        got, parent = A.multiply(u, v), _add_term_multiply(A, u, v)
        assert got == parent
        route = _multiply_route(A, u, v)
        routes.add(route)
        if route != "rational":
            continue
        if A.field.order > 1:
            assert all(type(c) is int and c == 0
                       for e in got.values() for c in e[1:])
            got = {k: e[0] for k, e in got.items()}
            parent = {k: e[0] for k, e in parent.items()}
        assert repr(sorted(got.items())) == repr(sorted(parent.items()))
    assert MULTIPLY_ROUTES.get(request.node.callspec.id, set()) <= routes


def test_the_root_pre_test_reads_the_slot_on_ints():
    # t^3 - 7/2 t^2 + 7/2 t - 1 = (t - 1)(t - 2)(t - 1/2), cleared to
    # 2t^3 - 7t^2 + 7t - 2
    ints = [-2, 7, -7, 2]
    roots = {Fraction(p, q) for p, q in _rational_root_candidates(ints)
             if _vanishes_at(ints, p, q)}
    assert roots == {1, 2, Fraction(1, 2)}
    # 0 is a candidate only when the constant term vanishes
    assert (0, 1) in _rational_root_candidates([0, -1, 1])
    assert (0, 1) not in _rational_root_candidates(ints)
    field = field_of_order(1)
    poly = [-1, Fraction(7, 2), Fraction(-7, 2), 1]
    # the roots 1, 1/2 and 2 in candidate order, with the values q(lam)
    assert [(k, value) for _, k, value in _root_factors(poly, field)] == [
        (1, Fraction(-1, 2)), (1, Fraction(3, 4)), (1, Fraction(3, 2))]


def test_root_factors_match_every_candidate_through_cofactor(monkeypatch):
    # every minimal polynomial wedderburn_blocks meets on the oracle
    # corpus, at its own field and, lifted, at every order 1 .. 12 that
    # contains it: the same roots, in the same order, with the same
    # cofactors, multiplicities and values
    met = []
    root_factors = structure._root_factors

    def spy(poly, field):
        met.append((poly, field))
        return root_factors(poly, field)

    monkeypatch.setattr(structure, "_root_factors", spy)
    for _, A in _oracle_corpus():
        wedderburn_blocks(A)
    monkeypatch.undo()
    assert {field.order for _, field in met} == {1, 3, 4, 5}
    cases = set()
    for poly, field in met:
        for m in range(1, 13):
            if m % field.order == 0:
                target = field_of_order(m)
                cases.add((tuple(lift_raw(c, field, target) for c in poly), m))
    for poly, m in sorted(cases, key=repr):
        field = field_of_order(m)
        assert repr(_root_factors(list(poly), field)) == \
            repr(_every_candidate_root_factors(list(poly), field))


def test_cofactor_runs_only_at_the_roots(monkeypatch):
    # wedderburn_blocks(QZ5) searches orders 1, 3, 4 and 5; every slot of
    # p(zeta^k t) must vanish at a candidate before _cofactor sees it
    calls = []
    cofactor = structure._cofactor

    def counted(poly, lam, field):
        calls.append(lam)
        return cofactor(poly, lam, field)

    monkeypatch.setattr(structure, "_cofactor", counted)
    wedderburn_blocks(group_algebra(cyclic_group(5)))
    assert len(calls) == 17


def test_split_unit_of_qz4_leaves_the_gaussian_piece():
    # Q[Z4] = Q + Q + Q(i): the Q(i) piece cannot be cut over Q, so a
    # complete split fails and a partial one keeps it whole
    A = group_algebra(cyclic_group(4))
    candidates = center(A).basis
    assert _split_unit(A, candidates, complete=True) is None
    q, h = Fraction(1, 4), Fraction(1, 2)
    assert _split_unit(A, candidates, complete=False) == [
        {0: q, 1: q, 2: q, 3: q}, {0: q, 1: -q, 2: q, 3: -q}, {0: h, 2: -h}]


def test_the_trace_test_takes_the_trivial_idempotent_of_qz5_as_primitive(
        monkeypatch):
    # (1/5) sum g has dim eAe = 1, read off the cleared 5e as a trace of
    # 5^2, so the split never reads a minimal polynomial inside it
    A = group_algebra(cyclic_group(5))
    trivial = {g: Fraction(1, 5) for g in range(5)}
    cut = []

    def spy(A, e, x):
        cut.append(e)
        return _minimal_polynomial(A, e, x)

    monkeypatch.setattr(structure, "_minimal_polynomial", spy)
    idems = split_idempotents(A)
    assert idems[0] == trivial and len(idems) == 2
    assert A.unit in cut and idems[1] in cut
    assert trivial not in cut


def test_nilpotency_of_a_subspace_of_another_ambient_is_refused():
    A = truncated_polynomial(3)
    space = Subspace.from_vectors(5, A.field, [{4: 1}])
    with pytest.raises(AmbientMismatch, match="5 coordinates"):
        is_nilpotent_subspace(A, space)
    assert is_nilpotent_subspace(A, jacobson_radical(A).space)


def test_a_subspace_holding_an_idempotent_is_not_nilpotent():
    # the unit of Q[x]/x^2 squares to itself, so its span never shrinks;
    # the span of x dies after one product, and the zero space at once
    A = truncated_polynomial(2)
    for vectors, nilpotent in (([A.unit], False), ([{0: 1, 1: 1}], False),
                               ([{1: 1}], True), ([], True)):
        space = Subspace.from_vectors(A.dim, A.field, vectors)
        assert is_nilpotent_subspace(A, space) is nilpotent


def _whole_basis(A):
    return [A.basis_vector(i) for i in range(A.dim)]


def test_span_identity_finds_the_unit_of_a_block_ideal():
    A = group_algebra(symmetric_group_3())
    for e in block_idempotents(A):
        ideal = two_sided_ideal(
            A, [A.multiply(e, x) for x in _whole_basis(A)])
        sub, inclusion = ideal_as_algebra(ideal)
        assert not sub.is_unital
        unit = _span_identity(sub, _whole_basis(sub))
        assert vec_equal(inclusion.apply(unit), e, A.field)


def test_span_identity_is_none_on_a_nilpotent_algebra():
    radical = ideal_as_algebra(jacobson_radical(truncated_polynomial(3)))[0]
    assert radical.dim == 2
    assert _span_identity(radical, _whole_basis(radical)) is None


def _point_action_product(group, perms):
    act = FiniteVarietyAction(group, 3, perms)
    return variety_crossed_product(act).product


@pytest.mark.parametrize("build, count", [
    (lambda: group_algebra(symmetric_group_3()), 4),
    (lambda: extend_scalars(group_algebra(symmetric_group_3()), 3), 4),
    # C(3) x Z/3 = M_3(Q) and C(3) x S3 = M_3(Q) + M_3(Q)
    (lambda: _point_action_product(
        cyclic_group(3), [(0, 1, 2), (1, 2, 0), (2, 0, 1)]), 3),
    (lambda: _point_action_product(
        symmetric_group_3(), [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1),
                              (1, 2, 0), (2, 0, 1)]), 6),
    # the Q(zeta5) block stays whole
    (lambda: group_algebra(cyclic_group(5)), 2),
    (lambda: truncated_polynomial(3), 1),
    # a block with a radical next to M_2(Q)
    (lambda: direct_sum(truncated_polynomial(3),
                        matrix_algebra(ground_field(), 2)).algebra, 3),
    (lambda: upper_triangular(2), 2),
], ids=["QS3", "QS3-zeta3", "rot3", "s3nat", "QZ5", "cubic", "radical",
        "upper2"])
def test_split_idempotents_refine_the_blocks(build, count):
    A = build()
    field = A.field
    idems = split_idempotents(A)
    assert len(idems) == count
    total = {}
    for i, e in enumerate(idems):
        assert e
        for j, f in enumerate(idems):
            assert vec_equal(A.multiply(e, f), e if i == j else {}, field)
        total = vec_add(total, e, field)
    assert vec_equal(total, A.unit, field)
    # each idempotent lies under one block, and those under a block sum
    # to it
    for b in block_idempotents(A):
        under = [e for e in idems if vec_equal(A.multiply(b, e), e, field)]
        assert all(not A.multiply(b, e) for e in idems if e not in under)
        part = {}
        for e in under:
            part = vec_add(part, e, field)
        assert vec_equal(part, b, field)


def test_blocks_of_z4_are_the_character_averages():
    report = wedderburn_blocks(group_algebra(cyclic_group(4)))
    assert report.field_order == 4
    assert report.sizes == (1, 1, 1, 1)
    field = report.algebra.field
    found = {vec_key(b.idempotent, field) for b in report.blocks}
    expected = {vec_key(e, field) for e in cyclic_character_idempotents(4)}
    assert found == expected


def test_blocks_of_z4_over_its_splitting_field_directly():
    report = wedderburn_blocks(group_algebra(cyclic_group(4), field_order=4))
    assert report.field_order == 4
    assert report.sizes == (1, 1, 1, 1)


def test_blocks_of_z3_need_the_cubic_extension():
    report = wedderburn_blocks(group_algebra(cyclic_group(3)))
    assert report.field_order == 3
    assert report.sizes == (1, 1, 1)
    assert report.algebra.labels == ["e", "g", "g2"]


def test_blocks_of_dual_numbers_form_one_point():
    A = truncated_polynomial(2)
    report = wedderburn_blocks(A)
    assert report.sizes == (1,)
    assert len(report.prim_points) == 1
    point = report.prim_points[0]
    assert point.dim == 1 and report.radical.dim == 1
    assert point.contains_subspace(report.radical)


def test_splitting_search_respects_the_field_bound(monkeypatch):
    A = group_algebra(cyclic_group(5))
    with monkeypatch.context() as m:
        m.setattr(config, "DEFAULT_MAX_FIELD_ORDER", 4)
        with pytest.raises(SplittingFieldTooLarge):
            wedderburn_blocks(A)
    report = wedderburn_blocks(A)
    assert report.field_order == 5
    assert report.sizes == (1, 1, 1, 1, 1)


# -- the per-order route of wedderburn_blocks, kept as its oracle ------------

def _parent_blocks_over(ext):
    """The block report with the radical, the quotient and both centers
    computed over ext's own field, each block's dimension a rank and each
    central character an intersection, or None when that field does not
    split the center."""
    data, radical = structure.semisimple_quotient(ext)
    ss = data.algebra
    idems = _split_unit(ss, center(ss).basis, complete=True)
    if idems is None:
        return None
    idems.sort(key=lambda v: spectrum._sort_key(v, ss.field))
    blocks, prim_points = [], []
    for e in idems:
        left = ss.left_mult_matrix(e)
        dimension = left.rank()
        size = math.isqrt(dimension)
        assert size * size == dimension
        blocks.append(spectrum.BlockData(idempotent=e, dimension=dimension,
                                         size=size))
        point = left.matmul(data.projection.matrix).kernel_space()
        assert ext.dim - point.dim == dimension
        prim_points.append(point)
    assert sum(b.dimension for b in blocks) == ss.dim
    central_full = center(ext)
    characters = []
    for point in prim_points:
        meet = intersect_subspaces(point, central_full)
        inner = Subspace.from_vectors(
            central_full.dim, ss.field,
            [central_full.coords(v) for v in meet.basis])
        assert central_full.dim - inner.dim == 1
        characters.append(inner)
    return spectrum.SpectrumReport(
        algebra=ext, field_order=ext.field_order, radical=radical.space,
        blocks=blocks, prim_points=prim_points,
        central_characters=characters, center=central_full,
        semisimple=data)


def _parent_wedderburn_blocks(A):
    """The search that extends A to each order in turn and computes the
    whole report there."""
    step = A.field_order
    for order in range(step, config.DEFAULT_MAX_FIELD_ORDER + 1, step):
        if order % 4 == 2 and (order // 2) % step == 0:
            continue
        report = _parent_blocks_over(extend_scalars(A, order))
        if report is not None:
            return report
    raise SplittingFieldTooLarge("no order up to the bound splits")


def _space_fields(space):
    return (space.ambient_dim, space.field.order, space.basis,
            list(space.pivot_cols))


def _algebra_fields(B):
    return (B.dim, B.field_order, B.mul, B.labels, B.unit, B.name)


def _report_fields(report):
    proj = report.semisimple.projection
    return {
        "algebra": _algebra_fields(report.algebra),
        "field_order": report.field_order,
        "blocks": report.blocks,
        "prim_points": [_space_fields(p) for p in report.prim_points],
        "central_characters": [_space_fields(c)
                               for c in report.central_characters],
        "radical": _space_fields(report.radical),
        "center": _space_fields(report.center),
        "semisimple": _algebra_fields(report.semisimple.algebra),
        "projection": (_algebra_fields(proj.source),
                       _algebra_fields(proj.target), proj.matrix.nrows,
                       proj.matrix.ncols, proj.matrix.rows,
                       proj.multiplicative, proj.unital),
    }


def test_splitting_search_skips_an_order_it_has_tried(monkeypatch):
    # Q(zeta_2) = Q and Q(zeta_6) = Q(zeta_3): an order 2k with k odd
    # repeats the attempt at k.  Only the quotient by the radical goes up
    # the orders; A itself is extended once, to the order that splits.
    A = group_algebra(cyclic_group(5))
    tried = []

    def spy(B, order):
        tried.append((B is A, order))
        return extend_scalars(B, order)

    monkeypatch.setattr(spectrum, "extend_scalars", spy)
    report = wedderburn_blocks(A)
    assert tried == [(False, 1), (False, 3), (False, 4), (False, 5),
                     (True, 5)]
    direct = _parent_blocks_over(extend_scalars(A, 5))
    assert _report_fields(report) == _report_fields(direct)
    assert report.sizes == (1, 1, 1, 1, 1)


def test_semisimple_quotient_runs_once_per_call(monkeypatch):
    calls = []

    def counted(B):
        calls.append(B)
        return structure.semisimple_quotient(B)

    monkeypatch.setattr(spectrum, "semisimple_quotient", counted)
    A = group_algebra(cyclic_group(5))
    assert wedderburn_blocks(A).field_order == 5
    assert calls == [A]


def _oracle_corpus():
    return algebra_corpus() + [
        ("QZ5", group_algebra(cyclic_group(5))),
        ("QZ4 over Q(i)", group_algebra(cyclic_group(4), field_order=4)),
        ("rebased upper2", _rebased_upper_triangular()),
        ("t^2(t-1)", _t_squared_t_minus_one()),
        ("cubic+Q+QZ5", direct_sum(
            truncated_polynomial(3),
            direct_sum(ground_field(),
                       group_algebra(cyclic_group(5))).algebra).algebra),
    ]


@pytest.mark.parametrize("name, A", _oracle_corpus(),
                         ids=[name for name, _ in _oracle_corpus()])
def test_blocks_equal_the_per_order_route(name, A):
    # the radical, quotient and center over the base field, read over the
    # splitting field, give the report computed there from scratch
    assert _report_fields(wedderburn_blocks(A)) == \
        _report_fields(_parent_wedderburn_blocks(A))


def _scaled_traces(factor):
    trace_vector = FDAlgebra.trace_vector

    def scaled(B):
        return [B.field.scale(t, factor) for t in trace_vector(B)]
    return scaled


@pytest.mark.parametrize("factor, message", [
    (2, "block dimension 2 is not a perfect square"),
    (4, "primitive ideal has the wrong codimension"),
])
def test_a_wrong_block_trace_is_refused(monkeypatch, factor, message):
    # the radical reads the trace form only up to a scalar, so scaled traces
    # reach the block loop, where each point QZ2 has then claims the wrong
    # dimension
    monkeypatch.setattr(FDAlgebra, "trace_vector", _scaled_traces(factor))
    with pytest.raises(ValidationError) as caught:
        wedderburn_blocks(group_algebra(cyclic_group(2)))
    assert str(caught.value) == message


def test_blocks_that_miss_an_idempotent_are_refused(monkeypatch):
    def short(B, candidates, complete):
        return split_unit(B, candidates, complete)[:-1]

    split_unit = spectrum._split_unit
    monkeypatch.setattr(spectrum, "_split_unit", short)
    with pytest.raises(ValidationError) as caught:
        wedderburn_blocks(group_algebra(cyclic_group(2)))
    assert str(caught.value) == "block dimensions do not fill the quotient"


def test_a_central_character_of_the_wrong_codimension_is_refused(
        monkeypatch):
    # a center of A read as zero leaves each character all of it
    A = group_algebra(cyclic_group(2))

    def no_center(B):
        if B is A:
            return Subspace.from_vectors(A.dim, A.field, [])
        return center(B)

    monkeypatch.setattr(spectrum, "center", no_center)
    with pytest.raises(ValidationError) as caught:
        wedderburn_blocks(A)
    assert str(caught.value) == \
        "central character is not a maximal ideal of the center"


def test_block_decomposition_requires_a_unit():
    strict = ideal_as_algebra(jacobson_radical(upper_triangular(2)))[0]
    with pytest.raises(NonUnital):
        wedderburn_blocks(strict)


def test_block_dimensions_fill_every_corpus_algebra():
    for name, A in algebra_corpus():
        report = wedderburn_blocks(A)
        filled = sum(b.dimension for b in report.blocks) + report.radical.dim
        assert filled == A.dim, name
        for blk, point in zip(report.blocks, report.prim_points):
            assert blk.size * blk.size == blk.dimension, name
            assert A.dim - point.dim == blk.dimension, name


def test_block_count_matches_the_class_count():
    for G in (cyclic_group(2), cyclic_group(3), cyclic_group(4),
              symmetric_group_3(), dihedral_group_4(), quaternion_group()):
        report = wedderburn_blocks(group_algebra(G))
        assert report.n_points == len(group_metadata(G).classes), G.name


def test_block_count_matches_the_periodic_even_dimension():
    from cychom.cyclic import hp
    for name, A in algebra_corpus():
        report = wedderburn_blocks(A)
        hpr = hp(report.algebra)
        assert (hpr.even_dim, hpr.odd_dim) == (report.n_points, 0), name


def test_prim_points_are_pairwise_distinct():
    for name, A in algebra_corpus():
        points = wedderburn_blocks(A).prim_points
        for u, v in itertools.combinations(points, 2):
            assert not (u.dim == v.dim and u.contains_subspace(v)), name


def test_the_semisimple_part_is_semiprimitive():
    for name, A in algebra_corpus():
        report = wedderburn_blocks(A)
        assert jacobson_radical(report.semisimple.algebra).dim == 0, name


# -- central characters ------------------------------------------------------------


def test_central_character_of_one_block_is_the_zero_ideal():
    chars = central_character(matrix_algebra(ground_field(), 2))
    assert len(chars) == 1 and chars[0].dim == 0


def test_central_characters_of_two_points_are_distinct():
    chars = central_character(functions_on_points(2))
    assert len(chars) == 2
    assert not chars[0].equals(chars[1])


def test_central_characters_of_s3_fill_the_center():
    report = wedderburn_blocks(group_algebra(symmetric_group_3()))
    assert report.center.dim == 3
    chars = report.central_characters
    assert len(chars) == 3
    for theta in chars:
        assert theta.dim == 2
    for u, v in itertools.combinations(chars, 2):
        assert not u.equals(v)


def test_central_characters_can_coincide_when_the_center_is_small():
    # both points of the triangular algebra meet the one-dimensional
    # center in the zero ideal
    chars = central_character(upper_triangular(2))
    assert len(chars) == 2
    assert chars[0].equals(chars[1])
    assert chars[0].dim == 0


# -- standard filtrations ----------------------------------------------------------


def test_standard_filtration_of_s3():
    filt = standard_filtration(group_algebra(symmetric_group_3()))
    assert filt.dims == [6, 4, 0]
    assert filt.chain[-1].space.equals(
        jacobson_radical(filt.algebra).space)


def test_standard_filtration_of_points_is_immediate():
    filt = standard_filtration(functions_on_points(3))
    assert filt.dims == [3, 0]


def test_standard_filtration_of_upper_triangular_stops_at_the_radical():
    A = upper_triangular(2)
    filt = standard_filtration(A)
    assert filt.dims == [3, 1]
    assert filt.chain[1].space.equals(jacobson_radical(A).space)


def test_standard_filtration_of_matrix_algebra_repeats_the_top():
    filt = standard_filtration(matrix_algebra(ground_field(), 2))
    assert filt.dims == [4, 4, 0]


def test_filtration_validation_rejects_bad_chains():
    A = functions_on_points(2)
    one = A.field.one
    line = two_sided_ideal(A, [{0: one}])
    whole = two_sided_ideal(A, [{0: one}, {1: one}])
    with pytest.raises(ValidationError) as info:
        IdealFiltration(A, []).validate()
    assert (type(info.value), str(info.value)) == (
        ValidationError, "filtration chain is empty")
    with pytest.raises(ValidationError) as info:
        IdealFiltration(A, [line]).validate()
    assert (type(info.value), str(info.value)) == (
        ValidationError, "filtration must start at the whole algebra")
    # an equal copy of A is still another algebra
    with pytest.raises(ValidationError) as info:
        IdealFiltration(A, [whole_ideal(functions_on_points(2))]).validate()
    assert (type(info.value), str(info.value)) == (
        ValidationError, "filtration term 0 belongs to a different algebra")
    other = two_sided_ideal(A, [{1: one}])
    with pytest.raises(ValidationError) as info:
        IdealFiltration(A, [whole, line, other]).validate()
    assert (type(info.value), str(info.value)) == (
        ValidationError, "filtration term 2 is not contained in term 1")


def test_layer_conditions_hold_for_standard_filtrations():
    for name, A in algebra_corpus():
        report = abelian_filtration_report(standard_filtration(A))
        assert report.ok, name
        assert report.ends_at_radical, name


def test_a_repeated_term_is_a_zero_layer():
    T2 = upper_triangular(2)
    rad = jacobson_radical(T2)
    report = abelian_filtration_report(
        IdealFiltration(T2, [whole_ideal(T2), rad, rad]))
    assert [(l.k, l.semiprimitive_ok, l.layer_nilpotent_ok, l.note)
            for l in report.layers] == [
        (1, True, True, "product ideal is everything"),
        (2, True, True, "zero layer")]
    assert report.ok


# -- page one of the spectral sequence ---------------------------------------------


def test_e1_table_of_s3():
    report = spectral_e1(group_algebra(symmetric_group_3()))
    rows = [(e.p, e.x_points, e.y_points, e.count) for e in report.entries]
    assert rows == [(1, 2, 0, 2), (2, 3, 2, 1)]
    assert report.even_total == 3
    assert report.agrees


def test_e1_builds_the_standard_filtration_once(monkeypatch):
    calls = []

    def counted(A):
        calls.append(A)
        return standard_filtration(A)

    monkeypatch.setattr(spectrum, "standard_filtration", counted)
    A = group_algebra(symmetric_group_3())
    assert spectral_e1(A).agrees
    assert calls == [A]


def test_e1_builds_each_layer_quotient_once(monkeypatch):
    # QS3's standard filtration has two layers; the layer checks and the
    # point counts share one quotient of each
    calls = []

    def counted(A, upper, lower):
        calls.append((upper.name, lower.name))
        return central_image(A, upper, lower)

    central_image = spectrum._central_image
    monkeypatch.setattr(spectrum, "_central_image", counted)
    report = spectral_e1(group_algebra(symmetric_group_3()))
    assert calls == [("J0", "J1"), ("J1", "J2")]
    assert [(e.p, e.x_points, e.y_points, e.count)
            for e in report.entries] == [(1, 2, 0, 2), (2, 3, 2, 1)]


def test_e1_single_level_for_split_points():
    report = spectral_e1(functions_on_points(3))
    assert [(e.p, e.count) for e in report.entries] == [(1, 3)]
    assert report.agrees


def test_e1_of_dual_numbers_counts_one_point():
    report = spectral_e1(truncated_polynomial(2))
    assert [(e.p, e.count) for e in report.entries] == [(1, 1)]
    assert report.even_total == 1
    assert report.agrees


def test_e1_of_matrix_algebra_skips_level_one():
    report = spectral_e1(matrix_algebra(ground_field(), 2))
    rows = [(e.p, e.x_points, e.y_points, e.count) for e in report.entries]
    assert rows == [(1, 0, 0, 0), (2, 1, 0, 1)]
    assert report.agrees


# (p, x_points, y_points, count) of each level, per corpus algebra: a
# commutative or basic algebra has all its points at level one
E1_ROWS = {name: [(1, n, 0, n)] for name, n in [
    ("ground", 1), ("points2", 2), ("points3", 3), ("points5", 5),
    ("dual", 1), ("cubic", 1), ("upper2", 2), ("QZ2", 2), ("QZ3", 3),
    ("QZ4", 4)]}
E1_ROWS.update({
    "matrix2": [(1, 0, 0, 0), (2, 1, 0, 1)],
    "QS3": [(1, 2, 0, 2), (2, 3, 2, 1)],
    "QD4": [(1, 4, 0, 4), (2, 5, 4, 1)],
    "QQ8": [(1, 4, 0, 4), (2, 5, 4, 1)],
})


def test_e1_totals_match_hp_on_the_corpus():
    for name, A in algebra_corpus():
        # over the splitting field the standard filtration is the same
        for B in (A, standard_filtration(A).algebra):
            report = spectral_e1(B)
            rows = [(e.p, e.x_points, e.y_points, e.count)
                    for e in report.entries]
            assert rows == E1_ROWS[name], name
            assert report.even_total == sum(row[3] for row in rows), name
            assert report.agrees, name


# -- spectrum-preserving morphisms --------------------------------------------------


def test_unital_matrix_inclusion_preserves_the_point():
    Q = ground_field()
    M2 = matrix_algebra(Q, 2)
    inc = AlgebraMap.from_images(Q, M2, [M2.unit],
                                 multiplicative=True, unital=True)
    verdict = spectrum_preserving_check(inc)
    assert verdict.preserving
    assert verdict.pairs == [(0, 0)]
    assert verdict.hp_agrees
    assert (verdict.hp_source.even_dim, verdict.hp_source.odd_dim) == (1, 0)


def test_diagonal_embedding_is_rejected():
    Q = ground_field()
    QQ = functions_on_points(2)
    one = Q.field.one
    diag = AlgebraMap.from_images(Q, QQ, [{0: one, 1: one}],
                                  multiplicative=True, unital=True)
    verdict = spectrum_preserving_check(diag)
    assert not verdict.preserving
    assert verdict.is_function
    # both target points pull back inside the unique source point
    assert verdict.pairs == [(0, 0), (1, 0)]
    assert not verdict.hp_agrees
    # across field orders both sides are compared over Q(zeta3), where QZ3
    # has three points: the unit map sends all three to the one point of Q
    QZ3 = group_algebra(cyclic_group(3))
    unit = spectrum_preserving_check(AlgebraMap.from_images(
        Q, QZ3, [QZ3.unit], multiplicative=True, unital=True))
    assert unit.pairs == [(0, 0), (1, 0), (2, 0)]
    assert unit.is_function and not unit.preserving
    assert unit.field_order == 3
    # ... and the augmentation pulls the point of Q back to one of them
    augmentation = AlgebraMap.from_images(
        QZ3, Q, [{0: one}] * 3, multiplicative=True, unital=True)
    augmentation.validate()
    verdict = spectrum_preserving_check(augmentation)
    assert verdict.pairs == [(0, 2)]
    assert verdict.is_function and not verdict.preserving


def test_swap_automorphism_is_the_point_swap():
    QQ = functions_on_points(2)
    one = QQ.field.one
    swap = AlgebraMap.from_images(QQ, QQ, [{1: one}, {0: one}],
                                  multiplicative=True, unital=True)
    verdict = spectrum_preserving_check(swap)
    assert verdict.preserving
    assert verdict.bijection == {0: 1, 1: 0}


def test_verdict_is_stable_under_inner_twists():
    QQ = functions_on_points(2)
    T2 = upper_triangular(2)
    one = T2.field.one
    e11, e12, e22 = (T2.labels.index(l) for l in ("E11", "E12", "E22"))
    corner = AlgebraMap.from_images(
        QQ, T2, [{e11: one}, {e22: one}], multiplicative=True, unital=True)
    base = spectrum_preserving_check(corner)
    assert base.preserving and base.hp_agrees
    u = {e11: one, e22: one, e12: one}
    u_inv = {e11: one, e22: one, e12: T2.field.neg(one)}
    images = [T2.multiply(T2.multiply(u, T2.basis_vector(i)), u_inv)
              for i in range(T2.dim)]
    ad = AlgebraMap.from_images(T2, T2, images,
                                multiplicative=True, unital=True)
    ad.validate()
    twisted = spectrum_preserving_check(ad.compose(corner))
    assert twisted.preserving == base.preserving
    assert twisted.pairs == base.pairs
    assert twisted.bijection == base.bijection


def test_spectrum_check_requires_unital_algebras():
    strict = ideal_as_algebra(jacobson_radical(upper_triangular(2)))[0]
    with pytest.raises(NonUnital):
        spectrum_preserving_check(AlgebraMap.identity(strict))


# -- weakly spectrum-preserving maps -------------------------------------------------


def whole_ideal(A):
    return two_sided_ideal(A, [A.basis_vector(i) for i in range(A.dim)])


def test_identity_is_weakly_preserving_along_the_standard_chain():
    filt = standard_filtration(group_algebra(symmetric_group_3()))
    A = filt.algebra
    report = weakly_spectrum_preserving_check(
        AlgebraMap.identity(A), filt, filt)
    assert report.preserving and report.hp_agrees and report.ok
    assert [(l.k, l.kind, l.passed) for l in report.layers] == [
        (1, "spectral", True), (2, "spectral", True)]


def test_corner_inclusion_is_weakly_preserving():
    QQ = functions_on_points(2)
    T2 = upper_triangular(2)
    one = T2.field.one
    e11, e22 = T2.labels.index("E11"), T2.labels.index("E22")
    corner = AlgebraMap.from_images(
        QQ, T2, [{e11: one}, {e22: one}], multiplicative=True, unital=True)
    source = IdealFiltration(QQ, [whole_ideal(QQ)])
    target = IdealFiltration(T2, [whole_ideal(T2), jacobson_radical(T2)])
    report = weakly_spectrum_preserving_check(corner, source, target)
    assert report.preserving
    assert [(l.kind, l.passed) for l in report.layers] == [
        ("spectral", True), ("nilpotent", True)]
    assert (report.hp_source.even_dim, report.hp_source.odd_dim) == (2, 0)
    assert (report.hp_target.even_dim, report.hp_target.odd_dim) == (2, 0)
    assert report.ok


def test_filtrations_of_other_algebras_are_refused():
    QQ = functions_on_points(2)
    Q = ground_field()
    filt = IdealFiltration(Q, [whole_ideal(Q)])
    with pytest.raises(ValidationError) as info:
        weakly_spectrum_preserving_check(AlgebraMap.identity(QQ), filt, filt)
    assert (type(info.value), str(info.value)) == (
        ValidationError, "filtrations do not match the map's algebras")


def test_a_layer_with_only_a_one_sided_unit_is_refused():
    # span{E11, E12} is the ideal of T2 with zero second row: E11 is a left
    # unit of it but not a right one, and it is not nilpotent
    T2 = upper_triangular(2)
    one = T2.field.one
    e11, e12 = T2.labels.index("E11"), T2.labels.index("E12")
    row = two_sided_ideal(T2, [{e11: one}, {e12: one}])
    filt = IdealFiltration(T2, [whole_ideal(T2), row])
    with pytest.raises(ValidationError) as info:
        weakly_spectrum_preserving_check(AlgebraMap.identity(T2), filt, filt)
    assert (type(info.value), str(info.value)) == (
        ValidationError, "layer algebra is neither nilpotent nor unital")


def test_a_unital_layer_against_an_empty_one_is_mismatched():
    Q = ground_field()
    T = truncated_polynomial(2)
    unit = AlgebraMap.from_images(Q, T, [T.unit],
                                  multiplicative=True, unital=True)
    report = weakly_spectrum_preserving_check(
        unit, IdealFiltration(Q, [whole_ideal(Q)]),
        IdealFiltration(T, [whole_ideal(T), whole_ideal(T)]))
    # Q's point meets T's empty first layer, and T's point Q's empty second
    assert [(l.k, l.kind, l.passed) for l in report.layers] == [
        (1, "mismatched", False), (2, "mismatched", False)]
    assert not report.preserving and report.hp_agrees and not report.ok


def test_collapsing_two_points_fails_in_its_layer():
    QQ = functions_on_points(2)
    Q = ground_field()
    one = Q.field.one
    collapse = AlgebraMap.from_images(QQ, Q, [{0: one}, {}])
    report = weakly_spectrum_preserving_check(
        collapse,
        IdealFiltration(QQ, [whole_ideal(QQ)]),
        IdealFiltration(Q, [whole_ideal(Q)]))
    assert not report.preserving
    assert report.layers[0].k == 1
    assert report.layers[0].kind == "spectral"
    assert not report.layers[0].passed


def test_unrespected_filtration_is_an_error():
    QQ = functions_on_points(2)
    one = QQ.field.one
    swap = AlgebraMap.from_images(QQ, QQ, [{1: one}, {0: one}],
                                  multiplicative=True, unital=True)
    line = two_sided_ideal(QQ, [{0: one}])
    filt = IdealFiltration(QQ, [whole_ideal(QQ), line])
    with pytest.raises(FiltrationNotRespected):
        weakly_spectrum_preserving_check(swap, filt, filt)


# -- small helpers -----------------------------------------------------------------


def test_subspace_intersection_of_coordinate_planes():
    Q = ground_field()
    field = Q.field
    one = field.one
    U = Subspace.from_vectors(3, field, [{0: one}, {1: one}])
    V = Subspace.from_vectors(3, field, [{1: one}, {2: one}])
    meet = intersect_subspaces(U, V)
    assert meet.dim == 1
    assert meet.contains({1: one})
    empty = intersect_subspaces(
        Subspace.from_vectors(3, field, [{0: one}]),
        Subspace.from_vectors(3, field, [{2: one}]))
    assert empty.dim == 0


@pytest.mark.parametrize("homology, A, order, n_max", [
    pytest.param(hh, group_algebra(symmetric_group_3()), 3, 2, id="hh-QS3"),
    pytest.param(hh, upper_triangular(2), 5, 3, id="hh-upper2"),
    pytest.param(hc, truncated_polynomial(3), 4, 3, id="hc-cubic"),
])
def test_extending_scalars_keeps_homology_dimensions(homology, A, order, n_max):
    AK = extend_scalars(A, order)
    assert AK.field.order == order
    assert homology(AK, n_max).dims == homology(A, n_max).dims
    # True == 1 would pass an equality test and return A unchanged
    with pytest.raises(ValidationError, match="field order"):
        extend_scalars(A, True)


def test_extending_scalars_to_an_order_that_is_not_a_multiple_is_refused():
    A = extend_scalars(group_algebra(cyclic_group(3)), 3)
    with pytest.raises(ValidationError) as info:
        extend_scalars(A, 4)
    assert (type(info.value), str(info.value)) == (
        ValidationError, "cannot extend coefficients of order 3 to order 4")
