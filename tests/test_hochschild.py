"""Bar complexes, Hochschild homology, traces, and Morita maps."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cychom.algebra import (
    AlgebraMap,
    _normalize_vec,
    _unflatten,
    FDAlgebra,
    diagonal_bimodule,
    direct_sum,
    ground_field,
    functions_on_points,
    ideal_as_algebra,
    ideal_generated_by,
    matrix_algebra,
    quotient_algebra,
    subalgebra_closure,
    truncated_polynomial,
    twisted_bimodule,
    two_sided_ideal,
    upper_triangular,
)
from cychom.chern import CyclicChain, _extend_cycle, chern_idempotent, \
    chern_invertible, idempotent_rep, invertible_rep
from cychom.config import BUDGET_ENV_VAR, default_budget
from cychom.cyclic import direct_sum_check, hc, hp, induced_map_hc, \
    operator_B, sbi_check
from cychom.errors import NonUnital, NotMultiplicative, SizeOverflow, ValidationError
from cychom.crossprod import crossed_product, hh_decomposition, \
    trivial_action, variety_crossed_product
from cychom.groups import FiniteVarietyAction, cyclic_group, \
    dihedral_group_4, group_algebra, group_metadata, quaternion_group, \
    symmetric_group_3
from cychom.hochschild import (
    _degree_homologies,
    _homology_report,
    bar_complex,
    center_action,
    h_unitality_report,
    hh,
    hh0_traces,
    hh_with_coefficients,
    induced_map_hh,
    tr_star_and_iota,
)
from cychom.linalg import SparseMatrix, Subspace, add_term, homology, \
    induced_map, rref_rows, to_raw, vec_add, vec_equal
from cychom.scalars import Cyclotomic, field_of_order
from cychom.spectrum import extend_scalars
from cychom.structure import block_idempotents, center, split_idempotents
from bicomplex_oracle import extend_cycle, homotopy_s, total_complex


def truncated_polynomial_hh_oracle(N, n_max):
    """Independent route to HH of Q[x]/(x^N).

    The small periodic bimodule resolution collapses the computation to a
    two-term complex on the algebra itself, with the maps alternating
    between zero and multiplication by N x^(N-1).
    """
    A = truncated_polynomial(N)
    field = A.field
    mult_zero = SparseMatrix(N, N, field)
    mult_top = A.left_mult_matrix({N - 1: N})
    dims = []
    for q in range(n_max + 1):
        d_q = mult_zero if q % 2 == 1 else mult_top
        d_next = mult_top if q % 2 == 1 else mult_zero
        if q == 0:
            H = homology(None, mult_zero, space_dim=N, field=field)
        else:
            H = homology(d_q, d_next)
        dims.append(H.dim)
    return dims


def test_oracle_matches_hand_values():
    assert truncated_polynomial_hh_oracle(2, 5) == [2, 1, 1, 1, 1, 1]
    assert truncated_polynomial_hh_oracle(3, 4) == [3, 2, 2, 2, 2]


# ---------------------------------------------------------------------------
# windows


def test_bar_complex_of_ground_field():
    w = bar_complex(ground_field(), 3)
    assert w.dims == [1, 1, 1, 1]
    # boundaries alternate between zero and an identity-like map
    assert w.boundaries[1].is_zero_matrix()
    assert w.boundaries[2].entry(0, 0) == 1
    assert w.boundaries[3].is_zero_matrix()


def test_unnormalized_degree_one_dimension():
    w = bar_complex(functions_on_points(2), 1)
    assert w.dims[1] == 4


def test_boundary_squares_to_zero_m2():
    M2 = matrix_algebra(ground_field(), 2)
    bar_complex(M2, 3).check_differential()
    bar_complex(M2, 3, normalized=True).check_differential()


def test_boundary_squares_to_zero_s3_normalized():
    A = group_algebra(symmetric_group_3())
    bar_complex(A, 3, normalized=True).check_differential()


def test_coefficient_window_squares_to_zero():
    A = functions_on_points(2)
    swap = AlgebraMap.from_images(A, A, [{1: 1}, {0: 1}],
                                  multiplicative=True, unital=True)
    M = twisted_bimodule(A, swap)
    bar_complex(A, 3, coefficients=M).check_differential()
    bar_complex(A, 3, coefficients=M, normalized=True).check_differential()


def test_codec_roundtrip():
    w = bar_complex(truncated_polynomial(3), 4)
    rng = random.Random(411)
    radix = w.slots.interior_radix
    for n in range(5):
        for _ in range(20):
            idx = rng.randrange(w.dims[n])
            assert w.index_of(n, w.tuple_of(n, idx)) == idx
        ranks = w.slots.ranks(n)
        for j, u in enumerate(ranks):
            assert ranks[u] == j
            for s in range(w.dims[0]):
                assert w.index_of(n, (s,) + u) == s * radix ** n + j


def _face_column(w, n, index):
    """Column index of the degree-n boundary, rebuilt from the face formula
    with the algebra's products and the coefficients' action matrices."""
    A, M, field = w.algebra, w.module, w.field
    # normalized windows here have the unit as basis vector 0, so interior
    # code k is basis vector k + 1 and the unit in an interior slot is zero
    shift = 1 if w.normalized else 0
    tup = w.tuple_of(n, index)
    s0, a = tup[0], tuple(k + shift for k in tup[1:])
    if M is None:
        right, left = A.mul[s0][a[0]], A.mul[a[-1]][s0]
    else:
        right = M.act_right({s0: field.one}, a[0])
        left = M.act_left(a[-1], {s0: field.one})
    out = {}

    def add(slot0, interior, c):
        if all(b >= shift for b in interior):
            key = w.index_of(n - 1, (slot0,) + tuple(b - shift
                                                     for b in interior))
            out[key] = field.add(out.get(key, field.zero), c)

    for s, c in right.items():
        add(s, a[1:], c)
    for i in range(1, n):
        for b, c in A.mul[a[i - 1]][a[i]].items():
            add(s0, a[:i - 1] + (b,) + a[i + 1:],
                field.neg(c) if i % 2 else c)
    if w.variant == "b":
        for s, c in left.items():
            add(s, a[:-1], field.neg(c) if n % 2 else c)
    return out


def test_boundaries_follow_the_face_formula():
    T4 = truncated_polynomial(4)
    S3 = group_algebra(symmetric_group_3())
    F2 = functions_on_points(2)
    swap = AlgebraMap.from_images(F2, F2, [{1: 1}, {0: 1}],
                                  multiplicative=True, unital=True)
    windows = [
        bar_complex(T4, 4),
        bar_complex(T4, 4, variant="b_prime"),
        bar_complex(matrix_algebra(ground_field(), 2), 3),
        bar_complex(T4, 4, normalized=True),
        bar_complex(S3, 3, normalized=True),
        bar_complex(F2, 3, coefficients=twisted_bimodule(F2, swap)),
    ]
    assert T4.unit == S3.unit == {0: 1}
    for w in windows:
        for n in range(1, w.n_max + 1):
            cols = w.boundaries[n].columns()
            for index in range(w.dims[n]):
                assert vec_equal(cols[index], _face_column(w, n, index),
                                 w.field), (w.algebra.name, n, index)


def _twisted_F2(normalized):
    F2 = functions_on_points(2)
    swap = AlgebraMap.from_images(F2, F2, [{1: 1}, {0: 1}],
                                  multiplicative=True, unital=True)
    return bar_complex(F2, 3, coefficients=twisted_bimodule(F2, swap),
                       normalized=normalized)


def _walk(A, top):
    return bar_complex(A, top, normalized=True, blocks=split_idempotents(A))


CHAIN_MODE_WINDOWS = {
    "T4": lambda: bar_complex(truncated_polynomial(4), 4),
    "T4 normalized": lambda: bar_complex(truncated_polynomial(4), 4,
                                         normalized=True),
    "T4 b_prime": lambda: bar_complex(truncated_polynomial(4), 4,
                                      variant="b_prime"),
    "QS3 walk": lambda: _walk(group_algebra(symmetric_group_3()), 3),
    "T3+M2 walk": lambda: _walk(_T3_plus_M2(), 3),
    "F2 twisted": lambda: _twisted_F2(False),
    "F2 twisted normalized": lambda: _twisted_F2(True),
    "zeta3": lambda: bar_complex(_zeta_basis_truncation(), 3),
    "zeta3 walk": lambda: _walk(_zeta_basis_truncation(), 3),
    "zeta5": lambda: bar_complex(_zeta_basis_truncation(5), 3),
}


@pytest.mark.parametrize("name", list(CHAIN_MODE_WINDOWS))
def test_chain_mode_boundary_is_the_matrix_times_the_chain(name):
    w = CHAIN_MODE_WINDOWS[name]()
    field, rng = w.field, random.Random(name)
    zeta = to_raw(Cyclotomic.zeta(field.order), field)
    chains = {n: [{}] + [
        {rng.randrange(w.dims[n]): field.mul(zeta, field.from_rational(
            Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))))
         for _ in range(rng.randint(1, 6))} for _ in range(8)]
        for n in range(1, w.n_max + 1) if w.dims[n]}
    # chain mode first: it reads the chains' words and builds no matrix
    images = {n: [w._boundary(n, chain) for chain in chains[n]]
              for n in chains}
    assert w.boundaries._built == [None] * (w.n_max + 1)
    for n, drawn in chains.items():
        for chain, image in zip(drawn, images[n]):
            assert vec_equal(image, w.boundaries[n].mat_vec(chain), field)
        assert images[n][0] == {}
        if n < w.n_max:
            # b of a boundary cancels to the empty chain
            for col in w.boundaries[n + 1].columns()[:20]:
                assert w._boundary(n, col) == {}


def test_codec_rejects_out_of_range_codes_and_indices():
    w = bar_complex(truncated_polynomial(3), 2, normalized=False)
    assert w.index_of(1, (1, 0)) == 3
    assert w.tuple_of(1, 8) == (2, 2)
    for bad in ((0, 3), (0, -1), (3, 0), (-1, 2)):
        with pytest.raises(ValidationError):
            w.index_of(1, bad)
    for bad in ((1,), (1, 0, 0)):
        with pytest.raises(ValidationError, match="wrong length"):
            w.index_of(1, bad)
    for n, bad in ((1, 9), (1, -1), (3, 0), (-1, 0)):
        with pytest.raises(ValidationError):
            w.tuple_of(n, bad)


def test_negative_degrees_are_rejected():
    A = truncated_polynomial(2)
    ident = AlgebraMap.identity(A)
    w = bar_complex(A, 2, normalized=True)
    Z = FDAlgebra(1, 1, {}, labels=["x"])
    calls = [
        lambda: bar_complex(A, -1),
        lambda: hh(A, -1),
        lambda: hh(A, -1, normalized=False),
        lambda: hh_with_coefficients(A, diagonal_bimodule(A), -1),
        lambda: induced_map_hh(ident, -1),
        lambda: tr_star_and_iota(A, 2, -1),
        # degrees outside a window, and a negative H-unitality cutoff
        lambda: center_action(w, {1: 1}, -1),
        lambda: center_action(w, {1: 1}, 3),
        lambda: h_unitality_report(Z, -1),
    ]
    for call in calls:
        with pytest.raises(ValidationError):
            call()


def test_degrees_must_be_ints():
    A = truncated_polynomial(2)
    calls = [
        lambda: bar_complex(A, 2.0),
        lambda: bar_complex(A, True),
        lambda: hh(A, 2.0),
        lambda: hh(A, True),
        lambda: hc(A, 2.0),
        lambda: hp(A, "stabilization", cutoff=4.5),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="must be an int"):
            call()


def _degree_bound_calls():
    """Each public entry point that takes a degree bound or a character's
    q, as a function of that value."""
    T2 = truncated_polynomial(2)
    ident = AlgebraMap.identity(T2)
    QZ3 = group_algebra(cyclic_group(3))
    swap = FiniteVarietyAction(cyclic_group(2), 2, [(0, 1), (1, 0)])
    return {
        "hh": lambda v: hh(T2, v),
        "hc": lambda v: hc(T2, v),
        "sbi_check": lambda v: sbi_check(T2, v),
        "induced_map_hh": lambda v: induced_map_hh(ident, v),
        "induced_map_hc": lambda v: induced_map_hc(ident, v),
        "hh_with_coefficients":
            lambda v: hh_with_coefficients(T2, diagonal_bimodule(T2), v),
        "hh_decomposition":
            lambda v: hh_decomposition(variety_crossed_product(swap), v),
        "tr_star_and_iota": lambda v: tr_star_and_iota(T2, 2, v),
        "direct_sum_check": lambda v: direct_sum_check(T2, T2, v),
        "chern_idempotent": lambda v: chern_idempotent(
            idempotent_rep(QZ3, [[{0: 1}]]), v),
        "chern_invertible": lambda v: chern_invertible(
            invertible_rep(QZ3, [[{1: 1}]]), v),
    }


@pytest.mark.parametrize("value", ["2", True, None])
@pytest.mark.parametrize("entry", sorted(_degree_bound_calls()))
def test_a_bad_degree_bound_is_a_validation_error(entry, value):
    with pytest.raises(ValidationError, match="must be an int"):
        _degree_bound_calls()[entry](value)


def test_window_size_budget(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "1000")
    with pytest.raises(SizeOverflow):
        bar_complex(matrix_algebra(ground_field(), 2), 5)


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_budget_variable_rejects_bad_values(monkeypatch, value):
    monkeypatch.setenv(BUDGET_ENV_VAR, value)
    with pytest.raises(ValidationError):
        default_budget()


def test_budget_variable_bounds_the_default_window(monkeypatch):
    # a local algebra: hh's window cannot shrink below the normalized one
    A = truncated_polynomial(5)
    monkeypatch.setenv(BUDGET_ENV_VAR, "100")
    assert default_budget().max_chain_dim == 100
    # degree 4 of the normalized window holds 5 * 4^4 = 1,280 coordinates
    with pytest.raises(SizeOverflow):
        hh(A, 3)


def test_normalized_needs_unit():
    A = FDAlgebra(1, 1, {}, labels=["x"])
    with pytest.raises(NonUnital):
        bar_complex(A, 2, normalized=True)


def test_b_prime_has_no_normalized_form():
    with pytest.raises(ValidationError):
        bar_complex(ground_field(), 2, variant="b_prime", normalized=True)


# ---------------------------------------------------------------------------
# the contracting homotopy


def test_homotopy_on_degree_zero():
    A = truncated_polynomial(2)
    w = bar_complex(A, 2, variant="b_prime")
    assert homotopy_s(w, 0, {1: 1}) == {w.index_of(1, (0, 1)): 1}


def test_homotopy_is_a_contraction():
    A = truncated_polynomial(2)
    w = bar_complex(A, 4, variant="b_prime")
    rng = random.Random(90125)
    for n in range(1, 4):
        for _ in range(5):
            chain = {rng.randrange(w.dims[n]): rng.randint(-3, 3)
                     for _ in range(4)}
            chain = {k: v for k, v in chain.items() if v}
            sb = homotopy_s(w, n - 1, w.boundaries[n].mat_vec(chain))
            bs = w.boundaries[n + 1].mat_vec(homotopy_s(w, n, chain))
            total = dict(sb)
            for k, v in bs.items():
                total[k] = total.get(k, 0) + v
            total = {k: v for k, v in total.items() if v}
            assert total == chain


def test_b_prime_complex_of_ground_field_is_acyclic():
    w = bar_complex(ground_field(), 4, variant="b_prime")
    for n in range(1, 4):
        H = homology(w.boundaries[n], w.boundaries[n + 1])
        assert H.dim == 0


# ---------------------------------------------------------------------------
# homology


def _zeta_basis_truncation(m=3):
    """Q(zeta_m)[x]/x^3 on the basis 1, zeta_m x, x^2: (zeta_m x)^2 =
    zeta_m^2 x^2 puts an irrational entry into every window of it."""
    mul = {(0, k): {k: 1} for k in range(3)}
    mul.update({(k, 0): {k: 1} for k in range(1, 3)})
    mul[1, 1] = {2: field_of_order(m).zeta_pow[2]}
    return FDAlgebra(3, m, mul=mul, unit={0: 1})


def _copy(m):
    return SparseMatrix(m.nrows, m.ncols, m.field, rows=[dict(r) for r in m.rows])


def _bar_window(A, top, normalized):
    return lambda: bar_complex(A(), top, normalized=normalized)


def _zeta_walk_window():
    w = hh(_zeta_basis_truncation(), 4).window
    assert any(any(e[1:]) for row in w.boundaries[2].rows for e in row.values())
    return w


WINDOWS = {"%s norm=%s" % (name, normalized): _bar_window(A, top, normalized)
           for name, A, top in [
               ("T3", lambda: truncated_polynomial(3), 4),
               ("T4", lambda: truncated_polynomial(4), 4),
               ("M2", lambda: matrix_algebra(ground_field(), 2), 3),
               ("U2", lambda: upper_triangular(2), 3)]
           for normalized in (False, True)}
WINDOWS["QS3 walk"] = lambda: hh(group_algebra(symmetric_group_3()), 3).window
WINDOWS["T4 totals"] = lambda: total_complex(truncated_polynomial(4), 5)
WINDOWS["zeta3 walk"] = _zeta_walk_window


@pytest.mark.parametrize("name", list(WINDOWS))
def test_boundary_basis_spans_the_image_of_every_column(name):
    window = WINDOWS[name]()
    maps = getattr(window, "totals", None) or window.boundaries
    dims, field = window.dims, window.field
    homologies = _degree_homologies(maps, dims, field, len(dims) - 2)
    for n, H in enumerate(homologies):
        A, B = maps[n] if n else None, maps[n + 1]
        # the slow reference: the rref of all of B's columns
        ref = Subspace.from_vectors(dims[n], field, B.columns())
        assert rref_rows(H.boundary_space.basis, field) \
            == (ref.basis, ref.pivot_cols)
        # the basis is pivoted at B's cached pivot rows R*, B[R*, P] is
        # invertible, and the representatives live off R*
        rows, cols = B._pivot_rows, B._pivots
        assert H.boundary_space.pivot_cols == rows
        square = SparseMatrix(len(rows), len(cols), field, rows=[
            {k: B.rows[i][j] for k, j in enumerate(cols) if j in B.rows[i]}
            for i in rows])
        assert square.inverse().matmul(square).equals(
            SparseMatrix.identity(len(rows), field))
        assert not any(set(rep) & set(rows) for rep in H.representatives)
        rank_a = A.rank() if A is not None else 0
        assert H.dim == dims[n] - rank_a - ref.dim
        if A is not None:
            assert all(not A.mat_vec(rep) for rep in H.representatives)
        # every matrix now carries cached pivots; fresh copies recompute
        # them from other rows, and the classes must agree
        again = homology(A, B, space_dim=dims[n], field=field)
        fresh = homology(None if A is None else _copy(A), _copy(B),
                         space_dim=dims[n], field=field)
        assert again.boundary_space.basis == H.boundary_space.basis
        assert fresh.boundary_space.equals(H.boundary_space)
        assert induced_map(SparseMatrix.identity(dims[n], field),
                           H, fresh).rank() == H.dim


def test_hh_of_ground_field():
    assert hh(ground_field(), 3).dims == [1, 0, 0, 0]


def test_hh_of_dual_numbers_against_oracle():
    report = hh(truncated_polynomial(2), 5)
    assert report.dims == [2, 1, 1, 1, 1, 1]
    assert report.dims == truncated_polynomial_hh_oracle(2, 5)


def test_hh_of_cubic_against_oracle():
    report = hh(truncated_polynomial(3), 4)
    assert report.dims == truncated_polynomial_hh_oracle(3, 4)


def test_hh_of_s3_group_algebra():
    A = group_algebra(symmetric_group_3())
    report = hh(A, 2)
    assert report.dims == [3, 0, 0]
    classes = group_metadata(A.group).classes
    assert report.dims[0] == len(classes)


def test_hh_representatives_are_cycles():
    report = hh(truncated_polynomial(2), 3)
    for n in range(1, 4):
        b = report.window.boundaries[n]
        for rep in report.degrees[n].representatives:
            assert b.mat_vec(rep) == {}


def test_normalized_and_unnormalized_dimensions_agree():
    for A in (truncated_polynomial(2), functions_on_points(2),
              matrix_algebra(ground_field(), 2)):
        n_max = 2 if A.dim > 2 else 3
        plain = hh(A, n_max, normalized=False)
        reduced = hh(A, n_max, normalized=True)
        assert plain.dims == reduced.dims


def test_hh_nonunital_zero_square_line():
    # the 1-dim algebra with zero multiplication: every boundary vanishes
    Z = FDAlgebra(1, 1, {}, labels=["x"])
    report = hh(Z, 3)
    assert report.dims == [1, 1, 1, 1]
    assert report.h_unitality == "fails at degree 1"
    with pytest.raises(NonUnital):
        hh(Z, 2, normalized=True)


def test_h_unitality_of_unital_algebra_is_not_applicable():
    assert h_unitality_report(ground_field(), 3) == "not-applicable"
    assert hh(truncated_polynomial(2), 2).h_unitality == "not-applicable"


def test_an_algebra_with_a_left_unit_is_h_unital_up_to_the_cutoff():
    # span{E11, E12}, E11 a left unit: b' is contractible, so HH is the
    # one class of E11 and the tri-state reads acyclic
    A = FDAlgebra(2, 1, {(0, 0): {0: 1}, (0, 1): {1: 1}},
                  labels=["E11", "E12"])
    assert not A.is_unital
    report = hh(A, 2)
    assert report.dims == [1, 0, 0]
    assert report.h_unitality == "acyclic-up-to-cutoff"


# ---------------------------------------------------------------------------
# coefficients


def test_diagonal_coefficients_match_plain_hh():
    A = functions_on_points(2)
    with_m = hh_with_coefficients(A, diagonal_bimodule(A), 2)
    assert with_m.dims == hh(A, 2).dims == [2, 0, 0]


def test_twisted_coefficients_swap_kills_degree_zero():
    A = functions_on_points(2)
    swap = AlgebraMap.from_images(A, A, [{1: 1}, {0: 1}],
                                  multiplicative=True, unital=True)
    report = hh_with_coefficients(A, twisted_bimodule(A, swap), 2)
    assert report.dims[0] == 0


def test_twisted_coefficients_sign_on_dual_numbers():
    A = truncated_polynomial(2)
    sign = AlgebraMap.from_images(A, A, [{0: 1}, {1: -1}],
                                  multiplicative=True, unital=True)
    report = hh_with_coefficients(A, twisted_bimodule(A, sign), 2)
    assert report.dims[0] == 1


# ---------------------------------------------------------------------------
# traces


def test_traces_of_matrix_algebra():
    dim, basis = hh0_traces(matrix_algebra(ground_field(), 2))
    assert dim == 1
    tau = basis[0]
    # the functional is the matrix trace up to scale: E11 and E22 agree,
    # off-diagonal units vanish
    assert tau.get(0) == tau.get(3) and tau.get(0)
    assert 1 not in tau and 2 not in tau


def test_traces_of_group_algebra_are_class_functions():
    A = group_algebra(symmetric_group_3())
    dim, basis = hh0_traces(A)
    assert dim == 3
    for members in A.group.conjugacy_classes():
        for tau in basis:
            values = {tau.get(g, 0) for g in members}
            assert len(values) == 1


def test_traces_of_commutative_algebra():
    dim, _ = hh0_traces(truncated_polynomial(3))
    assert dim == 3


def test_trace_dimension_matches_hh0():
    for A in (matrix_algebra(ground_field(), 2),
              group_algebra(symmetric_group_3()),
              truncated_polynomial(3)):
        assert hh0_traces(A)[0] == hh(A, 0).dims[0]


# ---------------------------------------------------------------------------
# induced maps


def test_identity_induces_identity():
    A = functions_on_points(2)
    data = induced_map_hh(AlgebraMap.identity(A), 1)
    for n in range(2):
        expect = SparseMatrix.identity(data.source.dims[n], A.field)
        assert data.homology_maps[n].equals(expect)


def test_quotient_map_on_hh0():
    A = truncated_polynomial(2)
    q = quotient_algebra(A, ideal_generated_by(A, [A.basis_vector(1)]))
    data = induced_map_hh(q.projection, 1)
    assert data.source.dims[0] == 2
    assert data.target.dims[0] == 1
    assert data.homology_maps[0].rank() == 1


def test_swap_permutes_hh0_classes():
    A = functions_on_points(2)
    swap = AlgebraMap.from_images(A, A, [{1: 1}, {0: 1}],
                                  multiplicative=True, unital=True)
    data = induced_map_hh(swap, 0)
    m = data.homology_maps[0]
    assert m.rank() == 2
    assert not m.equals(SparseMatrix.identity(2, A.field))
    assert m.matmul(m).equals(SparseMatrix.identity(2, A.field))


def test_induced_maps_are_functorial():
    A = functions_on_points(2)
    swap = AlgebraMap.from_images(A, A, [{1: 1}, {0: 1}],
                                  multiplicative=True, unital=True)
    twice = swap.compose(swap)
    lhs = induced_map_hh(twice, 1)
    rhs_outer = induced_map_hh(swap, 1)
    for n in range(2):
        composed = rhs_outer.homology_maps[n].matmul(rhs_outer.homology_maps[n])
        assert lhs.homology_maps[n].equals(composed)


def test_induced_map_requires_multiplicative_flag():
    A = functions_on_points(2)
    linear_only = AlgebraMap.from_images(A, A, [{0: 1}, {0: 1}])
    with pytest.raises(NotMultiplicative):
        induced_map_hh(linear_only, 1)


def test_chain_maps_commute_with_boundaries():
    A = truncated_polynomial(2)
    sign = AlgebraMap.from_images(A, A, [{0: 1}, {1: -1}],
                                  multiplicative=True, unital=True)
    data = induced_map_hh(sign, 2)
    for n in range(1, 3):
        src_b = data.source.window.boundaries[n]
        tgt_b = data.target.window.boundaries[n]
        lhs = tgt_b.matmul(data.chain_maps[n])
        rhs = data.chain_maps[n - 1].matmul(src_b)
        assert lhs.equals(rhs)


# ---------------------------------------------------------------------------
# Morita maps


def test_morita_size_one_is_identity():
    data = tr_star_and_iota(truncated_polynomial(2), 1, 1)
    for n in range(2):
        dim = data.base_report.dims[n]
        ident = SparseMatrix.identity(dim, data.base_report.algebra.field)
        assert data.iota_hh[n].equals(ident)
        assert data.tr_hh[n].equals(ident)


def test_trace_of_diagonal_inclusion_degree_zero():
    data = tr_star_and_iota(ground_field(), 2, 0)
    composite = data.tr_chain[0].matmul(data.iota_chain[0])
    assert composite.entry(0, 0) == 2


def test_morita_composite_is_n_times_identity():
    for A, N in ((ground_field(), 2), (functions_on_points(2), 2),
                 (truncated_polynomial(2), 2), (ground_field(), 3),
                 (extend_scalars(truncated_polynomial(2), 3), 2)):
        data = tr_star_and_iota(A, N, 2)
        for n in range(3):
            dim = data.base_report.dims[n]
            composite = data.tr_hh[n].matmul(data.iota_hh[n])
            expect = SparseMatrix.identity(dim, A.field).scaled(N)
            assert composite.equals(expect)


def _trace_oracle(src, n, chain, mats, tgt):
    """The generalized trace of a degree-n chain of src after putting the
    N x N matrix mats[k] over tgt's algebra in place of basis element k in
    every slot, one chain coordinate at a time: the entries are multiplied
    along each closed index path p_0 -> p_1 -> .. -> p_n -> p_0.  Both
    windows are unnormalized and over one field."""
    field = tgt.field
    out = {}
    for index, c in chain.items():
        tup = src.tuple_of(n, index)
        for start in range(len(mats[tup[0]])):
            paths = [(start, (), c)]
            for k in tup:
                paths = [(q, word + (i,), field.mul(v, a))
                         for p, word, v in paths
                         for q, entry in enumerate(mats[k][p])
                         for i, a in entry.items()]
            for p, word, v in paths:
                if p == start:
                    add_term(out, tgt.index_of(n, word), v, field)
    return out


def test_built_rows_hold_their_columns_in_increasing_order():
    # boundaries and full chain maps are written as rows, visiting the
    # columns in increasing order
    F2 = functions_on_points(2)
    swap = AlgebraMap.from_images(F2, F2, [{1: 1}, {0: 1}],
                                  multiplicative=True, unital=True)
    QS3 = group_algebra(symmetric_group_3())
    T3 = truncated_polynomial(3)
    walk = hh(QS3, 2).window
    matrices = [w.boundaries[n] for w in (
        bar_complex(T3, 3), bar_complex(T3, 3, normalized=True),
        bar_complex(QS3, 2, normalized=True, blocks=block_idempotents(QS3)),
        walk, bar_complex(F2, 3, coefficients=twisted_bimodule(F2, swap)))
        for n in range(1, w.n_max + 1)]
    matrices += induced_map_hh(swap, 2).chain_maps
    matrices += induced_map_hc(swap, 3).chain_maps
    matrices += induced_map_hc(swap, 3, normalized=False).chain_maps
    matrices += tr_star_and_iota(T3, 2, 1).tr_chain
    matrices += [center_action(walk, z, n)
                 for z in center(QS3).basis for n in range(3)]
    assert sum(len(row) > 2 for m in matrices for row in m.rows) > 50
    for m in matrices:
        for row in m.rows:
            assert list(row) == sorted(row)


@pytest.mark.parametrize("A, N, n_max", [
    (ground_field(), 3, 2),
    (truncated_polynomial(2), 3, 1),
    (extend_scalars(truncated_polynomial(2), 3), 2, 2),
])
def test_morita_trace_matches_the_per_chain_oracle(A, N, n_max):
    data = tr_star_and_iota(A, N, n_max)
    big, base = data.matrix_report.window, data.base_report.window
    one = A.field.one
    units = [_unflatten(A, {j: one}, N) for j in range(big.algebra.dim)]
    for n in range(n_max + 1):
        cols = [_trace_oracle(big, n, {j: one}, units, base)
                for j in range(big.dims[n])]
        assert data.tr_chain[n].equals(
            SparseMatrix.from_columns(cols, base.dims[n], A.field))


def test_chern_push_matches_the_per_chain_oracle():
    # each character raises the class's own tensor, e or u^-1 (x) u, over
    # the subalgebra it and the unit generate, and puts each carrier basis
    # element's matrix in place of it
    QZ5 = group_algebra(cyclic_group(5))
    C3 = extend_scalars(group_algebra(cyclic_group(3)), 3)
    C5 = extend_scalars(QZ5, 5)
    z = Cyclotomic.zeta(3)

    def projections(A, m):
        # (1/m) sum_k zeta_m^-k g^k, and diag of it and its complement
        e = {k: A.field.scale(A.field.zeta_pow[-k % m], Fraction(1, m))
             for k in range(m)}
        rest = {k: A.field.neg(c) for k, c in e.items()}
        rest[0] = A.field.add(rest[0], A.field.one)
        return (idempotent_rep(A, [[e]]),
                idempotent_rep(A, [[e, {}], [{}, rest]]))

    # (representative, top q): over Q(zeta5) only to q = 1, to keep it short
    reps = [(idempotent_rep(QZ5, [[{g: Fraction(1, 5) for g in range(5)}]]),
             2),
            *[(rep, 2) for rep in projections(C3, 3)],
            *[(rep, 1) for rep in projections(C5, 5)],
            (invertible_rep(QZ5, [[{1: 1}]]), 1),
            (invertible_rep(C3, [[{0: z}, {1: 1}], [{}, {2: 1}]]), 1),
            (invertible_rep(C5, [[{1: C5.field.zeta_pow[2]}]]), 1)]
    for rep, top in reps:
        M, field = rep.matrices, rep.algebra.field
        seed = (rep.flat,) if rep.kind == "idempotent" else \
            (rep.inverse_flat, rep.flat)
        character = chern_idempotent if rep.kind == "idempotent" else \
            chern_invertible
        carrier, include = subalgebra_closure(M, [M.unit, *seed])
        mats = [_unflatten(rep.algebra, col, rep.size)
                for col in include.matrix.columns()]
        start = len(seed) - 1
        for q in range(top + 1):
            degree = start + 2 * q
            # the carrier cycle is raised on the oracle's total complex
            window = total_complex(carrier, degree, normalized=False)
            hoch = window.hochschild_window
            cycle = {}
            for word in product(*(include.matrix.solve(x).items()
                                  for x in seed)):
                value = field.one
                for _, c in word:
                    value = field.mul(value, c)
                add_term(cycle, hoch.index_of(start, tuple(
                    k for k, _ in word)), value, field)
            raised = CyclicChain(window, start, dict(cycle))
            for n in range(start, degree, 2):
                cycle = extend_cycle(window, n, cycle)
                raised = _extend_cycle(raised)
            if degree:
                assert not window.totals[degree].mat_vec(cycle)
            assert raised.chain == cycle
            pushed = character(rep, q)
            tgt = pushed.chain.window.hochschild_window
            for k, (m, _) in enumerate(window.summands(degree)):
                expected = _trace_oracle(
                    hoch, m, window.component(degree, cycle, k), mats, tgt)
                assert vec_equal(pushed.component(m), expected, field)


def test_matrix_algebra_homology_matches_base():
    assert hh(matrix_algebra(ground_field(), 2), 3).dims == \
        hh(ground_field(), 3).dims


# ---------------------------------------------------------------------------
# the center action


def test_center_action_commutes_with_boundary():
    A = group_algebra(symmetric_group_3())
    # the class sum of the transpositions is central
    z = {1: 1, 2: 1, 3: 1}
    assert A.left_mult_matrix(z).equals(A.right_mult_matrix(z))
    w = bar_complex(A, 2, normalized=True)
    z2 = center_action(w, z, 2)
    z1 = center_action(w, z, 1)
    assert w.boundaries[2].matmul(z2).equals(z1.matmul(w.boundaries[2]))


def test_center_action_on_a_rebased_slot_basis():
    # the unit of C(3) is delta_0 + delta_1 + delta_2, so the normalized
    # window's slot basis differs from the algebra's
    A = functions_on_points(3)
    w = bar_complex(A, 3, normalized=True)
    z = {0: 1}
    for n in (1, 2, 3):
        zn = center_action(w, z, n)
        zm = center_action(w, z, n - 1)
        assert w.boundaries[n].matmul(zn).equals(zm.matmul(w.boundaries[n]))
    # the three point masses add up to the unit, which acts as the identity
    for n in range(4):
        total = center_action(w, {0: 1}, n)
        for point in (1, 2):
            total = total.add(center_action(w, {point: 1}, n))
        assert total.equals(SparseMatrix.identity(w.dims[n], A.field))
        assert not center_action(w, z, n).equals(total)


def test_center_action_on_a_block_window():
    A = group_algebra(symmetric_group_3())
    w = hh(A, 2).window
    z = {1: 1, 2: 1, 3: 1}
    for n in (1, 2, 3):
        assert w.boundaries[n].matmul(center_action(w, z, n)).equals(
            center_action(w, z, n - 1).matmul(w.boundaries[n]))
    # each block idempotent is the identity on its block's chains
    for n in range(4):
        total = SparseMatrix(w.dims[n], w.dims[n], A.field)
        for e in block_idempotents(A):
            total = total.add(center_action(w, e, n))
        assert total.equals(SparseMatrix.identity(w.dims[n], A.field))
    # a transposition moves chains between blocks
    with pytest.raises(ValidationError):
        center_action(w, {1: 1}, 1)


def test_center_action_unnormalized():
    A = truncated_polynomial(3)
    z = {1: 1}
    w = bar_complex(A, 2)
    z2 = center_action(w, z, 2)
    z1 = center_action(w, z, 1)
    assert w.boundaries[2].matmul(z2).equals(z1.matmul(w.boundaries[2]))


def _zero_line():
    """The nonunital line x with x^2 = 0."""
    return FDAlgebra(1, 1, {}, labels=["x"])


def _coefficient_window():
    A = truncated_polynomial(2)
    return bar_complex(A, 2, coefficients=diagonal_bimodule(A))


@pytest.mark.parametrize("error, message, call", [
    (ValidationError, "variant must be b or b_prime",
     lambda: bar_complex(truncated_polynomial(2), 2, variant="c")),
    (NonUnital, "coefficient complexes need a unital algebra",
     lambda: bar_complex(Z := _zero_line(), 2,
                         coefficients=diagonal_bimodule(Z))),
    (ValidationError, "bimodule belongs to a different algebra",
     lambda: bar_complex(truncated_polynomial(2), 2, coefficients=(
         diagonal_bimodule(truncated_polynomial(2))))),
    (NonUnital, "the homotopy needs a unit",
     lambda: homotopy_s(bar_complex(_zero_line(), 2), 0, {})),
    (ValidationError, "the homotopy lives on the unnormalized complex",
     lambda: homotopy_s(bar_complex(truncated_polynomial(2), 2,
                                    normalized=True), 0, {})),
    (ValidationError, "the homotopy is for the coefficient-free complex",
     lambda: homotopy_s(_coefficient_window(), 0, {})),
    (ValidationError, "window too short for the homotopy target degree",
     lambda: homotopy_s(bar_complex(truncated_polynomial(2), 2), 2, {})),
    (NotMultiplicative, "normalized induced maps need a unital map",
     lambda: induced_map_hh(ideal_as_algebra(two_sided_ideal(
         truncated_polynomial(3), [{1: 1}, {2: 1}]))[1], 1,
         normalized=True)),
    (NonUnital, "Morita maps need a unital base algebra",
     lambda: tr_star_and_iota(_zero_line(), 2, 1)),
    (ValidationError, "center action is for the coefficient-free complex",
     lambda: center_action(_coefficient_window(), {0: 1}, 0)),
], ids=["unknown variant", "nonunital coefficients", "foreign bimodule",
        "homotopy without a unit", "homotopy on the reduced window",
        "homotopy with coefficients", "homotopy past the window",
        "normalized map without a unit", "Morita without a unit",
        "center action with coefficients"])
def test_hochschild_refusals_are_typed(error, message, call):
    with pytest.raises(error) as info:
        call()
    assert info.type is error and str(info.value) == message


def test_center_action_refuses_coordinates_outside_the_algebra():
    # Q[x]/x^3 has basis 1, x, x^2: -1 would read as x^2 and 3 overruns
    w = bar_complex(truncated_polynomial(3), 2)
    for z in ({-1: 1}, {3: 1}, {0: 1, 3: 2}):
        with pytest.raises(ValidationError, match="outside a basis"):
            center_action(w, z, 1)


# ---------------------------------------------------------------------------
# hh relative to the central idempotents


def _relabelled(A, seed):
    """A with its basis permuted by a permutation drawn from the seed."""
    perm = list(range(A.dim))
    random.Random(seed).shuffle(perm)
    new = {old: k for k, old in enumerate(perm)}

    def moved(vec):
        return {new[k]: c for k, c in vec.items()}

    mul = {(i, j): moved(A.mul[perm[i]][perm[j]])
           for i in range(A.dim) for j in range(A.dim)}
    return FDAlgebra(A.dim, A.field_order, mul,
                     labels=[A.labels[p] for p in perm], unit=moved(A.unit),
                     name=A.name).require_valid()


def _closed_walk_counts(A, idempotents, top):
    """Degree 0..top chain counts of the window relative to the idempotents,
    summed over every closed walk of states from the piece dimensions
    dim e_i A e_j (an interior slot has one dimension less on the
    diagonal, where e_i is dropped)."""
    r = len(idempotents)
    piece = [[A.left_mult_matrix(e).matmul(A.right_mult_matrix(f)).rank()
              for f in idempotents] for e in idempotents]
    counts = []
    for n in range(top + 1):
        total = 0
        for states in product(range(r), repeat=n + 1):
            steps = list(zip(states, states[1:] + states[:1]))
            term = piece[steps[0][0]][steps[0][1]]
            for i, j in steps[1:]:
                term *= piece[i][j] - (i == j)
            total += term
        counts.append(total)
    return counts


def _check_relative_hh(A, n_max):
    """hh's walk window, and the window relative to the blocks, against the
    one-block routes."""
    rel = hh(A, n_max)
    one = bar_complex(A, n_max + 1, normalized=True)
    plain = hh(A, n_max, normalized=False)
    assert rel.dims == _homology_report(A, one, one.boundaries,
                                        n_max).dims == plain.dims
    w = rel.window
    for d in rel.degrees[1:]:
        for rep in d.representatives:
            assert not w.boundaries[d.degree].mat_vec(rep)
    assert w.dims == _closed_walk_counts(A, split_idempotents(A), n_max + 1)
    blocks = block_idempotents(A)
    central = bar_complex(A, n_max + 1, normalized=True, blocks=blocks)
    assert _homology_report(A, central, central.boundaries,
                            n_max).dims == rel.dims
    sizes = [A.left_mult_matrix(e).rank() for e in blocks]
    assert sum(sizes) == A.dim
    assert central.dims == [sum(d * (d - 1) ** n for d in sizes)
                            for n in range(n_max + 2)]
    # a one-block list is the ordinary normalized window
    same = bar_complex(A, n_max + 1, normalized=True, blocks=[A.unit])
    assert same.dims == one.dims
    for n in range(1, n_max + 2):
        assert same.boundaries[n].rows == one.boundaries[n].rows
    if len(sizes) == 1:
        for n in range(1, n_max + 2):
            assert central.boundaries[n].rows == one.boundaries[n].rows
    return rel


def _swapfix():
    act = FiniteVarietyAction(cyclic_group(2), 3, [(0, 1, 2), (1, 0, 2)],
                              name="swapfix")
    return variety_crossed_product(act).product


@pytest.mark.parametrize("build, n_max, blocks", [
    (lambda: _relabelled(group_algebra(symmetric_group_3()), 3), 2, 3),
    (lambda: extend_scalars(group_algebra(symmetric_group_3()), 3), 2, 3),
    # the Q(zeta5) block of QZ5 does not split over Q
    (lambda: group_algebra(cyclic_group(5)), 2, 2),
    # a block with a radical
    (lambda: direct_sum(truncated_polynomial(3),
                        matrix_algebra(ground_field(), 2)).algebra, 2, 2),
    (_swapfix, 2, 3),
    (lambda: upper_triangular(2), 3, 1),
], ids=["QS3-relabelled", "QS3-zeta3", "QZ5", "radical", "swapfix", "upper2"])
def test_relative_hh_matches_the_one_block_routes(build, n_max, blocks):
    A = build()
    assert len(block_idempotents(A)) == blocks
    _check_relative_hh(A, n_max)


_SMALL = [lambda: functions_on_points(1), lambda: functions_on_points(2),
          lambda: truncated_polynomial(2), lambda: upper_triangular(2),
          lambda: group_algebra(cyclic_group(2))]


@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(range(len(_SMALL))), st.sampled_from(range(len(_SMALL))),
       st.sampled_from(["direct_sum", "crossed_product", "extend_scalars"]))
def test_relative_hh_matches_the_one_block_routes_on_drawn_algebras(i, j, how):
    A = _SMALL[i]()
    if how == "direct_sum":
        A = direct_sum(A, _SMALL[j]()).algebra
    elif how == "crossed_product":
        A = crossed_product(A, trivial_action(cyclic_group(2), A)).product
    else:
        A = extend_scalars(A, 3)
    _check_relative_hh(A, 2)


def test_block_windows_have_a_codec():
    A = group_algebra(symmetric_group_3())
    w = bar_complex(A, 3, normalized=True, blocks=block_idempotents(A))
    slots = w.slots
    assert sorted(len(v) for v in slots.slot0) == [1, 1, 4]
    for n in range(4):
        for index in range(w.dims[n]):
            tup = w.tuple_of(n, index)
            assert w.index_of(n, tup) == index
            # every letter lies in slot 0's block
            assert {slots.label[slots.interior[k]] for k in tup[1:]} <= \
                {slots.slot0_label[tup[0]]}
        ranks = slots.ranks(n)
        for values, words in slots.blocks(n):
            assert [ranks[u] for u in words] == list(range(len(words)))
    # the one-dimensional blocks have no degree-1 chains, and an interior
    # code of another block is refused
    assert w.dims[1] == 4 * 3
    point = next(v[0] for v in slots.slot0 if len(v) == 1)
    with pytest.raises(ValidationError):
        w.index_of(1, (point, 0))


def _rot3():
    act = FiniteVarietyAction(cyclic_group(3), 3,
                              [(0, 1, 2), (1, 2, 0), (2, 0, 1)], name="rot3")
    return variety_crossed_product(act).product


@pytest.mark.parametrize("build", [
    lambda: group_algebra(symmetric_group_3()), _rot3,
    lambda: upper_triangular(2)], ids=["QS3", "rot3", "upper2"])
def test_walk_windows_have_a_codec(build):
    A = build()
    field = A.field
    w = hh(A, 3).window
    slots = w.slots
    idems = split_idempotents(A)
    assert w.dims == _closed_walk_counts(A, idems, 4)
    # the f-index of piece (i, j) lies in e_i A e_j
    for f, (i, j) in enumerate(slots.label):
        v = slots.f_vectors[f]
        assert vec_equal(A.multiply(A.multiply(idems[i], v), idems[j]), v,
                         field)
    for n in range(5):
        for index in range(w.dims[n]):
            tup = w.tuple_of(n, index)
            assert w.index_of(n, tup) == index
            # each factor leaves the state the one before it enters, and
            # the last one enters the state slot 0 leaves
            pieces = [slots.slot0_label[tup[0]]] + \
                [slots.code_label[k] for k in tup[1:]]
            assert all(a[1] == b[0]
                       for a, b in zip(pieces, pieces[1:] + pieces[:1]))
    # the degree-1 tuples that are not closed walks are refused
    walks = {w.tuple_of(1, index) for index in range(w.dims[1])}
    others = [(s, k) for s in range(len(slots.slot0_label))
              for k in range(slots.interior_radix) if (s, k) not in walks]
    assert others
    for tup in others:
        with pytest.raises(ValidationError):
            w.index_of(1, tup)
    # B inserts the idempotent of the state at each cut
    for n in range(1, 3):
        for index in range(w.dims[n]):
            chain = {index: field.one}
            assert operator_B(w, n + 1, operator_B(w, n, chain)) == {}
            bB = w.boundaries[n + 1].mat_vec(operator_B(w, n, chain))
            Bb = operator_B(w, n - 1, w.boundaries[n].mat_vec(chain))
            assert vec_equal(vec_add(bB, Bb, field), {}, field)


def _T3_plus_M2():
    return direct_sum(truncated_polynomial(3),
                      matrix_algebra(ground_field(), 2)).algebra


@pytest.mark.parametrize("build", [
    lambda: functions_on_points(3), lambda: upper_triangular(2),
    _T3_plus_M2], ids=["points3", "upper2", "T3+M2"])
def test_one_idempotent_slot_basis_puts_the_unit_first(build):
    A = build()
    assert len(A.unit) > 1
    slots = bar_complex(A, 1, normalized=True).slots
    # the unit replaces the lowest-indexed basis vector it involves
    top = min(A.unit)
    assert slots.f_vectors == [A.unit] + \
        [A.basis_vector(k) for k in range(A.dim) if k != top]


def _QS3():
    return group_algebra(symmetric_group_3())


def _walk_window(A):
    return hh(A, 1).window


@pytest.mark.parametrize("build, window", [
    (_QS3, lambda A: bar_complex(A, 1)),
    (_T3_plus_M2, lambda A: bar_complex(A, 1, normalized=True)),
    (_QS3, lambda A: bar_complex(A, 1, normalized=True,
                                 blocks=block_idempotents(A))),
    (_QS3, _walk_window), (_rot3, _walk_window),
    (lambda: upper_triangular(2), _walk_window)],
    ids=["unnormalized", "one", "blocks", "walk QS3", "walk rot3",
         "walk upper2"])
def test_e_to_f_inverts_the_slot_basis(build, window):
    A = build()
    slots = window(A).slots
    F = SparseMatrix.from_columns(slots.f_vectors, A.dim, A.field)
    assert slots.e_to_f.matmul(F).equals(
        SparseMatrix.identity(A.dim, A.field))


def test_upper_triangular_walk_window_has_no_positive_chains():
    T = upper_triangular(2)
    rel = hh(T, 4)
    assert rel.window.dims == [2, 0, 0, 0, 0, 0]
    one = bar_complex(T, 5, normalized=True)
    assert rel.dims == _homology_report(T, one, one.boundaries, 4).dims \
        == [2, 0, 0, 0, 0]


def test_blocks_must_cut_the_algebra_into_a_direct_sum():
    A = functions_on_points(2)
    # the last two: a coordinate outside the basis, a float coefficient
    for blocks in ([{0: 1}], [{0: 1}, {0: 1, 1: 1}], [{0: 1}, {1: 2}],
                   [{0: 1}, {9: 1}], [{0: 1}, {1: 1.0}]):
        with pytest.raises(ValidationError):
            bar_complex(A, 2, normalized=True, blocks=blocks)
    # idempotents need not be central
    T = upper_triangular(2)
    corner = {T.labels.index("E11"): 1}
    rest = {k: c for k, c in T.unit.items() if k not in corner}
    w = bar_complex(T, 3, normalized=True, blocks=[corner, rest])
    one = bar_complex(T, 3, normalized=True)
    assert _homology_report(T, w, w.boundaries, 2).dims == \
        _homology_report(T, one, one.boundaries, 2).dims
    with pytest.raises(ValidationError):
        bar_complex(A, 2, blocks=[A.unit])


@pytest.mark.parametrize("blocks", [True, [[1]], [None]],
                         ids=["bool", "list", "None"])
def test_malformed_blocks_are_refused_before_any_work(blocks):
    A = group_algebra(symmetric_group_3())
    with pytest.raises(ValidationError):
        bar_complex(A, 2, normalized=True, blocks=blocks)


def test_cleared_idempotent_checks_still_refuse():
    A = group_algebra(symmetric_group_3())
    trivial, sign, *rest = split_idempotents(A)
    half_unit = {k: Fraction(1, 2) * c for k, c in A.unit.items()}
    # non-idempotents with denominators 2 and 3 summing to the unit
    a = {0: Fraction(1, 2), 1: Fraction(1, 3)}
    b = {0: Fraction(1, 2), 1: Fraction(-1, 3)}
    for blocks in ([{k: 2 * c for k, c in trivial.items()}, sign] + rest,
                   [half_unit, half_unit], [a, b]):
        with pytest.raises(ValidationError):
            bar_complex(A, 2, normalized=True, blocks=blocks)
    bar_complex(A, 2, normalized=True, blocks=[trivial, sign] + rest)


def test_idempotents_that_do_not_sum_to_the_unit_are_refused():
    A = group_algebra(symmetric_group_3())
    trivial, sign = split_idempotents(A)[:2]
    for blocks in ([A.unit, A.unit], [trivial, sign]):
        with pytest.raises(ValidationError,
                           match="orthogonal idempotents summing to the unit"):
            bar_complex(A, 1, normalized=True, blocks=blocks)


def _fraction_pieces(A, idempotents):
    """hochschild._pieces on the idempotents as given, with no denominator
    cleared: the route the cleared one must reproduce."""
    field = A.field
    rights = [A.right_mult_matrix(e) for e in idempotents]
    for i, e in enumerate(idempotents):
        left = A.left_mult_matrix(e)
        ideal = [left.columns()[p] for p in left.rref()[1]]
        for j, right in enumerate(rights):
            mult = SparseMatrix.from_columns(
                [right.mat_vec(u) for u in ideal], A.dim, field)
            yield i, j, [mult.columns()[q] for q in mult.rref()[1]]


def _fraction_slot_basis(A, idempotents):
    """(f_vectors, label, interior, e_to_f, mulf) of the Peirce basis built
    on _fraction_pieces, with mulf[a][b] = e_to_f (f_a f_b)."""
    field = A.field
    f_vectors, label, firsts = [], [], set()
    for i, j, basis in _fraction_pieces(A, idempotents):
        if i == j:
            e = idempotents[i]
            top = min(SparseMatrix.from_columns(basis, A.dim,
                                                field).solve(e))
            firsts.add(len(f_vectors))
            basis = [dict(e)] + basis[:top] + basis[top + 1:]
        f_vectors += basis
        label += [(i, j)] * len(basis)
    e_to_f = SparseMatrix.from_columns(f_vectors, A.dim, field).inverse()
    interior = [f for f in range(A.dim) if f not in firsts]
    mulf = [[_normalize_vec(e_to_f.mat_vec(A.multiply(x, y)), A)
             if a[1] == b[0] else {}
             for y, b in zip(f_vectors, label)]
            for x, a in zip(f_vectors, label)]
    return f_vectors, label, interior, e_to_f, mulf


def _scaled_basis(A, scales):
    """A on the basis scales[k] x_k, so its structure constants are
    Fractions."""
    mul = {(i, j): {k: Fraction(s * scales[i] * scales[j], scales[k])
                    for k, s in A.mul[i][j].items()}
           for i in range(A.dim) for j in range(A.dim)}
    unit = {k: Fraction(c, scales[k]) for k, c in A.unit.items()}
    return FDAlgebra(A.dim, A.field_order, mul, unit=unit).require_valid()


def _mixed_denominators():
    """M_3(Q) cut by E11 (denominator 1) and E22 + 2/3 E23, E33 - 2/3 E23
    (denominator 3), idempotents that are not central."""
    A = matrix_algebra(ground_field(), 3)
    return A, [{0: 1}, {4: 1, 5: Fraction(2, 3)}, {8: 1, 5: Fraction(-2, 3)}]


def _gauss_denominators():
    """QZ4 cut by (1/4)(1 + g + g^2 + g^3), (1/4)(1 - g + g^2 - g^3) and
    (1/2)(1 - g^2)."""
    A = group_algebra(cyclic_group(4))
    q, h = Fraction(1, 4), Fraction(1, 2)
    return A, [{0: q, 1: q, 2: q, 3: q}, {0: q, 1: -q, 2: q, 3: -q},
               {0: h, 2: -h}]


def _split(build):
    def cut():
        A = build()
        return A, split_idempotents(A)
    return cut


def _zeta_rebased_qz3():
    """Q(zeta3)[Z/3] on the basis zeta3 g^k: the structure constants are
    zeta3 and the unit is zeta3^2 times the first basis vector."""
    zeta = field_of_order(3).zeta_pow
    mul = {(i, j): {(i + j) % 3: zeta[1]} for i in range(3) for j in range(3)}
    return FDAlgebra(3, 3, mul, unit={0: zeta[2]}).require_valid()


def _unit(build):
    """The one idempotent [unit], whose slot basis is read off the table."""
    def cut():
        A = build()
        return A, [A.unit]
    return cut


@pytest.mark.parametrize("case", [
    _split(lambda: group_algebra(symmetric_group_3())),
    _split(lambda: extend_scalars(group_algebra(symmetric_group_3()), 3)),
    _split(lambda: group_algebra(dihedral_group_4())),
    _split(lambda: group_algebra(quaternion_group())),
    _split(lambda: extend_scalars(group_algebra(cyclic_group(5)), 5)),
    _split(lambda: matrix_algebra(truncated_polynomial(2), 2)),
    _split(lambda: upper_triangular(3)),
    _split(_rot3),
    _split(lambda: _scaled_basis(group_algebra(symmetric_group_3()),
                                 [2, 3, 1, 1, 6, 1])),
    _mixed_denominators, _gauss_denominators,
    _unit(lambda: group_algebra(symmetric_group_3())),
    _unit(lambda: extend_scalars(group_algebra(cyclic_group(5)), 5)),
    _unit(lambda: _relabelled(group_algebra(symmetric_group_3()), 5)),
    _unit(lambda: _scaled_basis(group_algebra(symmetric_group_3()),
                                [2, 3, 1, 1, 6, 1])),
    _unit(lambda: functions_on_points(3)), _unit(lambda: upper_triangular(3)),
    _unit(_T3_plus_M2), _unit(_zeta_basis_truncation),
    _unit(_zeta_rebased_qz3)],
    ids=["QS3", "QS3-zeta3", "QD4", "QQ8", "QZ5-zeta5", "M2(T2)", "U3",
         "rot3", "QS3-scaled", "M3-mixed", "QZ4-mixed", "QS3 unit",
         "QZ5-zeta5 unit", "QS3-relabelled unit", "QS3-scaled unit",
         "points3 unit", "U3 unit", "T3+M2 unit", "x3-zeta3 unit",
         "QZ3-zeta3-rebased unit"])
def test_cleared_slot_basis_matches_the_fraction_route(case):
    A, idems = case()
    # bar_complex refuses a list that is not a cut of the unit
    slots = bar_complex(A, 1, normalized=True, blocks=idems).slots
    f_vectors, label, interior, e_to_f, mulf = _fraction_slot_basis(
        A, [_normalize_vec(e, A) for e in idems])
    assert slots.f_vectors == f_vectors
    assert slots.label == label
    assert slots.interior == interior
    assert slots.e_to_f.rows == e_to_f.rows
    assert slots.mulf == mulf
    # mulf keeps the raw rule: an int wherever a rational is integral
    for row in slots.mulf:
        for vec in row:
            for v in vec.values():
                for c in A.field.to_coeffs(v):
                    assert type(c) is int or c.denominator != 1


def test_budget_counts_the_block_window(monkeypatch):
    A = group_algebra(symmetric_group_3())
    monkeypatch.setenv(BUDGET_ENV_VAR, "1000")
    # degree 5 holds 4 * 3^5 = 972 block coordinates, 6 * 5^5 = 18,750
    # one-block ones
    assert hh(A, 4).dims == [3, 0, 0, 0, 0]
    with pytest.raises(SizeOverflow):
        bar_complex(A, 5, normalized=True)
