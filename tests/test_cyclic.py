"""Cyclic homology: t and B, the bicomplex, S, SBI, HP, excision.

The (b, B) total complex that the library no longer builds lives in
bicomplex_oracle; every route on Connes' complex is compared with it.
"""

import random
from fractions import Fraction
from functools import partial
from itertools import product

import pytest

from cychom.algebra import (
    AlgebraMap,
    FDAlgebra,
    diagonal_bimodule,
    direct_sum,
    functions_on_points,
    ground_field,
    ideal_as_algebra,
    ideal_generated_by,
    matrix_algebra,
    truncated_polynomial,
    two_sided_ideal,
    unitalization,
    upper_triangular,
)
from cychom import config
from cychom.crossprod import variety_crossed_product
from cychom.cyclic import (
    _code,
    _connes_chain_maps,
    _read_back,
    _unit_trace,
    _s_on_homology,
    _s_tower,
    cyclic_complex,
    direct_sum_check,
    excision_check,
    hc,
    hp,
    induced_map_hc,
    operator_B,
    operator_S,
    sbi_check,
)
from cychom.errors import (
    AmbientMismatch,
    DegreeTooLow,
    NonUnital,
    NotMultiplicative,
    SizeOverflow,
    ValidationError,
)
from cychom.groups import FiniteVarietyAction, cyclic_group, group_algebra, \
    symmetric_group_3
from cychom.hochschild import _phi_slot_maps, bar_complex, center_action, \
    hh, induced_map_hh
from cychom.linalg import SparseMatrix, Subspace, add_term, homology, \
    induced_map, vec_add, vec_axpy, vec_equal, vec_sub
from cychom.spectrum import extend_scalars
from test_hochschild import _relabelled, _zeta_basis_truncation
import bicomplex_oracle as oracle
from bicomplex_oracle import _bicomplex_hc, cyclic_t, homotopy_s, i_matrix, \
    s_matrix, total_complex


def connes_quotient_hc_dims(A, n_max):
    """Independent route to HC: homology of the coinvariant quotient.

    Dividing each unnormalized chain space by the image of 1 - t leaves a
    complex under b alone; over the rationals its homology agrees with the
    bicomplex answer.  No B operator and no stacking are involved, so this
    shares nothing with the implementation under test.
    """
    w = bar_complex(A, n_max + 1, normalized=False)
    field = A.field
    free_cols, reducers = [], []
    for n in range(n_max + 2):
        cols = [cyclic_t(w, n, {j: field.one}) for j in range(w.dims[n])]
        t_mat = SparseMatrix.from_columns(cols, w.dims[n], field)
        one_minus_t = SparseMatrix.identity(w.dims[n], field).add(
            t_mat.scaled(-1))
        image = Subspace.from_vectors(w.dims[n], field,
                                      one_minus_t.columns())
        pivots = set(image.pivot_cols)
        free_cols.append([j for j in range(w.dims[n]) if j not in pivots])
        reducers.append(image)
    boundaries = [None]
    for n in range(1, n_max + 2):
        pos = {j: i for i, j in enumerate(free_cols[n - 1])}
        cols = []
        for j in free_cols[n]:
            vec = reducers[n - 1].reduce(w.boundaries[n].mat_vec({j: field.one}))
            cols.append({pos[i]: c for i, c in vec.items()})
        boundaries.append(SparseMatrix.from_columns(
            cols, len(free_cols[n - 1]), field))
    dims = []
    for n in range(n_max + 1):
        H = homology(boundaries[n], boundaries[n + 1],
                     space_dim=len(free_cols[n]), field=field)
        dims.append(H.dim)
    return dims


def test_connes_oracle_on_the_ground_field():
    assert connes_quotient_hc_dims(ground_field(), 4) == [1, 0, 1, 0, 1]


# ---------------------------------------------------------------------------
# the operators t and B


def test_t_is_a_signed_rotation():
    A = truncated_polynomial(2)
    w = bar_complex(A, 3, normalized=False)
    one = A.field.one
    # degree 1 picks up the sign (-1)^1
    out = cyclic_t(w, 1, {w.index_of(1, (0, 1)): one})
    assert out == {w.index_of(1, (1, 0)): -1}
    # degree 2 does not
    out = cyclic_t(w, 2, {w.index_of(2, (1, 0, 1)): one})
    assert out == {w.index_of(2, (1, 1, 0)): 1}


def test_t_has_order_degree_plus_one():
    w = bar_complex(truncated_polynomial(2), 3, normalized=False)
    rng = random.Random(1986)
    for n in range(1, 4):
        chain = {rng.randrange(w.dims[n]): rng.randint(-3, 3)
                 for _ in range(5)}
        chain = {k: v for k, v in chain.items() if v}
        out = dict(chain)
        for _ in range(n + 1):
            out = cyclic_t(w, n, out)
        assert out == chain


def test_t_rejects_reduced_windows_and_coefficients():
    A = functions_on_points(2)
    with pytest.raises(ValidationError):
        cyclic_t(bar_complex(A, 2, normalized=True), 1, {})
    w = bar_complex(A, 2, coefficients=diagonal_bimodule(A))
    with pytest.raises(ValidationError):
        cyclic_t(w, 1, {})


def test_B_in_degree_zero():
    A = truncated_polynomial(2)
    w = bar_complex(A, 2, normalized=False)
    out = operator_B(w, 0, {1: A.field.one})
    assert out == {w.index_of(1, (0, 1)): 1, w.index_of(1, (1, 0)): 1}
    # reduced coordinates keep only the unit-first half
    wn = bar_complex(A, 2, normalized=True)
    out = operator_B(wn, 0, {1: A.field.one})
    assert out == {wn.index_of(1, (0, 0)): 1}
    # the unit itself is killed in reduced coordinates
    assert operator_B(wn, 0, {0: A.field.one}) == {}


def test_B_squares_to_zero_and_anticommutes_with_b():
    rng = random.Random(6021)
    windows = [
        bar_complex(functions_on_points(2), 4, normalized=False),
        bar_complex(matrix_algebra(ground_field(), 2), 4, normalized=False),
        bar_complex(group_algebra(cyclic_group(3)), 4, normalized=True),
        # units with several terms: the slot basis is rebased
        bar_complex(functions_on_points(2), 4, normalized=True),
        bar_complex(matrix_algebra(ground_field(), 2), 4, normalized=True),
        # B on windows relative to the blocks of Q + Q + M_2(Q) and of
        # Q[x]/x^3 + M_2(Q)
        hh(group_algebra(symmetric_group_3()), 3).window,
        hh(direct_sum(truncated_polynomial(3),
                      matrix_algebra(ground_field(), 2)).algebra, 3).window,
    ]
    for w in windows:
        for n in range(1, 3):
            chain = {rng.randrange(w.dims[n]): rng.randint(-2, 2)
                     for _ in range(4)}
            chain = {k: v for k, v in chain.items() if v}
            assert operator_B(w, n + 1, operator_B(w, n, chain)) == {}
            bB = w.boundaries[n + 1].mat_vec(operator_B(w, n, chain))
            Bb = operator_B(w, n - 1, w.boundaries[n].mat_vec(chain))
            total = dict(bB)
            for k, v in Bb.items():
                total[k] = total.get(k, 0) + v
            assert all(v == 0 for v in total.values())


def test_B_is_one_minus_t_after_s_after_the_norm():
    windows = [
        (truncated_polynomial(4), 3),
        (matrix_algebra(ground_field(), 2), 2),
        (group_algebra(symmetric_group_3()), 2),
    ]
    for A, top in windows:
        w = bar_complex(A, top + 1, normalized=False)
        field = w.field
        for n in range(top + 1):
            for j in range(w.dims[n]):
                # N sums the n + 1 powers of t
                norm, power = {}, {j: field.one}
                for _ in range(n + 1):
                    norm = vec_add(norm, power, field)
                    power = cyclic_t(w, n, power)
                lifted = homotopy_s(w, n, norm)
                expected = vec_sub(lifted, cyclic_t(w, n + 1, lifted), field)
                assert vec_equal(operator_B(w, n, {j: field.one}), expected,
                                 field), (A.name, n, j)


B_WINDOWS = {
    "T4": lambda: bar_complex(truncated_polynomial(4), 4),
    "T4 normalized": lambda: bar_complex(truncated_polynomial(4), 4,
                                         normalized=True),
    "QS3 walk": lambda: hh(group_algebra(symmetric_group_3()), 3).window,
    "zeta3": lambda: bar_complex(_zeta_basis_truncation(), 4),
    "zeta3 normalized": lambda: bar_complex(_zeta_basis_truncation(), 4,
                                            normalized=True),
    "zeta5": lambda: bar_complex(_zeta_basis_truncation(5), 4),
}


@pytest.mark.parametrize("name", list(B_WINDOWS))
def test_operator_B_is_the_B_matrix_times_the_chain(name):
    # operator_B adds each entry of the chain's columns straight into the
    # image; the oracle's B matrix holds every column
    w = B_WINDOWS[name]()
    field, rng = w.field, random.Random(name)
    zeta = field.zeta_pow[1] if field.order > 1 else 1
    cancelled = 0
    for n in range(w.n_max):
        matrix = oracle._B_matrix(w, n)
        drawn = [{rng.randrange(w.dims[n]): field.mul(
            zeta, field.from_rational(Fraction(rng.choice([-3, -1, 1, 2]),
                                               rng.randint(1, 3))))
                  for _ in range(rng.randint(1, 6))} for _ in range(6)]
        for chain in [{}] + drawn:
            image = operator_B(w, n, chain)
            assert vec_equal(image, matrix.mat_vec(chain), field)
            if n + 1 < w.n_max and image:
                # B B = 0: a chain whose terms all cancel
                assert operator_B(w, n + 1, image) == {}
                cancelled += 1
    assert cancelled


def test_B_guards():
    Z = FDAlgebra(1, 1, {}, labels=["x"])
    with pytest.raises(NonUnital):
        operator_B(bar_complex(Z, 2, normalized=False), 0, {0: 1})
    A = functions_on_points(2)
    w = bar_complex(A, 1, normalized=False)
    with pytest.raises(ValidationError):
        operator_B(w, 1, {0: A.field.one})
    for index in (-1, w.dims[0]):
        with pytest.raises(ValidationError):
            operator_B(w, 0, {index: A.field.one})


# ---------------------------------------------------------------------------
# the bicomplex window


def test_window_stacks_hochschild_degrees():
    w = cyclic_complex(ground_field(), 4, normalized=False)
    assert w.dims == [1, 1, 2, 2, 3]
    assert w.offsets[4] == [0, 1, 2]
    assert w.summands(4) == [(4, 0), (2, 1), (0, 2)]
    h = w.hochschild_window
    for n in range(5):
        assert w.dims[n] == sum(h.dims[m] for m, _ in w.summands(n))


def test_window_differential_squares_to_zero():
    total_complex(truncated_polynomial(2), 4, normalized=False).check_differential()
    total_complex(matrix_algebra(ground_field(), 2), 3).check_differential()
    total_complex(group_algebra(cyclic_group(3)), 4).check_differential()


def test_component_inclusion_roundtrip():
    w = cyclic_complex(truncated_polynomial(3), 4)
    rng = random.Random(73)
    h = w.hochschild_window
    for k in range(3):
        vec = {rng.randrange(h.dims[4 - 2 * k]): rng.randint(1, 5)
               for _ in range(3)}
        total = w.include_component(4, vec, k)
        assert w.component(4, total, k) == vec
        for other in range(3):
            if other != k:
                assert w.component(4, total, other) == {}


@pytest.mark.parametrize("A, top, normalized", [
    (truncated_polynomial(3), 5, True),
    (truncated_polynomial(3), 5, False),
    (extend_scalars(group_algebra(cyclic_group(3)), 3), 3, True),
], ids=["T3-normalized", "T3-unnormalized", "QZ3-over-Qzeta3"])
def test_totals_are_b_and_B_on_every_basis_chain(A, top, normalized):
    # column by column from the chain-level B and the Hochschild boundary,
    # placed by include_component: b keeps summand k, B lands in k-1
    w = total_complex(A, top, normalized=normalized)
    hoch = w.hochschild_window
    for n in range(1, top + 1):
        columns = w.totals[n].columns()
        for k, (m, start) in enumerate(w.summands(n)):
            b_columns = hoch.boundaries[m].columns() if m else None
            for j in range(hoch.dims[m]):
                expected = {}
                if m:
                    expected.update(w.include_component(n - 1, b_columns[j], k))
                if k:
                    expected.update(w.include_component(
                        n - 1, operator_B(hoch, m, {j: w.field.one}), k - 1))
                assert vec_equal(columns[start + j], expected, w.field)


def test_negative_degrees_are_rejected():
    A = truncated_polynomial(2)
    ident = AlgebraMap.identity(A)
    w = cyclic_complex(A, 3)
    for call in (lambda: cyclic_complex(A, -1), lambda: hc(A, -1),
                 lambda: hc(A, -1, normalized=False),
                 lambda: sbi_check(A, -1), lambda: induced_map_hc(ident, -1),
                 # degrees outside the window
                 lambda: i_matrix(w, -1), lambda: i_matrix(w, 4),
                 lambda: s_matrix(w, 4), lambda: operator_S(w, 4, {})):
        with pytest.raises(ValidationError):
            call()


_LAYOUT_CALLS = {
    # degree 4 has summands 0..2 and degree 2 has 15 coordinates, 12 + 3
    "summand -1 of degree 4": (
        lambda w: w.include_component(4, {0: 1}, -1), ValidationError),
    "summand -1 of degree 2": (
        lambda w: w.include_component(2, {5: 1}, -1), ValidationError),
    "summand 3 of degree 4": (lambda w: w.component(4, {}, 3),
                              ValidationError),
    "summand 2 of degree 3": (
        lambda w: w.include_component(3, {}, 2), ValidationError),
    "summand 1.0": (lambda w: w.component(4, {}, 1.0), ValidationError),
    "summands of degree -1": (lambda w: w.summands(-1), ValidationError),
    "summands of degree 5": (lambda w: w.summands(5), ValidationError),
    "component of degree 5": (lambda w: w.component(5, {}, 0),
                              ValidationError),
    "index 3 of a width-3 summand": (
        lambda w: w.include_component(2, {3: 1}, 1), AmbientMismatch),
    "index 12 of a width-12 summand": (
        lambda w: w.include_component(2, {0: 1, 12: 1}, 0), AmbientMismatch),
    "index -1": (lambda w: w.include_component(4, {-1: 1}, 0),
                 AmbientMismatch),
}


@pytest.mark.parametrize("call", sorted(_LAYOUT_CALLS))
def test_the_layout_accessors_refuse_what_the_window_lacks(call):
    w = cyclic_complex(truncated_polynomial(3), 4)
    assert w.dims[2] == 15 and len(w.summands(4)) == 3
    fn, error = _LAYOUT_CALLS[call]
    with pytest.raises(error) as info:
        fn(w)
    # AmbientMismatch is a ValidationError too: name the one expected
    assert type(info.value) is error


def test_a_total_space_over_budget_is_refused_before_B(monkeypatch):
    # the Hochschild dims 3, 6, 12, 24, 48 fit; degree 4's 48 + 12 + 3 not
    monkeypatch.setattr(config, "DEFAULT_CHAIN_DIM_BUDGET", 50)
    assert bar_complex(truncated_polynomial(3), 4,
                       normalized=True).dims == [3, 6, 12, 24, 48]
    built = []
    monkeypatch.setattr(oracle, "_B_matrix",
                        lambda *args: built.append(args))
    for build in (cyclic_complex, total_complex):
        with pytest.raises(SizeOverflow,
                           match="degree-4 total space needs 63"):
            build(truncated_polynomial(3), 4)
    assert built == []


_DEGREE_CALLS = {
    "s_matrix": s_matrix,
    "operator_S": lambda w, n: operator_S(w, n, {}),
    "i_matrix": i_matrix,
    "tuple_of": lambda w, n: w.hochschild_window.tuple_of(n, 0),
    "index_of": lambda w, n: w.hochschild_window.index_of(n, (0, 0)),
    "center_action": lambda w, n: center_action(
        w.hochschild_window, {0: 1}, n),
}


@pytest.mark.parametrize("n", [2.0, True, "1"])
@pytest.mark.parametrize("call", sorted(_DEGREE_CALLS))
def test_a_degree_that_is_not_an_int_is_refused(call, n):
    # True would pass for degree 1 and 2.0 for degree 2 in a range test
    w = cyclic_complex(truncated_polynomial(2), 3)
    with pytest.raises(ValidationError, match="must be an int"):
        _DEGREE_CALLS[call](w, n)


def test_nonunital_algebra_is_rejected():
    Z = FDAlgebra(1, 1, {}, labels=["x"])
    with pytest.raises(NonUnital):
        cyclic_complex(Z, 2)


def _coefficient_window():
    A = truncated_polynomial(2)
    return bar_complex(A, 2, coefficients=diagonal_bimodule(A))


@pytest.mark.parametrize("error, message, call", [
    (ValidationError, "the B operator needs coefficients in A",
     lambda: operator_B(_coefficient_window(), 0, {})),
    (NonUnital, "cyclic homology needs a unital algebra",
     lambda: hc(FDAlgebra(1, 1, {}, labels=["x"]), 2)),
    (NotMultiplicative, "induced maps need a multiplicative map",
     lambda: induced_map_hc(AlgebraMap(
         truncated_polynomial(2), truncated_polynomial(2),
         SparseMatrix.identity(2, truncated_polynomial(2).field)), 1)),
], ids=["B with coefficients", "hc without a unit", "hc of a linear map"])
def test_cyclic_refusals_are_typed(error, message, call):
    with pytest.raises(error) as info:
        call()
    assert info.type is error and str(info.value) == message


# ---------------------------------------------------------------------------
# S and I


def test_S_drops_the_top_component():
    w = cyclic_complex(truncated_polynomial(3), 4)
    h = w.hochschild_window
    rng = random.Random(512)
    vec = {rng.randrange(h.dims[1]): rng.randint(1, 4) for _ in range(3)}
    total = w.include_component(3, vec, 1)
    dropped = operator_S(w, 3, total)
    assert dropped == w.include_component(1, vec, 0)
    # and the top block itself goes to zero
    top = w.include_component(3, {0: h.field.one}, 0)
    assert operator_S(w, 3, top) == {}


def test_S_matrix_agrees_with_the_operator():
    w = cyclic_complex(functions_on_points(2), 3, normalized=False)
    rng = random.Random(88)
    for n in (2, 3):
        chain = {rng.randrange(w.dims[n]): rng.randint(-3, 3)
                 for _ in range(4)}
        assert s_matrix(w, n).mat_vec(chain) == operator_S(w, n, chain)


def test_S_needs_degree_two():
    w = cyclic_complex(ground_field(), 3)
    for n in (0, 1):
        with pytest.raises(DegreeTooLow):
            operator_S(w, n, {})
        with pytest.raises(DegreeTooLow):
            s_matrix(w, n)


def test_I_is_the_first_block():
    w = cyclic_complex(truncated_polynomial(2), 3)
    h = w.hochschild_window
    for n in range(4):
        mat = i_matrix(w, n)
        assert (mat.nrows, mat.ncols) == (w.dims[n], h.dims[n])
        vec = {0: h.field.one}
        assert mat.mat_vec(vec) == w.include_component(n, vec, 0)


# ---------------------------------------------------------------------------
# cyclic homology


def test_hc_of_the_ground_field():
    assert hc(ground_field(), 4).dims == [1, 0, 1, 0, 1]


def test_hc_matches_the_coinvariant_oracle():
    for A, n_max in [(truncated_polynomial(2), 3),
                     (functions_on_points(2), 3),
                     (truncated_polynomial(3), 2)]:
        assert hc(A, n_max).dims == connes_quotient_hc_dims(A, n_max)


def test_hc_frozen_dimensions():
    assert hc(truncated_polynomial(2), 4).dims == [2, 0, 2, 0, 2]
    assert hc(truncated_polynomial(3), 4).dims == [3, 0, 3, 0, 3]
    assert hc(functions_on_points(2), 4).dims == [2, 0, 2, 0, 2]


def _checked_classes(report, maps):
    """Check an hc report whose differentials are maps: the dims left every
    boundary basis unbuilt, and coords reads the class of a boundary plus a
    combination of representatives.  Returns the homologies and, as the
    slow references, the rref of all of each outgoing differential's
    columns."""
    field = report.window.field
    homologies = [d.homology for d in report.degrees]
    assert all(H._boundary is None for H in homologies)
    refs = [Subspace.from_vectors(H.space_dim, field, maps[n + 1].columns())
            for n, H in enumerate(homologies)]
    rng = random.Random(5)
    for H, ref in zip(homologies, refs):
        for col in ref.basis:
            cycle = dict(col)
            for rep in H.representatives:
                c = field.from_rational(rng.randint(-3, 3))
                vec_axpy(cycle, c, rep, field)
            assert _is_class(cycle, H.coords(cycle), H, ref)
    return homologies, refs


def _is_class(vec, coords, H, ref):
    # vec minus the combination of representatives is a boundary
    vec = dict(vec)
    for k, c in coords.items():
        vec_axpy(vec, H.field.neg(c), H.representatives[k], H.field)
    return ref.contains(vec)


def test_hc_dims_leave_the_boundary_bases_unbuilt():
    report = hc(truncated_polynomial(4), 5)
    _checked_classes(report, report.window.boundaries)
    # the oracle's S lives on the total complex
    report = _bicomplex_hc(truncated_polynomial(4), 5)
    window = report.window
    homologies, refs = _checked_classes(report, window.totals)
    for n in range(2, 6):
        S = induced_map(s_matrix(window, n), homologies[n], homologies[n - 2])
        for j, rep in enumerate(homologies[n].representatives):
            assert _is_class(s_matrix(window, n).mat_vec(rep),
                             S.columns()[j], homologies[n - 2], refs[n - 2])


def _unit_first(dim, products):
    """The algebra on the basis 1, b_1 .. b_(dim-1) in which b_i b_j is
    c b_k for products[i, j] = (k, c) and zero otherwise."""
    mul = {(0, k): {k: 1} for k in range(dim)}
    mul.update({(k, 0): {k: 1} for k in range(1, dim)})
    mul.update({ij: {k: c} for ij, (k, c) in products.items()})
    return FDAlgebra(dim, 1, mul=mul, unit={0: 1}).require_valid()


# (algebra, top degree, HC_0 .. HC_top); the first three have odd HC
HC_CASES = {
    "Q[x,y]/(x,y)^2": (lambda: _unit_first(3, {}), 5, [3, 1, 5, 4, 9, 10]),
    "Q[x,y]/(x^2,y^2)": (
        lambda: _unit_first(4, {(1, 2): (3, 1), (2, 1): (3, 1)}), 4,
        [4, 1, 5, 2, 6]),
    "exterior(Q^2)": (
        lambda: _unit_first(4, {(1, 2): (3, 1), (2, 1): (3, -1)}), 4,
        [3, 2, 5, 4, 7]),
    "Q(zeta3)[x]/x^3": (_zeta_basis_truncation, 4, [3, 0, 3, 0, 3]),
    "QS3 over Q(zeta3)": (
        lambda: extend_scalars(group_algebra(symmetric_group_3()), 3), 2,
        [3, 0, 3]),
    "M2(Q)": (lambda: matrix_algebra(ground_field(), 2), 3, [1, 0, 1, 0]),
    "U3": (lambda: upper_triangular(3), 3, [3, 0, 3, 0]),
}


@pytest.mark.parametrize("normalized", [True, False])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", sorted(HC_CASES))
def test_hc_on_connes_complex_equals_the_total_complex(name, seed, normalized):
    # seed 0 keeps the algebra's own basis
    make, top, dims = HC_CASES[name]
    A = _relabelled(make(), seed) if seed else make()
    report = hc(A, top, normalized=normalized)
    assert report.dims == dims
    assert _bicomplex_hc(A, top, normalized=normalized).dims == dims
    w = report.window
    for n in range(2, top + 2):
        assert w.boundaries[n - 1].matmul(w.boundaries[n]).is_zero_matrix()


def test_hc_over_budget_is_refused_before_any_word(monkeypatch):
    # Q[x]/x^3 has two interior codes, so 2^(n+1) words of degree n: 32 in
    # degree 4, the top of hc(., 3)'s window, where the total complex has
    # 48 + 12 + 3 coordinates
    monkeypatch.setattr(config, "DEFAULT_CHAIN_DIM_BUDGET", 50)
    assert hc(truncated_polynomial(3), 3).dims == [3, 0, 3, 0]
    with pytest.raises(SizeOverflow, match="degree-4 total space needs 63"):
        _bicomplex_hc(truncated_polynomial(3), 3)
    visited = []
    monkeypatch.setattr("cychom.cyclic._necklaces",
                        lambda *args: visited.append(args) or iter(()))
    with pytest.raises(SizeOverflow,
                       match="degree-5 cyclic word space needs 64"):
        hc(truncated_polynomial(3), 4)
    assert visited == []


# The tuple route that the library took before it keyed words by integers
# (see _ConnesWindow), kept as the oracle of the integer route: faces are
# tuples sliced out of the words, read back by slicing every rotation.


def _faces(word, imul):
    """The faces of b on a word of degree n = len(word) - 1, as (i, face,
    c): face i < n multiplies c_i c_(i+1) and face n wraps c_n c_0 to the
    front, with sign (-1)^i, and c is the coefficient of the face word's
    product code in imul."""
    n = len(word) - 1
    for i in range(n + 1):
        pair = imul[word[i]][word[i + 1]] if i < n else imul[word[n]][word[0]]
        if pair:
            head, tail = (word[:i], word[i + 2:]) if i < n else ((), word[1:n])
            for k, c in pair.items():
                yield i, head + (k,) + tail, c


def _tuple_read_back(word, index, memo):
    """The stored class (k, odd) of a tuple word, or None, with every
    rotation put into memo."""
    length = len(word)
    twice = word + word
    rotations = [twice[r:r + length] for r in range(length)]
    least = min(rotations)
    k = index.get(least)
    if k is None:
        memo.update(dict.fromkeys(rotations))
        return None
    d, r0 = length - 1, rotations.index(least)
    signed = (k, 0), (k, 1)
    memo.update({u: signed[d * (r0 - r) % 2] for r, u in enumerate(rotations)})
    return memo[word]


def _tuple_connes_rows(columns, target, nrows, field):
    """Rows of the map that sends column k to the sum of (-1)^i c [u] over
    the (i, u, c) of the k-th of columns, u a tuple read back into target."""
    rows = [{} for _ in range(nrows)]
    memo = {}
    for col, terms in enumerate(columns):
        for i, face, c in terms:
            stored = memo[face] if face in memo else \
                _tuple_read_back(face, target, memo)
            if stored is not None:
                row, odd = stored
                add_term(rows[row], col,
                         field.neg(c) if (i + odd) % 2 else c, field)
    return rows


def _tuple_index(window, n):
    return {w: k for k, w in enumerate(window.words[n])}


def _tuple_boundary(window, n):
    return _tuple_connes_rows(
        (_faces(w, window.slots.imul) for w in window.words[n]),
        _tuple_index(window, n - 1), window.dims[n - 1], window.field)


def _tuple_periodicity(window, n, chain):
    """_ConnesWindow.periodicity on tuples, step for step."""
    field, imul, lam = window.field, window.slots.imul, window.lam
    words = window.words[n]
    out = {len(window.words[n - 2]): c for k, c in chain.items()
           if k == len(words)}
    z, w = {}, {}
    for k, c in chain.items():
        if k == len(words):
            continue
        word = words[k]
        for i, face, v in _faces(word, imul):
            add_term(z, face, field.mul(field.neg(c) if i % 2 else c, v),
                     field)
        for pair, rest, times in (((word[0], word[1]), word[2:], n),
                                  ((word[n], word[0]), word[1:n],
                                   (-1) ** n * n)):
            if pair in lam:
                add_term(w, rest, field.scale(field.mul(c, lam[pair]), times),
                         field)
    Y = {}
    for u, c in z.items():
        for r in range(1, n):
            add_term(Y, u[n - r:] + u[:n - r],
                     field.scale(c, -r if (n - 1) * r % 2 else r), field)
    for u, c in Y.items():
        for i, face, v in _faces(u, imul):
            if i < n - 1:
                add_term(w, face, field.mul(c if i % 2 else field.neg(c), v),
                         field)
    q = Fraction(-1, n * (n - 1))
    target, memo = _tuple_index(window, n - 2), {}
    for u, c in w.items():
        stored = memo[u] if u in memo else _tuple_read_back(u, target, memo)
        if stored is not None:
            k, odd = stored
            add_term(out, k, field.scale(c, -q if odd else q), field)
    return out


def _tuple_chain_maps(src, tgt, letters, top):
    """_connes_chain_maps on tuples: each word's image word by word."""
    field = tgt.field
    images = [e[0][0] for e in letters]

    def power(word):
        image = {(): field.one}
        for code in word:
            image = {u + (k,): field.mul(c, a) for u, c in image.items()
                     for k, a in images[code].items()}
        return [(0, u, c) for u, c in image.items()]

    maps = []
    for n in range(top + 1):
        rows = _tuple_connes_rows(map(power, src.words[n]),
                                  _tuple_index(tgt, n), tgt.dims[n], field)
        if src.dims[n] > len(src.words[n]):
            rows[-1][src.dims[n] - 1] = field.one
        maps.append(rows)
    return maps


def _tuple_i_rows(window, hoch, n):
    """sbi_check's I in degree n on tuples: (s, u) goes to the class of
    code(s) u, or to nothing when s is outside the interior."""
    field, code = window.field, window.slots.code
    rows = _tuple_connes_rows(
        ([(0, (code[s],) + u, field.one)] if s in code else []
         for values, words in hoch.slots.blocks(n)
         for s in values for u in words),
        _tuple_index(window, n), window.dims[n], field)
    if n == 0 and window.normalized:
        rows[-1] = _unit_trace(window.algebra, window.slots.f_vectors)
    return rows


def _ordered(rows):
    """Rows with the order of their entries, which the matrices keep."""
    return [list(row.items()) for row in rows]


def _slow_read_back(word, index):
    """_read_back without a memo: every rotation of the word is sliced,
    and the stored word is their least, shifted r places, with odd the
    parity of d r."""
    length = len(word)
    twice = word + word
    rotations = [twice[r:r + length] for r in range(length)]
    least = min(rotations)
    k = index.get(least)
    if k is None:
        return None
    return k, (length - 1) * rotations.index(least) % 2


def _top_as_connes(connes, total, n, chain):
    """pi: the top summand of a degree-n total chain as a Connes chain.  A
    term whose slot 0 holds the unit (no interior code) is dropped, and
    the rest is read back into the stored words."""
    hoch, field, code = total.hochschild_window, total.field, connes.slots.code
    index = _tuple_index(connes, n)
    out = {}
    for i, c in total.component(n, chain, 0).items():
        s, *word = hoch.tuple_of(n, i)
        if s in code:
            stored = _slow_read_back((code[s],) + tuple(word), index)
            if stored is not None:
                k, odd = stored
                add_term(out, k, field.neg(c) if odd else c, field)
    return out


# (algebra, cutoff normalized, cutoff unnormalized)
S_ORACLE_CASES = {
    "QZ3": (lambda: group_algebra(cyclic_group(3)), 5, 4),
    "QZ3 over Q(zeta3)": (
        lambda: extend_scalars(group_algebra(cyclic_group(3)), 3), 4, 3),
    "U3": (lambda: upper_triangular(3), 4, 3),
    "M2(Q) seed 7": (
        lambda: _relabelled(matrix_algebra(ground_field(), 2), 7), 4, 3),
    "exterior(Q^2) seed 7": (
        lambda: _relabelled(HC_CASES["exterior(Q^2)"][0](), 7), 4, 3),
    "Q[x]/x^4 seed 7": (lambda: _relabelled(truncated_polynomial(4), 7), 5, 4),
}


@pytest.mark.parametrize("normalized", [True, False])
@pytest.mark.parametrize("name", sorted(S_ORACLE_CASES))
def test_integer_words_give_the_tuple_route(name, normalized, monkeypatch):
    # the boundaries, entry order included, S on every stored word, the
    # chain maps of the projection A + k -> A and sbi_check's I-maps
    make, top, top_plain = S_ORACLE_CASES[name]
    A = make()
    window = hc(A, top if normalized else top_plain,
                normalized=normalized).window
    field, one = window.field, window.field.one
    for n in range(1, window.n_max + 1):
        assert _ordered(window.boundaries[n].rows) == \
            _ordered(_tuple_boundary(window, n))
    for n in range(2, window.n_max):
        for j in range(window.dims[n]):
            assert window.periodicity(n, {j: one}) == \
                _tuple_periodicity(window, n, {j: one})
    phi = direct_sum(A, ground_field(A.field_order)).project_left
    src = hc(phi.source, 3, normalized=normalized).window
    tgt = hc(A, 3, normalized=normalized).window
    letters = _phi_slot_maps(phi, src, tgt)[1]
    assert [_ordered(f.rows) for f in _connes_chain_maps(src, tgt, letters, 3)] \
        == [_ordered(rows) for rows in _tuple_chain_maps(src, tgt, letters, 3)]
    seen = []
    monkeypatch.setattr("cychom.cyclic.induced_map",
                        lambda f, *args: seen.append(f) or induced_map(f, *args))
    report = sbi_check(A, 2, normalized=normalized)
    hoch = bar_complex(A, 3, normalized=normalized)
    # the first induced maps of sbi_check are I in degrees 0, 1, 2
    for n in range(3):
        assert _ordered(seen[n].rows) == \
            _ordered(_tuple_i_rows(report.cyclic.window, hoch, n))


@pytest.mark.parametrize("normalized", [True, False])
@pytest.mark.parametrize("name", sorted(S_ORACLE_CASES))
def test_connes_S_is_the_total_complex_S_at_chain_level(name, normalized):
    # pi is a chain map from the total complex to Connes' complex; for each
    # representative z of the total complex, S(pi z) and pi(S z) are the
    # same class off the unit class, whose component S on the Connes window
    # leaves out (see _ConnesWindow.periodicity)
    make, top, top_plain = S_ORACLE_CASES[name]
    A = make()
    cutoff = top if normalized else top_plain
    report = hc(A, cutoff, normalized=normalized)
    connes = report.window
    total = _bicomplex_hc(A, cutoff, normalized=normalized)
    for n in range(2, cutoff + 1):
        H = report.degrees[n - 2].homology
        unit = len(connes.words[n - 2]) if normalized and n % 2 == 0 else None
        for z in total.degrees[n].representatives:
            x = _top_as_connes(connes, total.window, n, z)
            assert report.degrees[n].homology.coords(x) is not None
            left = connes.periodicity(n, x)
            right = _top_as_connes(connes, total.window, n - 2,
                                   operator_S(total.window, n, z))
            left.pop(unit, None)
            right.pop(unit, None)
            assert H.coords(left) is not None
            assert H.coords(left) == H.coords(right)


def _word(x, m, length):
    """The word of the given length whose integer is x."""
    return tuple(x // m ** (length - 1 - j) % m for j in range(length))


@pytest.mark.parametrize("normalized", [True, False])
@pytest.mark.parametrize("name", ["Q[x]/x^4 seed 7", "QZ3 over Q(zeta3)",
                                  "U3", "exterior(Q^2) seed 7"])
def test_the_orbit_memo_reads_back_like_every_rotation(name, normalized):
    # one memo per target degree, as the boundary keeps it: each face of
    # each stored word, whether it fills the memo or hits it, and every
    # rotation the memo holds, has the class and sign of the slow route
    make, top, top_plain = S_ORACLE_CASES[name]
    window = hc(make(), top if normalized else top_plain,
                normalized=normalized).window
    m = window.slots.interior_radix
    held = 0
    for n in range(1, window.n_max + 1):
        target, memo = window.index[n - 1], {}
        slow = _tuple_index(window, n - 1)
        assert list(target) == [_code(w, m) for w in window.words[n - 1]]
        for word in window.words[n]:
            for _, face, _ in _faces(word, window.slots.imul):
                x = _code(face, m)
                stored = memo[x] if x in memo else \
                    _read_back(x, m, n, target, memo)
                assert stored == _slow_read_back(face, slow)
        for x, stored in memo.items():
            assert stored == _slow_read_back(_word(x, m, n), slow)
        held += len(memo)
    assert held


def test_the_orbit_memo_fills_once_per_orbit_met(monkeypatch):
    # hc(Q[x]/x^5, 5)'s window: 4 reduced codes, degrees 0..6
    fills = []

    def counted(x, m, length, index, memo):
        fills.append(_word(x, m, length))
        return _read_back(x, m, length, index, memo)

    monkeypatch.setattr("cychom.cyclic._read_back", counted)
    window = hc(truncated_polynomial(5), 5).window
    for n in range(1, window.n_max + 1):
        met = [w for w in fills if len(w) == n]
        faces = {face for word in window.words[n]
                 for _, face, _ in _faces(word, window.slots.imul)}
        orbits = {min(w[r:] + w[:r] for r in range(n)) for w in met}
        dropped = sum(1 for w in orbits
                      if w not in _tuple_index(window, n - 1))
        assert len(orbits) == len(met)
        assert len(met) <= len(faces)
        assert len(met) <= len(window.words[n - 1]) + dropped
    assert len(fills) == 1007


def _tower_ranks(report, S, cutoff):
    s_hom = _s_on_homology(S, [d.homology for d in report.degrees], cutoff)
    return [_s_tower(s_hom, parity, cutoff)[1] for parity in (0, 1)]


def _point_crossed_product(size, images):
    # Z/2 acting on points by the permutation images
    act = FiniteVarietyAction(cyclic_group(2), size,
                              [tuple(range(size)), images])
    return variety_crossed_product(act).product


# (algebra, cutoff): HC_CASES at seeds 0 and 7, and the point-action crossed
# products of dimension 2, 4 and 6
TOWER_CASES = {"%s seed %d" % (name, seed): (
    (lambda make=make, seed=seed: _relabelled(make(), seed)) if seed
    else make, top)
    for name, (make, top, _) in HC_CASES.items() for seed in (0, 7)}
TOWER_CASES.update({
    "QZ3": (lambda: group_algebra(cyclic_group(3)), 6),
    "U3": (lambda: upper_triangular(3), 4),
    "Z/2 on a point": (lambda: _point_crossed_product(1, (0,)), 4),
    "Z/2 swapping two points": (
        lambda: _point_crossed_product(2, (1, 0)), 4),
    "Z/2 swapping two of three points": (
        lambda: _point_crossed_product(3, (1, 0, 2)), 4),
})


@pytest.mark.parametrize("name", sorted(TOWER_CASES))
def test_connes_S_towers_equal_the_total_complex(name):
    make, cutoff = TOWER_CASES[name]
    A = make()
    report = hc(A, cutoff)
    total = _bicomplex_hc(A, cutoff)
    assert _tower_ranks(report, report.window.periodicity, cutoff) == \
        _tower_ranks(total, partial(operator_S, total.window), cutoff)
    if cutoff >= 5:
        assert hp(A, "stabilization", cutoff, normalized=False) == \
            hp(A, "stabilization", cutoff)
    elif cutoff == 4:
        # one odd S-composite: the odd tower cannot stabilize
        with pytest.raises(ValidationError, match="cutoff >= 5"):
            hp(A, "stabilization", cutoff)


def test_an_S_image_that_is_not_a_cycle_is_refused():
    report = hc(truncated_polynomial(3), 4)
    window = report.window
    # a degree-2 chain with a nonzero boundary, as the image of HC_4
    j = next(j for j, col in enumerate(window.boundaries[2].columns()) if col)
    assert report.dims[4]
    with pytest.raises(ValidationError, match="degree-4 cycle to a cycle"):
        _s_on_homology(lambda n, x: {j: 1} if n == 4
                       else window.periodicity(n, x),
                       [d.homology for d in report.degrees], 4)


def test_connes_S_refuses_what_the_window_lacks():
    # hc(., 4) builds degrees 0..5; degree 4 has dims[4] coordinates
    window = hc(truncated_polynomial(3), 4).window
    for n in (0, 1):
        with pytest.raises(DegreeTooLow):
            window.periodicity(n, {})
    for n in (6, -1):
        with pytest.raises(ValidationError,
                           match="outside the window|at least 0"):
            window.periodicity(n, {})
    for k in (window.dims[4], -1):
        with pytest.raises(AmbientMismatch, match="coordinates 0..%d"
                           % (window.dims[4] - 1)):
            window.periodicity(4, {k: 1})
    assert window.periodicity(5, {}) == {}


def test_hp_over_budget_is_refused_on_cyclic_words(monkeypatch):
    # Q[x]/x^3 has two reduced codes: 2^8 = 256 words of degree 7, the top
    # of hp's window at cutoff 6, where the normalized bar complex has 384
    T3 = truncated_polynomial(3)
    monkeypatch.setattr(config, "DEFAULT_CHAIN_DIM_BUDGET", 300)
    report = hp(T3, "stabilization")
    assert report.stabilized and report.stabilization_dims == (1, 0)
    with pytest.raises(SizeOverflow, match="degree-7 chain space needs 384"):
        _bicomplex_hc(T3, 6)
    monkeypatch.setattr(config, "DEFAULT_CHAIN_DIM_BUDGET", 200)
    visited = []
    monkeypatch.setattr("cychom.cyclic._necklaces",
                        lambda *args: visited.append(args) or iter(()))
    with pytest.raises(SizeOverflow,
                       match="degree-7 cyclic word space needs 256"):
        hp(T3, "stabilization")
    assert visited == []


def test_hc_zero_equals_hh_zero():
    algebras = [ground_field(), functions_on_points(2),
                truncated_polynomial(2), truncated_polynomial(3),
                matrix_algebra(ground_field(), 2), upper_triangular(2),
                group_algebra(cyclic_group(3)),
                group_algebra(symmetric_group_3())]
    for A in algebras:
        assert hc(A, 0).dims[0] == hh(A, 0).dims[0]


def test_hc_models_agree():
    for A in (truncated_polynomial(2), functions_on_points(2),
              group_algebra(cyclic_group(2))):
        plain = hc(A, 3, normalized=False).dims
        reduced = hc(A, 3, normalized=True).dims
        assert plain == reduced


# ---------------------------------------------------------------------------
# the SBI sequence


def test_sbi_exact_on_small_algebras():
    for A in (ground_field(), truncated_polynomial(2),
              functions_on_points(2), upper_triangular(2)):
        report = sbi_check(A, 4)
        assert report.exact
        assert all(node.composite_zero for node in report.nodes)


def test_sbi_exact_on_a_group_algebra():
    assert sbi_check(group_algebra(cyclic_group(3)), 3).exact


def test_sbi_connecting_map_is_nontrivial_for_dual_numbers():
    # HC_0 -> HH_1 must have rank 1 here, otherwise the sequence
    # could not be exact with HC_1 = 0 and HH_1 = 1
    report = sbi_check(truncated_polynomial(2), 4)
    node = next(n for n in report.nodes if n.label == "HH_1")
    assert node.incoming_rank == 1


def test_sbi_node_dimensions_are_morita_invariant():
    a = sbi_check(ground_field(), 3)
    b = sbi_check(matrix_algebra(ground_field(), 2), 3)
    assert b.exact
    assert [n.space_dim for n in a.nodes] == [n.space_dim for n in b.nodes]
    assert a.hochschild.dims == b.hochschild.dims
    assert a.cyclic.dims == b.cyclic.dims


# ---------------------------------------------------------------------------
# the periodic theory


def test_hp_examples_through_the_radical():
    assert (hp(group_algebra(symmetric_group_3())).even_dim,
            hp(group_algebra(symmetric_group_3())).odd_dim) == (3, 0)
    assert (hp(functions_on_points(5)).even_dim,
            hp(functions_on_points(5)).odd_dim) == (5, 0)
    assert (hp(upper_triangular(2)).even_dim,
            hp(upper_triangular(2)).odd_dim) == (2, 0)
    assert (hp(matrix_algebra(ground_field(), 2)).even_dim,
            hp(matrix_algebra(ground_field(), 2)).odd_dim) == (1, 0)


def test_a_limit_set_in_config_reaches_the_whole_call_tree(monkeypatch):
    # the radical route builds the 4-dimensional semisimple quotient
    M2 = matrix_algebra(ground_field(), 2)
    monkeypatch.setattr(config, "DEFAULT_DIM_CAP", 3)
    with pytest.raises(SizeOverflow):
        hp(M2)


def test_hp_both_modes_agree_on_truncated_polynomials():
    report = hp(truncated_polynomial(3), mode="stabilization")
    assert (report.even_dim, report.odd_dim) == (1, 0)
    assert report.stabilized
    assert report.stabilization_dims == (1, 0)


def test_hp_stabilization_sees_the_full_center():
    # two rational matrix blocks but a three-dimensional center: the
    # stabilized ranks decide between the two, and pick the center
    report = hp(group_algebra(cyclic_group(3)), mode="stabilization")
    assert (report.even_dim, report.odd_dim) == (3, 0)
    assert report.stabilized


def test_hp_stabilization_cutoff_guard():
    with pytest.raises(ValidationError, match="unknown hp mode 'radical'"):
        hp(truncated_polynomial(2), mode="radical")
    for short in (4, 3):
        with pytest.raises(ValidationError, match="cutoff >= 5"):
            hp(truncated_polynomial(2), mode="stabilization", cutoff=short)
    with pytest.raises(ValidationError):
        hp(truncated_polynomial(2), mode="stabilization", cutoff=2)
    for bad in ("6", True, 6.0):
        with pytest.raises(ValidationError, match="must be an int"):
            hp(truncated_polynomial(2), mode="stabilization", cutoff=bad)


def test_hp_nonunital_values():
    Z = FDAlgebra(1, 1, {}, labels=["x"])
    r = hp(Z)
    assert (r.even_dim, r.odd_dim) == (0, 0)
    assert r.method == "radical_shortcut+unitalization"
    A = functions_on_points(2)
    line = ideal_generated_by(A, [{0: A.field.one}])
    r = hp(ideal_as_algebra(line)[0])
    assert (r.even_dim, r.odd_dim) == (1, 0)


def test_hp_nonunital_agrees_on_unital_input():
    # the unitalization route, taken by hand on a unital algebra, gives
    # what hp gives on the algebra itself
    M = matrix_algebra(ground_field(), 2)
    r = hp(unitalization(M).algebra)
    assert (r.even_dim - 1, r.odd_dim) == (hp(M).even_dim, hp(M).odd_dim)
    assert hp(M).method == "radical_shortcut"


# ---------------------------------------------------------------------------
# induced maps


def test_induced_hc_identity():
    A = truncated_polynomial(2)
    data = induced_map_hc(AlgebraMap.identity(A), 3)
    for n in range(4):
        mat = data.homology_maps[n]
        assert mat.equals(SparseMatrix.identity(mat.nrows, A.field))


def test_induced_hc_swap_involution():
    A = functions_on_points(2)
    one = A.field.one
    swap = AlgebraMap.from_images(A, A, [{1: one}, {0: one}],
                                  multiplicative=True, unital=True)
    data = induced_map_hc(swap, 3)
    for n in range(4):
        mat = data.homology_maps[n]
        assert mat.matmul(mat).equals(SparseMatrix.identity(mat.nrows, A.field))
        assert mat.rank() == data.source.dims[n]


def _unital(source, target, images):
    return lambda: AlgebraMap.from_images(source(), target(), images,
                                          multiplicative=True, unital=True)


# unital maps, most of them no isomorphism; the unit class's row of a
# normalized chain map is nonzero when phi does not keep the regular trace
MAPS = {
    "swap on QxQ": _unital(lambda: functions_on_points(2),
                           lambda: functions_on_points(2), [{1: 1}, {0: 1}]),
    "(a, b) -> (a, a)": _unital(lambda: functions_on_points(2),
                                lambda: functions_on_points(2),
                                [{0: 1, 1: 1}, {}]),
    "Q -> M2(Q)": _unital(ground_field,
                          lambda: matrix_algebra(ground_field(), 2),
                          [{0: 1, 3: 1}]),
    "QxQ -> M2(Q), diagonal": _unital(
        lambda: functions_on_points(2),
        lambda: matrix_algebra(ground_field(), 2), [{0: 1}, {3: 1}]),
    "U2 -> QxQ, diagonal": _unital(lambda: upper_triangular(2),
                                   lambda: functions_on_points(2),
                                   [{0: 1}, {}, {1: 1}]),
    "QxQ -> U2, diagonal": _unital(lambda: functions_on_points(2),
                                   lambda: upper_triangular(2),
                                   [{0: 1}, {2: 1}]),
}


def test_induced_hc_chain_maps_commute_with_the_differential():
    for name, normalized in product(sorted(MAPS), (True, False)):
        data = induced_map_hc(MAPS[name](), 4, normalized=normalized)
        src, tgt = data.source.window, data.target.window
        for n in range(1, 5):
            left = tgt.boundaries[n].matmul(data.chain_maps[n])
            right = data.chain_maps[n - 1].matmul(src.boundaries[n])
            assert left.equals(right), (name, normalized, n)


def test_a_map_that_is_no_isomorphism_has_smaller_ranks():
    # every other induced-map test but the next one uses an isomorphism;
    # (a, b) -> (a, a) sends HC of Q x Q onto the diagonal's HC of Q
    collapse = MAPS["(a, b) -> (a, a)"]()
    for normalized in (True, False):
        cyclic = induced_map_hc(collapse, 2, normalized=normalized)
        hochschild = induced_map_hh(collapse, 2, normalized=normalized)
        assert cyclic.source.dims == [2, 0, 2]
        assert [m.rank() for m in cyclic.homology_maps] == [1, 0, 1]
        assert hochschild.source.dims == [2, 0, 0]
        assert [m.rank() for m in hochschild.homology_maps] == [1, 0, 0]


def test_induced_hc_maps_compose():
    # U2 -> QxQ and QxQ -> U2 do not keep the regular trace, so their
    # normalized chain maps carry unit-class rows, and these must add up
    # along a composite
    to_points = MAPS["U2 -> QxQ, diagonal"]()
    to_matrices = MAPS["QxQ -> M2(Q), diagonal"]()
    chains = [
        (MAPS["QxQ -> U2, diagonal"](), to_points,
         AlgebraMap.identity(to_points.target)),
        (to_points, to_matrices,
         _unital(lambda: upper_triangular(2),
                 lambda: matrix_algebra(ground_field(), 2),
                 [{0: 1}, {}, {3: 1}])())]
    for normalized in (True, False):
        for first, second, both in chains:
            maps = [induced_map_hc(phi, 4, normalized=normalized)
                    for phi in (first, second, both)]
            if normalized:
                assert any(m.chain_maps[0].rows[-1].keys() - {
                    m.source.window.dims[0] - 1} for m in maps[:2])
            for n in range(5):
                assert maps[1].homology_maps[n].matmul(
                    maps[0].homology_maps[n]).equals(
                    maps[2].homology_maps[n])


def test_unital_matrix_inclusion_is_an_hc_isomorphism():
    Q = ground_field()
    M = matrix_algebra(Q, 2)
    incl = AlgebraMap.from_images(Q, M, [dict(M.unit)],
                                  multiplicative=True, unital=True)
    data = induced_map_hc(incl, 3)
    for n in range(4):
        assert data.source.dims[n] == data.target.dims[n]
        assert data.homology_maps[n].rank() == data.source.dims[n]


def test_induced_hc_needs_a_unital_map():
    Q = ground_field()
    A = functions_on_points(2)
    incl = AlgebraMap.from_images(Q, A, [{0: A.field.one}],
                                  multiplicative=True, unital=False)
    with pytest.raises(NotMultiplicative):
        induced_map_hc(incl, 2)


# ---------------------------------------------------------------------------
# excision


def test_excision_for_a_split_summand():
    A = functions_on_points(2)
    J = two_sided_ideal(A, [{0: A.field.one}], name="first point")
    report = excision_check(A, J)
    assert report.exact
    assert (report.ideal_hp.even_dim, report.ideal_hp.odd_dim) == (1, 0)
    assert report.relative_dims == (1, 0)
    assert report.plus_dims["algebra"] == (3, 0)
    assert [(n.label, n.space_dim, n.incoming_rank, n.outgoing_kernel)
            for n in report.hp_nodes] == [
        ("HP_0(relative)", 1, 0, 0), ("HP_0(algebra)", 3, 1, 1),
        ("HP_0(quotient)", 2, 2, 2), ("HP_1(relative)", 0, 0, 0),
        ("HP_1(algebra)", 0, 0, 0), ("HP_1(quotient)", 0, 0, 0)]


def test_excision_for_a_nilpotent_ideal():
    A = truncated_polynomial(2)
    J = ideal_generated_by(A, [{1: A.field.one}], name="(x)")
    report = excision_check(A, J)
    assert report.exact
    assert (report.ideal_hp.even_dim, report.ideal_hp.odd_dim) == (0, 0)
    assert report.relative_dims == (0, 0)
    assert (report.quotient_hp.even_dim, report.quotient_hp.odd_dim) == (1, 0)


def test_excision_guards():
    A = functions_on_points(2)
    J = two_sided_ideal(A, [{0: A.field.one}])
    with pytest.raises(ValidationError):
        excision_check(A, J, cutoff=5)
    for bad in ("4", True, 4.0):
        with pytest.raises(ValidationError, match="must be an int"):
            excision_check(A, J, cutoff=bad)
    Z = FDAlgebra(1, 1, {}, labels=["x"])
    with pytest.raises(NonUnital):
        excision_check(Z, two_sided_ideal(Z, []))


# ---------------------------------------------------------------------------
# direct sums


def test_direct_sum_doubles_the_ground_field():
    report = direct_sum_check(ground_field(), ground_field(), 3)
    assert report.ok
    assert [row.sum_dim for row in report.hh_rows] == [2, 0, 0, 0]
    assert [row.sum_dim for row in report.hc_rows] == [2, 0, 2, 0]


def test_direct_sum_of_dual_numbers_and_matrices():
    report = direct_sum_check(truncated_polynomial(2),
                              matrix_algebra(ground_field(), 2), 3)
    assert report.ok
    assert [row.sum_dim for row in report.hh_rows] == [3, 1, 1, 1]
    assert (report.hp_sum.even_dim, report.hp_sum.odd_dim) == (2, 0)


def test_direct_sum_with_a_group_algebra():
    report = direct_sum_check(group_algebra(cyclic_group(2)),
                              ground_field(), 2)
    assert report.ok
    assert (report.hp_sum.even_dim, report.hp_sum.odd_dim) == (3, 0)


# ---------------------------------------------------------------------------
# the routes on Connes' complex against the total complex


CORPUS = {
    "Q": ground_field,
    "Q[x]/x^2": lambda: truncated_polynomial(2),
    "Q[x]/x^3": lambda: truncated_polynomial(3),
    "QxQ": lambda: functions_on_points(2),
    "U2": lambda: upper_triangular(2),
    "QZ3": lambda: group_algebra(cyclic_group(3)),
    "M2(Q)": lambda: matrix_algebra(ground_field(), 2),
    "Q[x]/x^2 + M2(Q)": lambda: direct_sum(
        truncated_polynomial(2), matrix_algebra(ground_field(), 2)).algebra,
}


def _nodes(nodes):
    return [(n.label, n.space_dim, n.incoming_rank, n.outgoing_kernel,
             n.composite_zero) for n in nodes]


@pytest.mark.parametrize("normalized", [True, False])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_sbi_on_connes_complex_equals_the_total_complex(name, normalized):
    A = CORPUS[name]()
    report = sbi_check(A, 3, normalized=normalized)
    assert report.exact
    assert _nodes(report.nodes) == \
        _nodes(oracle.sbi_check(A, 3, normalized=normalized).nodes)


def _dims_and_ranks(induced):
    return (induced.source.dims, induced.target.dims,
            [m.rank() for m in induced.homology_maps])


@pytest.mark.parametrize("normalized", [True, False])
@pytest.mark.parametrize("name", sorted(CORPUS) + sorted(MAPS))
def test_induced_hc_on_connes_complex_equals_the_total_complex(name,
                                                               normalized):
    phi = MAPS[name]() if name in MAPS else \
        AlgebraMap.identity(CORPUS[name]())
    assert _dims_and_ranks(induced_map_hc(phi, 3, normalized=normalized)) \
        == _dims_and_ranks(oracle.induced_map_hc(phi, 3,
                                                 normalized=normalized))


DIRECT_SUMS = {
    "Q + Q": lambda: (ground_field(), ground_field()),
    "Q[x]/x^2 + M2(Q)": lambda: (truncated_polynomial(2),
                                 matrix_algebra(ground_field(), 2)),
    "QZ2 + Q": lambda: (group_algebra(cyclic_group(2)), ground_field()),
    "QxQ + U2": lambda: (functions_on_points(2), upper_triangular(2)),
    "Q[x]/x^3 + Q": lambda: (truncated_polynomial(3), ground_field()),
}


@pytest.mark.parametrize("name", sorted(DIRECT_SUMS))
def test_direct_sum_rows_on_connes_complex_equal_the_total_complex(
        name, monkeypatch):
    A, B = DIRECT_SUMS[name]()

    def rows(report):
        return [[(r.degree, r.left_dim, r.right_dim, r.sum_dim, r.map_rank)
                 for r in part] for part in (report.hh_rows, report.hc_rows)]

    report = direct_sum_check(A, B, 3)
    assert report.ok
    monkeypatch.setattr("cychom.cyclic.induced_map_hc",
                        oracle.induced_map_hc)
    assert rows(report) == rows(direct_sum_check(A, B, 3))


# every corpus algebra with an ideal besides 0 and itself (Q and M2(Q) are
# simple), and a direct sum cut along either summand
EXCISIONS = {
    "Q[x]/x^2, (x)": (lambda: truncated_polynomial(2), [{1: 1}]),
    "Q[x]/x^3, (x^2)": (lambda: truncated_polynomial(3), [{2: 1}]),
    "QxQ, a point": (lambda: functions_on_points(2), [{0: 1}]),
    "U2, (E11)": (lambda: upper_triangular(2), [{0: 1}]),
    "QZ3, the trivial character": (lambda: group_algebra(cyclic_group(3)),
                                   [{0: 1, 1: 1, 2: 1}]),
    "Q[x]/x^2 + Q, Q": (lambda: direct_sum(truncated_polynomial(2),
                                           ground_field()).algebra,
                        [{2: 1}]),
    "Q[x]/x^2 + Q, Q[x]/x^2": (lambda: direct_sum(
        truncated_polynomial(2), ground_field()).algebra, [{0: 1}]),
}


# the nonunital algebras the tests build: each ideal above, (x) in
# Q[x]/x^2 being the zero-product line, and the M2(Q) summand of
# test_excision_along_a_matrix_summand
IDEALS = {**EXCISIONS, "Q[x]/x^2 + M2(Q), M2(Q)": (
    CORPUS["Q[x]/x^2 + M2(Q)"], [{2: 1}])}


@pytest.mark.parametrize("name", sorted(IDEALS))
def test_hp_of_a_nonunital_algebra_subtracts_the_adjoined_unit(name):
    # both routes run on the unitalization and drop its unit's class: the
    # stabilized dims agree with the radical route's, with even_dim, and
    # with HP of the unitalization less one even class
    make, generators = IDEALS[name]
    J = ideal_as_algebra(ideal_generated_by(make(), generators))[0]
    assert not J.is_unital
    report = hp(J, mode="stabilization")
    dims = (report.even_dim, report.odd_dim)
    assert report.stabilized and report.stabilization_dims == dims
    assert report.method == "stabilization+unitalization"
    radical = hp(J)
    assert (radical.even_dim, radical.odd_dim) == dims
    plus = hp(unitalization(J).algebra)
    assert (plus.even_dim - 1, plus.odd_dim) == dims


def _excision(report):
    return (report.relative_dims, report.plus_dims,
            _nodes(report.hc_nodes), _nodes(report.hp_nodes))


@pytest.mark.parametrize("name", sorted(EXCISIONS))
def test_excision_on_connes_complex_equals_the_total_complex(name):
    make, generators = EXCISIONS[name]
    A = make()
    J = ideal_generated_by(A, generators)
    report = excision_check(A, J, 4)
    assert report.exact
    assert _excision(report) == _excision(oracle.excision_check(A, J, 4))


def test_the_relative_S_keeps_the_kernel_at_chain_level():
    # periodicity on each word as stored moves S of a relative cycle out of
    # the kernel by a boundary here; the averaged rotations keep it in
    QZ3 = group_algebra(cyclic_group(3))
    report = excision_check(QZ3, ideal_generated_by(QZ3, [{0: 1, 1: 1, 2: 1}]))
    assert report.exact
    assert report.relative_dims == (1, 0)
    assert report.plus_dims["algebra"] == (4, 0)


def test_excision_along_a_matrix_summand():
    # Q[x]/x^2 + M2(Q) cut along M2(Q): the relative subcomplex of a
    # 7-dimensional unitalization, too slow for the oracle at cutoff 4
    A = direct_sum(truncated_polynomial(2),
                   matrix_algebra(ground_field(), 2)).algebra
    report = excision_check(A, ideal_generated_by(A, [{2: 1}]), 4)
    assert report.exact
    assert report.relative_dims == (1, 0)
    assert report.plus_dims == {"relative": (1, 0), "algebra": (3, 0),
                                "quotient": (2, 0)}


def test_the_homology_callers_build_no_total_chain_layout(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("cyclic_complex was called")

    import cychom.cyclic
    monkeypatch.setattr(cychom.cyclic, "cyclic_complex", refuse)
    A = functions_on_points(2)
    assert sbi_check(A, 3).exact
    assert excision_check(A, two_sided_ideal(A, [{0: 1}])).exact
    assert induced_map_hc(AlgebraMap.identity(A), 3).source.dims == \
        [2, 0, 2, 0]
    assert direct_sum_check(ground_field(), ground_field(), 3).ok
    with pytest.raises(AssertionError, match="cyclic_complex was called"):
        cychom.cyclic.cyclic_complex(A, 2)
