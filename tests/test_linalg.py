"""Sparse exact linear algebra.

The dense Gaussian elimination below is an independent reference written
directly from the textbook algorithm; the sparse module never sees it.
Hand-computed fixtures are worked out on paper first.
"""

import heapq
import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from cychom import linalg
from cychom.algebra import FDAlgebra, truncated_polynomial
from cychom.errors import AmbientMismatch, NotContained, ValidationError
from cychom.groups import group_algebra, symmetric_group_3
from cychom.hochschild import hh
from cychom.linalg import (
    Homology,
    SparseMatrix,
    Subspace,
    cleared,
    dense_to_sparse,
    divided,
    induced_map,
    operator_matrix,
    preimage_subspace,
    reduced_rows,
    rref_rows,
    to_raw,
    vec_add,
    vec_axpy,
    vec_equal,
    vec_is_zero,
    vec_scale,
)
from cychom.scalars import Cyclotomic, field_of_order
from bicomplex_oracle import total_complex

F = Fraction
Q = field_of_order(1)


def sparse_to_dense(v: dict, n: int, field) -> list:
    out = [field.zero] * n
    for j, val in v.items():
        out[j] = val
    return out


def dense_rref_oracle(matrix):
    """Reference reduced row echelon form over Fraction (or Cyclotomic
    entries, which it keeps), dense and naive."""
    m = [[x if isinstance(x, Cyclotomic) else F(x) for x in row] for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    r = 0
    pivots = []
    for c in range(ncols):
        sel = None
        for i in range(r, nrows):
            if m[i][c]:
                sel = i
                break
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        lead = m[r][c]
        m[r] = [x / lead for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return [row for row in m[:r]], pivots


def to_dense(mat: SparseMatrix):
    return [[F(mat.rows[i].get(j, 0)) for j in range(mat.ncols)]
            for i in range(mat.nrows)]


def random_matrix(rng, nrows, ncols, density=0.4, lo=-5, hi=5):
    m = SparseMatrix(nrows, ncols, Q)
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < density:
                m.set(i, j, F(rng.randint(lo, hi), rng.randint(1, 3)))
    return m


# -- echelon form ---------------------------------------------------------------

def test_rref_hand_case():
    m = SparseMatrix.from_dense([[2, 4], [1, 2]], Q)
    rows, pivots = m.rref()
    assert pivots == [0]
    assert sparse_to_dense(rows[0], 2, Q) == [F(1), F(2)]
    assert m.rank() == 1


def test_rref_matches_dense_oracle_random():
    rng = random.Random(123)
    for trial in range(40):
        nrows = rng.randint(1, 7)
        ncols = rng.randint(1, 7)
        m = random_matrix(rng, nrows, ncols)
        rows, pivots = m.rref()
        oracle_rows, oracle_pivots = dense_rref_oracle(to_dense(m))
        assert pivots == oracle_pivots, trial
        got = [sparse_to_dense(r, ncols, Q) for r in rows]
        assert got == oracle_rows, trial


def test_rref_is_invariant_under_row_shuffling():
    rng = random.Random(5)
    for _ in range(15):
        m = random_matrix(rng, 6, 5)
        perm = list(range(6))
        rng.shuffle(perm)
        shuffled = SparseMatrix(6, 5, Q, rows=[dict(m.rows[p]) for p in perm])
        assert m.rref()[0] == shuffled.rref()[0]
        assert m.rref()[1] == shuffled.rref()[1]


def test_block_structure_does_not_leak():
    # interleaved block-diagonal matrix, two components in one elimination
    rng = random.Random(77)
    a = random_matrix(rng, 4, 4)
    b = random_matrix(rng, 3, 3)
    big = SparseMatrix(7, 7, Q)
    # even coordinates carry a, odd coordinates carry b
    for i in range(4):
        for j, v in a.rows[i].items():
            big.set(2 * i, 2 * j, v)
    for i in range(3):
        for j, v in b.rows[i].items():
            big.set(2 * i + 1, 2 * j + 1, v)
    assert big.rank() == a.rank() + b.rank()
    oracle_rows, oracle_pivots = dense_rref_oracle(to_dense(big))
    rows, pivots = big.rref()
    assert pivots == oracle_pivots
    assert [sparse_to_dense(r, 7, Q) for r in rows] == oracle_rows


# scales whole rows, so their entries pass 2**64 and share this factor
BIG = 2 ** 67 - 1


def _random_raw_rows(rng, field, nrows, ncols, rational=False):
    """Sparse raw rows with Fraction entries, negative leading entries and
    whole rows scaled by +-BIG or 1/BIG, plus one sum of two rows; with
    ``rational`` every entry lies in Q."""
    order = field.order
    rows = []
    for _ in range(nrows):
        scale = rng.choice([1, -1, BIG, -BIG, F(1, BIG), F(-7, 3)])
        row = {}
        for j in range(ncols):
            if rng.random() < 0.45:
                coeffs = [F(rng.randint(-6, 6), rng.randint(1, 4))
                          for _ in range(1 if rational else field.degree)]
                coeffs += [0] * (field.degree - len(coeffs))
                value = Cyclotomic(coeffs, order) * scale
                if value:
                    # arithmetic may leave integral Fractions behind: over Q
                    # half the integral entries are ints, over Q(zeta_m)
                    # every coefficient is a Fraction
                    raw = F(value.raw) if order == 1 \
                        else tuple(map(F, value.raw))
                    if order == 1 and raw.denominator == 1 and rng.random() < 0.5:
                        raw = raw.numerator
                    row[j] = raw
        rows.append(row)
    if len(rows) >= 2:
        rows.append(vec_add(rows[0], rows[-1], field))
    return rows


@pytest.mark.parametrize("order, rational", [
    pytest.param(1, False, id="1"),
    pytest.param(3, False, id="3"),
    # rational entries over Q(zeta3) take the integer-row route
    pytest.param(3, True, id="3-rational"),
])
def test_reduced_rows_matches_dense_oracle_random(order, rational):
    field = field_of_order(order)
    rng = random.Random(2024 + order + 10 * rational)
    for trial in range(40):
        ncols = rng.randint(1, 8)
        raw_rows = _random_raw_rows(rng, field, rng.randint(1, 8), ncols,
                                    rational)

        def dense(rows):
            return [[Cyclotomic.from_raw(r.get(j, field.zero), order)
                     for j in range(ncols)] for r in rows]

        rows, pivots = reduced_rows([dict(r) for r in raw_rows], field)
        oracle_rows, oracle_pivots = dense_rref_oracle(dense(raw_rows))
        assert len(rows) == len(pivots) == len(oracle_pivots), trial
        # the same span: both reduce to the one canonical echelon form
        assert dense_rref_oracle(dense(rows)) == (oracle_rows, oracle_pivots), trial
        for row, p in zip(rows, pivots):
            assert row[p] == field.one, trial
        for p in pivots:
            assert sum(p in row for row in rows) == 1, trial


def _spy_routes(monkeypatch) -> list:
    """The row-route class of every elimination call from here on."""
    routes = []
    choose = linalg._adapter

    def spy(field, rows):
        adapter = choose(field, rows)
        routes.append(type(adapter))
        return adapter

    monkeypatch.setattr(linalg, "_adapter", spy)
    return routes


@pytest.mark.parametrize("order", [3, 4, 5])
def test_rational_rows_match_the_coefficient_tuple_route(order, monkeypatch):
    field = field_of_order(order)
    rng = random.Random(300 + order)
    cases = []
    for _ in range(30):
        ncols = rng.randint(1, 8)
        cases.append((_random_raw_rows(rng, field, rng.randint(1, 8), ncols,
                                       rational=True), ncols))

    def eliminate_all():
        return [(reduced_rows([dict(r) for r in rows], field),
                 rref_rows([dict(r) for r in rows], field))
                for rows, _ in cases]

    routes = _spy_routes(monkeypatch)
    got = eliminate_all()
    assert set(routes) == {linalg._RatCycRows}
    monkeypatch.setattr(linalg, "_adapter",
                        lambda field, rows: linalg._CycRows(field))
    # repr also tells a Fraction coefficient from an int one
    assert repr(got) == repr(eliminate_all())


def test_one_irrational_entry_takes_the_coefficient_tuple_route(monkeypatch):
    field = field_of_order(3)
    rng = random.Random(41)
    raw_rows = _random_raw_rows(rng, field, 6, 6, rational=True)
    raw_rows[2][4] = Cyclotomic.zeta(3).raw
    ncols = 6

    def dense(rows):
        return [[Cyclotomic.from_raw(r.get(j, field.zero), 3)
                 for j in range(ncols)] for r in rows]

    routes = _spy_routes(monkeypatch)
    oracle_rows, oracle_pivots = dense_rref_oracle(dense(raw_rows))
    rows, pivots = rref_rows([dict(r) for r in raw_rows], field)
    assert (dense(rows), pivots) == (oracle_rows, oracle_pivots)
    rows, pivots = reduced_rows([dict(r) for r in raw_rows], field)
    assert dense_rref_oracle(dense(rows)) == (oracle_rows, oracle_pivots)
    assert routes == [linalg._CycRows, linalg._CycRows]


@pytest.mark.parametrize("order, rational, route", [
    pytest.param(1, False, linalg._IntRows, id="1"),
    pytest.param(3, True, linalg._RatCycRows, id="3-rational"),
    pytest.param(3, False, linalg._CycRows, id="3"),
])
def test_leading_columns_are_the_pivot_columns_of_the_rref(
        order, rational, route, monkeypatch):
    # the Echelon of the rows themselves, against rref()[1] (the cheap-column
    # pass first) and the dense oracle; a zero row, a sum of two rows and a
    # multiple of a row are among the rows
    field = field_of_order(order)
    rng = random.Random(900 + order + 10 * rational)
    routes = _spy_routes(monkeypatch)
    for trial in range(40):
        ncols = rng.randint(1, 8)
        raw_rows = _random_raw_rows(rng, field, rng.randint(1, 8), ncols,
                                    rational)
        raw_rows.insert(rng.randint(0, len(raw_rows)), {})
        raw_rows.append(vec_scale(raw_rows[-1], to_raw(F(-5, 2), field),
                                  field))
        dense = [[Cyclotomic.from_raw(r.get(j, field.zero), order)
                  for j in range(ncols)] for r in raw_rows]
        got = linalg.leading_columns([dict(r) for r in raw_rows], field)
        matrix = SparseMatrix(len(raw_rows), ncols, field,
                              rows=[dict(r) for r in raw_rows])
        assert got == matrix.rref()[1] == dense_rref_oracle(dense)[1], trial
    if rational or order == 1:
        assert set(routes) == {route}
    else:
        assert route in routes


@pytest.mark.parametrize("order", [1, 3, 5])
def test_cleared_vectors_are_integral_and_divide_back(order):
    field = field_of_order(order)
    rng = random.Random(500 + order)
    for row in _random_raw_rows(rng, field, 30, 6):
        den, w = cleared(row, field)
        coeffs = [c for v in w.values() for c in field.to_coeffs(v)]
        assert all(type(c) is int for c in coeffs)
        # den is the least: no factor of den divides every coefficient
        assert gcd(den, *coeffs) == 1
        back = divided(w, den, field)
        assert back == row and list(back) == list(row)
        assert repr(back) == repr({j: to_raw(Cyclotomic.from_raw(v, order),
                                             field)
                                   for j, v in row.items()})
    integral = {0: field.one, 3: field.neg(field.one)}
    assert cleared(integral, field) == (1, integral)
    assert cleared(integral, field)[1] is integral


# -- kernel / rank-nullity --------------------------------------------------------

def test_kernel_hand_case():
    m = SparseMatrix.from_dense([[1, 2, 3]], Q)
    basis = m.kernel_basis()
    assert [sparse_to_dense(v, 3, Q) for v in basis] == [
        [F(-2), F(1), F(0)],
        [F(-3), F(0), F(1)],
    ]


def test_rank_nullity_and_kernel_membership_random():
    rng = random.Random(991)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 7))
        kernel = m.kernel_basis()
        assert m.rank() + len(kernel) == m.ncols
        for v in kernel:
            assert vec_is_zero(m.mat_vec(v))
        assert m.rank() == m.transpose().rank()


def test_zero_columns_appear_as_free_kernel_vectors():
    m = SparseMatrix(2, 4, Q)
    m.set(0, 1, 1)
    m.set(1, 3, 2)
    basis = m.kernel_basis()
    assert [sparse_to_dense(v, 4, Q) for v in basis] == [
        [F(1), F(0), F(0), F(0)],
        [F(0), F(0), F(1), F(0)],
    ]


# -- solve --------------------------------------------------------------------------

def test_solve_hand_cases():
    m = SparseMatrix.from_dense([[2, 0], [0, 3]], Q)
    x = m.solve({0: F(4), 1: F(9)})
    assert sparse_to_dense(x, 2, Q) == [F(2), F(3)]
    wide = SparseMatrix.from_dense([[1, 1]], Q)
    assert sparse_to_dense(wide.solve({0: F(5)}), 2, Q) == [F(5), F(0)]
    bad = SparseMatrix.from_dense([[1, 1], [1, 1]], Q)
    assert bad.solve({0: F(1), 1: F(2)}) is None
    # a vector with a coordinate outside the columns, on either side
    for index in (-1, 2):
        with pytest.raises(AmbientMismatch):
            SparseMatrix.identity(2, Q).mat_vec({index: 1})
    # a right-hand side with a coordinate outside the rows
    for index in (-1, 5):
        with pytest.raises(AmbientMismatch):
            SparseMatrix.identity(2, Q).solve({index: 1})


def test_solve_random_consistency():
    rng = random.Random(31337)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        x_true = dense_to_sparse(
            [F(rng.randint(-4, 4)) for _ in range(m.ncols)], Q)
        rhs = m.mat_vec(x_true)
        x = m.solve(rhs)
        assert x is not None
        assert vec_equal(m.mat_vec(x), rhs, Q)


@pytest.mark.parametrize("order, entry", [
    (1, lambda rng: F(rng.randint(-5, 5), rng.randint(1, 3))),
    (3, lambda rng: rng.randint(-3, 3)
        + rng.randint(-3, 3) * Cyclotomic.zeta(3))], ids=["Q", "Q(zeta3)"])
def test_inverse_is_a_two_sided_inverse(order, entry):
    field = field_of_order(order)
    rng = random.Random(4242)
    for n in (1, 2, 3, 5):
        m = SparseMatrix(n, n, field)
        while m.rank() < n:
            m = SparseMatrix(n, n, field)
            for i, j in product(range(n), repeat=2):
                if rng.random() < 0.6:
                    m.set(i, j, entry(rng))
        inv = m.inverse()
        eye = SparseMatrix.identity(n, field)
        assert m.matmul(inv).equals(eye)
        assert inv.matmul(m).equals(eye)
    with pytest.raises(ValidationError):
        SparseMatrix.from_dense([[1, 2], [2, 4]], Q).inverse()
    with pytest.raises(AmbientMismatch):
        SparseMatrix.from_dense([[1, 0, 0], [0, 1, 0]], Q).inverse()


# -- cyclotomic entries ----------------------------------------------------------

def test_rank_over_gaussian_rationals():
    i = Cyclotomic.zeta(4)
    f4 = field_of_order(4)
    # second column is i times the first, so the rank is 1
    m = SparseMatrix(2, 2, f4)
    m.set(0, 0, Cyclotomic(1, 4))
    m.set(0, 1, i)
    m.set(1, 0, i)
    m.set(1, 1, -1)
    assert m.rank() == 1
    kernel = m.kernel_basis()
    assert len(kernel) == 1
    assert vec_is_zero(m.mat_vec(kernel[0]))


def test_cyclotomic_rref_matches_structure():
    z = Cyclotomic.zeta(3)
    f3 = field_of_order(3)
    m = SparseMatrix(2, 2, f3)
    m.set(0, 0, z)
    m.set(1, 1, 1 + z)
    rows, pivots = m.rref()
    assert pivots == [0, 1]
    assert rows[0] == {0: f3.one}
    assert rows[1] == {1: f3.one}


# -- subspaces -----------------------------------------------------------------------

def test_subspace_membership_and_coords():
    # coords is {basis index: coefficient} with no zero value, and the
    # combination it names gives the vector back; the second vector inside
    # is a multiple of the second echelon vector alone
    z = Cyclotomic.zeta(3)
    for field, spanning, inside, outside in (
            (Q, [[1, 0, 1], [0, 1, 1]], [[2, 3, 5], [0, 4, 4]], [0, 0, 1]),
            (field_of_order(3), [[1, z, 0], [0, 1, z * z]],
             [[2, 2 * z + 3, 3 * z * z], [0, z, 1]], [0, 0, z])):
        s = Subspace.from_vectors(
            3, field, [dense_to_sparse(u, field) for u in spanning])
        assert s.dim == 2
        for values, support in zip(inside, ([0, 1], [1])):
            v = dense_to_sparse(values, field)
            assert s.contains(v)
            c = s.coords(v)
            assert isinstance(c, dict) and sorted(c) == support
            assert not any(field.is_zero(x) for x in c.values())
            combination = {}
            for k, x in c.items():
                vec_axpy(combination, x, s.basis[k], field)
            assert vec_equal(combination, v, field)
        assert s.coords({}) == {}
        outside = dense_to_sparse(outside, field)
        assert not s.contains(outside)
        assert s.coords(outside) is None
        reduced = s.reduce(outside)
        assert not vec_is_zero(reduced)


def test_subspace_sum_and_equality():
    a = Subspace.from_vectors(3, Q, [dense_to_sparse([1, 1, 0], Q)])
    b = Subspace.from_vectors(3, Q, [dense_to_sparse([0, 1, 1], Q)])
    c = a.sum_with(b)
    assert c.dim == 2
    again = Subspace.from_vectors(3, Q, [
        dense_to_sparse([1, 1, 0], Q), dense_to_sparse([1, 2, 1], Q)])
    assert c.equals(again)
    assert c.contains_subspace(a) and c.contains_subspace(b)
    # a subspace of another dimension or of another ambient space differs
    assert not c.equals(a) and not a.equals(c)
    assert not a.equals(Subspace.from_vectors(2, Q, [dense_to_sparse([1, 1], Q)]))


def test_operator_matrix_on_invariant_plane():
    # the plane x+y+z = 0 in Q^3 is invariant under cyclic coordinate shift
    shift = SparseMatrix.from_dense([[0, 0, 1], [1, 0, 0], [0, 1, 0]], Q)
    plane = Subspace.from_vectors(3, Q, [
        dense_to_sparse([1, -1, 0], Q),
        dense_to_sparse([0, 1, -1], Q),
    ])
    small = operator_matrix(shift.mat_vec, plane.basis, plane, "not invariant")
    assert small.nrows == small.ncols == 2
    # the restriction still satisfies T^3 = 1
    assert small.matmul(small).matmul(small).equals(SparseMatrix.identity(2, Q))
    line = Subspace.from_vectors(3, Q, [dense_to_sparse([1, 0, 0], Q)])
    with pytest.raises(NotContained, match="not invariant"):
        operator_matrix(shift.mat_vec, line.basis, line, "not invariant")


def test_preimage_subspace_hand_case():
    # f(x,y,z) = (x+y, z); preimage of span{(1,0)} is {z = 0}
    f = SparseMatrix.from_dense([[1, 1, 0], [0, 0, 1]], Q)
    target = Subspace.from_vectors(2, Q, [dense_to_sparse([1, 0], Q)])
    pre = preimage_subspace(f, target)
    assert pre.dim == 2
    assert pre.contains(dense_to_sparse([1, 0, 0], Q))
    assert pre.contains(dense_to_sparse([0, 1, 0], Q))
    assert not pre.contains(dense_to_sparse([0, 0, 1], Q))


# -- homology -------------------------------------------------------------------------

def test_homology_of_two_point_circle():
    # two vertices, two parallel edges from v0 to v1
    d1 = SparseMatrix.from_dense([[-1, -1], [1, 1]], Q)
    top = Homology(A=d1, B=None)
    assert top.dim == 1  # the loop a - b
    rep = top.representatives[0]
    assert vec_is_zero(d1.mat_vec(rep))
    bottom = Homology(A=None, B=d1)
    assert bottom.dim == 1  # connected
    bare = Homology(None, None, space_dim=2, field=Q)
    assert bare.dim == 2  # no differentials at all: the space itself


def test_homology_refuses_a_space_dim_that_disagrees_with_the_maps():
    A = SparseMatrix(2, 3, Q)
    B = SparseMatrix(3, 2, Q)
    with pytest.raises(AmbientMismatch, match="space_dim 5"):
        Homology(A=A, B=None, space_dim=5)
    with pytest.raises(AmbientMismatch, match="space_dim 7"):
        Homology(A=None, B=B, space_dim=7)
    with pytest.raises(AmbientMismatch, match="A's domain 3, B's codomain 2"):
        Homology(A=A, B=SparseMatrix(2, 2, Q))
    assert Homology(A=A, B=B, space_dim=3).dim == 3


def test_maps_of_the_wrong_shape_are_refused():
    three = Homology(None, None, space_dim=3, field=Q)
    ident = SparseMatrix.identity(3, Q)
    for target in (Homology(None, None, space_dim=4, field=Q),
                   Homology(None, None, space_dim=2, field=Q)):
        with pytest.raises(AmbientMismatch, match="3x3 chain map"):
            induced_map(ident, three, target)
    with pytest.raises(AmbientMismatch, match="3x3 chain map"):
        induced_map(ident, Homology(None, None, space_dim=2, field=Q), three)
    assert induced_map(ident, three, three).equals(ident)


def test_coordinates_outside_the_ambient_space_are_refused():
    plane = Subspace.from_vectors(3, Q, [dense_to_sparse([1, -1, 0], Q)])
    d = SparseMatrix.from_dense([[1, 1, 0]], Q)
    homologies = [Homology(None, None, space_dim=3, field=Q),
                  Homology(A=d, B=None), Homology(A=None, B=d.transpose())]
    for bad in ({5: 1}, {3: 1}, {-1: 1}, {0: 1, 7: 2}):
        for call in (plane.reduce, plane.coords, plane.contains,
                     *(H.coords for H in homologies)):
            with pytest.raises(AmbientMismatch):
                call(bad)


def test_homology_trivial_pair():
    d = SparseMatrix.from_dense([[0, 1], [0, 0]], Q)
    h = Homology(A=d, B=d, check_complex=True)
    assert h.dim == 0


def test_homology_coords_and_induced_map():
    # complex 0 -> Q --0--> Q^2 --0--> 0 has middle homology Q^2
    zero_in = SparseMatrix(2, 1, Q)
    zero_out = SparseMatrix(1, 2, Q)
    h = Homology(A=zero_out, B=zero_in)
    assert h.dim == 2
    assert h.coords(dense_to_sparse([3, 4], Q)) == {0: 3, 1: 4}
    assert h.coords(dense_to_sparse([0, 4], Q)) == {1: 4}
    swap = SparseMatrix.from_dense([[0, 1], [1, 0]], Q)
    m = induced_map(swap, h, h)
    assert to_dense(m) == [[F(0), F(1)], [F(1), F(0)]]
    # over Q(zeta3), modulo a boundary: K -> K^3 -> K with one class;
    # coords is sparse, and the combination it names differs from the
    # cycle by a boundary
    K, z = field_of_order(3), Cyclotomic.zeta(3)
    bound = dense_to_sparse([1, -1, z], K)
    h = Homology(A=SparseMatrix.from_dense([[1, 1, 0]], K),
                 B=SparseMatrix.from_columns([bound], 3, K), check_complex=True)
    assert h.dim == 1
    boundaries = Subspace.from_vectors(3, K, [bound])
    for values in ([2, -2, 0], [z, -z, 1 + z], [1 + z, -1 - z, z + z * z],
                   [0, 0, 0]):
        cycle = dense_to_sparse(values, K)
        c = h.coords(cycle)
        assert isinstance(c, dict) and set(c) <= {0}
        assert not any(K.is_zero(x) for x in c.values())
        residual = dict(cycle)
        for k, x in c.items():
            vec_axpy(residual, K.neg(x), h.representatives[k], K)
        assert boundaries.contains(residual)
        assert h.class_is_zero(cycle) == (not c)
    # (1 + z) * bound is a boundary, the zero class
    assert h.coords(dense_to_sparse([1 + z, -1 - z, z + z * z], K)) == {}
    assert h.coords(dense_to_sparse([1, 0, 0], K)) is None


def test_homology_mod_boundaries_random():
    # d_1 : Q^4 -> Q^2 given by a random matrix; d_2 : Q^3 -> Q^4 built to
    # land inside ker d_1 by construction, then homology dim checks out
    rng = random.Random(2718)
    for _ in range(10):
        d1 = random_matrix(rng, 2, 4, density=0.7)
        kernel = d1.kernel_basis()
        cols = []
        for _ in range(3):
            pick: dict = {}
            for v in kernel:
                if rng.random() < 0.5:
                    for j, val in v.items():
                        pick[j] = pick.get(j, F(0)) + val
            cols.append({j: v for j, v in pick.items() if v})
        d2 = SparseMatrix.from_columns(cols, 4, Q)
        h = Homology(A=d1, B=d2, check_complex=True)
        expected = (4 - d1.rank()) - d2.rank()
        assert h.dim == expected
        for rep in h.representatives:
            assert vec_is_zero(d1.mat_vec(rep))
            c = h.coords(rep)
            assert c
        # boundaries map to the zero class
        for col in d2.columns():
            if col:
                assert h.class_is_zero(col)


def test_rref_idempotent():
    rng = random.Random(11)
    m = random_matrix(rng, 5, 6)
    rows, pivots = m.rref()
    again_rows, again_pivots = rref_rows([dict(r) for r in rows], Q)
    assert again_pivots == pivots
    assert again_rows == rows


# -- integral rationals as ints -------------------------------------------------

def _windows():
    """Rows of the (b, B) totals of Q[x]/x^4 and of the walk window of QS3."""
    totals = total_complex(truncated_polynomial(4), 5).totals[1:]
    walks = hh(group_algebra(symmetric_group_3()), 3).window.boundaries[1:]
    return [m.rows for m in totals], [m.rows for m in walks]


def test_integral_window_entries_are_ints():
    totals, walks = _windows()
    for rows in totals:
        assert all(type(v) is int for row in rows for v in row.values())
    # the Peirce basis of QS3 has entries like 3/4; the integral ones are
    # ints, and no entry is a float or a bool
    kinds = {type(v) for rows in walks for row in rows for v in row.values()}
    assert kinds == {int, Fraction}
    for rows in walks:
        for row in rows:
            for v in row.values():
                assert type(v) is int or v.denominator != 1, v


def test_int_and_fraction_entries_eliminate_alike():
    totals, walks = _windows()
    for rows in totals + walks:
        as_fractions = [{j: F(v) for j, v in r.items()} for r in rows]
        got = [(reduced_rows(r, Q), rref_rows(r, Q),
                linalg._pivot_columns(enumerate(r), Q))
               for r in (rows, as_fractions)]
        assert got[0] == got[1]
        # exact quotients come back as ints on either input
        for out in got:
            for basis, _ in out[:2]:
                for row in basis:
                    for v in row.values():
                        assert type(v) is int or v.denominator != 1, v


def test_monic_keeps_an_exact_quotient_an_int():
    row = linalg._IntRows.monic({0: 2, 1: 4, 3: 3}, 0)
    assert row == {0: 1, 1: 2, 3: F(3, 2)}
    assert [type(v) for v in row.values()] == [int, int, Fraction]
    row = linalg._IntRows.monic({1: 6, 2: -3, 5: 1}, 2)
    assert row == {1: -2, 2: 1, 5: F(-1, 3)}
    assert [type(v) for v in row.values()] == [int, int, Fraction]


def test_matrix_refusals():
    with pytest.raises(ValidationError, match="expected 2 rows, got 1"):
        SparseMatrix(2, 2, Q, rows=[{}])
    m = SparseMatrix(2, 2, Q)
    for i, j in [(5, 0), (0, 2), (-1, 0), (0, -1)]:
        with pytest.raises(AmbientMismatch):
            m.set(i, j, 1)
    assert m.is_zero_matrix()
    eye = SparseMatrix.identity(2, Q)
    assert eye.equals(SparseMatrix.identity(2, Q))
    assert not eye.equals(SparseMatrix.identity(3, Q))
    assert not eye.equals(SparseMatrix(2, 3, Q, rows=[{0: 1}, {1: 1}]))
    assert not eye.equals(SparseMatrix.identity(2, field_of_order(3)))


def test_scaling_by_zero_gives_the_zero_vector():
    assert vec_scale({0: F(1, 2), 3: -4}, 0, Q) == {}
    zeta3 = field_of_order(3)
    assert vec_scale({1: zeta3.one}, zeta3.zero, zeta3) == {}


def test_shape_refusals_of_products_sums_and_preimages():
    eye2, eye3 = SparseMatrix.identity(2, Q), SparseMatrix.identity(3, Q)
    with pytest.raises(AmbientMismatch, match="cannot compose 2x2 with 3x3"):
        eye2.matmul(eye3)
    with pytest.raises(AmbientMismatch, match="shape mismatch in matrix sum"):
        eye2.add(eye3)
    with pytest.raises(AmbientMismatch,
                       match="subspace sum needs one ambient space"):
        Subspace.from_vectors(2, Q, [{0: 1}]).sum_with(
            Subspace.from_vectors(3, Q, [{0: 1}]))
    with pytest.raises(AmbientMismatch, match="map codomain does not match"):
        preimage_subspace(eye2, Subspace.from_vectors(3, Q, [{0: 1}]))


def test_homology_refusals():
    with pytest.raises(ValidationError,
                       match="need a map or an explicit space dimension"):
        Homology(None, None)
    # d1 d2 = 1 on a line: not a complex, caught only when asked for
    one = SparseMatrix.identity(1, Q)
    with pytest.raises(ValidationError,
                       match="not a complex: composition is nonzero"):
        Homology(one, one, check_complex=True)
    # Q --0--> Q --1--> Q: the middle space has no homology and {0: 1} is
    # not a cycle of the outgoing map
    H = Homology(one, SparseMatrix(1, 1, Q))
    assert H.dim == 0
    with pytest.raises(NotContained, match="not a cycle modulo boundaries"):
        H.class_is_zero({0: 1})


def test_subspace_from_vectors_refuses_coordinates_outside_the_ambient():
    for index in (5, 2, -1):
        with pytest.raises(AmbientMismatch, match="ambient space of 2"):
            Subspace.from_vectors(2, Q, [{0: 1}, {index: 1}])
    space = Subspace.from_vectors(2, Q, [{1: 1}, {0: 2, 1: 2}])
    assert space.dim == 2
    assert all(space.contains(v) for v in space.basis)


def test_bool_scalars_are_refused():
    for order in (1, 3):
        for bad in (True, False):
            with pytest.raises(ValidationError):
                to_raw(bad, field_of_order(order))
    with pytest.raises(ValidationError):
        FDAlgebra(1, 1, {(0, 0): {0: True}})
    with pytest.raises(ValidationError):
        SparseMatrix(1, 1, Q).set(0, 0, True)
    # over Q an integral rational is stored as an int, any other one as is
    for value, raw in [(F(4, 2), 2), (Cyclotomic(-3), -3), (5, 5)]:
        assert type(to_raw(value, Q)) is int and to_raw(value, Q) == raw
    assert to_raw(F(1, 2), Q) == F(1, 2)
    assert type(Q.zero) is int and type(Q.one) is int


def _assert_union_eliminates_blockwise(blocks, cols=None):
    """blocks: row lists of one length, with at most one nonempty row at
    each index and pairwise disjoint columns.  Eliminating their union gives
    each block's pivot triples in the order the block alone gives them, and
    reduced_rows of the union is the union of the blocks' reduced_rows."""
    union = [next((b[i] for b in blocks if b[i]), {})
             for i in range(len(blocks[0]))]
    _, pivots = linalg._eliminate(enumerate(union), Q, cols)
    expected = []
    for block in blocks:
        own = {j for row in block for j in row}
        _, alone = linalg._eliminate(enumerate(block), Q, cols)
        # repr also sees the entry order and the int / Fraction kinds
        assert repr([p for p in pivots if p[0] in own]) == repr(alone)
        rows, pivot_cols = reduced_rows(block, Q)
        expected += zip(pivot_cols, rows)
    rows, pivot_cols = reduced_rows(union, Q)
    assert repr(list(zip(pivot_cols, rows))) == repr(sorted(
        expected, key=lambda pair: pair[0]))
    return pivots


def test_component_split_keeps_the_pivots_of_one_component():
    """Rows of different components share no column, so the one pass over
    all of them gives each component the pivots it gets alone.  The windows,
    interleaved: row r and column c of window k go to r*K + k and c*K + k,
    so the heap meets every window's columns in turn."""
    totals, walks = _windows()
    windows = totals + walks
    K = len(windows)
    height = max(len(rows) for rows in windows)
    blocks = []
    for k, rows in enumerate(windows):
        block = [{} for _ in range(K * height)]
        for r, row in enumerate(rows):
            block[r * K + k] = {c * K + k: v for c, v in row.items()}
        blocks.append(block)
    _assert_union_eliminates_blockwise(blocks)
    width = 1 + max(j for block in blocks for row in block for j in row)
    _assert_union_eliminates_blockwise(blocks, set(range(0, width, 3)))


def test_component_split_merges_components_joined_by_a_later_row():
    """Rows that first look apart and are joined by a later row eliminate
    as one component."""
    rows = [{4: 1, 5: 2}, {0: 1, 1: 1}, {2: 3, 3: 1},
            {5: 1, 1: -1},      # joins the first two
            {3: 2, 1: 1},       # joins that with the third
            {6: 1, 7: -2}, {8: 5}, {7: 1, 6: 1}]
    groups = [{0, 1, 2, 3, 4}, {5, 7}, {6}]
    blocks = [[row if i in g else {} for i, row in enumerate(rows)]
              for g in groups]
    assert len(_assert_union_eliminates_blockwise(blocks)) == 8


# -- the singleton peel ------------------------------------------------------

def _heap_only_pivots(rows, adapter, cols=None):
    """The pivot loop of ``_eliminate`` without the peel: every column goes
    through the lazy (count, col) heap, with its row set, from the start.
    The oracle for the peel, which must give the same triples in the same
    order."""
    col_rows = {}
    live = {}
    for rid, row in rows:
        live[rid] = row
        for c in row:
            if cols is None or c in cols:
                col_rows.setdefault(c, set()).add(rid)
    heap = [(len(rids), c) for c, rids in col_rows.items()]
    heapq.heapify(heap)
    pivots = []
    while heap:
        cnt, c = heapq.heappop(heap)
        rids = col_rows.get(c)
        if not rids or cnt != len(rids):
            continue
        prid = min(rids, key=lambda rid: (len(live[rid]), rid))
        prow = live[prid]
        pcols = prow if cols is None else [j for j in prow if j in cols]
        for rid in list(rids):
            if rid == prid:
                continue
            old = live[rid]
            new = adapter.combine(old, prow, c)
            for j in pcols:
                if j in old:
                    if j not in new:
                        col_rows[j].discard(rid)
                elif j in new:
                    col_rows[j].add(rid)
            if new:
                live[rid] = new
            else:
                del live[rid]
        del live[prid]
        for j in pcols:
            s = col_rows[j]
            s.discard(prid)
            if s:
                heapq.heappush(heap, (len(s), j))
            else:
                del col_rows[j]
        pivots.append((c, prid, prow))
    return pivots


def _assert_peel_matches_the_heap(raw_rows, field, cols=None):
    adapter, got = linalg._eliminate(enumerate(raw_rows), field, cols)
    prepared = [(rid, adapter.prim(row)) for rid, row in enumerate(raw_rows)]
    prepared = [(rid, row) for rid, row in prepared if row]
    # repr also sees the entry order and the int / Fraction kinds
    assert repr(got) == repr(_heap_only_pivots(prepared, adapter, cols))
    return got


def test_peel_matches_the_heap_on_windows():
    totals, walks = _windows()
    for rows in totals + walks:
        _assert_peel_matches_the_heap(rows, Q)
        ncols = 1 + max((j for row in rows for j in row), default=0)
        _assert_peel_matches_the_heap(rows, Q, set(range(0, ncols, 2)))


@pytest.mark.parametrize("order, rational", [
    pytest.param(1, False, id="1"),
    pytest.param(3, False, id="3"),
    pytest.param(3, True, id="3-rational"),
])
def test_peel_matches_the_heap_on_random_rows(order, rational):
    field = field_of_order(order)
    rng = random.Random(900 + order + 10 * rational)
    for _ in range(60):
        ncols = rng.randint(1, 10)
        rows = _random_raw_rows(rng, field, rng.randint(1, 10), ncols,
                                rational)
        # sparser rows too, so that columns with one row are common
        rows += [{j: v for j, v in row.items() if rng.random() < 0.4}
                 for row in rows]
        _assert_peel_matches_the_heap(rows, field)
        cols = {j for j in range(ncols) if rng.random() < 0.6}
        _assert_peel_matches_the_heap(rows, field, cols)


def test_peel_edge_cases():
    # an all-singleton diagonal peels whole, lowest column first
    diagonal = [{4 - i: i + 1} for i in range(5)]
    got = _assert_peel_matches_the_heap(diagonal, Q)
    assert [(c, rid) for c, rid, _ in got] == [(i, 4 - i) for i in range(5)]
    # a column shared by every row, each row with a private column too:
    # once four rows are peeled, the shared column 0 has one row left and
    # comes before column 5
    shared = [{0: 1, i: i} for i in range(1, 6)]
    got = _assert_peel_matches_the_heap(shared, Q)
    assert [c for c, _, _ in got] == [1, 2, 3, 4, 0]
    # ... and the shared column alone, so nothing peels
    _assert_peel_matches_the_heap([{0: i, 1: 1} for i in range(1, 5)], Q)
    # duplicate rows: one becomes a pivot, the others cancel against it,
    # after the last row peels at column 7
    got = _assert_peel_matches_the_heap([{2: 3, 5: -1}] * 3 + [{5: 2, 7: 1}],
                                        Q)
    assert got[0][:2] == (7, 3)
    assert len(got) == 2
    # a row whose only columns lie outside cols never becomes a pivot
    rows = [{0: 1, 1: 2}, {3: 5}, {1: 1, 2: 1}, {3: 1, 4: 1}]
    got = _assert_peel_matches_the_heap(rows, Q, {0, 1, 2})
    assert 1 not in {rid for _, rid, _ in got}
    assert _assert_peel_matches_the_heap([{3: 5}], Q, {0, 1}) == []
    assert _assert_peel_matches_the_heap([], Q) == []

