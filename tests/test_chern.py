"""Chern characters of idempotents and invertibles over group algebras.

The expected pairings are traces of the matrices themselves: the regular
trace of Q[Z/5] is 5 at the identity and 0 elsewhere, so the idempotent
(1/5) sum_g g pairs to 1 and its complement to 4.
"""

from fractions import Fraction

import pytest

from cychom.chern import (
    CyclicChain,
    _extend_cycle,
    chern_idempotent,
    chern_invertible,
    idempotent_rep,
    invertible_rep,
    pair_with_trace,
)
from cychom.algebra import FDAlgebra, _unflatten, ground_field, \
    truncated_polynomial
from cychom.cyclic import cyclic_complex
from cychom.errors import AmbientMismatch, NotIdempotent, NotInvertible, \
    ValidationError
from cychom.groups import cyclic_group, group_algebra
from cychom import chern, hochschild
from cychom.hochschild import _tensor_chain_matrix
from cychom.linalg import SparseMatrix, cleared, vec_add, vec_equal, \
    vec_scale
from cychom.scalars import Cyclotomic
from cychom.spectrum import extend_scalars
from bicomplex_oracle import total_complex

F = Fraction


def _qz(n):
    return group_algebra(cyclic_group(n))


def _trivial_character(n):
    return {g: F(1, n) for g in range(n)}


def test_trivial_idempotent_pairs_to_its_rank():
    QZ5 = _qz(5)
    e = idempotent_rep(QZ5, [[_trivial_character(5)]])
    trace = dict(enumerate(QZ5.trace_vector()))
    for q in (0, 1, 2):
        assert pair_with_trace(chern_idempotent(e, q), trace) == 1


def test_changing_one_coordinate_breaks_the_cycle():
    QZ5 = _qz(5)
    ch = chern_idempotent(idempotent_rep(QZ5, [[_trivial_character(5)]]), 2).chain
    assert ch.is_cycle()
    field = ch.window.field
    total = total_complex(ch.window.algebra, ch.degree, normalized=False)
    assert not total.totals[ch.degree].mat_vec(ch.chain)
    cols = total.totals[ch.degree].columns()
    # a coordinate the differential sees, so the change cannot cancel
    k = next(k for k in sorted(ch.chain) if cols[k])
    for value in (field.add(ch.chain[k], field.one), field.neg(ch.chain[k])):
        broken = CyclicChain(ch.window, ch.degree, {**ch.chain, k: value})
        assert not broken.is_cycle()


def test_a_chain_outside_its_window_is_refused_when_made():
    # Q[x]/x^3's layout to degree 3 has 3 coordinates in degree 0
    w = cyclic_complex(truncated_polynomial(3), 3, normalized=False)
    assert w.dims[0] == 3
    with pytest.raises(ValidationError, match="outside the window"):
        CyclicChain(w, 5, {0: 1})
    for index in (99, 3, -1):
        with pytest.raises(AmbientMismatch, match="coordinates 0..2"):
            CyclicChain(w, 0, {index: 1})
    assert CyclicChain(w, 0, {2: 1}).is_cycle()


def test_pairing_is_additive_on_block_sums():
    QZ5 = _qz(5)
    e = _trivial_character(5)
    complement = {g: -c for g, c in e.items()}
    complement[0] += 1
    block = idempotent_rep(QZ5, [[e, {}], [{}, complement]])
    trace = dict(enumerate(QZ5.trace_vector()))
    for q in (0, 1):
        assert pair_with_trace(chern_idempotent(block, q), trace) == 5


def test_pairing_refuses_coordinates_outside_the_algebra():
    # QZ5 has basis 1, g, .., g^4: the character's part is sound and only
    # the trace overruns
    ch = chern_idempotent(idempotent_rep(_qz(5), [[_trivial_character(5)]]), 0)
    for tau in ({5: 1}, {-1: 1}, {0: 1, 7: 5}):
        with pytest.raises(ValidationError, match="outside a basis"):
            pair_with_trace(ch, tau)


def test_conjugate_idempotents_pair_alike_with_every_coordinate_trace():
    QZ5 = _qz(5)
    eps = _trivial_character(5)
    one = {0: 1}
    # the elementary unit u = [[1, g], [0, 1]] has inverse [[1, -g], [0, 1]]
    u = invertible_rep(QZ5, [[one, {1: 1}], [{}, one]])
    assert vec_equal(u.inverse_flat, invertible_rep(
        QZ5, [[one, {1: -1}], [{}, one]]).flat, QZ5.field)
    e = idempotent_rep(QZ5, [[eps, {}], [{}, {}]])
    # u e u^-1 = [[eps, -eps g], [0, 0]], and eps g = eps
    conj = idempotent_rep(QZ5, [[eps, {g: -c for g, c in eps.items()}],
                                [{}, {}]])
    M = e.matrices
    assert vec_equal(M.multiply(M.multiply(u.flat, e.flat), u.inverse_flat),
                     conj.flat, QZ5.field)
    for q in (0, 1):
        ch_e, ch_conj = chern_idempotent(e, q), chern_idempotent(conj, q)
        # delta_g reads the coefficient of g, a trace on the commutative QZ5
        for g in range(5):
            delta = {g: 1}
            assert pair_with_trace(ch_conj, delta) == \
                pair_with_trace(ch_e, delta) == F(1, 5)


def test_s_lowers_the_even_character_at_chain_level():
    e = idempotent_rep(_qz(5), [[_trivial_character(5)]])
    lowered = chern_idempotent(e, 2).s()
    assert lowered.q == 1 and lowered.degree == 2
    assert lowered.chain.equals(chern_idempotent(e, 1).chain)


def test_s_lowers_the_odd_character_at_chain_level():
    u = invertible_rep(_qz(3), [[{1: 1}]])
    lowered = chern_invertible(u, 1).s()
    assert lowered.degree == 1
    assert lowered.chain.equals(chern_invertible(u, 0).chain)


def test_characters_over_a_cyclotomic_field():
    # the carriers are subalgebras of the matrices over Q(zeta3), so their
    # chains carry irrational coefficients into the trace
    C3 = extend_scalars(_qz(3), 3)
    # the character idempotent (1/3) sum_k zeta^-k g^k, a rank-one projection
    K = C3.field
    e = idempotent_rep(C3, [[{k: K.scale(K.zeta_pow[-k % 3], Fraction(1, 3))
                              for k in range(3)}]])
    trace = dict(enumerate(C3.trace_vector()))
    for q in (0, 1, 2):
        assert pair_with_trace(chern_idempotent(e, q), trace) == 1
    z = invertible_rep(C3, [[{0: Cyclotomic.zeta(3)}]])
    ch = chern_invertible(z, 1)
    assert ch.degree == 3 and ch.chain.is_cycle()


def test_group_generator_is_not_idempotent():
    with pytest.raises(NotIdempotent):
        idempotent_rep(_qz(5), [[{1: 1}]])


def test_characters_live_on_windows_of_their_own_degree():
    e = idempotent_rep(_qz(5), [[_trivial_character(5)]])
    u = invertible_rep(_qz(3), [[{1: 1}]])
    for ch in (chern_idempotent(e, 0), chern_idempotent(e, 1),
               chern_invertible(u, 0), chern_invertible(u, 1)):
        assert ch.chain.window.n_max == ch.degree


def test_matrices_without_an_inverse_are_refused():
    T2 = truncated_polynomial(2)
    with pytest.raises(NotInvertible, match="no right inverse exists"):
        invertible_rep(T2, [[{1: 1}]])


@pytest.mark.parametrize("A, entry", [
    # 1 + x has infinite order, zeta25 has order 25
    (truncated_polynomial(2), {0: 1, 1: 1}),
    (ground_field(25), {0: Cyclotomic.zeta(25)}),
], ids=["one_plus_x", "zeta25"])
def test_invertibles_of_any_order_have_odd_characters(A, entry):
    u = invertible_rep(A, [[entry]])
    below = None
    for q in range(3):
        ch = chern_invertible(u, q)
        assert ch.degree == 2 * q + 1 and ch.chain.is_cycle()
        if below is not None:
            assert ch.s().chain.equals(below.chain)
        below = ch


def _refusal(error, match, call, *args):
    # the refusal's own type, not a subclass of it
    with pytest.raises(error, match=match) as info:
        call(*args)
    assert info.type is error


def test_chern_refusals_are_typed():
    QZ3 = _qz(3)
    e = idempotent_rep(QZ3, [[_trivial_character(3)]])
    u = invertible_rep(QZ3, [[{1: 1}]])
    _refusal(ValidationError, "matrix must be square",
             idempotent_rep, QZ3, [[{0: 1}, {}]])
    _refusal(ValidationError, "expected an idempotent representative",
             chern_idempotent, u, 0)
    _refusal(ValidationError, "expected an invertible representative",
             chern_invertible, e, 0)
    odd = chern_invertible(u, 0)
    _refusal(ValidationError, "odd classes have no degree-zero part",
             odd.degree_zero_part)
    _refusal(ValidationError, "odd classes have no degree-zero part",
             pair_with_trace, odd, {0: 1})
    even = chern_idempotent(e, 1)
    assert even.component(0) == even.degree_zero_part()
    for m in (1, 3, 4, -2):
        _refusal(ValidationError,
                 "degree-2 chains have no tensor degree %d part" % m,
                 even.component, m)


def test_a_character_builds_only_the_boundaries_its_raise_solves_against(
        monkeypatch):
    # every matrix bar_complex's windows build goes through _boundary_matrix
    # without a chain; the cycle checks pass chains
    built = []

    def spy(slots, left, right, last_face, dims, field, n, chain=None):
        if chain is None:
            built.append(n)
        return boundary_matrix(slots, left, right, last_face, dims, field, n,
                               chain)

    boundary_matrix = hochschild._boundary_matrix
    monkeypatch.setattr(hochschild, "_boundary_matrix", spy)
    QZ5 = _qz(5)
    e = idempotent_rep(QZ5, [[_trivial_character(5)]])
    ch = chern_idempotent(e, 2)
    # the carrier's b_2 and b_4, which the two raises solve against
    assert built == [2, 4]
    hoch = ch.chain.window.hochschild_window
    assert hoch.boundaries._built == [None] * 5
    trace = dict(enumerate(QZ5.trace_vector()))
    assert pair_with_trace(ch, trace) == 1
    # the total complex's matrices agree with the chain-mode check
    assert not total_complex(QZ5, 4, normalized=False).totals[4].mat_vec(
        ch.chain.chain)


def test_a_pushed_chain_off_its_cycle_is_refused(monkeypatch):
    # move one coordinate of the top tensor component of the pushed chain
    def shifted(src, tgt, n, slot0, interior, chain):
        out = tensor_chain_matrix(src, tgt, n, slot0, interior, chain)
        if tgt is not src and n == 4:
            i = min(out)
            out[(i + 1) % tgt.dims[n]] = out.pop(i)
        return out

    tensor_chain_matrix = chern._tensor_chain_matrix
    monkeypatch.setattr(chern, "_tensor_chain_matrix", shifted)
    e = idempotent_rep(_qz(5), [[_trivial_character(5)]])
    _refusal(ValidationError, "idempotent character is not a cycle at "
             "degree 4", chern_idempotent, e, 2)


def test_a_raise_without_a_solution_is_refused(monkeypatch):
    window = cyclic_complex(_qz(3), 2, normalized=False)
    seed = CyclicChain(window, 0, {0: 1})
    assert seed.is_cycle()
    monkeypatch.setattr(SparseMatrix, "solve", lambda self, rhs: None)
    _refusal(ValidationError, "no chain-level extension exists at degree 2",
             _extend_cycle, seed)


def _parent_character(rep, q):
    """The character on the carriers it had before the subalgebra the class
    generates: the ground field with a fresh unit, its old unit p sent to
    the idempotent, or the group algebra of Z/n, n the order of the
    invertible, its generator g sent to the matrix and seeded by g^-1 (x) g.
    The carrier is built over the target's field, which is what lifting the
    rational carrier's chain did."""
    A, M, order = rep.algebra, rep.matrices, rep.algebra.field_order
    if rep.kind == "idempotent":
        carrier = FDAlgebra(2, order, {(0, 0): {0: 1}, (0, 1): {1: 1},
                                       (1, 0): {1: 1}, (1, 1): {1: 1}},
                            unit={0: 1}).require_valid()
        images, seed = [M.unit, rep.flat], (1,)
    else:
        images = [M.unit]
        power = rep.flat
        while not vec_equal(power, M.unit, A.field):
            images.append(power)
            power = M.multiply(power, rep.flat)
        n = len(images)
        carrier = group_algebra(cyclic_group(n), order)
        seed = (n - 1, 1) if n > 1 else (0, 0)
    mats = [_unflatten(A, image, rep.size) for image in images]
    degree = len(seed) - 1 + 2 * q
    window = cyclic_complex(carrier, degree, normalized=False)
    hoch = window.hochschild_window
    ch = CyclicChain(window, len(seed) - 1,
                     {hoch.index_of(len(seed) - 1, seed): window.field.one})
    for _ in range(q):
        ch = _extend_cycle(ch)
    tgt = cyclic_complex(A, degree, normalized=False)
    out = {}
    for k, (m, _) in enumerate(window.summands(degree)):
        out.update(tgt.include_component(degree, _tensor_chain_matrix(
            hoch, tgt.hochschild_window, m, mats, mats,
            window.component(degree, ch.chain, k)), k))
    return out


@pytest.mark.parametrize("order", [1, 3])
def test_the_subalgebra_carrier_keeps_the_parent_classes(order):
    # the two carriers pick other raised cycles, so the chains may differ,
    # but only by a boundary of the total complex of the target
    A = extend_scalars(_qz(3), order) if order > 1 else _qz(3)
    cases = [(chern_idempotent, idempotent_rep(A, [[_trivial_character(3)]]),
              2), (chern_invertible, invertible_rep(A, [[{1: 1}]]), 1)]
    for character, rep, top in cases:
        for q in range(top + 1):
            new = character(rep, q)
            field = new.chain.window.field
            total = total_complex(A, new.degree + 1, normalized=False)
            diff = vec_add(new.chain.chain, vec_scale(
                _parent_character(rep, q), field.neg(field.one), field),
                field)
            assert total.totals[new.degree + 1].solve(diff) is not None
            if rep.kind == "idempotent":
                # the even classes pair to 1, so no boundary hits them
                assert total.totals[new.degree + 1].solve(
                    new.chain.chain) is None


def _character_idempotent(m):
    """(1/m) sum_k zeta_m^-k g^k in Q(zeta_m)[Z/m], a rank-one projection."""
    A = extend_scalars(_qz(m), m)
    K = A.field
    return idempotent_rep(A, [[{k: K.scale(K.zeta_pow[-k % m], F(1, m))
                                for k in range(m)}]])


def _block_sum(rep):
    """diag(e, 1 - e) for the 1 x 1 idempotent e of rep."""
    A, e = rep.algebra, rep.flat
    complement = vec_add(A.unit, vec_scale(e, A.field.neg(A.field.one),
                                           A.field), A.field)
    return idempotent_rep(A, [[e, {}], [{}, complement]])


@pytest.mark.parametrize("build", [
    lambda: idempotent_rep(_qz(5), [[_trivial_character(5)]]),
    lambda: _character_idempotent(3), lambda: _character_idempotent(5)],
    ids=["QZ5", "zeta3", "zeta5"])
def test_chain_mode_push_is_the_matrix_times_the_chain(build, monkeypatch):
    # every push _character makes, on its int matrices and weights, against
    # the whole matrix; the 2 x 2 block sum's generalized trace has a
    # kernel, whose chains push to nothing
    pushes = []

    def spy(src, tgt, n, slot0, interior, chain):
        pushes.append((src, tgt, n, slot0, interior, chain))
        return tensor_chain_matrix(src, tgt, n, slot0, interior, chain)

    tensor_chain_matrix = chern._tensor_chain_matrix
    monkeypatch.setattr(chern, "_tensor_chain_matrix", spy)
    chern_idempotent(_block_sum(build()), 1)
    monkeypatch.undo()
    assert len(pushes) == 2
    cancelled = 0
    for src, tgt, n, slot0, interior, chain in pushes:
        field = tgt.field
        # the weights and the matrices are cleared to ints
        assert cleared(chain, field)[0] == 1
        assert all(cleared(entry, field)[0] == 1
                   for mat in slot0 for row in mat for entry in row)
        matrix = _tensor_chain_matrix(src, tgt, n, slot0, interior)
        assert _tensor_chain_matrix(src, tgt, n, slot0, interior, chain) \
            == matrix.mat_vec(chain)
        for kernel in matrix.kernel_basis()[:4]:
            assert _tensor_chain_matrix(src, tgt, n, slot0, interior,
                                        kernel) == {}
            cancelled += 1
    assert cancelled
