"""Chern characters of idempotents and invertibles over group algebras.

The expected pairings are traces of the matrices themselves: the regular
trace of Q[Z/5] is 5 at the identity and 0 elsewhere, so the idempotent
(1/5) sum_g g pairs to 1 and its complement to 4.
"""

from fractions import Fraction

import pytest

from cychom.chern import (
    CyclicChain,
    chern_idempotent,
    chern_invertible,
    idempotent_rep,
    invertible_rep,
    pair_with_trace,
)
from cychom.algebra import truncated_polynomial
from cychom.cyclic import cyclic_complex
from cychom.errors import AmbientMismatch, NotIdempotent, NotInvertible, \
    OrderUnbounded, ValidationError
from cychom.groups import cyclic_group, group_algebra
from cychom.linalg import vec_equal
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
    # Q[x]/x^3 has basis 1, x, x^2; on QZ5 the character's part is sound
    # and only the trace overruns
    A = truncated_polynomial(3)
    for vec, tau in (({-1: 1, 7: 2}, {7: 5}), ({0: 1}, {7: 5}),
                     ({0: 1}, {-1: 1}), ({3: 1}, {0: 1})):
        with pytest.raises(ValidationError, match="outside a basis"):
            pair_with_trace(vec, tau, A)
    ch = chern_idempotent(idempotent_rep(_qz(5), [[_trivial_character(5)]]), 0)
    with pytest.raises(ValidationError, match="outside a basis"):
        pair_with_trace(ch, {5: 1})


def test_conjugate_idempotents_pair_alike_with_every_coordinate_trace():
    QZ5 = _qz(5)
    eps = _trivial_character(5)
    one = {0: 1}
    # the elementary unit u = [[1, g], [0, 1]] has inverse [[1, -g], [0, 1]]
    u = invertible_rep(QZ5, [[one, {1: 1}], [{}, one]],
                       inverse=[[one, {1: -1}], [{}, one]])
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
    # the carrier chains are over Q, so the trace must lift their
    # coefficients into Q(zeta3) before multiplying matrix entries
    C3 = extend_scalars(_qz(3), 3)
    # the character idempotent (1/3) sum_k zeta^-k g^k, a rank-one projection
    e = idempotent_rep(C3, [[{k: Cyclotomic.zeta(3, -k) / 3
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
    # 1 + x is invertible, but its inverse is 1 - x
    with pytest.raises(NotInvertible, match="stored inverse fails"):
        invertible_rep(T2, [[{0: 1, 1: 1}]], inverse=[[{0: 1, 1: 1}]])


def test_an_element_of_infinite_order_has_no_odd_character():
    u = invertible_rep(truncated_polynomial(2), [[{0: 1, 1: 1}]])
    with pytest.raises(OrderUnbounded):
        chern_invertible(u, 0)
