"""Exact cyclotomic scalar arithmetic.

Expected values here are derived by hand (classical polynomial identities,
explicit inverses checked by multiplication on paper), never from the code
under test.
"""

import random
from fractions import Fraction

import pytest

from cychom import scalars
from cychom.errors import DivisionByZero, FieldMismatch, ValidationError
from cychom.linalg import to_raw
from cychom.scalars import (
    Cyclotomic,
    cyclotomic_polynomial,
    field_of_order,
    lift_raw,
    scalar_to_string,
)

F = Fraction


# -- cyclotomic polynomials ---------------------------------------------------

KNOWN_PHI = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


def test_cyclotomic_polynomials_match_hand_table():
    for m, coeffs in KNOWN_PHI.items():
        assert cyclotomic_polynomial(m) == coeffs


def test_cyclotomic_polynomial_product_recovers_x_pow_m_minus_1():
    # prod over d | m of Phi_d equals x^m - 1
    for m in (6, 8, 10, 12, 15):
        prod = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                phi = cyclotomic_polynomial(d)
                out = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                prod = out
        assert prod == [-1] + [0] * (m - 1) + [1]


def test_phi_105_has_coefficient_minus_two():
    # the first cyclotomic polynomial with a coefficient outside {-1,0,1}
    phi = cyclotomic_polynomial(105)
    assert phi[7] == -2
    assert len(phi) - 1 == 48


# -- hand-checked identities ---------------------------------------------------

def _power(field, a, n):
    """a^n for n >= 0 by repeated field multiplication."""
    out = field.one
    for _ in range(n):
        out = field.mul(out, a)
    return out


def test_third_roots_sum_to_zero():
    K = field_of_order(3)
    z = K.zeta_pow[1]
    assert K.is_zero(K.add(K.add(K.one, z), K.mul(z, z)))


def test_eighth_roots_sum_to_zero():
    K = field_of_order(8)
    total = K.zero
    for j in range(8):
        total = K.add(total, _power(K, K.zeta_pow[1], j))
    assert K.is_zero(total)


def test_power_reduction_against_hand_values():
    K4 = field_of_order(4)
    assert _power(K4, K4.zeta_pow[1], 2) == K4.from_rational(-1)
    K8 = field_of_order(8)
    assert _power(K8, K8.zeta_pow[1], 4) == K8.from_rational(-1)
    # zeta_12^4 = zeta_3 and the reduced tuple is z^2 - 1
    K12 = field_of_order(12)
    assert _power(K12, K12.zeta_pow[1], 4) == (F(-1), F(0), F(1), F(0))


def test_inverse_of_one_plus_i_is_hand_value():
    K = field_of_order(4)
    # (1+i)(1-i) = 2, so the inverse is (1-i)/2
    assert K.inv((1, 1)) == (F(1, 2), F(-1, 2))


def test_inverse_of_zeta3_is_its_square():
    K = field_of_order(3)
    z = K.zeta_pow[1]
    assert K.inv(z) == K.mul(z, z)


def test_zeta_has_exact_multiplicative_order():
    for m in (2, 3, 4, 5, 6, 8, 12):
        K = field_of_order(m)
        z = K.zeta_pow[1]
        acc = K.one
        for k in range(1, m):
            acc = K.mul(acc, z)
            assert acc != K.one, (m, k)
        assert K.mul(acc, z) == K.one


# -- random property checks ---------------------------------------------------

ORDERS = (1, 2, 3, 4, 5, 6, 8, 12)


def _random_element(rng, m):
    """A raw value of Q(zeta_m) with random Fraction coefficients."""
    field = field_of_order(m)
    coeffs = [F(rng.randint(-6, 6), rng.randint(1, 5))
              for _ in range(field.degree)]
    return field.from_coeffs(coeffs)


def test_field_axioms_on_random_elements():
    rng = random.Random(20240817)
    for m in ORDERS:
        K = field_of_order(m)
        for _ in range(12):
            a = _random_element(rng, m)
            b = _random_element(rng, m)
            c = _random_element(rng, m)
            assert K.mul(K.add(a, b), c) == K.add(K.mul(a, c), K.mul(b, c))
            assert K.mul(a, b) == K.mul(b, a)
            assert K.mul(K.mul(a, b), c) == K.mul(a, K.mul(b, c))
            assert K.add(a, K.neg(a)) == K.zero
            assert K.sub(a, b) == K.add(a, K.neg(b))
            if not K.is_zero(a):
                assert K.mul(a, K.inv(a)) == K.one


def _reference_product(a, b, m):
    """a * b on coefficient tuples by polynomial product and long division
    by Phi_m, the general route whatever the operands."""
    phi = cyclotomic_polynomial(m)
    d = len(phi) - 1
    prod = [F(0)] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for t in range(2 * d - 2, d - 1, -1):
        c = prod[t]
        for k, p in enumerate(phi):
            prod[t - d + k] -= c * p
    return tuple(prod[:d])


@pytest.mark.parametrize("m", [3, 5, 8])
def test_rational_operands_multiply_like_the_general_route(m):
    # one operand rational takes the coefficientwise path in field.mul
    rng = random.Random(m)
    field = field_of_order(m)
    for _ in range(20):
        a = _random_element(rng, m)
        r = field.from_rational(F(rng.randint(-6, 6), rng.randint(1, 5)))
        for x, y in [(a, r), (r, a), (r, r), (a, a), (a, field.zero)]:
            assert field.mul(x, y) == _reference_product(x, y, m)


def test_lift_is_a_ring_embedding():
    rng = random.Random(99)
    for m, k in ((3, 6), (3, 12), (4, 8), (4, 12), (2, 6), (1, 5)):
        src, dst = field_of_order(m), field_of_order(k)

        def lift(x):
            return lift_raw(x, src, dst)

        for _ in range(6):
            a = _random_element(rng, m)
            b = _random_element(rng, m)
            assert lift(src.add(a, b)) == dst.add(lift(a), lift(b))
            assert lift(src.mul(a, b)) == dst.mul(lift(a), lift(b))
            assert Cyclotomic.from_raw(a, m).lift(k) \
                == Cyclotomic.from_raw(lift(a), k)
        assert Cyclotomic.zeta(m).lift(k) == Cyclotomic.from_raw(
            _power(dst, dst.zeta_pow[1], k // m), k)


def test_cross_order_equality():
    K = field_of_order(3)
    z3 = Cyclotomic.zeta(3)
    z6 = Cyclotomic.zeta(6)
    # zeta_6 = 1 + zeta_3 (both are the primitive sixth root in the upper half plane)
    assert z6 == Cyclotomic.from_raw(K.add(K.one, z3.raw), 3)
    assert Cyclotomic.from_raw(K.neg(K.mul(z3.raw, z3.raw)), 3) == z6
    assert z3 != z6


def test_hash_agrees_across_orders_and_with_fractions():
    K8 = field_of_order(8)
    z4 = Cyclotomic.zeta(4)
    z8 = Cyclotomic.zeta(8)
    z8_squared = Cyclotomic.from_raw(K8.mul(z8.raw, z8.raw), 8)
    assert z8_squared == z4
    assert hash(z8_squared) == hash(z4) == hash(z4.lift(8))
    half = Cyclotomic(F(1, 2))
    assert half == F(1, 2)
    assert hash(half) == hash(F(1, 2))
    K3 = field_of_order(3)
    d = {Cyclotomic.zeta(6): "top"}
    assert d[Cyclotomic.from_raw(K3.add(K3.one, K3.zeta_pow[1]), 3)] == "top"


def test_rational_detection_after_cancellation():
    K = field_of_order(3)
    z = K.zeta_pow[1]
    v = Cyclotomic.from_raw(K.add(z, K.mul(z, z)), 3)  # equals -1
    assert v.is_rational() and v == -1
    assert not Cyclotomic.zeta(3).is_rational()


# -- failure modes -------------------------------------------------------------

def test_mixed_orders_refuse_silent_coercion():
    with pytest.raises(FieldMismatch):
        Cyclotomic.zeta(6).lift(4)
    # changing the order needs lift(), not the constructor
    with pytest.raises(FieldMismatch, match="construct via lift"):
        Cyclotomic(Cyclotomic.zeta(3), 6)
    assert Cyclotomic(Cyclotomic.zeta(3), 3) == Cyclotomic.zeta(3)
    # to_raw lifts a scalar only into a field whose order its own divides:
    # zeta3 = zeta6^2 = zeta6 - 1 by Phi_6 = x^2 - x + 1, and zeta4 = zeta12^3
    assert to_raw(Cyclotomic.zeta(3), field_of_order(6)) == (-1, 1)
    f12 = field_of_order(12)
    assert to_raw(Cyclotomic.zeta(4), f12) == f12.zeta_pow[3] == (0, 0, 0, 1)
    with pytest.raises(FieldMismatch):
        to_raw(Cyclotomic.zeta(4), field_of_order(6))


def test_order_below_one_is_a_validation_error():
    for m in (0, -3):
        with pytest.raises(ValidationError):
            field_of_order(m)


def test_order_that_is_not_an_int_is_a_validation_error():
    # True equals 1 and hashes like it, so the cached field of order 1
    # must not answer for it
    field_of_order(1)
    for m in (2.0, "3", True):
        with pytest.raises(ValidationError, match="must be an int"):
            field_of_order(m)


@pytest.mark.parametrize("call, message", [
    (lambda: Cyclotomic((1, 2, 3), 4), "order 4 needs 2 coefficients, got 3"),
    (lambda: cyclotomic_polynomial(0), "order must be positive"),
    (lambda: cyclotomic_polynomial(-2), "order must be positive"),
], ids=["coefficient-count", "phi-0", "phi-negative"])
def test_scalar_refusals_are_typed(call, message):
    with pytest.raises(ValidationError) as caught:
        call()
    assert type(caught.value) is ValidationError
    assert str(caught.value) == message


@pytest.mark.parametrize("order", [1, 3])
@pytest.mark.parametrize("bad", [0.1, True, "1"],
                         ids=["float", "bool", "str"])
def test_coefficients_other_than_int_and_fraction_are_refused(bad, order):
    # a float would enter as its binary value, a bool as 0 or 1 and a
    # digit string as its number, as linalg.to_raw refuses them too
    coeffs = [bad] + [0] * (field_of_order(order).degree - 1)
    with pytest.raises(ValidationError, match="not an int or a Fraction"):
        Cyclotomic(coeffs, order)
    with pytest.raises(ValidationError, match="not an int or a Fraction"):
        Cyclotomic(tuple(coeffs), order)
    # a value that is neither a scalar nor a sequence is refused as one
    with pytest.raises(ValidationError, match="not an int or a Fraction"):
        Cyclotomic(bad, order)


def test_zero_has_no_inverse():
    for m in (1, 5, 12):
        K = field_of_order(m)
        with pytest.raises(DivisionByZero):
            K.inv(K.zero)


def test_inverse_refuses_a_common_factor_with_its_modulus(monkeypatch):
    # inv runs Euclid against Phi_m, which is irreducible, so a nonzero
    # value always ends at a nonzero constant; against x^2 - 1 = (x-1)(x+1)
    # the value 1 + x ends at zero and is refused like zero itself
    K = field_of_order(4)
    monkeypatch.setattr(scalars, "cyclotomic_polynomial", lambda m: (-1, 0, 1))
    with pytest.raises(DivisionByZero):
        K.inv((1, 1))


def test_inexact_polynomial_division_is_refused():
    # x^2 + 1 is not a multiple of x + 1; cyclotomic_polynomial divides
    # x^m - 1 only by the Phi_d with d | m, which always divide it
    with pytest.raises(ArithmeticError, match="inexact"):
        scalars._poly_divmod_exact([1, 0, 1], [1, 1])
    assert scalars._poly_divmod_exact([-1, 0, 1], [1, 1]) == [-1, 1]


def test_integral_rationals_come_back_as_ints():
    Q = field_of_order(1)
    for value, expected in [(Q.inv(F(1, 2)), 2), (Q.from_rational(3), 3),
                            (Q.from_rational(F(4, 2)), 2)]:
        assert type(value) is int and value == expected
    assert Q.inv(3) == F(1, 3)


def _exact_types(raw) -> bool:
    """Every coefficient an int when integral, else a Fraction."""
    return all(type(c) is int or (type(c) is F and c.denominator != 1)
               for c in raw)


def test_cyclotomic_field_keeps_integral_coefficients_as_ints():
    for m in (3, 4, 5, 7, 8, 12):
        field = field_of_order(m)
        assert _exact_types(field.zero) and _exact_types(field.one)
        assert all(_exact_types(z) for z in field.zeta_pow)
        assert field.from_coeffs((F(4, 2),) + (F(1, 2),) * (field.degree - 1)) \
            == (2,) + (F(1, 2),) * (field.degree - 1)
        assert _exact_types(field.from_coeffs((F(4, 2),) * field.degree))


@pytest.mark.parametrize("m", [3, 4, 5, 7, 8, 12])
def test_inverse_of_int_tuples_is_exact(m):
    # int / int would be a float; inv must stay on ints and Fractions
    field = field_of_order(m)
    rng = random.Random(1000 + m)
    for _ in range(10):
        a = tuple(rng.randint(-4, 4) for _ in range(field.degree))
        if not any(a):
            continue
        inv = field.inv(a)
        assert _exact_types(inv)
        assert field.mul(a, inv) == field.one
    assert field.inv(field.one) == field.one
    assert _exact_types(field.inv(field.zeta_pow[1]))


def test_cyclotomic_coefficients_have_one_representation():
    for m in (1, 3, 8):
        deg = field_of_order(m).degree
        seq = [F(4, 2)] + [F(1, 2)] * (deg - 1)
        built = Cyclotomic(seq, m)
        # repr tells an int coefficient from an integral Fraction
        assert repr(built.coeffs) == repr(Cyclotomic.from_raw(built.raw, m).coeffs)
        assert [type(c) for c in built.coeffs] == [int] + [F] * (deg - 1)
        assert repr(Cyclotomic([2] + seq[1:], m).coeffs) == repr(built.coeffs)
    assert Cyclotomic(F(6, 3)).coeffs == (2,) and type(Cyclotomic(F(6, 3)).raw) is int


def test_int_and_fraction_tuples_compare_and_hash_alike():
    field = field_of_order(3)
    ints, fracs = (2, -1), (F(2), F(-1))
    assert ints == fracs and hash(ints) == hash(fracs)
    assert field.add(ints, field.zero) == field.add(fracs, field.zero)
    assert {ints: 1}[fracs] == 1
    a, b = Cyclotomic(ints, 3), Cyclotomic(fracs, 3)
    assert a == b and hash(a) == hash(b)
    # arithmetic may leave integral Fractions behind; they equal the ints
    left = field.scale(field.one, F(2, 2))
    assert type(left[0]) is F and left == field.one
    assert hash(left) == hash(field.one)
    assert Cyclotomic(2, 3) == 2 and hash(Cyclotomic(2, 3)) == hash(F(2))


# -- text form -------------------------------------------------------------------

def test_scalar_string_specific_forms():
    assert scalar_to_string(Cyclotomic(F(-3, 7))) == "-3/7"
    assert scalar_to_string(Cyclotomic(5)) == "5"
    x = Cyclotomic([F(1, 2), F(-1), F(0), F(2)], 8)
    assert scalar_to_string(x) == "1/2 - z + 2*z^3 @ order=8"
    assert scalar_to_string(Cyclotomic(0, 6)) == "0 @ order=6"
    assert scalar_to_string(Cyclotomic.zeta(12)) == "z @ order=12"


def test_str_and_repr_show_the_canonical_text():
    assert str(Cyclotomic.zeta(3)) == "z @ order=3"
    assert repr(Cyclotomic.zeta(3)) == "Cyclotomic('z @ order=3')"
    assert str(Cyclotomic(F(-3, 7))) == "-3/7"
    assert repr(Cyclotomic(F(-3, 7))) == "Cyclotomic('-3/7')"


# -- the value type ---------------------------------------------------------------

def test_zero_is_falsy_at_every_order():
    for m in (1, 3, 8):
        zero, one = Cyclotomic(0, m), Cyclotomic(1, m)
        assert zero.is_zero() and not zero
        assert not one.is_zero() and one
    assert Cyclotomic.zeta(3) and not Cyclotomic.zeta(3).is_zero()


def test_cyclotomic_is_immutable():
    z = Cyclotomic.zeta(3)
    for name, value in (("order", 6), ("coeffs", (1, 0)), ("extra", 1)):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(z, name, value)
    assert z.order == 3 and z.coeffs == (0, 1)


def test_equality_with_a_foreign_type_is_left_to_it():
    z = Cyclotomic.zeta(3)
    for other in ("z @ order=3", (0, 1), None, 1.0):
        assert z.__eq__(other) is NotImplemented
        assert z != other and other != z
    assert Cyclotomic(1).__eq__(1.0) is NotImplemented
