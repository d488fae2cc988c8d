"""Exact cyclotomic scalar arithmetic.

Expected values here are derived by hand (classical polynomial identities,
explicit inverses checked by multiplication on paper), never from the code
under test.
"""

import random
from fractions import Fraction

import pytest

from cychom.errors import DivisionByZero, FieldMismatch, ParseError, ValidationError
from cychom.linalg import to_raw
from cychom.scalars import (
    Cyclotomic,
    common_order,
    cyclotomic_polynomial,
    field_arith,
    field_of_order,
    parse_scalar,
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

def test_third_roots_sum_to_zero():
    z = Cyclotomic.zeta(3)
    assert (1 + z + z * z).is_zero()


def test_eighth_roots_sum_to_zero():
    z = Cyclotomic.zeta(8)
    total = Cyclotomic(0, 8)
    for j in range(8):
        total = total + z ** j
    assert total.is_zero()


def test_power_reduction_against_hand_values():
    z4 = Cyclotomic.zeta(4)
    assert z4 ** 2 == -1
    z8 = Cyclotomic.zeta(8)
    assert (z8 ** 4) == -1
    # zeta_12^4 = zeta_3 and the reduced tuple is z^2 - 1
    z12 = Cyclotomic.zeta(12)
    assert (z12 ** 4).coeffs == (F(-1), F(0), F(1), F(0))


def test_inverse_of_one_plus_i_is_hand_value():
    z = Cyclotomic.zeta(4)
    a = 1 + z
    # (1+i)(1-i) = 2, so the inverse is (1-i)/2
    assert a.inverse() == (1 - z) / 2


def test_inverse_of_zeta3_is_its_square():
    z = Cyclotomic.zeta(3)
    assert z.inverse() == z * z


def test_zeta_has_exact_multiplicative_order():
    for m in (2, 3, 4, 5, 6, 8, 12):
        z = Cyclotomic.zeta(m)
        acc = Cyclotomic(1, m)
        for k in range(1, m):
            acc = acc * z
            assert acc != 1, (m, k)
        assert acc * z == 1


# -- random property checks ---------------------------------------------------

ORDERS = (1, 2, 3, 4, 5, 6, 8, 12)


def _random_element(rng, m):
    deg = field_of_order(m).degree
    coeffs = [F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(deg)]
    return Cyclotomic(coeffs, m)


def test_field_axioms_on_random_elements():
    rng = random.Random(20240817)
    for m in ORDERS:
        one = Cyclotomic(1, m)
        for _ in range(12):
            a = _random_element(rng, m)
            b = _random_element(rng, m)
            c = _random_element(rng, m)
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a + (-a) == Cyclotomic(0, m)
            if not a.is_zero():
                assert a * a.inverse() == one


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
        a = _random_element(rng, m).raw
        r = field.from_rational(F(rng.randint(-6, 6), rng.randint(1, 5)))
        for x, y in [(a, r), (r, a), (r, r), (a, a), (a, field.zero)]:
            assert field.mul(x, y) == _reference_product(x, y, m)


def test_conjugation_is_a_ring_involution():
    rng = random.Random(7)
    for m in ORDERS:
        for _ in range(8):
            a = _random_element(rng, m)
            b = _random_element(rng, m)
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()
            assert (a + b).conjugate() == a.conjugate() + b.conjugate()
            assert a.conjugate().conjugate() == a
    z = Cyclotomic.zeta(12)
    assert z.conjugate() == z ** 11


def test_conjugation_fixes_rationals():
    assert Cyclotomic.rational(F(-5, 3)).conjugate() == F(-5, 3)


def test_lift_is_a_ring_embedding():
    rng = random.Random(99)
    for m, k in ((3, 6), (3, 12), (4, 8), (4, 12), (2, 6), (1, 5)):
        for _ in range(6):
            a = _random_element(rng, m)
            b = _random_element(rng, m)
            assert (a + b).lift(k) == a.lift(k) + b.lift(k)
            assert (a * b).lift(k) == a.lift(k) * b.lift(k)
        assert Cyclotomic.zeta(m).lift(k) == Cyclotomic.zeta(k) ** (k // m)


def test_cross_order_equality():
    z3 = Cyclotomic.zeta(3)
    z6 = Cyclotomic.zeta(6)
    # zeta_6 = 1 + zeta_3 (both are the primitive sixth root in the upper half plane)
    assert z6 == 1 + z3
    assert -(z3 ** 2) == z6
    assert z3 != z6


def test_hash_agrees_across_orders_and_with_fractions():
    z4 = Cyclotomic.zeta(4)
    z8 = Cyclotomic.zeta(8)
    assert hash(z8 ** 2) == hash(z4) == hash(z4.lift(8))
    half = Cyclotomic.rational(F(1, 2))
    assert half == F(1, 2)
    assert hash(half) == hash(F(1, 2))
    d = {Cyclotomic.zeta(6): "top"}
    assert d[1 + Cyclotomic.zeta(3)] == "top"


def test_rational_detection_after_cancellation():
    z = Cyclotomic.zeta(3)
    v = z + z * z  # equals -1
    assert v.is_rational()
    assert v.as_fraction() == -1
    with pytest.raises(ValidationError):
        z.as_fraction()


# -- failure modes -------------------------------------------------------------

def test_mixed_orders_refuse_silent_coercion():
    with pytest.raises(FieldMismatch):
        Cyclotomic.zeta(3) + Cyclotomic.zeta(4)
    with pytest.raises(FieldMismatch):
        Cyclotomic.zeta(6).lift(4)
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
    (lambda: field_arith("add", []), "no operands"),
    (lambda: field_arith("sub", [Cyclotomic.zeta(4)]),
     "sub takes two operands"),
    (lambda: field_arith("inv", [Cyclotomic(1, 4)] * 2),
     "inv takes one operand"),
    (lambda: field_arith("conj", [Cyclotomic(1, 4)] * 2),
     "conj takes one operand"),
    (lambda: field_arith("is_zero", [Cyclotomic(1, 4)] * 2),
     "is_zero takes one operand"),
    (lambda: field_arith("frobnicate", [Cyclotomic.zeta(4)]),
     "unknown op 'frobnicate'"),
    (lambda: Cyclotomic((1, 2, 3), 4), "order 4 needs 2 coefficients, got 3"),
    (lambda: Cyclotomic.zeta(3).as_fraction(), "z @ order=3 is not rational"),
    (lambda: cyclotomic_polynomial(0), "order must be positive"),
    (lambda: cyclotomic_polynomial(-2), "order must be positive"),
], ids=["no-operands", "sub-arity", "inv-arity", "conj-arity",
        "is-zero-arity", "unknown-op", "coefficient-count", "irrational",
        "phi-0", "phi-negative"])
def test_scalar_refusals_are_typed(call, message):
    with pytest.raises(ValidationError) as caught:
        call()
    assert type(caught.value) is ValidationError
    assert str(caught.value) == message


def test_zero_has_no_inverse():
    with pytest.raises(DivisionByZero):
        Cyclotomic(0, 1).inverse()
    with pytest.raises(DivisionByZero):
        Cyclotomic(0, 12).inverse()
    with pytest.raises(DivisionByZero):
        Cyclotomic(1, 5) / Cyclotomic(0, 5)


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


def test_as_fraction_returns_a_fraction_for_an_int_coefficient():
    for value in (Cyclotomic(3), Cyclotomic(3, 5), Cyclotomic.zeta(3) ** 3,
                  Cyclotomic([F(-6, 3), 0], 3)):
        q = value.as_fraction()
        assert type(q) is F and q == value.coeffs[0]
    assert type(Cyclotomic.rational(F(1, 2)).as_fraction()) is F


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


# -- dispatcher -----------------------------------------------------------------

def test_field_arith_dispatch():
    z = Cyclotomic.zeta(4)
    assert field_arith("add", [z, z]) == 2 * z
    assert field_arith("sub", [z, z]).is_zero()
    assert field_arith("mul", [z, z, z, z]) == 1
    assert field_arith("inv", [1 + z]) == (1 - z) / 2
    assert field_arith("conj", [z]) == -z
    assert field_arith("is_zero", [Cyclotomic(0, 4)]) is True
    with pytest.raises(FieldMismatch):
        field_arith("add", [z, Cyclotomic.zeta(3)])
    with pytest.raises(ValidationError):
        field_arith("frobnicate", [z])


# -- text form -------------------------------------------------------------------

def test_scalar_string_specific_forms():
    assert scalar_to_string(Cyclotomic.rational(F(-3, 7))) == "-3/7"
    assert scalar_to_string(Cyclotomic.rational(5)) == "5"
    x = Cyclotomic([F(1, 2), F(-1), F(0), F(2)], 8)
    assert scalar_to_string(x) == "1/2 - z + 2*z^3 @ order=8"
    assert scalar_to_string(Cyclotomic(0, 6)) == "0 @ order=6"
    assert scalar_to_string(Cyclotomic.zeta(12)) == "z @ order=12"


def test_scalar_string_round_trip_random():
    rng = random.Random(4242)
    for m in ORDERS:
        for _ in range(10):
            x = _random_element(rng, m)
            assert parse_scalar(scalar_to_string(x)) == x
            assert parse_scalar(scalar_to_string(x, with_order=False), order=m) == x


def test_parse_scalar_hand_inputs():
    assert parse_scalar("-3/7") == F(-3, 7)
    assert parse_scalar("1/2 - z + 2*z^3 @ order=8") == \
        Cyclotomic([F(1, 2), F(-1), F(0), F(2)], 8)
    # powers at or above the degree reduce
    assert parse_scalar("z^4 @ order=4") == 1
    assert parse_scalar("z^2 + z + 1 @ order=3").is_zero()


def test_parse_scalar_rejects_garbage():
    with pytest.raises(ParseError):
        parse_scalar("1 + q @ order=4")
    with pytest.raises(ParseError):
        parse_scalar("z")  # variable with no order in scope
    with pytest.raises(ParseError):
        parse_scalar("3 @ order=x")
    with pytest.raises(ParseError):
        parse_scalar("1 @ order=4", order=8)
    # a sign with no term after it, or two signs in a row
    for text in ("1+", "3-", "--1", "1 + + 2"):
        with pytest.raises(ParseError):
            parse_scalar(text)
    # an order below 1 names no field
    for text in ("1 @ order=0", "1 @ order=-2"):
        with pytest.raises(ParseError):
            parse_scalar(text)
    with pytest.raises(ParseError):
        parse_scalar("1", order=0)


def test_common_order():
    assert common_order(1, 1) == 1
    assert common_order(4, 6) == 12
    assert common_order(3, 5, 8) == 120
