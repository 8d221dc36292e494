"""Exact scalar arithmetic: the sqrt(5) extension field and scalar IO."""

import math
import random
from fractions import Fraction

import pytest

from nbg import (PHI, SQRT5, QuadExt, auto_tolerance, format_scalar,
                 is_exact_scalar, parse_scalar, quadext, scalar_to_json)
from nbg.numeric import quadext_diff_sign, quotient, short_text, vector_text


def random_quadext(rng):
    return QuadExt(Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
                   Fraction(rng.randint(-20, 20), rng.randint(1, 9)))


class TestQuadExtField:
    def test_arithmetic_matches_float_reference(self):
        rng = random.Random(7)
        for _ in range(200):
            x, y = random_quadext(rng), random_quadext(rng)
            fx, fy = float(x), float(y)
            assert float(x + y) == pytest.approx(fx + fy, rel=1e-12, abs=1e-12)
            assert float(x - y) == pytest.approx(fx - fy, rel=1e-12, abs=1e-12)
            assert float(x * y) == pytest.approx(fx * fy, rel=1e-12, abs=1e-12)
            if y != 0:
                assert float(x / y) == pytest.approx(fx / fy, rel=1e-12)

    def test_field_inverses(self):
        rng = random.Random(11)
        for _ in range(100):
            x = random_quadext(rng)
            if x == 0:
                continue
            assert x * (1 / x) == 1
            assert x + (-x) == 0
            y = random_quadext(rng)
            if y != 0:
                assert (x / y) * y == x

    def test_powers(self):
        assert SQRT5 * SQRT5 == 5
        assert SQRT5 ** 2 == 5
        x = QuadExt(Fraction(2, 3), Fraction(-1, 4))
        assert x ** 3 == x * x * x
        assert x ** 0 == 1

    def test_phi_is_root_of_its_polynomial(self):
        assert PHI * PHI + PHI - 1 == 0
        assert PHI ** 2 == 1 - PHI
        assert 1 / PHI == PHI + 1
        assert float(PHI) == pytest.approx((math.sqrt(5) - 1) / 2, rel=1e-15)

    def test_mixed_scalar_operations(self):
        assert PHI + Fraction(1, 2) == QuadExt(0, Fraction(1, 2))
        assert 2 * SQRT5 == QuadExt(0, 2)
        assert SQRT5 - SQRT5 == 0
        assert Fraction(5) / SQRT5 == SQRT5

    def test_ordering_matches_floats_on_generic_pairs(self):
        rng = random.Random(13)
        for _ in range(200):
            x, y = random_quadext(rng), random_quadext(rng)
            fx, fy = float(x), float(y)
            if abs(fx - fy) < 1e-6:
                continue
            assert (x < y) == (fx < fy)
            assert (x > y) == (fx > fy)
            assert (x <= y) == (fx <= fy)

    def test_ordering_beyond_float_precision(self):
        # continued-fraction convergents of sqrt(5); the exact side of
        # each comparison follows from p*p versus 5*q*q
        for p, q in [(9, 4), (161, 72), (2889, 1292), (930249, 416020)]:
            expected = 1 if p * p > 5 * q * q else -1
            diff = QuadExt(Fraction(p, q), -1)
            assert (diff > 0) == (expected == 1)
            assert (diff < 0) == (expected == -1)

    def test_diff_sign(self):
        assert quadext_diff_sign(SQRT5, (2, 0)) == 1
        assert quadext_diff_sign(SQRT5, (Fraction(9, 4), 0)) == -1
        assert quadext_diff_sign(QuadExt(Fraction(-1, 2), Fraction(1, 2)),
                                 (Fraction(-1, 2), Fraction(1, 2))) == 0

    def test_hash_consistency(self):
        a = QuadExt(Fraction(1, 2), Fraction(3, 4))
        b = QuadExt(Fraction(2, 4), Fraction(6, 8))
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_a_rational_instance_hashes_and_tests_as_its_rational(self):
        # quadext_diff_sign builds such instances, with b = 0
        assert len({QuadExt(1, 0), 1}) == 1
        assert {QuadExt(Fraction(1, 2), 0): "a"}[Fraction(1, 2)] == "a"
        assert not QuadExt(0, 0)
        assert QuadExt(0, 1) and QuadExt(1, 0)

    def test_constructor_collapses_rational_values(self):
        assert isinstance(quadext(Fraction(3, 4)), Fraction)
        assert isinstance(quadext(2, 0), Fraction)
        assert isinstance(quadext(0, 1), QuadExt)

    def test_str_mentions_radical(self):
        assert "sqrt(5)" in str(SQRT5)
        assert "sqrt(5)" in str(PHI)


class TestScalarIO:
    def test_parse_scalar(self):
        assert parse_scalar(3) == Fraction(3)
        assert isinstance(parse_scalar(3), Fraction)
        assert parse_scalar("3/4") == Fraction(3, 4)
        assert parse_scalar("-7/2") == Fraction(-7, 2)
        assert parse_scalar(" 5 ") == Fraction(5)
        assert parse_scalar(0.5) == 0.5
        assert isinstance(parse_scalar(0.5), float)

    def test_parse_scalar_rejects_junk(self):
        for bad in (True, False, "abc", "1.5", "3/0x", None, [1]):
            with pytest.raises(ValueError):
                parse_scalar(bad)

    def test_parse_scalar_rejects_non_finite(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="not a finite scalar"):
                parse_scalar(bad)

    def test_json_round_trip(self):
        rng = random.Random(5)
        for _ in range(100):
            value = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
            assert parse_scalar(scalar_to_json(value)) == value
        assert scalar_to_json(Fraction(5)) == 5
        assert scalar_to_json(Fraction(3, 4)) == "3/4"
        assert scalar_to_json(7) == 7
        assert scalar_to_json(0.25) == 0.25

    def test_json_rejects_non_scalars(self):
        with pytest.raises(ValueError):
            scalar_to_json(True)
        with pytest.raises(ValueError):
            scalar_to_json(SQRT5)

    def test_format_scalar(self):
        assert format_scalar(Fraction(1, 2)) == "1/2 (0.5)"
        assert format_scalar(Fraction(7)) == "7"
        assert format_scalar(7) == "7"
        assert format_scalar(0.125) == "0.125"
        text = format_scalar(SQRT5)
        assert "sqrt(5)" in text and "2.2360679" in text

    def test_short_text(self):
        assert short_text(Fraction(-3, 4)) == "-3/4"
        assert short_text(Fraction(7)) == "7"
        assert short_text(True) == "True"
        assert short_text(0.1 + 0.2) == "0.3"
        assert short_text(-0.0) == "0"
        assert short_text(PHI) == "-1/2 + 1/2*sqrt(5)"
        assert vector_text([Fraction(1, 3), 0, 0.5]) == "(1/3, 0, 0.5)"
        assert vector_text([]) == "()"

    def test_exactness_predicates(self):
        assert is_exact_scalar(3)
        assert is_exact_scalar(Fraction(1, 3))
        assert is_exact_scalar(PHI)
        assert not is_exact_scalar(0.5)
        assert not is_exact_scalar(True)
        assert auto_tolerance(True, 2.0) == 0
        assert auto_tolerance(False, 1.0) == 1e-9
        assert auto_tolerance(False, 2.0 ** -40) == 1e-9 * 2.0 ** -40
        assert auto_tolerance(False, 1.0, 2.0 ** 10) == 1e-9 + 2.0 ** -34

    def test_quotient_is_exact_on_rationals_only(self):
        assert quotient(1, 2) == Fraction(1, 2)
        assert type(quotient(4, 2)) is Fraction
        assert type(quotient(Fraction(1, 2), 3)) is Fraction
        assert type(quotient(1.0, 2)) is float
        assert type(quotient(1, 2.0)) is float
        assert quotient(PHI, 2) == PHI / 2
