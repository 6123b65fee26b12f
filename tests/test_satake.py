from fractions import Fraction

import pytest

from cuspcheck import FieldKind, InvalidArgument, check_r_theta, satake_exponent_bound

TI = FieldKind.TOTALLY_IMAGINARY


class TestBound:
    def test_odd_small_imaginary_falls_through(self):
        # The totally-imaginary improvement needs n >= 5.
        assert satake_exponent_bound(3, TI).theta == Fraction(7, 64) + 1
        assert satake_exponent_bound(1, TI).theta == Fraction(7, 64)

    def test_invalid_n(self):
        with pytest.raises(InvalidArgument):
            satake_exponent_bound(0, FieldKind.GENERAL)

    def test_denominators(self):
        for n in range(1, 20):
            for field in FieldKind:
                d = satake_exponent_bound(n, field).theta.denominator
                assert d in (1, 2, 64)

    def test_monotone_step_within_stable_regimes(self):
        # bound(n+2) = bound(n) + 1 once the formula regime is fixed; the
        # only regime boundary is odd totally-imaginary n in {3,5}.
        for field in FieldKind:
            for n in range(2, 40, 2):
                assert (
                    satake_exponent_bound(n + 2, field).theta
                    == satake_exponent_bound(n, field).theta + 1
                )
        for field in (FieldKind.GENERAL, FieldKind.TOTALLY_REAL):
            for n in range(1, 40, 2):
                assert (
                    satake_exponent_bound(n + 2, field).theta
                    == satake_exponent_bound(n, field).theta + 1
                )
        for n in range(5, 40, 2):
            assert satake_exponent_bound(n + 2, TI).theta == satake_exponent_bound(n, TI).theta + 1

    def test_imaginary_gap_is_exactly_seven_sixty_fourths(self):
        for n in range(5, 41, 2):
            gap = satake_exponent_bound(n, FieldKind.GENERAL).theta - satake_exponent_bound(n, TI).theta
            assert gap == Fraction(7, 64)


class TestCheckRTheta:
    def test_boundary_inclusive(self):
        assert check_r_theta([0, Fraction(1, 2), 2], 2)

    def test_strict_excess(self):
        assert not check_r_theta([Fraction(135, 64)], 2)

    def test_vacuous(self):
        assert check_r_theta([], Fraction(7, 64))

    def test_negative_exponent_fails(self):
        assert not check_r_theta([Fraction(-1, 64)], 2)

    @pytest.mark.parametrize(
        "exponents,theta",
        [([0.1], Fraction(1, 10)), (["abc"], 1), ([1], 2.0), ([True], 1), ([5, 0.1], 1)],
        ids=["float-exponent", "text-exponent", "float-theta", "bool-exponent", "float-after-excess"],
    )
    def test_inexact_values_refused(self, exponents, theta):
        # 0.1 as a float lies above 1/10, so comparing it could only mislead.
        with pytest.raises(InvalidArgument):
            check_r_theta(exponents, theta)
