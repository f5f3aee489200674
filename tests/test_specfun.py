import hashlib
import math
import warnings

import numpy as np
import pytest

from quasirbf.errors import DomainError
from quasirbf.geometry import BLOCK_PAIRS
from quasirbf.specfun import (I_SWITCH, _I_SERIES, _orders_table, bessel_i0, bessel_i0_i1,
                              bessel_i1, bessel_j0, bessel_j1, bessel_orders)

from oracles import (_decimal_series, j0_first_zero, oracle_i0, oracle_i1,
                     oracle_j0, oracle_j1)


class TestPointValues:
    def test_j0_at_zero(self):
        assert bessel_j0(0.0) == 1.0

    def test_j0_at_one(self):
        # frozen from the decimal series oracle
        assert abs(bessel_j0(1.0) - 0.7651976865579666) <= 1e-12

    def test_j0_first_zero(self):
        zero = j0_first_zero()
        assert abs(zero - 2.404825557695773) <= 1e-12
        assert abs(bessel_j0(2.404825557695773)) <= 1e-9

    def test_j1_at_zero(self):
        assert bessel_j1(0.0) == 0.0

    def test_j1_at_one(self):
        assert abs(bessel_j1(1.0) - 0.4400505857449335) <= 1e-12

    def test_j1_small_argument_slope(self):
        for x in (1e-6, 1e-4, 1e-3):
            assert abs(bessel_j1(x) / x - 0.5) <= 1e-6

    def test_i0_at_zero(self):
        assert bessel_i0(0.0) == 1.0

    def test_i0_values(self):
        assert abs(bessel_i0(1.0) - 1.2660658777520082) <= 1e-12
        assert abs(bessel_i0(2.0) - 2.2795853023360673) <= 1e-12

    def test_i1_at_zero(self):
        assert bessel_i1(0.0) == 0.0

    def test_i1_at_one(self):
        assert abs(bessel_i1(1.0) - 0.5651591039924851) <= 1e-12

    def test_i1_small_argument_slope(self):
        for x in (1e-6, 1e-4, 1e-3):
            assert abs(bessel_i1(x) / x - 0.5) <= 1e-6


class TestErrors:
    @pytest.mark.parametrize("fn", [bessel_j0, bessel_j1, bessel_i0, bessel_i1])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_bad_arguments(self, fn, bad):
        with pytest.raises(DomainError):
            fn(bad)

    @pytest.mark.parametrize("fn", [bessel_i0, bessel_i1])
    def test_overflow_guard(self, fn):
        with pytest.raises(OverflowError):
            fn(701.0)
        assert math.isfinite(fn(700.0))


class TestOracleAgreement:
    """Absolute (J) / relative (I) agreement with the independent
    high-precision oracle on a 500-point grid over [0, 50]."""

    XS = np.linspace(0.0, 50.0, 500)

    def test_j0(self):
        worst = max(abs(bessel_j0(x) - oracle_j0(x)) for x in self.XS)
        assert worst <= 1e-12

    def test_j1(self):
        worst = max(abs(bessel_j1(x) - oracle_j1(x)) for x in self.XS)
        assert worst <= 1e-12

    def test_i0(self):
        worst = max(abs(bessel_i0(x) - oracle_i0(x)) / oracle_i0(x)
                    for x in self.XS)
        assert worst <= 1e-12

    def test_i1(self):
        worst = max(abs(bessel_i1(x) - oracle_i1(x)) / max(oracle_i1(x), 1e-300)
                    for x in self.XS)
        assert worst <= 1e-12

    @pytest.mark.parametrize("nu, fn", [(0, bessel_i0), (1, bessel_i1)])
    @pytest.mark.parametrize("x", [15.0, 15.5, 20.0, 60.0, 100.0, 200.0, 400.0, 700.0])
    def test_i_large_argument(self, nu, fn, x):
        want = _decimal_series(nu, x, 1, terms=2500)
        assert abs(fn(x) - want) <= 1e-14 * want


class TestSeriesTables:
    @pytest.mark.parametrize("nu", [0, 1])
    def test_i_series_degree_is_smallest_converged(self, nu):
        # the last term at I_SWITCH is within 1e-18 of the sum; the one
        # before it is not, so no shorter table would do
        q = 0.25 * I_SWITCH * I_SWITCH
        terms = [c * q ** k for k, c in enumerate(_I_SERIES[nu])]
        total = math.fsum(terms)
        assert terms[-1] <= 1e-18 * total
        assert terms[-2] > 1e-18 * total


class TestDerivativeIdentities:
    """J0' = -J1 and I0' = I1, checked by central differences with two
    step sizes; halving h must cut the defect roughly 4x overall."""

    XS = np.linspace(0.1, 20.0, 100)

    @staticmethod
    def _defect(f, fprime, h):
        worst = 0.0
        for x in TestDerivativeIdentities.XS:
            fd = (f(x + h) - f(x - h)) / (2.0 * h)
            worst = max(worst, abs(fd - fprime(x)))
        return worst

    def test_j0_prime(self):
        # steps are large enough that FD truncation dominates the ~1e-12
        # pointwise implementation error amplified by the 1/(2h) factor
        d1 = self._defect(bessel_j0, lambda x: -bessel_j1(x), 1e-3)
        d2 = self._defect(bessel_j0, lambda x: -bessel_j1(x), 5e-4)
        assert d1 <= 1e-6
        assert 2.5 <= d1 / d2 <= 5.5

    def test_i0_prime(self):
        d1 = self._defect(bessel_i0, bessel_i1, 1e-4)
        d2 = self._defect(bessel_i0, bessel_i1, 5e-5)
        assert d1 <= 1e-4 * bessel_i0(20.0)
        assert 2.5 <= d1 / d2 <= 5.5


class TestGlobalProperties:
    def test_i0_strictly_increasing(self):
        xs = np.linspace(0.0, 50.0, 400)
        vals = [bessel_i0(x) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_j0_bounded_by_one(self):
        xs = np.linspace(0.0, 200.0, 2000)
        assert all(abs(bessel_j0(x)) <= 1.0 + 1e-15 for x in xs)


class TestArrays:
    """An array argument must give, element by element, what the float
    call gives, bit for bit."""

    XS = np.concatenate([np.linspace(0.0, 60.0, 601),
                         np.random.default_rng(12).uniform(0.0, 700.0, 400),
                         [1e-300, 5e-324, 11.999999999999998, 12.0, 14.999999999999998, 15.0]])

    @pytest.mark.parametrize("fn", [bessel_j0, bessel_j1, bessel_i0, bessel_i1])
    def test_j_bitwise(self, fn):
        got = fn(self.XS)
        want = np.array([fn(float(x)) for x in self.XS])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("fn", [bessel_i0, bessel_i1])
    def test_i_within_two_ulp(self, fn):
        got = fn(self.XS)
        want = np.array([fn(float(x)) for x in self.XS])
        assert np.all(np.abs(got - want) <= 2.0 * np.spacing(np.abs(want)))

    @pytest.mark.parametrize("fn", [bessel_j0, bessel_j1, bessel_i0, bessel_i1])
    def test_shape_preserved(self, fn):
        xs = self.XS[:12].reshape(3, 4)
        got = fn(xs)
        assert got.shape == (3, 4)
        assert np.array_equal(got.ravel(), fn(xs.ravel()))
        assert fn(np.empty((0, 2))).shape == (0, 2)
        assert isinstance(fn(1.5), float)

    @pytest.mark.parametrize("fn", [bessel_j0, bessel_j1, bessel_i0, bessel_i1])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_one_bad_element_raises(self, fn, bad):
        xs = np.linspace(0.0, 5.0, 10)
        xs[7] = bad
        with pytest.raises(DomainError):
            fn(xs)

    @pytest.mark.parametrize("fn", [bessel_i0, bessel_i1])
    def test_one_overflowing_element_raises(self, fn):
        with pytest.raises(OverflowError):
            fn(np.array([1.0, 701.0, 2.0]))

    def test_i_pair_bitwise(self):
        # one argument check and shared q or e^x / sqrt(2 pi x) must not
        # change a bit of either order, for arrays (mixed and one-sided
        # around I_SWITCH, any shape) and for floats
        for xs in (self.XS, self.XS[self.XS < I_SWITCH], self.XS[self.XS >= I_SWITCH],
                   self.XS[:12].reshape(3, 4)):
            i0, i1 = bessel_i0_i1(xs)
            assert np.array_equal(i0, bessel_i0(xs)) and np.array_equal(i1, bessel_i1(xs))
            assert i0.shape == i1.shape == xs.shape
        for x in self.XS:
            i0, i1 = bessel_i0_i1(float(x))
            assert isinstance(i0, float) and isinstance(i1, float)
            assert (i0, i1) == (bessel_i0(float(x)), bessel_i1(float(x)))

    @pytest.mark.parametrize("bad, error", [(float("nan"), DomainError), (-1.0, DomainError),
                                            (701.0, OverflowError)])
    def test_i_pair_checks_argument(self, bad, error):
        xs = np.linspace(0.0, 5.0, 10)
        xs[7] = bad
        with pytest.raises(error):
            bessel_i0_i1(xs)


class TestJBits:
    """J0 and J1 keep their last bits: a digest pins the series range, and no
    element depends on how many arguments one call takes."""

    def test_series_range_digest(self):
        # the series uses only +, -, *, / and abs, so its bits do not depend on
        # numpy's SIMD dispatch or the BLAS core type; the Hankel form's cos and
        # sin may, so x >= J_SWITCH = 12 is left out
        x = np.concatenate([np.linspace(0.0, 12.0, 120001)[:-1],
                            np.random.default_rng(2026).uniform(0.0, 12.0, 20000),
                            [5e-324, 1e-300, 1e-8, 11.999999999999998]])
        values = np.concatenate([bessel_j0(x), bessel_j1(x)]).astype("<f8")
        assert hashlib.sha256(values.tobytes()).hexdigest() == (
            "913490eb6cc1762403f12267e30ab47d3bd25723cbbaa42b336bce176a9a11d2")

    @pytest.mark.parametrize("fn", [bessel_j0, bessel_j1])
    def test_no_element_depends_on_the_array_length(self, fn):
        # prefixes that end a block of the pipeline's point batches, start one,
        # or hold one element, of arguments that mix both forms, and float calls
        xs = np.random.default_rng(21).uniform(0.0, 30.0, 2 * BLOCK_PAIRS + 1)
        whole = fn(xs)
        for n in (1, BLOCK_PAIRS - 1, BLOCK_PAIRS, BLOCK_PAIRS + 1):
            assert fn(xs[:n]).tobytes() == whole[:n].tobytes()
        for i in np.random.default_rng(22).integers(0, len(xs), 20):
            assert np.float64(fn(float(xs[i]))).tobytes() == whole[i].tobytes()


@pytest.mark.parametrize("sign", [-1, 0, 1])
def test_high_order_table_builds_without_warnings(sign):
    """Orders past 153 need 1 / n! past n = 170, where n! overflows a double: the
    table holds 0 there, and building it warns of nothing."""
    _orders_table.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = bessel_orders(np.array([0.5 + 0.25j, 3.0 - 1.0j, 0.0]), 181, sign)
    assert out.shape == (3, 182) and np.all(np.isfinite(out))
