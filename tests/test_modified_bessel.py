"""I0 and I1: accuracy against the decimal oracle, and results that do not
depend on how many arguments one call takes."""
import numpy as np
import pytest

from quasirbf.specfun import I_SWITCH, bessel_i0, bessel_i0_i1, bessel_i1

from oracles import oracle_i0, oracle_i1


@pytest.mark.parametrize("lo, hi, bound", [(0.0, I_SWITCH, 2e-15), (I_SWITCH, 50.0, 5e-15)])
def test_relative_error_against_the_oracle(lo, hi, bound):
    # 100 seeded points per range; measured 7.9e-16 / 6.7e-16 (I0 / I1) below
    # I_SWITCH and 3.4e-15 / 3.8e-15 above, where the 31-term asymptotic
    # form is near its best at x = 15
    xs = np.random.default_rng(18).uniform(lo, hi, 100)
    i0, i1 = bessel_i0_i1(xs)
    for x, a, b in zip(xs, i0, i1):
        assert abs(a - oracle_i0(x)) <= bound * oracle_i0(x)
        assert abs(b - oracle_i1(x)) <= bound * oracle_i1(x)


def _pair(fn):
    return lambda x: np.array(fn(x)).reshape(-1, np.size(x))


@pytest.mark.parametrize("fn", [bessel_i0, bessel_i1, bessel_i0_i1],
                         ids=["bessel_i0", "bessel_i1", "bessel_i0_i1"])
@pytest.mark.parametrize("lo, hi", [(0.0, 2.0 * I_SWITCH), (0.0, I_SWITCH), (I_SWITCH, 50.0)],
                         ids=["both-forms", "series", "asymptotic"])
def test_no_element_depends_on_the_array_length(fn, lo, hi):
    # every prefix of one seeded array, at lengths around a power of two and
    # past twice it, gives the same bits as the whole array, and so does each
    # float call
    block = 16384
    xs = np.random.default_rng(19).uniform(lo, hi, 2 * block + 1)
    whole = _pair(fn)(xs)
    for n in (1, block - 1, block, block + 1):
        assert np.array_equal(_pair(fn)(xs[:n]), whole[:, :n])
    for i in np.random.default_rng(20).integers(0, len(xs), 20):
        assert np.array_equal(np.array(fn(float(xs[i]))).reshape(-1), whole[:, i])
