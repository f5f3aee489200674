import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasirbf.errors import (ConfigurationError, KernelOverflowError,
                             UnsupportedOperatorError)
from quasirbf.operators import (ConvectionDiffusion, Helmholtz,
                                ModifiedHelmholtz, Poisson, apply_operator_fd,
                                fourier_symbol, kernel_gradient, kernel_value)
from quasirbf.specfun import bessel_i0, bessel_i0_i1, bessel_i1, bessel_j0, bessel_j1

from oracles import central_gradient, oracle_i0, oracle_i1

KERNEL_OPS = [
    Helmholtz(1.0),
    Helmholtz(2.0),
    Helmholtz(5.0),
    ModifiedHelmholtz(1.0),
    ModifiedHelmholtz(3.0),
    ConvectionDiffusion(diffusivity=1.0, velocity=(2.0, 0.0), reaction=0.0),
    ConvectionDiffusion(diffusivity=1.0, velocity=(2.0, 0.0), reaction=1.0),
    ConvectionDiffusion(diffusivity=0.5, velocity=(1.0, -1.5), reaction=2.0),
]


class TestOperatorValidation:
    def test_helmholtz_positive_k(self):
        with pytest.raises(ConfigurationError):
            Helmholtz(0.0)

    def test_convdiff_degenerate_rejected(self):
        with pytest.raises(ConfigurationError):
            ConvectionDiffusion(diffusivity=1.0, velocity=(0.0, 0.0), reaction=0.0)

    def test_convdiff_negative_diffusivity(self):
        with pytest.raises(ConfigurationError):
            ConvectionDiffusion(diffusivity=-1.0, velocity=(1.0, 0.0))

    @pytest.mark.parametrize("make", [lambda: Helmholtz(1e200), lambda: Helmholtz(1e-200),
                                      lambda: ModifiedHelmholtz(1e200),
                                      lambda: ModifiedHelmholtz(1e-200)],
                             ids=["helmholtz-huge", "helmholtz-tiny", "modhelm-huge", "modhelm-tiny"])
    def test_kernel_coefficient_out_of_double_range(self, make):
        # k^2 overflows or rounds to 0, which leaves no kernel Z0(mu r)
        with pytest.raises(ConfigurationError, match="mu\\^2"):
            make()


class TestFourierSymbol:
    def test_poisson_zero_mode(self):
        assert fourier_symbol(Poisson(), (0.0, 0.0)) == 0.0

    def test_helmholtz_resonant(self):
        assert fourier_symbol(Helmholtz(1.0), (1.0, 0.0)) == 0.0

    def test_convdiff_example(self):
        op = ConvectionDiffusion(diffusivity=1.0, velocity=(1.0, 0.0), reaction=1.0)
        assert fourier_symbol(op, (1.0, 0.0)) == complex(-2.0, 1.0)

    def test_poisson_general(self):
        assert fourier_symbol(Poisson(), (3.0, 4.0)) == complex(-25.0)

    def test_symbol_consistency_with_fd(self):
        # L cos(w.x) = re(sigma) cos(w.x) - im(sigma) sin(w.x)
        rng = np.random.default_rng(11)
        for op in [Poisson()] + KERNEL_OPS:
            for _ in range(20):
                w = rng.uniform(-3.0, 3.0, size=2)
                x = rng.uniform(-1.0, 1.0, size=2)
                sigma = fourier_symbol(op, w)
                u = lambda a, b: math.cos(w[0] * a + w[1] * b)
                phase = w[0] * x[0] + w[1] * x[1]
                want = sigma.real * math.cos(phase) - sigma.imag * math.sin(phase)
                got = apply_operator_fd(op, u, x, 1e-4)
                assert abs(got - want) <= 1e-5


class TestKernelValue:
    def test_helmholtz_origin(self):
        assert kernel_value(Helmholtz(3.0), (0.0, 0.0)) == 1.0

    def test_modhelm_unit_displacement(self):
        assert abs(kernel_value(ModifiedHelmholtz(1.0), (1.0, 0.0))
                   - oracle_i0(1.0)) <= 1e-9

    def test_convdiff_example(self):
        op = ConvectionDiffusion(diffusivity=1.0, velocity=(2.0, 0.0), reaction=0.0)
        assert op.coefficients.mu == 1.0
        want = math.exp(-1.0) * oracle_i0(1.0)
        assert abs(kernel_value(op, (1.0, 0.0)) - want) <= 1e-9

    def test_poisson_unsupported(self):
        with pytest.raises(UnsupportedOperatorError):
            kernel_value(Poisson(), (1.0, 0.0))

    @pytest.mark.parametrize("op", [Helmholtz(2.0), ModifiedHelmholtz(1.5)])
    def test_radial_symmetry(self, op):
        rng = np.random.default_rng(3)
        for _ in range(25):
            d = rng.uniform(-2.0, 2.0, size=2)
            angle = rng.uniform(0.0, 2.0 * np.pi)
            c, s = math.cos(angle), math.sin(angle)
            rotated = np.array([c * d[0] - s * d[1], s * d[0] + c * d[1]])
            assert abs(kernel_value(op, d) - kernel_value(op, rotated)) <= 1e-14


    def test_convdiff_near_overflow_is_finite(self):
        # drift and I0 together reach about exp(700), the gradient exp(706): past
        # the kernel's cheap no-overflow bound, but finite, so returned as computed
        op = ConvectionDiffusion(diffusivity=0.00284, velocity=(1.0, 0.0))
        d = np.array([[-2.0, 0.0], [0.0, 1.5]])
        mu = op.coefficients.mu
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, grad = kernel_value(op, d), kernel_gradient(op, d)
        r = np.hypot(d[:, 0], d[:, 1])
        want = np.exp(-d[:, 0] / (2.0 * op.diffusivity)) * bessel_i0(mu * r)
        assert np.all(np.isfinite(got)) and np.all(np.isfinite(grad))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("kernel", [kernel_value, kernel_gradient])
    def test_convdiff_finite_factors_with_infinite_product_raise(self, kernel):
        # at d = (-1, 0) the drift is exp(400) and I0(mu r) = I0(400), each
        # finite, but their product overflows: KernelOverflowError, no warning
        op = ConvectionDiffusion(diffusivity=1.0, velocity=(800.0, 0.0))
        d = np.array([-1.0, 0.0])
        assert op.coefficients.mu == 400.0
        assert math.isfinite(math.exp(400.0)) and math.isfinite(bessel_i0(400.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(KernelOverflowError, match=r"exp\(-v\.d / 2D\)"):
                kernel(op, d)


class TestKernelGradient:
    def test_helmholtz_origin(self):
        assert np.array_equal(kernel_gradient(Helmholtz(2.0), (0.0, 0.0)),
                              np.zeros(2))

    def test_modhelm_unit_displacement(self):
        g = kernel_gradient(ModifiedHelmholtz(1.0), (1.0, 0.0))
        assert abs(g[0] - oracle_i1(1.0)) <= 1e-9
        assert abs(g[1]) <= 1e-15

    def test_convdiff_origin_limit(self):
        op = ConvectionDiffusion(diffusivity=1.0, velocity=(2.0, 0.0), reaction=0.0)
        assert np.allclose(kernel_gradient(op, (0.0, 0.0)), (-1.0, 0.0))

    @pytest.mark.parametrize("op", KERNEL_OPS)
    def test_matches_central_differences(self, op):
        rng = np.random.default_rng(17)
        for _ in range(50):
            d = rng.uniform(-1.5, 1.5, size=2)
            if np.hypot(*d) < 0.05:
                continue
            fd = central_gradient(lambda a, b: kernel_value(op, (a, b)),
                                  d[0], d[1])
            assert np.allclose(kernel_gradient(op, d), fd, atol=1e-7)


class TestApplyOperatorFd:
    def test_poisson_exact_on_quadratic(self):
        u = lambda x, y: x * x + y * y
        assert abs(apply_operator_fd(Poisson(), u, (0.4, -0.7), 1e-3) - 4.0) <= 1e-9

    def test_helmholtz_plane_wave(self):
        u = lambda x, y: math.sin(x)
        got = apply_operator_fd(Helmholtz(1.0), u, (0.3, 0.7), 1e-3)
        assert abs(got) <= 1e-6

    def test_convdiff_exponential(self):
        op = ConvectionDiffusion(diffusivity=1.0, velocity=(2.0, 0.0), reaction=1.0)
        u = lambda x, y: math.exp(x)
        # L e^x = (1 + 2 - 1) e^x = 2 at the origin
        assert abs(apply_operator_fd(op, u, (0.0, 0.0), 1e-3) - 2.0) <= 1e-5


class TestKernelAnnihilation:
    """The defining property: L phi = 0 away from everywhere, measured by
    the FD oracle with an O(h^2) refinement signature."""

    @pytest.mark.parametrize("op", KERNEL_OPS)
    def test_annihilation_and_order(self, op):
        rng = np.random.default_rng(23)
        center = np.array([0.3, -0.2])
        displacements = []
        while len(displacements) < 50:
            d = rng.uniform(-2.0, 2.0, size=2)
            if 0.05 <= np.hypot(*d) <= 2.0:
                displacements.append(d)

        def residuals(h):
            u = lambda a, b: kernel_value(op, np.array([a, b]) - center)
            return np.array([apply_operator_fd(op, u, center + d, h)
                             for d in displacements])

        r1 = residuals(1e-3)
        r2 = residuals(5e-4)
        scale = max(abs(kernel_value(op, d)) for d in displacements)
        assert np.max(np.abs(r1)) <= 1e-3 * max(1.0, scale)
        rms = lambda v: math.sqrt(float(np.mean(v ** 2)))
        assert 3.4 <= rms(r1) / rms(r2) <= 4.6


class TestBatched:
    """Array arguments agree with per-element calls."""

    def test_fourier_symbol(self):
        w = np.random.default_rng(2).uniform(-5.0, 5.0, size=(6, 7, 2))
        for op in [Poisson()] + KERNEL_OPS:
            got = fourier_symbol(op, w)
            assert got.shape == (6, 7)
            want = np.array([[fourier_symbol(op, w[i, j]) for j in range(7)]
                             for i in range(6)])
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("op", KERNEL_OPS)
    def test_kernels(self, op):
        d = np.random.default_rng(8).uniform(-2.0, 2.0, size=(5, 9, 2))
        d[0, 0] = 0.0
        values = kernel_value(op, d)
        grads = kernel_gradient(op, d)
        assert values.shape == (5, 9) and grads.shape == (5, 9, 2)
        for idx in np.ndindex(5, 9):
            assert abs(values[idx] - kernel_value(op, d[idx])) <= 1e-15 * abs(values[idx])
            assert np.allclose(grads[idx], kernel_gradient(op, d[idx]), rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("op", [Poisson()] + KERNEL_OPS)
    def test_apply_operator_fd(self, op):
        u = lambda a, b: np.sin(a) * np.exp(0.5 * b)
        pts = np.random.default_rng(1).uniform(-1.0, 1.0, size=(12, 2))
        got = apply_operator_fd(op, u, pts, 1e-3)
        want = [apply_operator_fd(op, u, p, 1e-3) for p in pts]
        assert np.array_equal(got, want)


class TestPerOperatorReference:
    """The single (D, v, c) implementation reproduces, bit for bit, the
    per-operator formulas it replaced; those formulas are the reference."""

    OPS = KERNEL_OPS + [Helmholtz(0.7)]

    @staticmethod
    def symbol(op, omega):
        w1, w2 = omega[..., 0], omega[..., 1]
        ww = w1 ** 2 + w2 ** 2
        if isinstance(op, Poisson):
            return -ww + 0j
        if isinstance(op, Helmholtz):
            return op.k ** 2 - ww + 0j
        if isinstance(op, ModifiedHelmholtz):
            return -(op.k ** 2 + ww) + 0j
        return ((-op.diffusivity * ww - op.reaction)
                + 1j * (op.velocity[0] * w1 + op.velocity[1] * w2))

    @staticmethod
    def fd(op, u, x, h):
        x1, x2 = x[..., 0], x[..., 1]
        uc = u(x1, x2)
        ue, uw = u(x1 + h, x2), u(x1 - h, x2)
        un, us = u(x1, x2 + h), u(x1, x2 - h)
        lap = (ue + uw + un + us - 4.0 * uc) / (h * h)
        if isinstance(op, Poisson):
            return lap
        if isinstance(op, Helmholtz):
            return lap + op.k ** 2 * uc
        if isinstance(op, ModifiedHelmholtz):
            return lap - op.k ** 2 * uc
        gx = (ue - uw) / (2.0 * h)
        gy = (un - us) / (2.0 * h)
        return (op.diffusivity * lap
                + op.velocity[0] * gx + op.velocity[1] * gy
                - op.reaction * uc)

    @staticmethod
    def mu(op):
        v2 = float(op.velocity @ op.velocity)
        return math.sqrt(v2 / (4.0 * op.diffusivity ** 2) + op.reaction / op.diffusivity)

    @staticmethod
    def drift(op, d):
        return np.exp(-(op.velocity[0] * d[..., :1] + op.velocity[1] * d[..., 1:])
                      / (2.0 * op.diffusivity))

    def value(self, op, d):
        r = np.hypot(d[..., 0], d[..., 1])
        if isinstance(op, Helmholtz):
            return bessel_j0(op.k * r)
        if isinstance(op, ModifiedHelmholtz):
            return bessel_i0(op.k * r)
        return self.drift(op, d)[..., 0] * bessel_i0(self.mu(op) * r)

    def gradient(self, op, d):
        r = np.hypot(d[..., :1], d[..., 1:])
        safe_r = np.where(r == 0.0, 1.0, r)
        if isinstance(op, Helmholtz):
            return -op.k * bessel_j1(op.k * r) * d / safe_r
        if isinstance(op, ModifiedHelmholtz):
            return op.k * bessel_i1(op.k * r) * d / safe_r
        half_v = op.velocity / (2.0 * op.diffusivity)
        i0, i1 = bessel_i0_i1(self.mu(op) * r)
        return self.drift(op, d) * (self.mu(op) * i1 / safe_r * d - half_v * i0)

    @pytest.fixture(scope="class")
    def d(self):
        # |d| up to 5.7 puts k r on both sides of the J and I switch points
        d = np.random.default_rng(500).uniform(-4.0, 4.0, size=(500, 2))
        d[0] = 0.0
        return d

    @pytest.mark.parametrize("op", [Poisson()] + OPS)
    def test_symbol_and_fd(self, op, d):
        assert np.array_equal(fourier_symbol(op, d), self.symbol(op, d))
        u = lambda a, b: np.sin(a) * np.exp(0.5 * b) + np.cos(3.0 * b)
        assert np.array_equal(apply_operator_fd(op, u, d, 1e-3), self.fd(op, u, d, 1e-3))

    @pytest.mark.parametrize("op", OPS)
    def test_kernels(self, op, d):
        assert np.array_equal(kernel_value(op, d), self.value(op, d))
        assert np.array_equal(kernel_gradient(op, d), self.gradient(op, d))
        for one in d[:20]:  # the (2,) path too, d = 0 included
            assert kernel_value(op, one) == self.value(op, one)
            assert np.array_equal(kernel_gradient(op, one), self.gradient(op, one))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
       st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 2),
       st.floats(min_value=0.0, allow_infinity=False))
def test_convdiff_kernel_is_always_modified_bessel(diffusivity, velocity, reaction):
    # c = -kappa <= 0 and D > 0 give mu^2 = |v|^2 / 4D^2 + kappa / D >= 0; an
    # operator whose mu^2 rounds to 0 or overflows is rejected, so every one
    # that is built has the I0 kernel that _kernel's drift path assumes
    try:
        op = ConvectionDiffusion(diffusivity, velocity, reaction)
    except ConfigurationError:
        return
    assert 0.0 < op.coefficients.mu2 < math.inf
