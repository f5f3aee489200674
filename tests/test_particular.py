import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from quasirbf.errors import (ConfigurationError, DomainError,
                             ResonantBoxError)
from quasirbf.geometry import (Box2, Circle, Star, StarDomain, bounding_box,
                               stack_xy)
from quasirbf.operators import (ConvectionDiffusion, Helmholtz,
                                ModifiedHelmholtz, Poisson, apply_operator_fd,
                                fourier_symbol)
from quasirbf.particular import (ALL, RANK_CAP, Compensator,
                                 SourceGrid, SpectralField, TaperSpec, _axis_weight, _cross,
                                 _HalfSpectrum, _reciprocal_factor, _symbol,
                                 eval_particular, eval_particular_gradient,
                                 extend_source, required_margin,
                                 solve_particular)
from quasirbf.presets import get_preset

from oracles import taper_weight

UNIT_DISC = StarDomain(Circle(1.0))
TWO_PI = 2.0 * math.pi


def _grid_samples(box: Box2, n: int, f) -> SourceGrid:
    side = float(box.side[0])
    c1 = box.min_corner[0] + side * np.arange(n) / n
    c2 = box.min_corner[1] + side * np.arange(n) / n
    x1, x2 = np.meshgrid(c1, c2, indexing="ij")
    return SourceGrid(box=box, n=n, samples=f(x1, x2))


def _pi_box() -> Box2:
    return Box2(np.array([-math.pi, -math.pi]), np.array([math.pi, math.pi]))


def _random_half(rng, n: int) -> np.ndarray:
    """A random complex half spectrum (n, n/2 + 1): every mode, Nyquist too."""
    shape = (n, n // 2 + 1)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _double_sum(sf: SpectralField, pts: np.ndarray):
    """Re sum_ij c_ij E_i F_j and its gradient at points (P, 2) of the 2 pi
    box, vectorised over the full coefficients sf.coeffs."""
    w = np.fft.fftfreq(sf.n) * sf.n  # integer frequencies on the 2*pi box
    ex = np.exp(1j * w * (pts[:, :1] + math.pi))  # (P, n)
    ey = np.exp(1j * w * (pts[:, 1:] + math.pi))
    rows = ex @ sf.coeffs  # sum_i c_ij E_i, per point
    value = np.sum(rows * ey, axis=1).real
    grad = np.stack([np.sum(((1j * w * ex) @ sf.coeffs) * ey, axis=1).real,
                     np.sum(rows * (1j * w * ey), axis=1).real], axis=-1)
    return value, grad


class TestTaper:
    def test_invalid_fraction(self):
        for bad in (0.0, 0.5, -0.1, 0.7):
            with pytest.raises(ConfigurationError):
                TaperSpec(bad)

    def test_plateau_is_one(self):
        assert np.all(_axis_weight(np.array([0.2, 0.3, 0.5, 0.7, 0.8]), 0.2) == 1.0)

    def test_edge_is_zero(self):
        assert np.all(_axis_weight(np.array([0.0, 1.0]), 0.2) == 0.0)

    def test_rise_midpoint_is_half(self):
        # eta(1/2) = e/(e+e) = 1/2 exactly, even in floating point
        assert _axis_weight(0.1, 0.2) == 0.5

    def test_monotone_rise(self):
        ws = _axis_weight(np.linspace(0.0, 0.2, 50), 0.2)
        assert np.all(np.diff(ws) >= 0.0)

    def test_required_margin(self):
        assert abs(required_margin(TaperSpec(0.1)) - 0.125) <= 1e-15
        assert abs(required_margin(TaperSpec(0.2)) - 1.0 / 3.0) <= 1e-15


class TestSourceGrid:
    def test_bad_grid_size(self):
        box = bounding_box(UNIT_DISC, 1.0)
        with pytest.raises(ConfigurationError):
            SourceGrid(box=box, n=33, samples=np.zeros((33, 33)))

    def test_shape_mismatch(self):
        box = bounding_box(UNIT_DISC, 1.0)
        with pytest.raises(ConfigurationError):
            SourceGrid(box=box, n=32, samples=np.zeros((32, 16)))

    def test_nonfinite_samples(self):
        box = bounding_box(UNIT_DISC, 1.0)
        samples = np.zeros((32, 32))
        samples[3, 4] = np.nan
        with pytest.raises(ConfigurationError):
            SourceGrid(box=box, n=32, samples=samples)

    def test_rectangular_box_rejected(self):
        box = Box2(np.zeros(2), np.array([2.0, 1.0]))
        with pytest.raises(ConfigurationError):
            SourceGrid(box=box, n=32, samples=np.zeros((32, 32)))


class TestExtendSource:
    def test_domain_samples_untouched(self):
        box = bounding_box(UNIT_DISC, 1.0)
        grid = _grid_samples(box, 64, lambda a, b: np.ones_like(a))
        ext = extend_source(lambda a, b: 1.0, UNIT_DISC, box, 64, TaperSpec(0.1))
        side = float(box.side[0])
        c = box.min_corner[0] + side * np.arange(64) / 64
        x1, x2 = np.meshgrid(c, c, indexing="ij")
        inside = x1 ** 2 + x2 ** 2 < 1.0
        assert np.array_equal(ext.samples[inside], grid.samples[inside])

    def test_boundary_ring_is_zero(self):
        box = bounding_box(UNIT_DISC, 1.0)
        ext = extend_source(lambda a, b: 1.0, UNIT_DISC, box, 64, TaperSpec(0.1))
        assert np.all(ext.samples[0, :] == 0.0)
        assert np.all(ext.samples[:, 0] == 0.0)

    def test_plateau_containment_enforced(self):
        box = bounding_box(UNIT_DISC, 0.0)
        with pytest.raises(ConfigurationError, match="box_margin"):
            extend_source(lambda a, b: 1.0, UNIT_DISC, box, 64, TaperSpec(0.1))

    @pytest.mark.parametrize("domain", [UNIT_DISC, StarDomain(Star(1.0, 0.2, 5), (0.1, -0.2))],
                             ids=["disc", "star"])
    def test_samples_are_weight_times_source(self, domain):
        # the separable sampling equals the point-wise oracle taper times f, bitwise
        box = bounding_box(domain, 1.0)
        taper = TaperSpec(0.1)
        f = lambda a, b: np.sin(3.0 * a) * np.exp(b) + a * b
        n = 64
        c = float(box.side[0]) * np.arange(n) / n
        x1, x2 = np.meshgrid(box.min_corner[0] + c, box.min_corner[1] + c, indexing="ij")
        weight = taper_weight(box, taper.inner_fraction, np.stack([x1, x2], axis=-1))
        live = weight != 0.0
        samples = extend_source(f, domain, box, n, taper).samples
        assert np.array_equal(samples[live], weight[live] * f(x1, x2)[live])
        assert np.all(samples[~live] == 0.0)
        assert np.count_nonzero(~live) > 0

    def test_determinism(self):
        box = bounding_box(UNIT_DISC, 1.0)
        f = lambda a, b: np.sin(a) * np.cos(b)
        g1 = extend_source(f, UNIT_DISC, box, 64, TaperSpec(0.1))
        g2 = extend_source(f, UNIT_DISC, box, 64, TaperSpec(0.1))
        assert np.array_equal(g1.samples, g2.samples)


def _meshgrid_reference(f, box: Box2, n: int, t: float) -> np.ndarray:
    """Oracle taper weight times f, with f called on the full n x n meshgrid."""
    c = float(box.side[0]) * np.arange(n) / n
    x1, x2 = np.meshgrid(box.min_corner[0] + c, box.min_corner[1] + c, indexing="ij")
    weight = taper_weight(box, t, np.stack([x1, x2], axis=-1))
    return np.where(weight != 0.0, weight * np.broadcast_to(f(x1, x2), x1.shape), 0.0)


class TestOpenGridSampling:
    """extend_source calls the source on single rows and columns of the
    sampled block and on a seeded scattered set of points; reading the
    samples calls it once on the block's open grid, x1 (r, 1) and x2 (1, c),
    and broadcasts the result over the block."""

    @pytest.mark.parametrize("f", [lambda a, b: 1.0,
                                   lambda a, b: np.exp(-(a - b) ** 2)],
                             ids=["constant", "non-separable"])
    def test_calls_are_rows_columns_and_a_scattered_set(self, f):
        box = bounding_box(UNIT_DISC, 1.0)
        n = 64
        calls = []

        def spy(a, b):
            calls.append((a.shape, b.shape, np.broadcast_shapes(a.shape, b.shape)))
            return f(a, b)

        grid = extend_source(spy, UNIT_DISC, box, n, TaperSpec(0.1))
        assert grid.factors is not None and "samples" not in grid.__dict__
        cross_calls = len(calls)
        r = np.count_nonzero(grid.samples.any(axis=1))
        c = np.count_nonzero(grid.samples.any(axis=0))
        assert calls[cross_calls:] == [((r, 1), (1, c), (r, c))]  # the samples' read
        assert cross_calls >= 3
        for a, b, shape in calls[:cross_calls]:
            row = (a, b) == ((1, 1), (1, c))
            column = (a, b) == ((r, 1), (1, 1))
            scattered = a == b == shape and len(shape) == 1 and shape[0] <= 4 * n
            assert row or column or scattered, (a, b)
            assert np.prod(shape) < r * c

    @pytest.mark.parametrize("name", ["modhelm_source", "convdiff_disc", "poisson_disc"])
    def test_presets_match_meshgrid_reference(self, name):
        preset = get_preset(name)
        box = bounding_box(preset.domain, 1.0)
        samples = extend_source(preset.source, preset.domain, box, 512, TaperSpec(0.1)).samples
        ref = _meshgrid_reference(preset.source, box, 512, 0.1)
        assert np.all(np.abs(samples - ref) <= 2.0 * np.spacing(np.abs(ref)))

    @pytest.mark.parametrize("f", [lambda a, b: 2.5,
                                   lambda a, b: np.cos(a),
                                   lambda a, b: np.cos(a) * np.exp(b)],
                             ids=["constant", "x1-only", "broadcast-shape"])
    def test_results_that_broadcast(self, f):
        box = bounding_box(UNIT_DISC, 1.0)
        samples = extend_source(f, UNIT_DISC, box, 64, TaperSpec(0.1)).samples
        ref = _meshgrid_reference(f, box, 64, 0.1)
        assert np.all(np.abs(samples - ref) <= 2.0 * np.spacing(np.abs(ref)))

    def test_result_that_does_not_broadcast_rejected(self):
        box = bounding_box(UNIT_DISC, 1.0)
        with pytest.raises(ConfigurationError, match=r"shape \(5,\).*\(\d+, \d+\)"):
            extend_source(lambda a, b: np.ones(5), UNIT_DISC, box, 64, TaperSpec(0.1))


class TestSolveParticular:
    def test_zero_source_zero_field(self):
        grid = _grid_samples(_pi_box(), 32, lambda a, b: np.zeros_like(a))
        sf = solve_particular(ModifiedHelmholtz(1.0), grid)
        assert np.all(sf.coeffs == 0.0)
        assert eval_particular(sf, (0.3, -0.4)) == 0.0

    def test_single_cosine_mode(self):
        # L = lap - 1 applied to cos(x1) gives -2 cos(x1); feeding
        # f = cos(x1) therefore must return u_p = -cos(x1)/2.
        grid = _grid_samples(_pi_box(), 32, lambda a, b: np.cos(a))
        sf = solve_particular(ModifiedHelmholtz(1.0), grid)
        assert abs(eval_particular(sf, (0.0, 0.0)) + 0.5) <= 1e-12
        assert abs(eval_particular(sf, (1.0, 0.5)) + 0.5 * math.cos(1.0)) <= 1e-12

    def test_helmholtz_detuned_mode(self):
        grid = _grid_samples(_pi_box(), 32, lambda a, b: np.cos(2.0 * a))
        sf = solve_particular(Helmholtz(1.0), grid)
        # sigma(2, 0) = 1 - 4 = -3
        assert abs(eval_particular(sf, (0.0, 0.0)) + 1.0 / 3.0) <= 1e-12

    def test_resonant_mode_raises(self):
        grid = _grid_samples(_pi_box(), 32, lambda a, b: np.cos(a))
        with pytest.raises(ResonantBoxError, match="resonant"):
            solve_particular(Helmholtz(1.0), grid)

    def test_resonant_mode_without_energy_clamped(self):
        grid = _grid_samples(_pi_box(), 32, lambda a, b: np.cos(2.0 * a))
        sf = solve_particular(Helmholtz(1.0), grid)
        assert np.all(np.isfinite(sf.coeffs))

    def test_poisson_compensator_attached(self):
        grid = _grid_samples(_pi_box(), 32, lambda a, b: np.ones_like(a))
        sf = solve_particular(Poisson(), grid)
        assert isinstance(sf.compensator, Compensator)
        assert abs(4.0 * sf.compensator.quad - 1.0) <= 1e-14

    def test_convdiff_zero_reaction_compensator(self):
        op = ConvectionDiffusion(diffusivity=1.0, velocity=(2.0, 0.0), reaction=0.0)
        grid = _grid_samples(_pi_box(), 32, lambda a, b: np.ones_like(a))
        sf = solve_particular(op, grid)
        assert isinstance(sf.compensator, Compensator)


class TestCompensators:
    def test_poisson_quad(self):
        # mean 2: quad = mean / 4
        c = Compensator(center=np.zeros(2), quad=0.5)
        assert c.value(1.0, 0.0) == 0.5
        assert np.allclose(c.gradient(1.0, 0.0), (1.0, 0.0))

    def test_convection_linear(self):
        # mean 3, v = (2, 0): lin = mean v / |v|^2
        c = Compensator(center=np.zeros(2), lin=(1.5, 0.0))
        assert c.value(1.0, 0.0) == 1.5
        assert np.allclose(c.gradient(1.0, 0.0), (1.5, 0.0))

    def test_compensator_only_field(self):
        sf = SpectralField(box=_pi_box(), n=32,
                           half=np.zeros((32, 17), dtype=complex),
                           compensator=Compensator(center=np.zeros(2), quad=0.5))
        assert eval_particular(sf, (1.0, 0.0)) == 0.5
        assert np.allclose(eval_particular_gradient(sf, (1.0, 0.0)), (1.0, 0.0))


class TestEvaluation:
    def _field(self, n=64):
        f = lambda a, b: np.cos(a) * np.sin(2.0 * b) + 0.5 * np.cos(3.0 * a + b)
        grid = _grid_samples(_pi_box(), n, f)
        return solve_particular(ModifiedHelmholtz(1.0), grid)

    def test_grid_point_matches_ifft(self):
        sf = self._field()
        n = sf.n
        field_samples = np.fft.ifft2(sf.coeffs * n * n).real
        side = float(sf.box.side[0])
        for i, j in [(0, 0), (5, 11), (32, 17)]:
            x = sf.box.min_corner + side * np.array([i, j]) / n
            got = eval_particular(sf, x)
            assert abs(got - field_samples[i, j]) <= 1e-12 * max(
                1.0, abs(field_samples[i, j]))

    def test_spectral_exactness(self):
        # band-limited source: the discrete solve is exact up to roundoff
        sf = self._field()
        exact = lambda a, b: (-math.cos(a) * math.sin(2.0 * b) / 6.0
                              - 0.5 * math.cos(3.0 * a + b) / 11.0)
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = rng.uniform(-2.5, 2.5, size=2)
            assert abs(eval_particular(sf, p) - exact(p[0], p[1])) <= 1e-10

    def test_gradient_matches_central_differences(self):
        sf = self._field()
        rng = np.random.default_rng(9)
        for _ in range(8):
            p = rng.uniform(-2.0, 2.0, size=2)
            h = 1e-6
            fd = np.array([
                (eval_particular(sf, p + (h, 0)) - eval_particular(sf, p - (h, 0))),
                (eval_particular(sf, p + (0, h)) - eval_particular(sf, p - (0, h))),
            ]) / (2.0 * h)
            assert np.allclose(eval_particular_gradient(sf, p), fd, atol=1e-6)

    def test_outside_box_rejected(self):
        sf = self._field()
        with pytest.raises(DomainError):
            eval_particular(sf, (10.0, 0.0))
        with pytest.raises(DomainError):
            eval_particular_gradient(sf, (0.0, -10.0))


class TestFoldedEvaluation:
    """The half-spectrum fold is exact for any half array, including the
    Nyquist row and column, which have no conjugate partner."""

    @pytest.mark.parametrize("n", [8, 16])
    def test_matches_double_sum(self, n):
        rng = np.random.default_rng(n)
        sf = SpectralField(box=_pi_box(), n=n, half=_random_half(rng, n))
        coeffs = sf.coeffs
        w = np.fft.fftfreq(n) * n  # integer frequencies on the 2*pi box
        pts = rng.uniform(-math.pi, math.pi, size=(12, 2))
        values = eval_particular(sf, pts)
        grads = eval_particular_gradient(sf, pts)
        scale = float(np.abs(coeffs).sum())
        for (x1, x2), v, g in zip(pts, values, grads):
            terms = [(coeffs[i, j] * cmath.exp(1j * w[i] * (x1 + math.pi))
                      * cmath.exp(1j * w[j] * (x2 + math.pi)), w[i], w[j])
                     for i in range(n) for j in range(n)]
            want_v = sum(t.real for t, _, _ in terms)
            want_g = (sum((1j * wi * t).real for t, wi, _ in terms),
                      sum((1j * wj * t).real for t, _, wj in terms))
            assert abs(v - want_v) <= 1e-13 * scale
            assert abs(eval_particular(sf, (x1, x2)) - v) <= 1e-13 * scale
            # |w| <= n/2 on the 2*pi box bounds the gradient terms
            assert np.abs(g - want_g).max() <= 1e-13 * (n / 2) * scale


class TestRealEvaluation:
    """The real cos/sin evaluation at n = 256, where each axis's phase table
    is built from several coarse and fine exponential factors."""

    def test_matches_vectorised_double_sum(self):
        n = 256
        rng = np.random.default_rng(256)
        sf = SpectralField(box=_pi_box(), n=n, half=_random_half(rng, n))
        side = rng.uniform(-math.pi, math.pi, size=4)
        edges = [(-math.pi, side[0]), (math.pi, side[1]), (side[2], -math.pi),
                 (side[3], math.pi), (-math.pi, -math.pi), (-math.pi, math.pi),
                 (math.pi, -math.pi), (math.pi, math.pi)]
        # more points than one block of BLOCK_PAIRS // (n/2 + 1) = 127
        pts = np.concatenate([rng.uniform(-math.pi, math.pi, size=(300, 2)), edges])
        want_v, want_g = _double_sum(sf, pts)
        scale = float(np.abs(sf.coeffs).sum())
        assert np.abs(eval_particular(sf, pts) - want_v).max() <= 1e-13 * scale
        # |w| <= n/2 on the 2*pi box bounds the gradient terms
        assert np.abs(eval_particular_gradient(sf, pts) - want_g).max() \
            <= 1e-13 * (n / 2) * scale

    def test_split_phases_match_direct_exponential(self):
        # The bound is the direct form's: it rounds w_k and phase arguments up
        # to pi n ~ 3217 at n = 1024 (ulp 4.5e-13), and alone differs from the
        # exact phase by up to about 8e-13. The split form reduces its turns
        # exactly in double arithmetic and stays within 5e-14 of the exact
        # phase (test_split_phases_match_exact_turns).
        n = 1024
        box = Box2(np.array([-1.3, -0.7]), np.array([2.1, 2.7]))
        sf = SpectralField(box=box, n=n, half=np.zeros((n, n // 2 + 1), dtype=complex))
        t = np.linspace(0.0, 1.0, 2001)  # both axes span the box, edges included
        xi = np.stack([t, np.random.default_rng(3).permutation(t)], axis=-1)
        pts = np.minimum(box.min_corner + xi * box.side, box.max_corner)
        w = 2.0 * np.pi * np.arange(n // 2 + 1) / float(box.side[0])
        direct = np.exp(1j * w * (pts - box.min_corner).T[:, :, None])
        assert np.abs(sf._phases(pts) - direct).max() <= 1e-12

    @pytest.mark.parametrize("box", [
        Box2(np.array([-1.3, -0.7]), np.array([2.1, 2.7])),
        _pi_box(),
        Box2(np.array([-2.05, -1.1]), np.array([0.75, 1.7])),
    ], ids=["offset", "pi", "narrow"])
    def test_split_phases_match_exact_turns(self, box):
        # The exact phase of mode k at the double d = x - min_corner the code
        # forms is exp(2 pi i t), t = frac(k d / side): t is exact in rational
        # arithmetic and reduced to [-1/2, 1/2] before it is rounded for
        # cmath.exp (an error of a few 1e-16), so the reference owes nothing to
        # the platform's extended precision.
        n = 1024
        sf = SpectralField(box=box, n=n, half=np.zeros((n, n // 2 + 1), dtype=complex))
        t = np.random.default_rng(1024).uniform(0.0, 1.0, size=(100, 2))
        t[:4] = [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0)]  # both edges of both axes
        pts = np.minimum(box.min_corner + t * box.side, box.max_corner)
        d = pts - box.min_corner
        side = Fraction(float(box.side[0]))
        got = sf._phases(pts)
        err = 0.0
        for (i, axis), dk in np.ndenumerate(d):
            turn = Fraction(float(dk)) / side
            a, b = turn.numerator, turn.denominator
            want = []
            for k in range(n // 2 + 1):
                r = k * a % b
                want.append(cmath.exp(2j * math.pi * ((r - b if 2 * r > b else r) / b)))
            err = max(err, float(np.abs(got[axis, i] - want).max()))
        assert err <= 5e-14

    def test_phases_do_not_depend_on_the_block(self):
        # _evaluate cuts points into blocks of up to BLOCK_PAIRS // (n/2 + 1)
        # points (63 at n = 512), and a query evaluates one point at a time:
        # each point's phases must be the same bits in any block
        n, box = 512, Box2(np.array([-1.3, -0.7]), np.array([2.1, 2.7]))
        sf = SpectralField(box=box, n=n, half=np.zeros((n, n // 2 + 1), dtype=complex))
        pts = box.min_corner + np.random.default_rng(512).uniform(0.0, 1.0, (200, 2)) * box.side
        block = sf._phases(pts)
        for i, p in enumerate(pts):
            assert np.array_equal(sf._phases(p[None]), block[:, i:i + 1])


class TestEndToEndResidual:
    """extend_source + solve_particular must satisfy L u_p = f inside the
    physical domain, where the taper weight is identically one."""

    PROBES = [(0.0, 0.0), (0.5, 0.2), (-0.3, 0.6), (0.1, -0.7), (-0.5, -0.4)]

    def _residual(self, op, f, n):
        box = bounding_box(UNIT_DISC, 1.0)
        grid = extend_source(f, UNIT_DISC, box, n, TaperSpec(0.1))
        sf = solve_particular(op, grid)
        u = lambda a, b: eval_particular(sf, (a, b))
        worst = 0.0
        for p in self.PROBES:
            r = apply_operator_fd(op, u, p, 1e-3) - f(p[0], p[1])
            worst = max(worst, abs(r))
        return worst

    def test_modhelm_residual_small(self):
        f = lambda a, b: np.sin(math.pi * a) * np.sin(math.pi * b)
        assert self._residual(ModifiedHelmholtz(1.0), f, 128) <= 1e-3

    @pytest.mark.parametrize("reaction", [0.0, 1.0])
    def test_convdiff_residual_small(self, reaction):
        # at reaction 0 the zero mode is dropped and the compensator carries it
        op = ConvectionDiffusion(diffusivity=1.0, velocity=(2.0, 0.0), reaction=reaction)
        f = lambda a, b: 2.0 * np.exp(a)
        assert self._residual(op, f, 128) <= 1e-3

    def test_refinement_improves_residual(self):
        f = lambda a, b: np.sin(math.pi * a) * np.sin(math.pi * b)
        coarse = self._residual(ModifiedHelmholtz(1.0), f, 64)
        fine = self._residual(ModifiedHelmholtz(1.0), f, 128)
        assert fine <= coarse


class TestBatched:
    def _field(self):
        f = lambda a, b: np.cos(a) * np.sin(2.0 * b) + 0.5 * np.cos(3.0 * a + b)
        return solve_particular(ModifiedHelmholtz(1.0), _grid_samples(_pi_box(), 32, f))

    def test_one_outside_point_raises(self):
        sf = self._field()
        pts = np.random.default_rng(4).uniform(-2.0, 2.0, size=(40, 2))
        pts[17] = (0.5, 3.5)
        with pytest.raises(DomainError, match="outside the embedding box"):
            eval_particular(sf, pts)
        with pytest.raises(DomainError):
            eval_particular_gradient(sf, pts)

    def test_matches_point_calls(self):
        sf = self._field()
        pts = np.random.default_rng(6).uniform(-3.0, 3.0, size=(25, 2))
        values = eval_particular(sf, pts)
        grads = eval_particular_gradient(sf, pts)
        scale = float(np.abs(sf.coeffs).sum())
        for p, v, g in zip(pts, values, grads):
            assert abs(v - eval_particular(sf, p)) <= 1e-12 * scale
            # |w| <= n/2 = 16 on the 2*pi box bounds the gradient terms
            assert np.abs(g - eval_particular_gradient(sf, p)).max() <= 1e-12 * 16 * scale

    def test_extend_source_skips_zero_weight(self):
        box = bounding_box(UNIT_DISC, 1.0)
        taper = TaperSpec(0.1)
        seen = []

        def f(a, b):
            seen.append(np.stack(np.broadcast_arrays(a, b), axis=-1))
            return np.ones_like(a)

        grid = extend_source(f, UNIT_DISC, box, 32, taper)
        assert len(seen) == 1
        points = seen[0].reshape(-1, 2)
        assert np.all(taper_weight(box, taper.inner_fraction, points) > 0.0)
        assert len(points) == np.count_nonzero(grid.samples)
        assert np.count_nonzero(grid.samples) < 32 * 32


class TestHalfSpectrum:
    """solve_particular divides the rfft2 half spectrum; `coeffs` is its
    Hermitian completion, filled on first read."""

    N = 64

    def _grid(self, seed=64):
        # random real samples put energy in every mode, the Nyquist ones too
        samples = np.random.default_rng(seed).standard_normal((self.N, self.N))
        return SourceGrid(box=_pi_box(), n=self.N, samples=samples)

    @pytest.mark.parametrize("op", [Poisson(), Helmholtz(1.5), ModifiedHelmholtz(2.0),
                                    ConvectionDiffusion(1.0, (2.0, -1.5), 0.5)],
                             ids=["poisson", "helmholtz", "modhelm", "convdiff"])
    def test_matrix_is_general_fold_of_coeffs(self, op):
        # the folded matrix's series is the double sum over the completion
        sf = solve_particular(op, self._grid())
        pts = np.random.default_rng(7).uniform(-math.pi, math.pi, size=(50, 2))
        ex, ey = sf._phases(pts)
        got = np.einsum("pk,pk->p", ex.view(np.float64) @ sf.real_matrix,
                        ey.view(np.float64))
        assert np.abs(got - _double_sum(sf, pts)[0]).max() \
            <= 1e-13 * float(np.abs(sf.coeffs).sum())
        # the sin of mode 0 is zero on both axes: its row and column are too
        assert not sf.real_matrix[1].any() and not sf.real_matrix[:, 1].any()

    def test_coeffs_are_hermitian_completion(self):
        n, h = self.N, self.N // 2
        sf = solve_particular(ModifiedHelmholtz(2.0), self._grid())
        c = sf.coeffs
        assert c.shape == (n, n) and c.dtype == complex
        assert np.array_equal(c[:, :h + 1], sf.half)
        mirror = np.conj(c[-np.arange(n) % n][:, -np.arange(n) % n])
        assert np.array_equal(c[:, h + 1:], mirror[:, h + 1:])
        # columns 0 and n/2 are their own mirrors, Hermitian to rounding
        assert np.abs(c - mirror).max() <= 1e-15 * np.abs(c).max()

    def test_convdiff_matches_fft2_reference(self):
        # The conv-diff symbol is not even in w. Row n/2 of the completion
        # mirrors mode (+n/2, -w2) into the column of w2, where fft2's row
        # n/2 divides by sigma(-n/2, w2): the two differ there by exactly the
        # ratio of the two symbols, and agree to rounding everywhere else.
        op = ConvectionDiffusion(diffusivity=1.0, velocity=(2.0, -1.5), reaction=0.5)
        n, h = self.N, self.N // 2
        grid = self._grid()
        sf = solve_particular(op, grid)
        m = np.fft.fftfreq(n) * n  # integer frequencies on the 2*pi box
        sigma = fourier_symbol(op, np.stack(np.meshgrid(m, m, indexing="ij"), axis=-1))
        ref = np.fft.fft2(grid.samples) / (sigma * n * n)
        want = ref.copy()
        want[h, h + 1:] *= sigma[h, h + 1:] / fourier_symbol(op, stack_xy(h, m[h + 1:]))
        assert np.abs(sf.coeffs - want).max() <= 1e-15 * np.abs(ref).max()
        ring = ref[h, h + 1:]
        assert np.abs(sf.coeffs[h, h + 1:] - ring).max() > 1e-2 * np.abs(ring).max()

    def test_resonant_pair_across_the_half_raises(self):
        # modes (1, -1) and (-1, 1) of cos(x1 - x2) are resonant for k^2 = 2;
        # only the second has its column m2 = 1 in the half spectrum
        grid = _grid_samples(_pi_box(), 32, lambda a, b: np.cos(a - b))
        with pytest.raises(ResonantBoxError, match="resonant"):
            solve_particular(Helmholtz(math.sqrt(2.0)), grid)

    def test_resonant_modes_without_energy_clamped(self):
        # (+-1, +-1) are resonant for k^2 = 2 but cos(x1 + 2 x2) puts no energy
        # there; sigma(1, 2) = 2 - 5
        grid = _grid_samples(_pi_box(), 32, lambda a, b: np.cos(a + 2.0 * b))
        sf = solve_particular(Helmholtz(math.sqrt(2.0)), grid)
        assert np.all(sf.coeffs[np.ix_([1, -1], [1, -1])] == 0.0)
        p = np.array([0.3, -1.1])
        assert abs(eval_particular(sf, p) + math.cos(p[0] + 2.0 * p[1]) / 3.0) <= 1e-12


class TestBlockAccessors:
    """_HalfSpectrum.reciprocal builds C's single rows and columns exactly as
    the whole C holds them, and _factor's extra column is row (n/2, sin) of
    real_matrix bit for bit."""

    @staticmethod
    def _field(name):
        if name == "poisson":  # factored source, zero mode
            return TestLowRankFactor._preset_field("poisson_disc", n=128)[0]
        if name == "convdiff":  # factored source, complex symbol
            return TestLowRankFactor._preset_field("convdiff_disc", n=128)[0]
        # the clamped field of test_resonant_modes_without_energy_clamped
        return solve_particular(Helmholtz(math.sqrt(2.0)), _grid_samples(
            _pi_box(), 32, lambda a, b: np.cos(a + 2.0 * b)))

    @pytest.mark.parametrize("name", ["poisson", "convdiff", "clamped"])
    def test_blocks_equal_the_formed_arrays(self, name):
        sf = self._field(name)
        s, n, h = sf.spectrum, sf.n, sf.n // 2
        zi, zj = s.zero
        c = s.reciprocal(ALL, ALL)
        assert np.all(c[zi, zj] == 0.0) and np.array_equal(s.block(), s.numerator(ALL) * c)
        # single rows and columns, those of the zero entries included; on the
        # clamped field one column holds two of them
        assert len(zj) > len(set(zj.tolist())) or name != "clamped"
        for i in np.concatenate([zi, [0, h, n - 1]]):
            assert np.array_equal(s.reciprocal(np.array([i]), ALL)[0], c[i])
        for j in np.concatenate([zj, [0, h]]):
            assert np.array_equal(s.reciprocal(ALL, np.array([j]))[:, 0], c[:, j])
        if name != "clamped":  # _factor's extra column is row (n/2, sin) of M
            u, v = sf._factor
            assert np.array_equal(v[:, -1], sf.real_matrix[-1])
            assert np.array_equal(u[:, -1], np.eye(n + 2)[-1])

    @pytest.mark.parametrize("n, k", [(32, math.sqrt(2.0)), (512, 5.0)])
    def test_resonance_scan_matches_dense_mask(self, n, k):
        # n = 32 is the clamped field's box and operator; a zero source carries
        # no energy, so every near-resonant mode is kept. On the 2 pi box every
        # mode number is an integer, so those modes are the integer pairs (m1 in
        # fftfreq order, 0 <= m2 <= n/2) with m1^2 + m2^2 = k^2 exactly: any
        # other pair misses k^2 by at least 1, far past the tolerance
        op = Helmholtz(k)
        sf = solve_particular(op, SourceGrid(_pi_box(), n, samples=np.zeros((n, n))))
        m1 = np.fft.fftfreq(n, 1.0 / n).astype(int)
        m2 = np.arange(n // 2 + 1)
        want = set(zip(*np.nonzero(m1[:, None] ** 2 + m2 ** 2 == round(k * k))))
        got = list(zip(*sf.spectrum.zero))
        assert len(got) == len(set(got)) and set(got) == want and len(want) >= 2


class TestCross:
    """_cross on explicit matrices, checked on the whole matrix: one row and
    one column per cross, the next row the one of the largest residual."""

    @staticmethod
    def _cross_counted(s):
        fetched = {"rows": 0, "cols": 0}

        def rows(i):
            fetched["rows"] += 1
            return s[i].copy()

        def cols(j):
            fetched["cols"] += 1
            return s[:, j].copy()

        return _cross(rows, cols, s.shape, s.T, lambda u, v: np.outer(v, u)), fetched

    def test_rank_five_product(self):
        rng = np.random.default_rng(14)
        s = rng.standard_normal((60, 5)) @ rng.standard_normal((5, 50))
        (a, b), fetched = self._cross_counted(s)
        assert a.shape == (60, 5) and b.shape == (50, 5)
        assert np.abs(a @ b.T - s).max() <= 1e-14 * np.abs(s).max()
        assert fetched == {"rows": 6, "cols": 5}

    def test_zero_matrix_is_rank_zero_after_one_row(self):
        (a, b), fetched = self._cross_counted(np.zeros((30, 20)))
        assert a.shape == (30, 0) and b.shape == (20, 0)
        assert fetched == {"rows": 1, "cols": 0}

    def test_stop_refused_while_the_check_residual_stays(self):
        """A rank-1 S whose third check sample is off by 1: after one exact
        cross the next row's residual is zero, so the cross stops, but the
        sample's residual of 1 > CHECK_TOL * 48 refuses the factor. Every
        value is a small integer or an eighth: exact in any arithmetic."""
        s = np.outer(np.arange(1.0, 9.0), np.arange(1.0, 7.0))
        i, j = np.array([0, 3, 5, 7, 2]), np.array([1, 4, 0, 5, 3])
        check = s[i, j] + np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        fetched = []

        def rows(k):
            fetched.append(k)
            return s[k].copy()

        factor = _cross(rows, lambda k: s[:, k].copy(), s.shape, check,
                        lambda u, v: u[i] * v[j], at=i)
        assert factor is None and fetched == [7, 5]

    def test_full_rank_matrix_past_the_cap(self):
        s = np.random.default_rng(15).standard_normal((64, 64))
        assert RANK_CAP < 64
        assert self._cross_counted(s)[0] is None


class TestLowRankFactor:
    """u_p's matrix M is factored as U V^T on the source presets; a field
    whose M has no such factor keeps the exact series."""

    @staticmethod
    def _preset_field(name, n=512):
        preset = get_preset(name)
        box = bounding_box(preset.domain, 1.0)
        grid = extend_source(preset.source, preset.domain, box, n, TaperSpec(0.1))
        return solve_particular(preset.operator, grid), grid

    @staticmethod
    def _exact_series(sf, ex, ey):
        rows = ex.view(np.float64) @ sf.real_matrix
        return np.einsum("pk,pk->p", rows, ey.view(np.float64))

    @pytest.mark.parametrize("name", ["modhelm_source", "convdiff_disc", "poisson_disc"])
    def test_factored_matches_exact_series(self, name):
        sf, _ = self._preset_field(name)
        assert sf._factor is not None
        rng = np.random.default_rng(700)
        pts = sf.box.min_corner + rng.uniform(0.0, 1.0, size=(700, 2)) * sf.box.side
        ex, ey = sf._phases(pts)
        iw = 1j * sf.omega
        exact_v = self._exact_series(sf, ex, ey)
        exact_g = np.stack([self._exact_series(sf, iw * ex, ey),
                            self._exact_series(sf, ex, iw * ey)], axis=-1)
        if sf.compensator is not None:
            exact_v += sf.compensator.value(pts[:, 0], pts[:, 1])
            exact_g += sf.compensator.gradient(pts[:, 0], pts[:, 1])
        values = eval_particular(sf, pts)
        grads = eval_particular_gradient(sf, pts)
        assert np.abs(values - exact_v).max() <= 1e-14 * np.abs(exact_v).max()
        assert np.abs(grads - exact_g).max() <= 1e-14 * np.abs(exact_g).max()

    def test_seeded_factor_is_deterministic(self):
        sf, grid = self._preset_field("convdiff_disc", n=128)
        again = solve_particular(get_preset("convdiff_disc").operator, grid)
        pts = np.random.default_rng(5).uniform(-0.9, 0.9, size=(50, 2))
        assert np.array_equal(eval_particular(sf, pts), eval_particular(again, pts))
        assert np.array_equal(eval_particular_gradient(sf, pts),
                              eval_particular_gradient(again, pts))

    def test_random_coefficients_keep_exact_series(self):
        n = 64
        rng = np.random.default_rng(1)
        sf = SpectralField(box=_pi_box(), n=n, half=_random_half(rng, n))
        assert sf._factor is None
        pts = rng.uniform(-math.pi, math.pi, size=(20, 2))
        assert np.array_equal(eval_particular(sf, pts), self._exact_series(sf, *sf._phases(pts)))


class TestFactoredSource:
    """extend_source cross-approximates the tapered source; sources of any
    rank give the dense solve's u_p, and those past RANK_CAP, or whose cross
    fails its check, keep their samples (the r = n case)."""

    N = 512

    @pytest.mark.parametrize("f, op", [
        (lambda a, b: 1.0 / (1.0 + a ** 2 + b ** 2), ModifiedHelmholtz(1.0)),
        (lambda a, b: np.exp(-(a - b) ** 2), ConvectionDiffusion(1.0, (2.0, -1.0), 0.5)),
        (lambda a, b: np.sin(5.0 * a * b), Poisson()),
        (lambda a, b: np.exp(-20.0 * (a ** 2 + b ** 2)), Helmholtz(2.0)),
    ], ids=["inverse-quadratic", "diagonal-gaussian", "sin-5xy", "narrow-gaussian"])
    def test_non_separable_match_dense_reference(self, f, op):
        box = bounding_box(UNIT_DISC, 1.0)
        grid = extend_source(f, UNIT_DISC, box, self.N, TaperSpec(0.1))
        assert grid.factors is not None and "samples" not in grid.__dict__
        sf = solve_particular(op, grid)
        dense = SourceGrid(box, self.N, _meshgrid_reference(f, box, self.N, 0.1))
        ref = solve_particular(op, dense)
        pts = box.min_corner + np.random.default_rng(700).uniform(0.0, 1.0, (700, 2)) * box.side
        for evaluate in (eval_particular, eval_particular_gradient):
            want = evaluate(ref, pts)
            assert np.abs(evaluate(sf, pts) - want).max() <= 1e-13 * np.abs(want).max()

    def test_above_rank_cap_is_todays_dense_solve(self):
        f = lambda a, b: np.cos(40.0 * a * b)
        op, n, h = ModifiedHelmholtz(1.0), self.N, self.N // 2
        box = bounding_box(UNIT_DISC, 1.0)
        grid = extend_source(f, UNIT_DISC, box, n, TaperSpec(0.1))
        assert grid.factors is None
        ref = _meshgrid_reference(f, box, n, 0.1)
        assert np.all(np.abs(grid.samples - ref) <= 2.0 * np.spacing(np.abs(ref)))
        sf = solve_particular(op, grid)
        w = 2.0 * np.pi * (np.fft.fftfreq(n) * n) / float(box.side[0])
        sigma = np.add.outer(fourier_symbol(op, stack_xy(w, 0.0)),
                             fourier_symbol(op, stack_xy(0.0, w[:h + 1]))
                             - fourier_symbol(op, (0.0, 0.0))) * (n * n)
        assert np.array_equal(sf.half, np.fft.rfft2(grid.samples) / sigma)
        dense = solve_particular(op, SourceGrid(box, n, samples=grid.samples.copy()))
        pts = np.random.default_rng(8).uniform(-1.5, 1.5, (50, 2))
        assert np.array_equal(eval_particular(sf, pts), eval_particular(dense, pts))

    def test_nan_on_one_row_rejected(self):
        box = bounding_box(UNIT_DISC, 1.0)
        row = box.min_corner[0] + float(box.side[0]) * 300 / self.N
        f = lambda a, b: np.where(a == row, np.nan, 1.0) * np.cos(b)
        with pytest.raises(ConfigurationError, match="finite"):
            extend_source(f, UNIT_DISC, box, self.N, TaperSpec(0.1))

    def test_rank_one_source_is_one_cross(self):
        preset = get_preset("modhelm_source")
        box = bounding_box(preset.domain, 1.0)
        grid = extend_source(preset.source, preset.domain, box, self.N, TaperSpec(0.1))
        assert grid.factors[0].shape == (self.N, 1) and RANK_CAP < self.N

    def test_above_rank_cap_gives_up_early(self):
        # the check residual of cos(40 x1 x2) stays above its largest sample,
        # so the cross gives up once RANK_CAP - k decades could not close it,
        # after 34 crosses, instead of fetching RANK_CAP + 1 rows
        rows = []

        def spy(a, b):
            if a.shape == (1, 1) and b.shape[0] == 1 and b.size > 1:
                rows.append(b.size)
            return np.cos(40.0 * a * b)

        grid = extend_source(spy, UNIT_DISC, bounding_box(UNIT_DISC, 1.0), self.N, TaperSpec(0.1))
        assert grid.factors is None and 0 < len(rows) <= 36


def _key(op, box: Box2, n: int):
    """_reciprocal_factor's key for this grid, operator and box."""
    D, v, c = op.coefficients[:3]
    return n, (D, tuple(v.tolist()), c), float(box.side[0])


class TestReciprocalFactor:
    """The cross of the symbol's reciprocal C is built once per (grid,
    operator, box side), cached, and shared by every field of that key."""

    @pytest.mark.parametrize("op, box", [
        (ModifiedHelmholtz(1.0), bounding_box(UNIT_DISC, 1.0)),
        (ConvectionDiffusion(1.0, (2.0, -1.5), 0.5), bounding_box(UNIT_DISC, 1.0)),
        (Helmholtz(math.sqrt(5.0)), _pi_box()),
    ], ids=["real", "convdiff", "clamped"])
    def test_cross_matches_closed_form(self, op, box):
        n = 128
        s1, s2, zero = _symbol(*_key(op, box, n))
        x, y = _reciprocal_factor(*_key(op, box, n))
        c = _HalfSpectrum(None, None, s1, s2, zero).reciprocal(ALL, ALL)
        assert np.all(c[zero] == 0.0) and (len(zero[0]) > 0) == isinstance(op, Helmholtz)
        if s1.dtype == float:  # even: X holds rows 0..n/2, which equal rows n - i
            assert len(x) == n // 2 + 1 and np.array_equal(c[-np.arange(n) % n], c)
        else:
            assert len(x) == n and x.dtype == y.dtype == complex
        assert np.abs(x @ y.T - c[:len(x)]).max() <= 1e-14 * np.abs(c).max()

    @pytest.mark.parametrize("name", ["modhelm_source", "convdiff_disc", "poisson_disc"])
    def test_cold_and_warm_builds_are_bitwise_equal(self, name):
        preset = get_preset(name)
        box = bounding_box(preset.domain, 1.0)
        grid = extend_source(preset.source, preset.domain, box, 128, TaperSpec(0.1))
        pts = np.random.default_rng(16).uniform(-0.9, 0.9, size=(60, 2))
        _reciprocal_factor.cache_clear()
        cold = solve_particular(preset.operator, grid)
        warm = solve_particular(preset.operator, grid)
        assert _reciprocal_factor.cache_info()[:2] == (1, 1)  # one hit, one miss
        assert warm.spectrum.cross is cold.spectrum.cross and cold._factor is not None
        for evaluate in (eval_particular, eval_particular_gradient):
            assert np.array_equal(evaluate(cold, pts), evaluate(warm, pts))

    def test_sides_and_operators_never_share_an_entry(self):
        ops = [ModifiedHelmholtz(1.0), ModifiedHelmholtz(2.0), Poisson(),
               ConvectionDiffusion(1.0, (2.0, 0.0), 1.0)]
        boxes = [bounding_box(UNIT_DISC, 1.0), bounding_box(UNIT_DISC, 1.5)]
        grids = [extend_source(lambda a, b: np.exp(-a * a - b * b), UNIT_DISC, box, 128,
                               TaperSpec(0.1)) for box in boxes]
        _reciprocal_factor.cache_clear()
        fields = [solve_particular(op, grid) for op in ops for grid in grids]
        assert _reciprocal_factor.cache_info()[:2] == (0, len(fields))  # every build a miss
        assert len({id(sf.spectrum.cross[0]) for sf in fields}) == len(fields)
        for sf in fields:
            x, y = sf.spectrum.cross
            c = sf.spectrum.reciprocal(ALL, ALL)
            assert np.abs(x @ y.T - c[:len(x)]).max() <= 1e-14 * np.abs(c).max()

    def test_cache_is_bounded_and_small(self):
        assert _reciprocal_factor.cache_info().maxsize <= 8
        op = ConvectionDiffusion(1.0, (2.0, 0.0), 1.0)  # complex: every row of C
        x, y = _reciprocal_factor(*_key(op, bounding_box(UNIT_DISC, 1.0), 512))
        assert not x.flags.writeable and not y.flags.writeable
        assert x.nbytes + y.nbytes < 2 ** 20

    def test_field_without_cross_matches_dense_field(self):
        # for Helmholtz(40) on this box C has no cross of rank <= RANK_CAP, so the
        # factored source's field is the series of M itself; it differs from the
        # samples' field only by the source cross, to its check, amplified by a
        # reciprocal symbol whose entries span 7e3
        op, n, box = Helmholtz(40.0), 128, bounding_box(UNIT_DISC, 1.0)
        f = lambda a, b: np.exp(-(a - b) ** 2)
        grid = extend_source(f, UNIT_DISC, box, n, TaperSpec(0.1))
        sf = solve_particular(op, grid)
        assert grid.factors is not None and sf.spectrum.cross is None and sf._factor is None
        # 200 points are one block of _evaluate, so both sides are one GEMM with M
        pts = box.min_corner + np.random.default_rng(40).uniform(0.0, 1.0, (200, 2)) * box.side
        exact = TestLowRankFactor._exact_series(sf, *sf._phases(pts))
        assert np.array_equal(eval_particular(sf, pts), exact)
        dense = solve_particular(op, SourceGrid(box, n, _meshgrid_reference(f, box, n, 0.1)))
        for evaluate in (eval_particular, eval_particular_gradient):
            want = evaluate(dense, pts)
            assert np.abs(evaluate(sf, pts) - want).max() <= 1e-12 * np.abs(want).max()
