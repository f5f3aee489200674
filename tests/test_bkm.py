import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasirbf import bkm
from quasirbf.bkm import (LU, TSVD, CollocationSystem, HomogeneousSolution,
                          KernelMode, TrefftzMode, assemble, eval_homogeneous,
                          eval_homogeneous_gradient, solve_dense)
from quasirbf.errors import (ConfigurationError, KernelOverflowError, RankDeficientWarning,
                             SingularMatrixError)
from quasirbf.geometry import (BoundaryKnots, Circle, Star, StarDomain,
                               boundary_nodes, interior_eval_points)
from quasirbf.operators import (ConvectionDiffusion, Helmholtz,
                                ModifiedHelmholtz, Poisson, kernel_value)
from quasirbf.presets import get_preset
from quasirbf.specfun import bessel_orders

from oracles import min_norm_from_factors, oracle_harmonics, oracle_i0

UNIT_DISC = StarDomain(Circle(1.0))
# u_h from two summation orders of one sum differs by ~N eps of the terms' magnitudes
BATCH_TOL = 1e-12
ONE_KNOT = BoundaryKnots(param=np.zeros(1), points=np.array([[1.0, 0.0]]),
                         normals=np.array([[1.0, 0.0]]))


def _trefftz(order: int) -> TrefftzMode:
    """The circular harmonics about the unit disc's centre, scaled by its radius."""
    return TrefftzMode(order=order, center=np.zeros(2), scale=1.0)


class TestAssemble:
    def test_single_node_identity(self):
        system = assemble(Helmholtz(2.0), ONE_KNOT, "dirichlet", [5.0])
        assert np.array_equal(system.matrix, [[1.0]])
        assert np.array_equal(system.rhs, [5.0])
        assert isinstance(system.mode, KernelMode)

    def test_modhelm_two_nodes(self):
        knots = BoundaryKnots(param=np.zeros(2), points=np.array([[0.0, 0.0], [1.0, 0.0]]),
                              normals=np.array([[1.0, 0.0], [1.0, 0.0]]))
        system = assemble(ModifiedHelmholtz(1.0), knots, "dirichlet", np.zeros(2))
        i0 = oracle_i0(1.0)
        assert np.allclose(system.matrix, [[1.0, i0], [i0, 1.0]], atol=1e-12)

    @pytest.mark.parametrize("bc_kind", ["dirichlet", "neumann"])
    def test_poisson_assembly_expands_the_identity_once(self, monkeypatch, bc_kind):
        # knots 400 at order 180 is 9 blocks of 45 knots; each used to expand I afresh
        calls, expand = [], bkm._expand
        monkeypatch.setattr(bkm, "_expand", lambda *a: calls.append(a) or expand(*a))
        bkm._cached_factor.cache_clear()
        assemble(Poisson(), boundary_nodes(UNIT_DISC, 400), bc_kind, np.zeros(400), _trefftz(180))
        assert len(calls) == 1

    def test_trefftz_constant_column(self):
        nodes = boundary_nodes(UNIT_DISC, 9)
        system = assemble(Poisson(), nodes, "dirichlet", np.zeros(9), _trefftz(0))
        assert system.matrix.shape == (9, 1)
        assert np.all(system.matrix == 1.0)
        assert isinstance(system.mode, TrefftzMode)

    def test_poisson_requires_order(self):
        nodes = boundary_nodes(UNIT_DISC, 4)
        with pytest.raises(ConfigurationError):
            assemble(Poisson(), nodes, "dirichlet", np.zeros(4))

    def test_trefftz_basis_cannot_exceed_nodes(self):
        nodes = boundary_nodes(UNIT_DISC, 4)
        with pytest.raises(ConfigurationError):
            assemble(Poisson(), nodes, "dirichlet", np.zeros(4), _trefftz(5))

    @pytest.mark.parametrize("order", [-1, 5])
    def test_trefftz_order_range(self, order):
        # 0 <= order <= (N - 1) / 2 = 4 at N = 9; a negative order used to reach np.empty
        nodes = boundary_nodes(UNIT_DISC, 9)
        with pytest.raises(ConfigurationError, match="order"):
            assemble(Poisson(), nodes, "dirichlet", np.zeros(9), _trefftz(order))
        square = assemble(Poisson(), nodes, "dirichlet", np.zeros(9), _trefftz(4))
        assert square.matrix.shape == (9, 9)

    def test_mismatched_bc_count(self):
        nodes = boundary_nodes(UNIT_DISC, 4)
        with pytest.raises(ConfigurationError):
            assemble(Helmholtz(1.0), nodes, "dirichlet", np.zeros(3))

    @pytest.mark.parametrize("kind", ["Dirichlet", "robin"])
    def test_unknown_bc_kind_rejected(self, kind):
        # any kind other than "dirichlet" used to assemble Neumann rows
        nodes = boundary_nodes(UNIT_DISC, 4)
        with pytest.raises(ConfigurationError, match="bc_kind"):
            assemble(Helmholtz(1.0), nodes, kind, np.zeros(4))

    @pytest.mark.parametrize("op", [Helmholtz(2.0), ModifiedHelmholtz(1.0)])
    def test_dirichlet_matrix_symmetric(self, op):
        nodes = boundary_nodes(UNIT_DISC, 16)
        system = assemble(op, nodes, "dirichlet", np.zeros(16))
        assert np.allclose(system.matrix, system.matrix.T, atol=1e-14)


def _harmonics_at(order: int, center, scale: float, x1, x2, gradient: bool) -> np.ndarray:
    """bkm._terms of the harmonics at one point (x1, x2): values (2 order + 1,) or
    gradients (2 order + 1, 2)."""
    mode = TrefftzMode(order, np.asarray(center, float), scale)
    basis = HomogeneousSolution(mode, np.eye(2 * order + 1), np.empty((0, 2)))
    return bkm._terms(basis, np.empty((0, 2)), np.array([[x1, x2]], float), gradient)[0]


class TestTrefftzTerms:
    def test_first_harmonics(self):
        values = _harmonics_at(2, (0.0, 0.0), 1.0, 0.3, 0.4, gradient=False)
        grads = _harmonics_at(2, (0.0, 0.0), 1.0, 0.3, 0.4, gradient=True)
        # 1, x, y, x^2 - y^2, 2 x y
        assert np.allclose(values, [1.0, 0.3, 0.4, 0.09 - 0.16, 0.24])
        assert np.allclose(grads[1], (1.0, 0.0))
        assert np.allclose(grads[2], (0.0, 1.0))
        assert np.allclose(grads[3], (0.6, -0.8))
        assert np.allclose(grads[4], (0.8, 0.6))

    def test_scale_normalization(self):
        values = _harmonics_at(1, (0.0, 0.0), 2.0, 2.0, 0.0, gradient=False)
        assert np.allclose(values, [1.0, 1.0, 0.0])

    def test_harmonicity_by_finite_differences(self):
        h = 1e-4
        for (x, y) in [(0.2, 0.5), (-0.6, 0.1), (0.4, -0.4)]:
            for idx in range(1, 13):
                term = lambda a, b: _harmonics_at(6, (0.0, 0.0), 1.0, a, b, False)[idx]
                lap = (term(x + h, y) + term(x - h, y) + term(x, y + h)
                       + term(x, y - h) - 4.0 * term(x, y)) / h ** 2
                assert abs(lap) <= 1e-5

    def test_gradients_match_finite_differences(self):
        h = 1e-6
        values = lambda a, b: _harmonics_at(5, (0.1, -0.2), 1.5, a, b, gradient=False)
        x, y = 0.7, 0.3
        fd = np.stack([(values(x + h, y) - values(x - h, y)) / (2 * h),
                       (values(x, y + h) - values(x, y - h)) / (2 * h)], axis=1)
        grads = _harmonics_at(5, (0.1, -0.2), 1.5, x, y, gradient=True)
        assert np.allclose(grads, fd, atol=1e-8)


class TestSolveDense:
    @pytest.mark.parametrize("cutoff", [1.5, 1.0, -1e-12, math.nan, math.inf])
    def test_tsvd_rejects_cutoff_outside_unit_interval(self, cutoff):
        # a cutoff >= 1 used to drop every singular value: u_h == 0, no error
        with pytest.raises(ConfigurationError, match="svd_cutoff"):
            TSVD(cutoff=cutoff)

    def test_tsvd_accepts_cutoff_zero(self):
        assert TSVD(cutoff=0.0).cutoff == 0.0

    def test_identity_system(self):
        system = assemble(Helmholtz(2.0), ONE_KNOT, "dirichlet", [5.0])
        coeffs, diag = solve_dense(system, LU())
        assert np.allclose(coeffs, [5.0])
        assert diag.strategy_used == "lu"
        assert diag.condition_estimate == 1.0
        assert diag.effective_rank == 1

    def test_tsvd_min_norm_on_rank_one(self):
        system = assemble(Helmholtz(2.0), ONE_KNOT, "dirichlet", [5.0])
        system = type(system)(matrix=np.ones((2, 2)), rhs=np.array([2.0, 2.0]),
                              centers=np.tile(system.centers, (2, 1)), mode=system.mode)
        coeffs, diag = solve_dense(system, TSVD())
        assert np.allclose(coeffs, [1.0, 1.0])
        assert diag.effective_rank == 1

    def test_lu_rejects_rectangular(self):
        nodes = boundary_nodes(UNIT_DISC, 9)
        system = assemble(Poisson(), nodes, "dirichlet", np.zeros(9), _trefftz(2))
        with pytest.raises(ConfigurationError, match="TSVD"):
            solve_dense(system, LU())

    def test_lu_singular_matrix(self):
        system = assemble(Helmholtz(2.0), ONE_KNOT, "dirichlet", [5.0])
        system = type(system)(matrix=np.zeros((1, 1)), rhs=np.array([1.0]),
                              centers=system.centers, mode=system.mode)
        with pytest.raises(SingularMatrixError):
            solve_dense(system, LU())

    def test_min_norm_matches_factorization_oracle(self):
        rng = np.random.default_rng(31)
        left = rng.standard_normal((8, 3))
        right = rng.standard_normal((3, 8))
        a = left @ right  # rank 3 by construction
        b = rng.standard_normal(8)
        system = assemble(Helmholtz(2.0), ONE_KNOT, "dirichlet", [0.0])
        system = type(system)(matrix=a, rhs=b, centers=np.tile(system.centers, (8, 1)),
                              mode=system.mode)
        coeffs, diag = solve_dense(system, TSVD(cutoff=1e-10))
        want = min_norm_from_factors(left, right, b)
        assert diag.effective_rank == 3
        assert np.allclose(coeffs, want, atol=1e-10)

    def test_lu_tsvd_agree_when_well_conditioned(self):
        nodes = boundary_nodes(UNIT_DISC, 12)
        system = assemble(Helmholtz(2.0), nodes, "dirichlet", np.sin(2.0 * nodes.points[:, 0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RankDeficientWarning)
            lu_c, lu_d = solve_dense(system, LU())
        sv_c, _ = solve_dense(system, TSVD())
        assert lu_d.condition_estimate <= 1e8
        assert np.allclose(lu_c, sv_c, atol=1e-8 * max(1.0, np.abs(lu_c).max()))

    @staticmethod
    def _disc_system(n):
        problem = get_preset("helmholtz_disc")
        nodes = boundary_nodes(problem.domain, n)
        return assemble(problem.operator, nodes, "dirichlet",
                        problem.exact(nodes.points[:, 0], nodes.points[:, 1]))

    def test_lu_warns_when_rank_deficient(self):
        """helmholtz_disc at N=32: the circulant kernel matrix has eigenvalues
        N * sum_l J_{m+lN}(2)^2, which fall below eps*N relative to the largest
        for |m| >= 11, so only the 21 modes |m| <= 10 survive."""
        system = self._disc_system(32)
        with pytest.warns(RankDeficientWarning, match="N=32.*rank 21"):
            coeffs, diag = solve_dense(system, LU())
        assert diag.effective_rank == 21
        assert np.array_equal(coeffs, np.linalg.solve(system.matrix, system.rhs))

    def test_lu_warns_when_rank_deficient_above_512(self):
        """Condition and rank come from the singular values at every N. At
        N=600 the threshold eps*N still lies below J_10(2)^2/J_1(2)^2, so the
        same 21 modes survive as at N=32."""
        system = self._disc_system(600)
        with pytest.warns(RankDeficientWarning, match="N=600.*rank 21"):
            coeffs, diag = solve_dense(system, LU())
        assert math.isfinite(diag.condition_estimate)
        assert diag.effective_rank == 21
        assert np.array_equal(coeffs, np.linalg.solve(system.matrix, system.rhs))

    @pytest.mark.parametrize("n", [8, 16, 20])
    def test_lu_silent_while_full_rank(self, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RankDeficientWarning)
            _, diag = solve_dense(self._disc_system(n), LU())
        assert diag.effective_rank == n

    @pytest.mark.parametrize("cutoff", [0.0, 1e-17])
    def test_tsvd_warns_when_cutoff_keeps_rounding_noise(self, cutoff):
        """helmholtz_disc at N=48 has 21 singular values above eps*N relative
        to the largest; a cutoff below that floor inverts all 48 of them."""
        with pytest.warns(RankDeficientWarning, match="N=48.*larger svd_cutoff"):
            _, diag = solve_dense(self._disc_system(48), TSVD(cutoff=cutoff))
        assert diag.effective_rank == 48

    def test_tsvd_silent_at_default_cutoff(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RankDeficientWarning)
            solve_dense(self._disc_system(48), TSVD())


CACHE_CASES = {  # (operator, bc_kind, Trefftz basis)
    "helmholtz dirichlet": (Helmholtz(3.0), "dirichlet", None),
    "modhelm neumann": (ModifiedHelmholtz(2.0), "neumann", None),
    "convdiff dirichlet": (ConvectionDiffusion(0.5, [1.0, -0.5], 1.0), "dirichlet", None),
    "poisson neumann": (Poisson(), "neumann", TrefftzMode(6, np.array([0.1, 0.0]), 1.3)),
}


class TestFactorCache:
    """assemble keeps each geometry's matrix and singular values; a repeated
    solve reuses them and must equal a cold solve bit for bit."""

    @pytest.fixture(autouse=True)
    def _cold_cache(self):
        bkm._cached_factor.cache_clear()
        yield
        bkm._cached_factor.cache_clear()

    STAR = StarDomain(Star(1.0, 0.2, 5))

    @classmethod
    def _system(cls, case, data_seed):
        op, kind, trefftz = CACHE_CASES[case]
        data = np.random.default_rng(data_seed).standard_normal(24)
        return assemble(op, boundary_nodes(cls.STAR, 24), kind, data, trefftz)

    @staticmethod
    def _solve(system, strategy):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankDeficientWarning)
            return solve_dense(system, strategy)

    @pytest.mark.parametrize("case, strategy", [
        (case, strategy) for case, (_, _, trefftz) in CACHE_CASES.items()
        for strategy in (LU(), TSVD(), TSVD(cutoff=0.0))
        if trefftz is None or isinstance(strategy, TSVD)], ids=str)  # LU needs a square system
    def test_warm_solve_with_new_data_equals_cold(self, case, strategy):
        cold = self._system(case, 2)
        cold_coeffs, cold_diag = self._solve(cold, strategy)
        cold_matrix = np.array(cold.matrix)
        bkm._cached_factor.cache_clear()
        first = self._system(case, 1)
        self._solve(first, strategy)  # fills the entry
        warm = self._system(case, 2)
        assert warm.matrix is first.matrix
        assert warm.matrix.tobytes() == cold_matrix.tobytes()
        # LU's condition comes from the values-only singular values: their last bits
        # differ from the thin SVD's
        s = (np.linalg.svd(cold_matrix, compute_uv=False) if isinstance(strategy, LU)
             else np.linalg.svd(cold_matrix, full_matrices=False)[1])
        with np.errstate(divide="ignore"):  # Poisson-Neumann's constant term: s[-1] = 0
            assert cold_diag.condition_estimate == float(s[0] / s[-1])
        for system in (warm, dataclasses.replace(first, rhs=warm.rhs)):
            coeffs, diag = self._solve(system, strategy)
            assert coeffs.tobytes() == cold_coeffs.tobytes()
            assert diag == cold_diag

    def test_operators_with_one_coefficient_table_share_an_entry(self):
        knots = boundary_nodes(self.STAR, 16)
        a = assemble(ModifiedHelmholtz(2.0), knots, "dirichlet", np.zeros(16))
        b = assemble(ConvectionDiffusion(1.0, [0.0, 0.0], 4.0), knots, "dirichlet", np.ones(16))
        assert b.factor is a.factor and isinstance(b.mode.op, ConvectionDiffusion)

    @pytest.mark.parametrize("part", ["coefficient", "knots", "bc_kind", "order",
                                      "center", "scale"])
    def test_changing_any_key_part_misses(self, part):
        kernel = dict(op=Helmholtz(3.0), bc_kind="dirichlet", trefftz=None, domain=self.STAR)
        op, bc_kind, trefftz = CACHE_CASES["poisson neumann"]
        harmonic = dict(op=op, bc_kind=bc_kind, trefftz=trefftz, domain=self.STAR)
        base, variant = {
            "coefficient": (kernel, {**kernel, "op": Helmholtz(3.0 + 2.0 ** -40)}),
            "knots": (kernel, {**kernel, "domain": StarDomain(Star(1.0, 0.2, 5),
                                                              center=(0.0, 1e-12))}),
            "bc_kind": (kernel, {**kernel, "bc_kind": "neumann"}),
            "order": (harmonic, {**harmonic, "trefftz": dataclasses.replace(trefftz, order=5)}),
            "center": (harmonic, {**harmonic, "trefftz": dataclasses.replace(
                trefftz, center=np.array([0.1, 1e-12]))}),
            "scale": (harmonic, {**harmonic, "trefftz": dataclasses.replace(
                trefftz, scale=1.3 + 1e-12)}),
        }[part]

        def build(op, bc_kind, trefftz, domain):
            return assemble(op, boundary_nodes(domain, 24), bc_kind, np.ones(24), trefftz)

        want = np.array(build(**variant).matrix)  # a cold build
        bkm._cached_factor.cache_clear()
        first = build(**base)
        got = build(**variant)
        assert got.factor is not first.factor
        assert got.matrix.tobytes() == want.tobytes()
        assert got.matrix.shape != first.matrix.shape or not np.array_equal(got.matrix, first.matrix)

    def test_cached_arrays_are_read_only(self):
        system = self._system("helmholtz dirichlet", 0)
        self._solve(system, LU())
        self._solve(system, TSVD())
        cached = (system.matrix, system.factor.singular_values, *system.factor.svd)
        for array in cached:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    @pytest.mark.parametrize("strategy", [LU(), TSVD()], ids=repr)
    def test_hand_built_and_replaced_matrix_systems_decompose_afresh(self, strategy):
        system = self._system("helmholtz dirichlet", 0)
        want, _ = self._solve(system, strategy)
        # a poisoned entry shows which solves read it
        system.factor.__dict__.update(svd=(np.eye(24), np.ones(24), np.eye(24)),
                                      singular_values=np.ones(24))
        _, diag = self._solve(dataclasses.replace(system, rhs=system.rhs), strategy)
        assert diag.condition_estimate == 1.0
        hand_built = CollocationSystem(matrix=system.matrix, rhs=system.rhs,
                                       centers=system.centers, mode=system.mode)
        replaced = dataclasses.replace(system, matrix=np.array(system.matrix))
        for fresh in (hand_built, replaced):
            coeffs, diag = self._solve(fresh, strategy)
            assert coeffs.tobytes() == want.tobytes() and diag.condition_estimate > 1.0
        doubled, _ = self._solve(dataclasses.replace(system, matrix=2.0 * system.matrix), strategy)
        assert np.allclose(2.0 * doubled, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())

    @pytest.mark.parametrize("strategy", [LU(), TSVD(cutoff=0.0)], ids=repr)
    def test_rank_deficient_warning_on_every_warm_solve(self, strategy):
        problem = get_preset("helmholtz_disc")
        knots = boundary_nodes(problem.domain, 48)
        for seed in range(3):
            data = np.random.default_rng(seed).standard_normal(48)
            system = assemble(problem.operator, knots, "dirichlet", data)
            with pytest.warns(RankDeficientWarning, match="N=48") as record:
                solve_dense(system, strategy)
            assert record[0].filename == __file__
        assert bkm._cached_factor.cache_info().hits == 2

    def test_a_four_geometry_sweep_fits(self):
        problem = get_preset("helmholtz_star")
        for _ in range(3):
            for n in (8, 16, 24, 32):
                knots = boundary_nodes(problem.domain, n)
                self._solve(assemble(problem.operator, knots, "dirichlet", np.ones(n)), TSVD())
        assert bkm._cached_factor.cache_info()[:2] == (8, 4)

    def test_a_failed_assembly_takes_no_slot(self):
        # eight overflowing conv-diff assemblies between two Helmholtz ones of one
        # geometry: the second Helmholtz assembly still finds its matrix
        knots = boundary_nodes(self.STAR, 8)
        first = assemble(Helmholtz(3.0), knots, "dirichlet", np.ones(8))
        for v in range(400, 1101, 100):
            with pytest.raises(KernelOverflowError):
                assemble(ConvectionDiffusion(1.0, [v, 0.0], 1.0), knots, "dirichlet", np.ones(8))
        assert assemble(Helmholtz(3.0), knots, "dirichlet", np.ones(8)).matrix is first.matrix
        assert bkm._cached_factor.cache_info()[:2] == (1, 9)


class TestEvalHomogeneous:
    def test_single_kernel(self):
        op = Helmholtz(2.0)
        sol = HomogeneousSolution(mode=KernelMode(op=op),
                                  coefficients=np.array([3.0]),
                                  centers=ONE_KNOT.points)
        want = 3.0 * kernel_value(op, np.array([-1.0, 0.0]))
        assert abs(eval_homogeneous(sol, (0.0, 0.0)) - want) <= 1e-14

    def test_trefftz_linear_term(self):
        sol = HomogeneousSolution(
            mode=TrefftzMode(order=1, center=np.zeros(2), scale=1.0),
            coefficients=np.array([0.0, 1.0, 0.0]), centers=np.empty((0, 2)))
        assert eval_homogeneous(sol, (0.7, -0.3)) == 0.7
        assert np.allclose(eval_homogeneous_gradient(sol, (0.7, -0.3)),
                           (1.0, 0.0))

    @pytest.mark.parametrize("op", [
        Helmholtz(2.0),
        ModifiedHelmholtz(1.0),
        ConvectionDiffusion(diffusivity=1.0, velocity=(2.0, 0.0), reaction=1.0),
    ])
    def test_boundary_interpolation_exactness(self, op):
        """A square kernel solve must reproduce the Dirichlet data at
        every knot to solver accuracy. N = 12 keeps the condition number
        around 1e9 so LU backward error stays below 1e-10."""
        nodes = boundary_nodes(UNIT_DISC, 12)
        data = np.sin(2.0 * nodes.points[:, 0])
        system = assemble(op, nodes, "dirichlet", data)
        coeffs, _ = solve_dense(system, LU())
        sol = HomogeneousSolution(mode=system.mode, coefficients=coeffs,
                                  centers=system.centers)
        for p, v in zip(nodes.points, data):
            assert abs(eval_homogeneous(sol, p) - v) <= 1e-8

    def test_gradient_matches_finite_differences(self):
        op = ModifiedHelmholtz(1.0)
        nodes = boundary_nodes(StarDomain(Star(1.0, 0.2, 5)), 10)
        rng = np.random.default_rng(7)
        sol = HomogeneousSolution(mode=KernelMode(op=op),
                                  coefficients=rng.standard_normal(10),
                                  centers=nodes.points)
        h = 1e-6
        for p in [(0.2, 0.1), (-0.4, 0.3)]:
            p = np.array(p)
            fd = np.array([
                eval_homogeneous(sol, p + (h, 0)) - eval_homogeneous(sol, p - (h, 0)),
                eval_homogeneous(sol, p + (0, h)) - eval_homogeneous(sol, p - (0, h)),
            ]) / (2.0 * h)
            assert np.allclose(eval_homogeneous_gradient(sol, p), fd, atol=1e-7)

    def test_neumann_rows_use_normal_derivative(self):
        op = ModifiedHelmholtz(1.0)
        nodes = boundary_nodes(UNIT_DISC, 12)
        system = assemble(op, nodes, "neumann", np.ones(12))
        coeffs, _ = solve_dense(system, TSVD())
        sol = HomogeneousSolution(mode=system.mode, coefficients=coeffs,
                                  centers=system.centers)
        for p, normal in zip(nodes.points[:4], nodes.normals[:4]):
            g = eval_homogeneous_gradient(sol, p)
            assert abs(float(normal @ g) - 1.0) <= 1e-8


STAR = StarDomain(Star(1.0, 0.2, 5))
EXPANSION_CASES = {  # (operator, domain, knots); one knot has all its centres at o
    "helmholtz2 star": (Helmholtz(2.0), STAR, 48),
    "helmholtz20 disc": (Helmholtz(20.0), UNIT_DISC, 48),
    "modhelm1 disc": (ModifiedHelmholtz(1.0), UNIT_DISC, 48),
    "modhelm20 disc": (ModifiedHelmholtz(20.0), UNIT_DISC, 48),
    "convdiff1 disc": (ConvectionDiffusion(1.0, (2.0, 0.0), 1.0), UNIT_DISC, 48),
    "convdiff0.2 disc": (ConvectionDiffusion(0.2, (2.0, 0.0), 1.0), UNIT_DISC, 48),
    "poisson star": (Poisson(), STAR, 48),
    "poisson disc order 180": (Poisson(), UNIT_DISC, 361),
    "helmholtz2 one knot": (Helmholtz(2.0), UNIT_DISC, 1),
    "modhelm20 one knot": (ModifiedHelmholtz(20.0), UNIT_DISC, 1),
    "convdiff1 one knot": (ConvectionDiffusion(1.0, (2.0, 0.0), 1.0), UNIT_DISC, 1),
}
TREFFTZ_ORDERS = {"poisson star": 8, "poisson disc order 180": 180}  # past 171! = inf


@pytest.mark.parametrize("case", EXPANSION_CASES)
def test_expansion_matches_the_direct_sum(case):
    """u_h and grad u_h from the expansion against the sum of c_j times each basis term
    (the kernel about each centre, _terms, or oracle_harmonics' numpy powers), point by
    point, within BATCH_TOL of the terms' magnitudes, for seeded random coefficients (a
    solve's smooth data would leave the high orders nearly empty). The points, all in one
    call: interior points, off-knot boundary points, one point at three times the knots'
    radius and, without drift, one at ten times, past the twice-radius the kept orders
    are chosen for.
    With drift the split costs e^{|v| (rho + r) / 2D} in rounding (bkm's docstring), so
    ten radii is out of reach there.
    The direct sum's J0 / J1 carry up to 1e-12 absolute error (criterion 02), about
    BATCH_TOL of the terms at mu r up to 40, so for Helmholtz the bound adds
    1e-12 sum |c_j| (times mu for the gradient).
    Poisson's cases also check its Dirichlet and Neumann collocation matrices, which
    assemble builds with the same evaluator, against the oracle at the knots, column by
    column within BATCH_TOL of the column's largest entry."""
    op, domain, n = EXPANSION_CASES[case]
    knots = boundary_nodes(domain, n) if n > 1 else ONE_KNOT
    mode = TrefftzMode(TREFFTZ_ORDERS[case], domain.center, domain.max_radius()) \
        if isinstance(op, Poisson) else KernelMode(op)
    coeffs = np.random.default_rng(21).standard_normal(
        2 * mode.order + 1 if isinstance(op, Poisson) else n)
    sol = HomogeneousSolution(mode, coeffs, knots.points)
    t = 2.0 * math.pi * (np.arange(4 * n) + 0.5) / (4 * n)
    center = knots.points.mean(axis=0)
    radius = max(np.hypot(*(knots.points - center).T).max(), 1.0)
    far = [3.0] if op.coefficients.drift else [3.0, 10.0]
    pts = np.vstack([interior_eval_points(domain, 4, 50), domain.boundary_point(t)]
                    + [center + f * radius * np.array([math.cos(1.0), math.sin(1.0)]) for f in far])
    if isinstance(mode, TrefftzMode):
        values, grads = oracle_harmonics(mode.order, mode.center, mode.scale, pts)
        values, grads = values * coeffs, grads * coeffs[:, None]
    else:
        values = bkm._terms(mode, knots.points, pts, False) * coeffs
        grads = bkm._terms(mode, knots.points, pts, True) * coeffs[:, None]
    j_error = 1e-12 * np.abs(coeffs).sum() if isinstance(op, Helmholtz) else 0.0
    bound_v = BATCH_TOL * np.abs(values).sum(axis=1) + j_error
    bound_g = BATCH_TOL * np.abs(grads).sum(axis=1).max(axis=1) + j_error * op.coefficients.mu
    assert np.all(np.abs(eval_homogeneous(sol, pts) - values.sum(axis=1)) <= bound_v)
    assert np.all(np.abs(eval_homogeneous_gradient(sol, pts) - grads.sum(axis=1)).max(axis=1)
                  <= bound_g)
    if isinstance(mode, TrefftzMode):  # Poisson's collocation matrices: the same evaluator
        values, grads = oracle_harmonics(mode.order, mode.center, mode.scale, knots.points)
        for kind, want in (("dirichlet", values),
                           ("neumann", np.einsum("pjk,pk->pj", grads, knots.normals))):
            got = assemble(op, knots, kind, np.zeros(n), mode).matrix
            assert np.all(np.abs(got - want) <= BATCH_TOL * np.abs(want).max(axis=0)), kind


def _complex_ladder(phi, b, e):
    """u_h and grad u_h before the drift factor, as the complex sums of b (M + 1, K) that
    the expansion's real maps replace, at phi = Z_m e^{i m theta}, m <= M + 1, (P, M + 2):
    Re sum b_m phi_m and, with the ladder sums a = sum b_m phi_{m-1} (phi_{-1} = sign
    conj(phi_1); m b_m for the harmonics) and c = sign sum b_m phi_{m+1}, mu / 2 (Re(a +
    c), Im(c - a)), less drift u."""
    m = len(b) - 1
    u = (phi[:, :m + 1] @ b).real
    if e.sign:
        a = phi[:, :m] @ b[1:] + e.sign * phi[:, 1:2].conj() * b[:1]
        c = e.sign * (phi[:, 1:] @ b)
    else:
        a, c = phi[:, :m] @ (b[1:] * np.arange(1.0, m + 1)[:, None]), 0.0
    g = 0.5 * e.mu * np.stack([(a + c).real, (c - a).imag], axis=-1)
    return u, g if e.drift is None else g - u[..., None] * e.drift


@pytest.mark.parametrize("case", EXPANSION_CASES)
def test_real_maps_match_the_complex_ladder(case):
    """The expansion's maps, applied to the basis values viewed as floats, against the
    complex sums they replace (_complex_ladder), for seeded complex b with two solutions,
    at one point and at the 200 interior evaluation points, within BATCH_TOL of the terms'
    magnitudes (times the ladder weight, mu and the drift for the gradient)."""
    op, domain, n = EXPANSION_CASES[case]
    knots = boundary_nodes(domain, n) if n > 1 else ONE_KNOT
    mode = TrefftzMode(TREFFTZ_ORDERS[case], domain.center, domain.max_radius()) \
        if isinstance(op, Poisson) else KernelMode(op)
    width = 2 * mode.order + 1 if isinstance(op, Poisson) else n
    e = HomogeneousSolution(mode, np.zeros(width), knots.points).expansion
    rng = np.random.default_rng(23)
    b = rng.standard_normal((e.orders + 1, 2)) + 1j * rng.standard_normal((e.orders + 1, 2))
    maps = dataclasses.replace(e, b=b)
    value_map, gradient_map = maps.values, maps.gradients
    weight = np.arange(1.0, e.orders + 2)[:, None] * max(e.mu, 1.0)
    drift = 0.0 if e.drift is None else float(np.abs(e.drift).max())
    pts = interior_eval_points(domain, 4, 50)
    for x in (pts[:1], pts):
        with np.errstate(over="ignore"):  # as in _evaluate: _orders_table's n! overflows past 170
            phi = bessel_orders(e.mu * (x - e.center).view(complex)[:, 0], e.orders + 1, e.sign)
        want_u, want_g = _complex_ladder(phi, b, e)
        scale = np.abs(phi[:, :-1]) @ np.abs(b)
        floats = phi.view(np.float64)  # the value map stops one order short
        got_u, got_g = floats[:, :len(value_map)] @ value_map, floats @ gradient_map
        assert np.all(np.abs(got_u - want_u) <= BATCH_TOL * scale)
        bound = BATCH_TOL * (np.abs(phi[:, :-1]) @ (np.abs(b) * weight) + drift * scale)
        assert np.all(np.abs(got_g.reshape(want_g.shape) - want_g) <= bound[..., None])



def test_values_build_no_gradient_map():
    """Each real map is built on first use: values alone leave the gradient map unbuilt."""
    knots = boundary_nodes(UNIT_DISC, 16)
    sol = HomogeneousSolution(KernelMode(Helmholtz(2.0)), np.ones(16), knots.points)
    eval_homogeneous(sol, np.array([[0.1, 0.2], [0.3, -0.4]]))
    assert "values" in vars(sol.expansion) and "gradients" not in vars(sol.expansion)
    eval_homogeneous_gradient(sol, np.array([0.1, 0.2]))
    assert "gradients" in vars(sol.expansion)

LINEARITY_OPS = [Helmholtz(2.0), ModifiedHelmholtz(1.0),
                 ConvectionDiffusion(1.0, (2.0, 0.0), 0.0), Poisson()]


@functools.lru_cache(maxsize=None)
def _star_system(which: int):
    """The Dirichlet system of LINEARITY_OPS[which] on the five-lobed star with
    48 knots (zero data), and the star's interior evaluation points."""
    domain = StarDomain(Star(1.0, 0.2, 5))
    trefftz = TrefftzMode(order=12, center=domain.center, scale=domain.max_radius())
    system = assemble(LINEARITY_OPS[which], boundary_nodes(domain, 48), "dirichlet",
                      np.zeros(48), trefftz)
    return system, interior_eval_points(domain, 4, 50)


@pytest.mark.parametrize("which", range(len(LINEARITY_OPS)),
                         ids=[type(op).__name__ for op in LINEARITY_OPS])
@settings(max_examples=10, deadline=None)
@given(st.floats(-1e3, 1e3, allow_subnormal=False), st.floats(-1e3, 1e3, allow_subnormal=False),
       st.integers(0, 2 ** 32 - 1))
def test_field_is_linear_in_the_boundary_data(which, a, b, seed):
    # TSVD's coefficients V S^+ U^T g are linear in g up to the rounding of
    # U^T g, which the division by singular values down to cutoff * s_max
    # amplifies by up to 1 / cutoff: so the bound is eps / cutoff of the
    # data's size. Up to 1.5e-5 of the data's size was measured (conv-diff)
    system, pts = _star_system(which)
    g1, g2 = np.random.default_rng(seed).standard_normal((2, len(system.rhs)))

    def field(g):
        coeffs, _ = solve_dense(dataclasses.replace(system, rhs=g), TSVD())
        return eval_homogeneous(HomogeneousSolution(system.mode, coeffs, system.centers), pts)

    scale = abs(a) * np.abs(g1).max() + abs(b) * np.abs(g2).max()
    error = np.abs(field(a * g1 + b * g2) - (a * field(g1) + b * field(g2))).max()
    assert error <= np.finfo(float).eps / TSVD().cutoff * scale


def _disc_field(op, data, pts):
    """u_h at pts for L u = 0 on the unit disc, u = data at its len(data)
    knots, TSVD (Poisson on the order-12 harmonics about the centre)."""
    system = assemble(op, boundary_nodes(UNIT_DISC, len(data)), "dirichlet", data,
                      TrefftzMode(order=12, center=np.zeros(2), scale=1.0))
    coeffs, _ = solve_dense(system, TSVD())
    return eval_homogeneous(HomogeneousSolution(system.mode, coeffs, system.centers), pts)


ROTATION_CASES = [(op, 48) for op in LINEARITY_OPS] + [(LINEARITY_OPS[2], n) for n in (32, 64)]


@pytest.mark.parametrize("op, n", ROTATION_CASES,
                         ids=[f"{type(op).__name__}-{n}" for op, n in ROTATION_CASES])
def test_shifting_the_data_by_one_knot_rotates_the_field(op, n):
    # knot i of the disc sits at angle 2 pi i / n, so data g_{i-1} at knot i
    # is met by w(x) = u(R^T x), u the field of the data g and R the rotation
    # by 2 pi / n; w solves the operator with velocity R v (grad w = R grad u).
    # Every basis turns with the knots (the harmonics span a rotation-invariant
    # space), so w is the shifted data's field up to rounding, which TSVD
    # amplifies as in the translation test: measured up to 1e-10 / 1.6e-8 /
    # 6.8e-9 / 3.4e-16 relative for Helmholtz / modified Helmholtz / conv-diff
    # / Poisson, hence the bound 1e-6. Conv-diff with the unturned velocity
    # misses by 1e-2
    t = 2.0 * math.pi * np.arange(n) / n
    g = np.exp(np.cos(t) + 0.3 * np.sin(2.0 * t))
    c, s = math.cos(2.0 * math.pi / n), math.sin(2.0 * math.pi / n)
    rot = np.array([[c, -s], [s, c]])
    turned = (dataclasses.replace(op, velocity=rot @ op.velocity)
              if isinstance(op, ConvectionDiffusion) else op)
    pts = interior_eval_points(UNIT_DISC, 4, 50)
    want = _disc_field(op, g, pts @ rot)
    got = _disc_field(turned, np.roll(g, 1), pts)
    assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()
