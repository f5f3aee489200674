import numpy as np
import pytest

from quasirbf.errors import ConfigurationError
from quasirbf.geometry import (Box2, Circle, Ellipse, Star, StarDomain,
                               boundary_nodes, bounding_box,
                               interior_eval_points)

from oracles import fd_tangent, polygon_contains

UNIT_DISC = StarDomain(Circle(1.0))
STAR5 = StarDomain(Star(base=1.0, amplitude=0.2, lobes=5))
ELLIPSE = StarDomain(Ellipse(2.0, 1.0))
ALL_DOMAINS = [UNIT_DISC, STAR5, ELLIPSE,
               StarDomain(Circle(0.7), center=(1.5, -0.3)),
               StarDomain(Star(base=2.0, amplitude=0.5, lobes=3), center=(0.1, 0.2))]


class TestShapeValidation:
    def test_negative_radius_rejected(self):
        with pytest.raises(ConfigurationError):
            Circle(-1.0)

    def test_star_amplitude_bound(self):
        with pytest.raises(ConfigurationError):
            Star(base=1.0, amplitude=1.0, lobes=4)

    def test_box_order(self):
        with pytest.raises(ConfigurationError):
            Box2(np.array([0.0, 0.0]), np.array([1.0, 0.0]))


class TestBoundaryNodes:
    def test_circle_four_nodes(self):
        knots = boundary_nodes(UNIT_DISC, 4)
        expected = [(1, 0), (0, 1), (-1, 0), (0, -1)]
        assert knots.points.shape == knots.normals.shape == (4, 2)
        assert np.allclose(knots.points, expected, atol=1e-14)
        assert np.allclose(knots.normals, expected, atol=1e-14)

    def test_single_node(self):
        knots = boundary_nodes(StarDomain(Circle(2.0)), 1)
        assert len(knots) == 1
        assert np.allclose(knots.points, [(2.0, 0.0)])
        assert np.allclose(knots.normals, [(1.0, 0.0)])
        assert np.array_equal(knots.param, [0.0])

    @pytest.mark.parametrize("domain", ALL_DOMAINS)
    def test_arrays_match_curve(self, domain):
        knots = boundary_nodes(domain, 13)
        assert np.array_equal(knots.param, 2.0 * np.pi * np.arange(13) / 13)
        assert np.array_equal(knots.points, domain.boundary_point(knots.param))
        assert np.array_equal(knots.normals, domain.outward_normal(knots.param))
        # iterating yields the points, so list(knots) can serve as centres
        assert np.array_equal(np.array(list(knots)), knots.points)

    def test_star_node_normal_matches_fd_tangent(self):
        knots = boundary_nodes(STAR5, 8)
        assert np.allclose(knots.points[0], (1.2, 0.0), atol=1e-14)
        for t, normal in zip(knots.param, knots.normals):
            tangent = fd_tangent(STAR5, t)
            tangent /= np.linalg.norm(tangent)
            oracle_normal = np.array([tangent[1], -tangent[0]])
            assert np.allclose(normal, oracle_normal, atol=1e-6)

    @pytest.mark.parametrize("domain", ALL_DOMAINS)
    def test_normals_unit_and_outward(self, domain):
        # the step must exceed the oracle polygon's chord error, which is
        # below 2e-6 of the radius for these shapes at 4096 sides
        eps = 1e-5 * domain.max_radius()
        knots = boundary_nodes(domain, 17)
        assert np.all(np.abs(np.linalg.norm(knots.normals, axis=1) - 1.0) <= 1e-12)
        for p, normal in zip(knots.points, knots.normals):
            assert not polygon_contains(domain, p + eps * normal)
            assert polygon_contains(domain, p - eps * normal)

    def test_zero_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            boundary_nodes(UNIT_DISC, 0)


class TestBoundingBox:
    def test_circle_margin_half(self):
        box = bounding_box(UNIT_DISC, 0.5)
        assert np.allclose(box.min_corner, (-2.0, -2.0), atol=1e-12)
        assert np.allclose(box.max_corner, (2.0, 2.0), atol=1e-12)

    def test_circle_no_margin(self):
        box = bounding_box(UNIT_DISC, 0.0)
        assert np.allclose(box.min_corner, (-1.0, -1.0), atol=1e-12)
        assert np.allclose(box.max_corner, (1.0, 1.0), atol=1e-12)

    def test_ellipse_squared_up(self):
        box = bounding_box(ELLIPSE, 0.25)
        assert np.allclose(box.min_corner, (-3.0, -3.0), atol=1e-12)
        assert np.allclose(box.max_corner, (3.0, 3.0), atol=1e-12)

    @pytest.mark.parametrize("domain", ALL_DOMAINS)
    @pytest.mark.parametrize("margin", [0.0, 0.1, 0.5])
    def test_contains_all_boundary_nodes(self, domain, margin):
        box = bounding_box(domain, margin)
        assert np.all(box.contains(boundary_nodes(domain, 64).points))

    def test_negative_margin_rejected(self):
        with pytest.raises(ConfigurationError):
            bounding_box(UNIT_DISC, -0.1)


class TestInteriorEvalPoints:
    def test_circle_single_ring(self):
        pts = interior_eval_points(UNIT_DISC, rings=1, per_ring=4)
        expected = [(0.5, 0), (0, 0.5), (-0.5, 0), (0, -0.5)]
        for p, want in zip(pts, expected):
            assert np.allclose(p, want, atol=1e-14)

    def test_star_single_point(self):
        (p,) = interior_eval_points(STAR5, rings=1, per_ring=1)
        assert np.allclose(p, (0.6, 0.0), atol=1e-14)
        assert polygon_contains(STAR5, p)

    @pytest.mark.parametrize("domain", ALL_DOMAINS)
    def test_count_and_containment(self, domain):
        pts = interior_eval_points(domain, rings=2, per_ring=3)
        assert len(pts) == 6
        for p in pts:
            assert polygon_contains(domain, p)


def test_determinism_bit_identical():
    for domain in ALL_DOMAINS:
        a = boundary_nodes(domain, 13)
        b = boundary_nodes(domain, 13)
        assert np.array_equal(a.param, b.param)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.normals, b.normals)
        pa = interior_eval_points(domain, 3, 5)
        pb = interior_eval_points(domain, 3, 5)
        assert np.array_equal(np.array(pa), np.array(pb))
        ba = bounding_box(domain, 0.3)
        bb = bounding_box(domain, 0.3)
        assert np.array_equal(ba.min_corner, bb.min_corner)
        assert np.array_equal(ba.max_corner, bb.max_corner)
