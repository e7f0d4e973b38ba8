"""Region primitives: membership, boundary geometry, quadrature."""

import numpy as np
import pytest

from krein_spectra import Disk, Rectangle, Region


class TestMembership:
    def test_disk_is_closed(self):
        region = Region.disk(0.0, 1.0)
        assert region.contains(1.0)
        assert region.contains(0.5j)
        assert not region.contains(1.0 + 1e-12)

    def test_rectangle_half_open_edges(self):
        region = Region.rectangle(0.0, 0.0, 1.0, 1.0)
        assert region.contains(0.0)
        assert region.contains(0.5 + 0.5j)
        assert not region.contains(1.0 + 0.5j)
        assert not region.contains(0.5 + 1.0j)
        assert region.pieces[0].closure_contains(1.0 + 1.0j)

    def test_union_membership(self):
        region = Region.disk(0.0, 0.5).union(Region.disk(3.0, 0.5))
        assert region.contains(0.2) and region.contains(3.2)
        assert not region.contains(1.5)

    def test_empty_region(self):
        region = Region.empty()
        assert not region.contains(0.0)
        assert region.boundary_distance(0.0) == np.inf


class TestGeometry:
    def test_disk_boundary_distance(self):
        disk = Disk(1.0 + 0.0j, 2.0)
        assert disk.boundary_distance(1.0) == pytest.approx(2.0)
        assert disk.boundary_distance(1.0 + 3.0j) == pytest.approx(1.0)

    def test_rectangle_boundary_distance(self):
        rect = Rectangle(0.0, 0.0, 2.0, 1.0)
        assert rect.boundary_distance(1.0 + 0.5j) == pytest.approx(0.5)
        assert rect.boundary_distance(3.0 + 0.5j) == pytest.approx(1.0)

    def test_conjugate_flips_imaginary_part(self):
        region = Region.disk(1.0 + 2.0j, 0.5).union(Region.rectangle(0, 1, 2, 3))
        conj = region.conjugate()
        assert conj.contains(np.conj(1.0 + 2.2j))
        assert conj.contains(np.conj(1.0 + 2.0j))
        assert conj.contains(1.0 - 2.0j)
        assert conj.contains(0.5 - 1.5j)

    def test_covering_count(self):
        region = Region.disk(0.0, 1.0).union(Region.disk(0.5, 1.0))
        assert region.covering_count(0.25) == 2
        assert region.covering_count(-0.75) == 1


class TestQuadrature:
    @pytest.mark.parametrize(
        "piece",
        [Disk(0.3 + 0.1j, 1.2), Rectangle(-1.0, -1.0, 1.5, 1.0)],
    )
    def test_cauchy_integral_counts_enclosed_pole(self, piece):
        pts, wts = piece.quadrature(128)
        pole_in = 0.25 - 0.1j
        integral = np.sum(wts / (pts - pole_in)) / (2j * np.pi)
        assert integral == pytest.approx(1.0, abs=1e-9)
        pole_out = 4.0 + 2.0j
        integral = np.sum(wts / (pts - pole_out)) / (2j * np.pi)
        assert integral == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("nodes", [16, 64, 128, 200])
    def test_disk_pair_reuses_coarse_nodes_bitwise(self, nodes):
        # the doubled rule's even nodes are the coarse rule's, so a nested
        # quadrature evaluates only the new odd nodes
        disk = Disk(-0.7 + 1.3j, 0.37)
        coarse_pts, coarse_wts = disk.quadrature(nodes)
        pts, wts = disk.quadrature(2 * nodes)
        assert pts[::2].tobytes() == coarse_pts.tobytes()
        assert not np.isin(pts[1::2], coarse_pts).any()
        np.testing.assert_allclose(2.0 * wts[::2], coarse_wts, rtol=1e-15, atol=0)

    def test_describe_round_trip_fields(self):
        region = Region.disk(1.0 + 2.0j, 0.5).union(Region.rectangle(0, 0, 1, 1))
        desc = region.describe()
        assert desc[0]["kind"] == "disk"
        assert desc[0]["center"] == [1.0, 2.0]
        assert desc[1]["kind"] == "rect"

    def test_degenerate_rectangle_rejected(self):
        with pytest.raises(ValueError):
            Rectangle(1.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            Disk(0.0, 0.0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Rectangle(-1e308, -1e308, 1e308, 1e308),  # width overflows to inf
            lambda: Rectangle(0.0, 0.0, 1e308, 1.0),
            lambda: Rectangle(-1e301, 0.0, 0.0, 1.0),
            lambda: Disk(1e301 + 0j, 1.0),
            lambda: Disk(0j, 1.7e308),
        ],
    )
    def test_primitives_beyond_coordinate_range_rejected(self, make):
        with pytest.raises(ValueError, match="1e\\+300"):
            make()

    def test_widest_rectangle_keeps_finite_geometry(self):
        # |b - a|^2 of an edge would overflow; the boundary distance avoids it
        rect = Rectangle(-1e300, -1e300, 1e300, 1e300)
        assert rect.boundary_distance(0j) == 1e300
        points, weights = rect.quadrature(128)
        assert np.isfinite(points).all() and np.isfinite(weights).all()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_primitives_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Disk(complex(bad, 0.0), 1.0)
        with pytest.raises(ValueError, match="finite"):
            Disk(0.0, bad)
        for k in range(4):
            bounds = [0.0, 0.0, 1.0, 1.0]
            bounds[k] = bad
            with pytest.raises(ValueError, match="finite"):
                Rectangle(*bounds)
