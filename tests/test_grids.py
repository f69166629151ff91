import numpy as np
import pytest

from magtube import grids
from magtube.errors import DomainEmpty, DomainNotConnected


def test_interval_layout():
    d = grids.interval(1.0, 1 / 10)
    assert d.n == 19
    x = d.node_coords()
    assert np.isclose(x[0], -0.9) and np.isclose(x[-1], 0.9)
    u = np.ones(d.n)
    assert np.isclose(d.inner(u, u), 19 * 0.1)


def test_rectangle_and_disk_masks():
    sq = grids.square(1.0, 1 / 8)
    assert sq.n == 15 * 15
    dk = grids.disk(1.0, 1 / 8)
    coords = dk.node_coords()
    assert (np.hypot(coords[:, 0], coords[:, 1]) < 1).all()
    # D4 symmetry of the staircase mask
    assert np.array_equal(dk.mask, dk.mask[::-1, :])
    assert np.array_equal(dk.mask, dk.mask.T)


def test_empty_and_disconnected_rejected():
    with pytest.raises(DomainEmpty):
        grids.GridDomain(1, 0.1, (0.0,), np.zeros(5, dtype=bool), "interval")
    mask = np.zeros((7, 7), dtype=bool)
    mask[1:3, 1:3] = True
    mask[4:6, 4:6] = True
    with pytest.raises(DomainNotConnected):
        grids.GridDomain(2, 0.1, (0.0, 0.0), mask, "polygon-mask")


def test_holes_rejected():
    mask = np.zeros((9, 9), dtype=bool)
    mask[1:8, 1:8] = True
    mask[4, 4] = False  # puncture
    with pytest.raises(DomainNotConnected):
        grids.GridDomain(2, 0.1, (0.0, 0.0), mask, "polygon-mask")


def test_border_touch_rejected():
    mask = np.ones(6, dtype=bool)
    with pytest.raises(DomainNotConnected):
        grids.GridDomain(1, 0.1, (0.0,), mask, "interval")


def test_polygon_roundtrip(tmp_path):
    mask = np.zeros((8, 10), dtype=bool)
    mask[2:6, 3:8] = True
    dom = grids.GridDomain(2, 0.05, (-0.2, -0.25), mask, "polygon-mask")
    path = tmp_path / "poly.txt"
    grids.write_polygon_file(path, dom)
    back = grids.from_polygon_file(path)
    assert back.n == dom.n
    assert np.array_equal(back.mask, dom.mask)
    assert back.h == dom.h
    assert np.allclose(back.lo, dom.lo)


def test_links_cover_dirichlet_ring():
    d = grids.interval(1.0, 0.25)
    idx_l, idx_r, mids = d.links(0)
    # 7 interior nodes -> 8 links including the two Dirichlet ends
    assert len(idx_l) == 8
    assert (idx_l == -1).sum() == 1 and (idx_r == -1).sum() == 1
    assert np.isclose(mids[0], -0.875)


def test_quadrature_weights_tensor_grid():
    sq = grids.square(1.0, 0.25)
    w = sq.quadrature_weights()
    # integrates x^2 y^2 on [-1,1]^2 to trapezoid accuracy
    X, Y = np.meshgrid(*sq.axes, indexing="ij")
    val = np.sum(w * X**2 * Y**2)
    exact = 4.0 / 9.0
    assert abs(val - exact) < 0.05
    # interior weight h^2, edge half, corner quarter
    assert np.isclose(w[4, 4], 0.25**2)
    assert np.isclose(w[0, 4], 0.25**2 / 2)
    assert np.isclose(w[0, 0], 0.25**2 / 4)


def test_gradient_axis_exact_for_quadratics():
    sq = grids.square(1.0, 0.125)
    X, Y = np.meshgrid(*sq.axes, indexing="ij")
    u = (X**2 - 0.3 * X) * np.ones_like(Y)
    g = sq.gradient_axis(u, 0)
    inside = sq.mask
    assert np.allclose(g[inside], (2 * X - 0.3)[inside], atol=1e-12)


def test_polygon_masks_of_one_box_do_not_share_a_key():
    from magtube import operators as ops

    def polygon(ncols):
        mask = np.zeros((12, 12), dtype=bool)
        mask[1:11, 1:1 + ncols] = True
        return grids.GridDomain(2, 0.1, (-0.55, -0.55), mask, "polygon-mask",
                                (12.0, 12.0))

    full, half = polygon(10), polygon(5)
    assert full.descriptor() != half.descriptor()
    lam_full, J_full = ops.transverse_ground(full)
    lam_half, J_half = ops.transverse_ground(half)
    assert (len(J_full), len(J_half)) == (100, 50)
    assert lam_half > lam_full + 10.0
