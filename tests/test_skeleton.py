"""The tube skeleton against the sparse tube formula, entry for entry."""

from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from magtube import asymptotics as asym, geometry as geo, grids, hardy
from magtube import operators as ops
from magtube.assemble import RegimeParams
from magtube.config import ExperimentConfig

import reference

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def assert_same(got, want):
    """Equal canonical CSR: indptr, indices, data and dtype."""
    got, want = (sp.csr_matrix(m, copy=True) for m in (got, want))
    for m in (got, want):
        m.sum_duplicates()
    assert got.dtype == want.dtype
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


def load(name):
    cfg = ExperimentConfig.load(str(CONFIGS / f"{name}.ini"))
    curve = cfg.build_curve()
    return (cfg, cfg.build_section(), curve, cfg.build_field(),
            geo.integrate_frame(curve))


def test_nrc2d_sweep_matrices():
    cfg, sec, curve, field, frame = load("nrc2d")
    skeleton = ops.TubeSkeleton(curve, sec, frame, field)
    for delta in cfg.get_floats("regime", "delta"):
        for eps in cfg.get_floats("regime", "eps"):
            tube = geo.TubeSpec(curve, sec, RegimeParams(eps=eps, delta=delta))
            assert_same(ops.assemble_full(tube, field, skeleton=skeleton).matrix,
                        reference.full_matrix(tube, field, frame))


def test_asymptotics2d_matrices_and_contour_points():
    cfg, sec, curve, field, frame = load("asymptotics2d")
    skeleton = ops.TubeSkeleton(curve, sec, frame, field)
    for eps in cfg.get_floats("regime", "eps"):
        tube = geo.TubeSpec(curve, sec, RegimeParams(eps=eps, delta=1.0))
        assert_same(ops.assemble_full(tube, field, skeleton=skeleton).matrix,
                    reference.full_matrix(tube, field, frame))
    # complex eps on the Cauchy contour (b = 1/eps): the analytic
    # continuation of every entry
    for k in (1, 5, 11):
        eps = 0.1 * np.exp(2j * np.pi * k / asym.CONTOUR_POINTS)
        regime = RegimeParams(eps=eps, delta=1.0)
        assert_same(skeleton.matrix(eps, regime.b),
                    reference.tube_matrix(geo.TubeSpec(curve, sec, regime),
                                          skeleton.lat, frame, field))


def test_asymptotics2d_series_terms():
    cfg, sec, curve, field, frame = load("asymptotics2d")
    tube = geo.TubeSpec(curve, sec, RegimeParams(eps=0.1, delta=1.0))
    j_max = cfg.get_int("solver", "j") + 2
    series = asym.expand_operator_2d(tube, field, j_max=j_max, frame=frame)
    radius = asym.CONTOUR_RADIUS / max(1.0, curve.sup_kappa() * tube.sup_tau())
    want = reference.series_terms(tube, field, frame, j_max, radius,
                                  asym.CONTOUR_POINTS)
    assert len(series.terms) == len(want)
    for got, term in zip(series.terms, want):
        if term is None:
            assert got is None
        else:
            assert_same(got, term)


def test_stability2d_large_b_matrices():
    cfg, sec, curve, field, frame = load("stability2d")
    skeleton = ops.TubeSkeleton(curve, sec, frame, field)
    for b in cfg.get_floats("regime", "b"):
        tube = geo.TubeSpec(curve, sec, RegimeParams(eps=1.0, delta=0.0, b=b))
        assert_same(ops.assemble_full(tube, field, shifted=False,
                                        skeleton=skeleton).matrix,
                    reference.full_matrix(tube, field, frame, shifted=False))


def curl_field():
    return geo.CurlPotentialField3D((
        (0, geo.TensorBump3((0.5, 0.0, 0.0), (2.5, 2.0, 2.0)), 0.8),
        (2, geo.TensorBump3((0.0, 0.2, -0.1), (3.0, 3.0, 3.0)), 1.0),
    ))


@pytest.mark.parametrize("twisted", [True, False])
def test_spatial_tube_with_field_and_gauge(twisted):
    twist = geo.Profile.single(0.2, 2.0, 0.5) if twisted else geo.Profile()
    curve = geo.CurveProfile(dim=3, S=8.0, ds=0.1,
                             kappa2=geo.Profile.single(0.0, 2.0, 0.5),
                             theta_prime=twist)
    sec = grids.square(1.0, 1 / 5)
    frame = geo.integrate_frame(curve)
    field = curl_field()
    skeleton = ops.TubeSkeleton(curve, sec, frame, field)

    def chi(s):
        return 0.7 * np.sin(0.6 * s) + 0.2 * s

    for eps in (0.1, 0.05):
        tube = geo.TubeSpec(curve, sec, RegimeParams(eps=eps, delta=1.0))
        for gauge in (None, chi):
            assert_same(ops.assemble_full(tube, field, gauge_chi=gauge,
                                          skeleton=skeleton).matrix,
                        reference.full_matrix(tube, field, frame,
                                              gauge_chi=gauge))


@pytest.mark.parametrize("neumann_ends", [True, False])
def test_hardy_segment_matrix(neumann_ends):
    section = grids.interval(1.0, 0.05)
    field = geo.AmbientField2D((((0.0, 0.0), 6.0, 1.0),))
    R, ds = 2.0, 0.05
    s_nodes = -R + ds * np.arange(int(round(2 * R / ds)) + 1)
    if not neumann_ends:
        s_nodes = s_nodes[1:-1]
    got = hardy._straight_tube_matrix(section, field, 1.0, s_nodes,
                                      neumann_ends)
    lat = ops.TubeLattice(s_nodes, section, neumann_ends)
    mean = (s_nodes[-1] - s_nodes[0]) / (len(s_nodes) - 1)
    S = float(max(abs(s_nodes[0]), abs(s_nodes[-1]))) + mean
    curve = geo.CurveProfile(dim=2, S=S, ds=mean)
    tube = geo.TubeSpec(curve, section, RegimeParams(eps=1.0, delta=0.0, b=1.0))
    assert_same(got, reference.tube_matrix(tube, lat, geo.integrate_frame(curve),
                                           field))


def test_assemble_full_refuses_a_skeleton_of_another_tube():
    _, sec, curve, field, frame = load("nrc2d")
    skeleton = ops.TubeSkeleton(curve, sec, frame, field)
    tube = geo.TubeSpec(curve, sec, RegimeParams(eps=0.1, delta=1.0))
    other_curve = geo.CurveProfile(dim=2, S=curve.S, ds=curve.ds,
                                   kappa=curve.kappa)
    other_field = geo.FrameAlignedField2D(geo.Profile.single(0.5, 1.5, 0.6))
    for args, kwargs in (
            ((geo.TubeSpec(other_curve, sec, tube.regime), field), {}),
            ((geo.TubeSpec(curve, grids.interval(1.0, 0.025), tube.regime),
              field), {}),
            ((tube, other_field), {}),
            ((tube, None), {}),
            ((tube, field), {"frame": geo.integrate_frame(curve)})):
        with pytest.raises(ValueError, match="another tube"):
            ops.assemble_full(*args, skeleton=skeleton, **kwargs)
    ops.assemble_full(tube, field, frame, skeleton=skeleton)
