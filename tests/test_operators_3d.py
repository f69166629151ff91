"""Spatial tube operators: twist, magnetic field, effective models."""

import numpy as np
import pytest
import scipy.sparse as sp

from magtube import geometry as geo, grids, operators as ops
from magtube.assemble import RegimeParams
from magtube.errors import GridBudgetError

from reference import dirichlet_second_difference

pytestmark = pytest.mark.slow


def make_tube(curve, sec, eps, delta=1.0, b=None):
    return geo.TubeSpec(curve, sec, RegimeParams(eps=eps, delta=delta, b=b))


@pytest.fixture(scope="module")
def square_sec():
    return grids.square(1.0, 1 / 10)


@pytest.fixture(scope="module")
def field3d():
    bump = geo.TensorBump3((0.0, 0.2, -0.1), (3.0, 3.0, 3.0))
    bump2 = geo.TensorBump3((0.5, 0.0, 0.0), (2.5, 2.0, 2.0))
    return geo.CurlPotentialField3D(((0, bump2, 0.8), (2, bump, 1.0)))


@pytest.fixture(scope="module")
def bent3d():
    curve = geo.CurveProfile(dim=3, S=8.0, ds=0.1,
                             kappa2=geo.Profile.single(0.0, 2.0, 0.5),
                             theta_prime=geo.Profile.single(0.2, 2.0, 0.6))
    return curve, geo.integrate_frame(curve)


def test_straight_separable(square_sec):
    curve = geo.CurveProfile(dim=3, S=8.0, ds=0.1)
    frame = geo.integrate_frame(curve)
    eps = 0.1
    op = ops.assemble_full(make_tube(curve, square_sec, eps), None, frame,
                           shifted=False)
    lam1h, _ = ops.transverse_ground(square_sec)
    spec = ops.smallest_eigenpairs(op, k=1, sigma=0.99 * lam1h / eps**2)
    expect = lam1h / eps**2 + (np.pi / (2 * curve.S)) ** 2
    assert abs(spec.eigenvalues[0] - expect) / expect < 1e-6


def test_twist_is_repulsive(square_sec):
    eps = 0.1
    lam1h, _ = ops.transverse_ground(square_sec)
    lam = {}
    for amp in (0.0, 1.0):
        curve = geo.CurveProfile(
            dim=3, S=8.0, ds=0.1,
            theta_prime=geo.Profile.single(0.0, 2.0, amp))
        frame = geo.integrate_frame(curve)
        op = ops.assemble_full(make_tube(curve, square_sec, eps, delta=0.5),
                               None, frame, shifted=False)
        spec = ops.smallest_eigenpairs(op, k=1, sigma=0.99 * lam1h / eps**2)
        lam[amp] = spec.eigenvalues[0]
    assert lam[1.0] > lam[0.0] + 1e-3


def test_disk_pure_twist_inert():
    # a pure torsion has no effect when the cross section is a disk; on the
    # staircase mask the residual shift is the O(h) symmetry-breaking noise
    dsk = grids.disk(1.0, 1 / 8)
    eps = 0.1
    lam1h, _ = ops.transverse_ground(dsk)
    lam = {}
    for amp in (0.0, 1.0):
        curve = geo.CurveProfile(
            dim=3, S=8.0, ds=0.1,
            theta_prime=geo.Profile.single(0.0, 2.0, amp))
        frame = geo.integrate_frame(curve)
        op = ops.assemble_full(make_tube(curve, dsk, eps, delta=0.5),
                               None, frame, shifted=False)
        spec = ops.smallest_eigenpairs(op, k=1, sigma=0.99 * lam1h / eps**2)
        lam[amp] = spec.eigenvalues[0]
    assert abs(lam[1.0] - lam[0.0]) < 5e-3


def test_full3d_hermitian_with_field_and_twist(square_sec, field3d, bent3d):
    curve, frame = bent3d
    op = ops.assemble_full(make_tube(curve, square_sec, 0.1), field3d,
                           frame)
    assert op.is_complex
    assert op.hermiticity_defect() <= 1e-12


@pytest.mark.parametrize("eps", [0.3, 0.1])
def test_one_row_spatial_tube_is_the_planar_tube(eps):
    # one section row at tau3 = 0 and curvature in kappa2 only: the spatial
    # operator is the planar one plus the row's Dirichlet term 2 eps^-2 / h^2
    h = 1 / 20
    kappa = geo.Profile.single(0.0, 2.0, 1.2)
    planar = geo.TubeSpec(geo.CurveProfile(dim=2, S=8.0, ds=0.1, kappa=kappa),
                          grids.interval(1.0, h), RegimeParams(eps=eps))
    spatial = geo.TubeSpec(geo.CurveProfile(dim=3, S=8.0, ds=0.1,
                                            kappa2=kappa),
                           grids.rectangle(1.0, h, h), RegimeParams(eps=eps))
    for shifted in (False, True):
        A2 = ops.assemble_full(planar, None, shifted=shifted).matrix
        A3 = ops.assemble_full(spatial, None, shifted=shifted).matrix
        if not shifted:
            A3 = A3 - 2 * eps**-2 / h**2 * sp.eye(A3.shape[0])
        assert A3.shape == A2.shape
        assert abs(A3 - A2).max() <= 1e-13 * abs(A2).max()


def test_budget_guard(square_sec, monkeypatch):
    curve = geo.CurveProfile(dim=3, S=8.0, ds=0.1)
    frame = geo.integrate_frame(curve)
    monkeypatch.setattr(ops, "GRID_BUDGET_3D", 100)
    with pytest.raises(GridBudgetError, match="exceed the 3D budget 100"):
        ops.assemble_full(make_tube(curve, square_sec, 0.1), None, frame)


def test_benchmark_names_are_the_one_builder():
    # the benchmark calls the builders by their old planar and spatial names
    assert ops.assemble_full_2d is ops.assemble_full_3d is ops.assemble_full
    assert (ops.assemble_effective_2d is ops.assemble_effective_3d
            is ops.assemble_effective)


def test_effective3d_takes_only_the_measured_coefficient(square_sec, bent3d):
    # the printed 1/3 + 2/pi^2 is the planar T^[2]'s; a spatial tube silently
    # ran the measured T^[3] under a "printed" label
    curve, frame = bent3d
    tube = make_tube(curve, square_sec, 0.1)
    for source in ("printed", "measurd"):
        with pytest.raises(ValueError, match="printed"):
            ops.assemble_effective(tube, None, frame=frame,
                                   coefficient_source=source)


def test_effective3d_reduces_to_curvature_twist_model(square_sec, bent3d):
    from magtube.xsection import compute_constants

    curve, frame = bent3d
    tube = make_tube(curve, square_sec, 0.1, delta=0.5)
    eff = ops.assemble_effective(tube, None, frame=frame)
    ax = ops.axis_grid(curve)
    c = compute_constants(square_sec)
    import scipy.sparse as sp

    pot = (-0.25 * curve.kappa_mag(ax.nodes) ** 2
           + c.p * curve.theta_prime(ax.nodes) ** 2)
    kinetic = dirichlet_second_difference(ax.ns, ax.ds)
    ref = kinetic + sp.diags(pot) + eff.meta["K"] * sp.eye(ax.ns)
    assert abs(eff.matrix - ref).max() < 1e-12
    # theta' = 0 and B = 0: exactly the curvature model
    straight_tw = geo.CurveProfile(dim=3, S=8.0, ds=0.1,
                                   kappa2=curve.kappa2)
    f2 = geo.integrate_frame(straight_tw)
    eff2 = ops.assemble_effective(make_tube(straight_tw, square_sec, 0.1,
                                               delta=0.5), None, frame=f2)
    ref2 = kinetic + sp.diags(
        -0.25 * straight_tw.kappa_mag(ax.nodes) ** 2) \
        + eff2.meta["K"] * sp.eye(ax.ns)
    assert abs(eff2.matrix - ref2).max() < 1e-12


def test_effective3d_disk_axis_field_potential():
    # disk + axis-aligned field: potential term B23^2 ||tau J1||^2 / 4
    # (kappa_mag correction vanishes for disks)
    from magtube.xsection import compute_constants

    dsk = grids.disk(1.0, 1 / 8)
    c = compute_constants(dsk)  # radial backend: kappa_mag = 0
    assert c.kappa_mag == 0.0
    curve = geo.CurveProfile(dim=3, S=8.0, ds=0.1)
    frame = geo.integrate_frame(curve)
    bump = geo.TensorBump3((0.0, 1.5, 0.0), (3.0, 2.2, 3.0))
    field = geo.CurlPotentialField3D(((2, bump, 1.0),))  # B mostly along e1
    tube = make_tube(curve, dsk, 0.1, delta=1.0)
    eff = ops.assemble_effective(tube, field, frame=frame)
    ax = ops.axis_grid(curve)
    pulled = geo.pullback_field(field, frame, tube)
    B23, B13, B12, _ = pulled.on_axis(ax.nodes)
    kinetic = dirichlet_second_difference(ax.ns, ax.ds)
    diag_pot = (eff.matrix.diagonal() - kinetic.diagonal()
                - eff.meta["K"])
    expect = (B23**2 * c.moment2 / 4
              + B12**2 * c.second_moments[0] + B13**2 * c.second_moments[2])
    assert np.abs(diag_pot - expect).max() < 1e-10


def test_dual_path_effective3d_agreement(square_sec, field3d, bent3d):
    curve, frame = bent3d
    mus = {}
    for h in (1 / 8, 1 / 16):
        sec = grids.square(1.0, h)
        tube = make_tube(curve, sec, 0.1)
        eg = ops.assemble_effective(tube, field3d, frame=frame,
                                    mode="galerkin")
        ec = ops.assemble_effective(tube, field3d, frame=frame,
                                    mode="coefficient")
        sg = ops.smallest_eigenpairs(eg, k=1, sigma=0.0)
        sc = ops.smallest_eigenpairs(ec, k=1, sigma=0.0)
        mus[h] = abs(sg.eigenvalues[0] - sc.eigenvalues[0])
    assert mus[1 / 8] < 1e-2          # agreement at desk resolution
    assert mus[1 / 16] < mus[1 / 8]   # shrinking with refinement


def test_full3d_vs_effective_eigenvalue(square_sec, field3d, bent3d):
    curve, frame = bent3d
    tube = make_tube(curve, square_sec, 0.1)
    op = ops.assemble_full(tube, field3d, frame)
    spec = ops.smallest_eigenpairs(op, k=1, sigma=0.0)
    eff = ops.assemble_effective(tube, field3d, frame=frame,
                                 mode="galerkin")
    se = ops.smallest_eigenpairs(eff, k=1, sigma=0.0)
    mu_full = spec.eigenvalues[0] - op.meta["K"]
    mu_eff = se.eigenvalues[0] - eff.meta["K"]
    assert abs(mu_full - mu_eff) < 0.05  # O(eps) model agreement
