"""Cross-section solver and constants against closed-form / dense oracles."""

import numpy as np
import pytest
import scipy.sparse as sp

from magtube import grids, xsection as xs
from magtube.errors import FredholmViolation, NotApplicable
from magtube.fitting import fit_order

from reference import richardson

PI24 = np.pi**2 / 4

# first zero of the Bessel J0 series, squared; bisection oracle lives in
# test_acceptance (frozen value cross-checked there)
J01_SQ = 5.783185962946785


def exact_interval_moment():
    # high-order quadrature of tau^2 cos^2(pi tau / 2), closed-form J1
    t = np.linspace(-1, 1, 20001)
    f = t**2 * np.cos(np.pi * t / 2) ** 2
    from scipy.integrate import simpson

    return simpson(f, x=t)


def test_interval_lam1():
    d = grids.interval(1.0, 1 / 100)
    modes = xs.lowest_modes(xs.assemble_dirichlet_laplacian(d), 2)
    assert abs(modes.lam1 - PI24) / PI24 < 1e-3
    assert abs(modes.eigenvalues[1] - np.pi**2) / np.pi**2 < 1e-3


def test_square_lam1_and_degenerate_pair():
    d = grids.square(1.0, 1 / 60)
    modes = xs.lowest_modes(xs.assemble_dirichlet_laplacian(d), 3)
    assert abs(modes.lam1 - np.pi**2 / 2) / (np.pi**2 / 2) < 1e-2
    lam2, lam3 = modes.eigenvalues[1], modes.eigenvalues[2]
    assert abs(lam2 - lam3) / abs(lam2) < 1e-6


def test_disk_lam1_masked():
    d = grids.disk(1.0, 1 / 80)
    modes = xs.lowest_modes(xs.assemble_dirichlet_laplacian(d), 1)
    assert abs(modes.lam1 - J01_SQ) / J01_SQ < 1e-2


def test_disk_ground_state_azimuthal_variance():
    d = grids.disk(1.0, 1 / 64)
    modes = xs.lowest_modes(xs.assemble_dirichlet_laplacian(d), 1)
    v = d.embed(modes.J1)
    n = d.mask.shape[0]
    i = np.arange(n) - (n - 1) // 2
    I, J = np.meshgrid(i, i, indexing="ij")
    r2 = (I**2 + J**2)[d.mask]  # exact integer radii classes
    vals = v[d.mask]
    var = 0.0
    for cls in np.unique(r2):
        sel = r2 == cls
        if sel.sum() > 1:
            var += np.sum((vals[sel] - vals[sel].mean()) ** 2) * d.h**2
    assert var <= 1e-6


def test_mode_normalization_and_residuals():
    d = grids.square(1.0, 1 / 24)
    modes = xs.lowest_modes(xs.assemble_dirichlet_laplacian(d), 2)
    for j in range(2):
        v = modes.eigenvectors[:, j]
        assert abs(d.norm(v) - 1.0) < 1e-10
        assert modes.residuals[j] <= 1e-8 * abs(modes.eigenvalues[j])
    assert modes.J1.min() > 0  # ground-state positivity after sign fixing


def test_angular_derivative_antisymmetry(rng):
    d = grids.disk(1.0, 1 / 24)
    Da = xs.angular_derivative(d).matrix
    assert abs(Da + Da.T).max() == 0.0
    for _ in range(4):
        u = rng.standard_normal(d.n)
        v = rng.standard_normal(d.n)
        assert abs(d.inner(Da @ u, v) + d.inner(u, Da @ v)) < 1e-8


def test_angular_derivative_1d_not_applicable():
    with pytest.raises(NotApplicable):
        xs.angular_derivative(grids.interval(1.0, 0.1))


def test_square_p_matches_quadrature_oracle():
    # closed-form ground mode cos(pi x/2) cos(pi y/2): dense quadrature of
    # |y dx J1 - x dy J1|^2
    t = np.linspace(-1, 1, 2001)
    X, Y = np.meshgrid(t, t, indexing="ij")
    J1 = np.cos(np.pi * X / 2) * np.cos(np.pi * Y / 2)
    dJx = -np.pi / 2 * np.sin(np.pi * X / 2) * np.cos(np.pi * Y / 2)
    dJy = -np.pi / 2 * np.cos(np.pi * X / 2) * np.sin(np.pi * Y / 2)
    da = Y * dJx - X * dJy
    from scipy.integrate import simpson

    p_oracle = simpson(simpson(da**2, x=t, axis=1), x=t)
    c = xs.compute_constants(grids.square(1.0, 1 / 60))
    assert p_oracle > 0
    assert abs(c.p - p_oracle) / p_oracle < 5e-3


def test_r_omega_disk_and_positivity():
    d = grids.disk(1.0, 1 / 64)
    c = xs.compute_constants(d, method="mask")
    assert c.kappa_mag >= 0
    assert c.kappa_mag <= 1e-6  # disk: <D_alpha R, J1> = 0
    # orthogonality of the deflated solve
    assert abs(d.inner(c.rho, c.J1)) < 1e-10


def test_r_omega_fredholm_guard():
    d = grids.square(1.0, 1 / 16)
    modes = xs.lowest_modes(xs.assemble_dirichlet_laplacian(d), 1)
    bad_rhs = modes.J1.copy()  # maximally non-orthogonal right-hand side
    with pytest.raises(FredholmViolation):
        xs.solve_r_omega(d, modes, rhs=bad_rhs)


def test_deflated_solver_complex_block():
    # the bordered solve of the quasimode: a complex block right-hand side,
    # part of it along the border column, at the singular shift lam1
    d = grids.square(1.0, 1 / 12)
    op = xs.assemble_dirichlet_laplacian(d)
    modes = xs.lowest_modes(op, 1)
    shifted = op.matrix - modes.lam1 * sp.eye(d.n)
    col, row = modes.J1, d.h**2 * modes.J1
    rng = np.random.default_rng(3)
    b = rng.standard_normal((d.n, 4)) + 1j * rng.standard_normal((d.n, 4))
    x, m = xs.deflated_solver(shifted, col, row)(b)
    assert x.shape == b.shape and m.shape == (4,)
    assert np.abs(row @ x).max() < 1e-12 * np.abs(x).max()
    assert np.abs(shifted @ x + np.outer(col, m) - b).max() < 1e-10
    # m takes up the component of b along J1
    assert np.allclose(m, row @ b / (row @ col), rtol=0, atol=1e-10)
    # a column solved alone gives the column of the block
    x0, m0 = xs.deflated_solver(shifted, col, row)(b[:, 0])
    assert np.allclose(x0, x[:, 0], rtol=0, atol=1e-12) and np.isclose(m0, m[0])


def test_kappa_mag_dense_pseudoinverse_oracle():
    d = grids.square(1.0, 1 / 12)
    c = xs.compute_constants(d, method="mask")
    A = xs.assemble_dirichlet_laplacian(d).matrix.toarray()
    vals, vecs = np.linalg.eigh(A)
    rhs = xs.angular_derivative(d).matrix @ c.J1
    coef = vecs.T @ rhs
    coef[0] = 0.0
    rho_dense = vecs @ (coef / np.where(vals - vals[0] == 0, 1, vals - vals[0]))
    kmag_dense = d.inner(rho_dense, rhs)
    assert abs(kmag_dense - c.kappa_mag) < 1e-8


def test_kappa_mag_two_routes_agree():
    d = grids.square(1.0, 1 / 20)
    c = xs.compute_constants(d, method="mask")
    A = xs.assemble_dirichlet_laplacian(d).matrix
    route2 = d.inner(c.rho, (A @ c.rho) - c.lam1 * c.rho)
    assert abs(route2 - c.kappa_mag) <= 1e-8 * max(1.0, abs(c.kappa_mag))


def test_interval_constants():
    d = grids.interval(1.0, 1 / 200)
    c = xs.compute_constants(d)
    target = 1 / 3 - 2 / np.pi**2
    assert abs(c.moment2 - target) < 1e-5
    assert abs(c.moment2 - exact_interval_moment()) < 1e-5
    assert c.p == 0.0 and c.kappa_mag == 0.0
    assert abs(c.m2) < 1e-10
    # the printed coefficient discrepancy is surfaced in metadata
    assert "effective_coefficient_printed" in c.meta
    printed = c.meta["effective_coefficient_printed"]
    assert abs(printed - (1 / 3 + 2 / np.pi**2)) < 1e-15
    assert c.meta["effective_coefficient_discrepancy"] > 0.2


def test_compute_constants_rejects_an_unknown_method():
    # "maks" returned mask constants and memoized them under "...|maks"
    d = grids.square(1.0, 1 / 8)
    for method in ("maks", "radial"):
        with pytest.raises(ValueError, match=repr(method)):
            xs.compute_constants(d, method=method)
    assert not any(key.endswith(("|maks", "|radial")) for key in xs._MEMO
                   if key.startswith(d.descriptor()))


def test_disk_constants_radial_backend():
    d = grids.disk(1.0, 1 / 40)
    c = xs.compute_constants(d)
    assert c.backend == "radial"
    assert c.p == 0.0 and c.kappa_mag == 0.0
    assert abs(c.M_omega - c.moment2 / 4) < 1e-15
    assert abs(c.lam1 - J01_SQ) / J01_SQ < 1e-3
    assert abs(c.lam2 - 14.68197064) < 2e-2  # first nonradial Bessel mode


def test_square_first_moments_vanish():
    c = xs.compute_constants(grids.square(1.0, 1 / 30))
    assert abs(c.m2) < 1e-8 and abs(c.m3) < 1e-8


def test_grid_convergence_slope():
    hs = [1 / 16, 1 / 32, 1 / 64]
    errs = []
    for h in hs:
        modes = xs.lowest_modes(
            xs.assemble_dirichlet_laplacian(grids.square(1.0, h)), 1)
        errs.append(abs(modes.lam1 - np.pi**2 / 2))
    fit = fit_order(hs, errs)
    assert 1.8 <= fit.slope <= 2.2
    # Richardson halves the error (order-2 elimination does much better)
    extr = richardson(
        xs.lowest_modes(xs.assemble_dirichlet_laplacian(grids.square(1.0, hs[0])), 1).lam1,
        xs.lowest_modes(xs.assemble_dirichlet_laplacian(grids.square(1.0, hs[1])), 1).lam1,
        order=2.0,
    )
    assert abs(extr - np.pi**2 / 2) < 0.5 * errs[1]


def test_domain_monotonicity_nested_masks():
    base = np.zeros((17, 17), dtype=bool)
    base[3:12, 3:12] = True
    small = grids.GridDomain(2, 0.1, (-0.8, -0.8), base, "polygon-mask")
    grown = base.copy()
    grown[3:14, 3:14] = True
    big = grids.GridDomain(2, 0.1, (-0.8, -0.8), grown, "polygon-mask")
    lam_small = xs.lowest_modes(xs.assemble_dirichlet_laplacian(small), 1).lam1
    lam_big = xs.lowest_modes(xs.assemble_dirichlet_laplacian(big), 1).lam1
    assert lam_big <= lam_small + 1e-12


def test_warm_cache_writes_the_cold_bytes(tmp_path):
    from magtube.config import ExperimentConfig
    from magtube.runner import run

    path = tmp_path / "xs.ini"
    path.write_text(
        "[experiment]\nversion = 1\nkind = xsection\nseed = 7\n"
        "[section]\nshape = interval\nh = 0.05\nhalf_width = 1.0\n")
    cfg = ExperimentConfig.load(str(path))
    xs._MEMO.clear()
    csv = []
    for name in ("cold", "warm"):  # the warm run is served from _MEMO
        run(cfg, out_dir=str(tmp_path / name))
        csv.append((tmp_path / name / "xsection_constants.csv").read_bytes())
    assert b"effective_coefficient_measured" in csv[0]
    assert csv[1] == csv[0]
    assert len(xs._MEMO) == 1
    section = cfg.build_section()
    assert xs.compute_constants(section) is xs.compute_constants(section)
