"""Banded Cholesky factor of the positive-definite tube operators."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as sla

from magtube import assemble, geometry as geo, grids, operators as ops
from magtube.assemble import AssembledOperator, RegimeParams, banded_cholesky
from magtube.errors import GridBudgetError, NotPositiveDefinite


def make_tube(curve, section, eps, delta=1.0):
    return geo.TubeSpec(curve, section, RegimeParams(eps=eps, delta=delta))


@pytest.fixture(scope="module")
def planar():
    sec = grids.interval(1.0, 1 / 30)
    curve = geo.CurveProfile(dim=2, S=14.0, ds=0.05,
                             kappa=geo.Profile.single(0.0, 2.0, 1.2))
    field = geo.FrameAlignedField2D(geo.Profile.single(0.5, 1.5, 0.6))
    return sec, curve, geo.integrate_frame(curve), field


def _real_2d(planar):
    sec, curve, frame, _ = planar
    return ops.assemble_full_2d(make_tube(curve, sec, 0.1), None, frame)


def _complex_2d(planar):
    sec, curve, frame, field = planar
    return ops.assemble_full_2d(make_tube(curve, sec, 0.1), field, frame)


def _complex_3d(planar):
    sec = grids.square(1.0, 0.2)
    curve = geo.CurveProfile(dim=3, S=8.0, ds=0.1,
                             kappa2=geo.Profile.single(0.0, 2.0, 0.5),
                             theta_prime=geo.Profile.single(0.2, 2.0, 0.6))
    bump = geo.TensorBump3((0.0, 0.2, -0.1), (3.0, 3.0, 3.0))
    field = geo.CurlPotentialField3D(((2, bump, 1.0),))
    return ops.assemble_full_3d(make_tube(curve, sec, 0.1), field,
                                geo.integrate_frame(curve))


@pytest.mark.parametrize("build, is_complex", [
    (_real_2d, False), (_complex_2d, True), (_complex_3d, True)])
def test_solve_matches_superlu(planar, rng, build, is_complex):
    op = build(planar)
    assert op.is_complex == is_complex
    rhs = rng.standard_normal(op.n).astype(op.matrix.dtype)
    if is_complex:
        rhs = rhs + 1j * rng.standard_normal(op.n)
    want = sla.splu(op.matrix.tocsc()).solve(rhs)
    got = banded_cholesky(op.matrix)(rhs)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_resolvent_distance_rejects_indefinite_shift(planar):
    sec, curve, frame, field = planar
    tube = make_tube(curve, sec, 0.1)
    op = ops.assemble_full_2d(tube, field, frame)
    lam0 = ops.smallest_eigenpairs(op, k=1).eigenvalues[0]
    below = AssembledOperator(
        matrix=(op.matrix - (lam0 + 0.5) * sp.eye(op.n)).tocsr(),
        grid=op.grid, bc=op.bc, shift=op.shift - lam0 - 0.5,
        regime=op.regime, meta=op.meta)
    eff = ops.assemble_effective_2d(tube, field, frame=frame, mode="galerkin")
    with pytest.raises(NotPositiveDefinite) as info:
        ops.resolvent_distance(below, eff)
    assert 1 <= info.value.pivot <= op.n


def test_non_finite_matrix_rejected():
    mat = sp.diags([2.0, np.nan, 2.0]).tocsr()
    with pytest.raises(ValueError, match="non-finite"):
        banded_cholesky(mat)


def test_band_memory_budget(planar, monkeypatch):
    op = _complex_2d(planar)
    ntau = planar[0].n
    need = op.n * (ntau + 1) * 16  # kd = section size, complex entries
    monkeypatch.setattr(assemble, "BAND_BUDGET_BYTES", need - 1)
    with pytest.raises(GridBudgetError, match=f"{need} bytes"):
        banded_cholesky(op.matrix)
    monkeypatch.setattr(assemble, "BAND_BUDGET_BYTES", need)
    banded_cholesky(op.matrix)
