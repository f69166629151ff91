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


def test_lowest_eigenpairs_rejects_a_shift_above_the_spectrum(planar):
    # the factor proves no eigenvalue lies below sigma; above the ground
    # energy it fails instead of returning the eigenvalue nearest sigma
    op = _complex_2d(planar)
    assert op.n > 3000
    lam0 = assemble.lowest_eigenpairs(op.matrix, k=1)[0][0]
    with pytest.raises(NotPositiveDefinite, match="sigma = ") as info:
        assemble.lowest_eigenpairs(op.matrix, k=1, sigma=lam0 + 0.5)
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


def test_lowest_eigenpairs_respects_the_band_budget(planar, monkeypatch):
    op = _complex_2d(planar)
    monkeypatch.setattr(assemble, "BAND_BUDGET_BYTES", op.n * 16)
    with pytest.raises(GridBudgetError, match="exceeds the budget"):
        assemble.lowest_eigenpairs(op.matrix, k=1)


class FakePool:
    """An OpenBLAS pool stand-in: its count, and every count it was set to."""

    def __init__(self, name, count):
        self.name, self.count, self.history = name, count, []

    def get(self):
        return self.count

    def set(self, n):
        self.count = n
        self.history.append(n)


@pytest.fixture
def fake_pools(monkeypatch):
    pools = [FakePool("numpy", 2), FakePool("scipy", 3)]
    monkeypatch.setattr(assemble, "_blas_pools",
                        lambda: tuple((p.name, p.get, p.set) for p in pools))
    return pools


def test_blas_threads_nests_and_restores(fake_pools):
    numpy_pool, scipy_pool = fake_pools
    with assemble.blas_threads(1):
        assert [p.count for p in fake_pools] == [1, 1]
        with assemble.blas_threads(4):
            assert [p.count for p in fake_pools] == [4, 4]
            with assemble.blas_threads(None):  # the counts outside every block
                assert [p.count for p in fake_pools] == [2, 3]
            assert [p.count for p in fake_pools] == [4, 4]
        assert [p.count for p in fake_pools] == [1, 1]
    assert [p.count for p in fake_pools] == [2, 3]
    assert assemble.blas_report()["pools"] == {"numpy": 2, "scipy": 3}


def test_blas_threads_restores_on_error(fake_pools):
    with pytest.raises(RuntimeError):
        with assemble.blas_threads(1):
            raise RuntimeError
    assert [p.count for p in fake_pools] == [2, 3]
    assert assemble._SAVED_COUNTS == []


def test_blas_threads_without_a_pool_is_a_noop(monkeypatch):
    monkeypatch.setattr(assemble, "_blas_pools", lambda: ())
    with assemble.blas_threads(1), assemble.blas_threads(None):
        pass
    assert assemble.blas_report()["pools"] == {}


def test_blas_threads_sets_the_loaded_pools():
    pools = assemble._blas_pools()
    before = [get() for _, get, _ in pools]
    with assemble.blas_threads(1):
        assert [get() for _, get, _ in pools] == [1] * len(pools)
    assert [get() for _, get, _ in pools] == before


def test_band_factor_threads_follow_the_bandwidth(fake_pools, monkeypatch):
    # a narrow band and a real wide band factor on one thread, a complex
    # wide one with the counts in force outside every blas_threads block,
    # also from inside one
    seen = []
    factor = assemble.la.cholesky_banded

    def record(*args, **kwargs):
        seen.append([p.count for p in fake_pools])
        return factor(*args, **kwargs)

    monkeypatch.setattr(assemble.la, "cholesky_banded", record)
    for kd, off in ((assemble.WIDE_BAND - 1, 1j), (assemble.WIDE_BAND, 1.0),
                    (assemble.WIDE_BAND, 1j)):
        mat = (4.0 * sp.eye(kd + 2) + off * sp.eye(kd + 2, k=kd)
               + np.conj(off) * sp.eye(kd + 2, k=-kd)).tocsr()
        banded_cholesky(mat)
        with assemble.blas_threads(1):
            banded_cholesky(mat)
    assert seen == [[1, 1], [1, 1], [1, 1], [1, 1], [2, 3], [2, 3]]
    assert [p.count for p in fake_pools] == [2, 3]


def test_solver_entry_points_run_on_one_thread(planar, fake_pools, monkeypatch):
    seen = []
    solve = assemble.la.cho_solve_banded

    def record(*args, **kwargs):
        seen.append([p.count for p in fake_pools])
        return solve(*args, **kwargs)

    monkeypatch.setattr(assemble.la, "cho_solve_banded", record)
    op = _real_2d(planar)
    assemble.lowest_eigenpairs(op.matrix, k=1)
    mass = sp.diags(np.linspace(1.0, 2.0, op.n))
    assemble.lowest_eigenpairs(op.matrix, k=1, M=mass)  # a pencil
    ops.resolvent_distance(op, op, tol=1e-2)
    assert seen and all(counts == [1, 1] for counts in seen)
    assert [p.count for p in fake_pools] == [2, 3]
