"""Banded Cholesky factor of the positive-definite tube operators."""

import functools
import gc
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as sla

from magtube import assemble, geometry as geo, grids, hardy, \
    operators as ops, xsection
from magtube.assemble import AssembledOperator, RegimeParams, banded_cholesky
from magtube.config import ExperimentConfig
from magtube.errors import (EigensolverDiverged, GridBudgetError,
                            NotPositiveDefinite, ZeroFieldWarning)


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
    return ops.assemble_full(make_tube(curve, sec, 0.1), None, frame)


def _complex_2d(planar):
    sec, curve, frame, field = planar
    return ops.assemble_full(make_tube(curve, sec, 0.1), field, frame)


def _complex_3d(planar):
    sec = grids.square(1.0, 0.2)
    curve = geo.CurveProfile(dim=3, S=8.0, ds=0.1,
                             kappa2=geo.Profile.single(0.0, 2.0, 0.5),
                             theta_prime=geo.Profile.single(0.2, 2.0, 0.6))
    bump = geo.TensorBump3((0.0, 0.2, -0.1), (3.0, 3.0, 3.0))
    field = geo.CurlPotentialField3D(((2, bump, 1.0),))
    return ops.assemble_full(make_tube(curve, sec, 0.1), field,
                             geo.integrate_frame(curve))


def _real_3d(planar):
    # the curve of _complex_3d without its twist and field: a real band
    sec = grids.square(1.0, 0.2)
    curve = geo.CurveProfile(dim=3, S=8.0, ds=0.1,
                             kappa2=geo.Profile.single(0.0, 2.0, 0.5))
    return ops.assemble_full(make_tube(curve, sec, 0.1), None,
                             geo.integrate_frame(curve))


def _phased(planar, offset, lo, hi):
    """The real planar operator with the phase e^{0.3 i} on its upper
    entries (r, r + offset), lo <= r < hi.  Those entries are negative
    (s-links at offset kd, section links at offset 1), so the diamagnetic
    inequality keeps the matrix positive definite."""
    op = _real_2d(planar)
    upper = sp.triu(op.matrix, k=1).tocoo()
    on = (upper.col - upper.row == offset) & (upper.row >= lo) & (upper.row < hi)
    phase = np.where(on, np.exp(0.3j), 1.0)
    upper = sp.coo_matrix((upper.data * phase, (upper.row, upper.col)),
                          shape=upper.shape)
    matrix = (upper + upper.getH() + sp.diags(op.matrix.diagonal())).tocsr()
    return AssembledOperator(matrix=matrix, grid=op.grid, bc=op.bc)


def _complex_start(planar):
    return _phased(planar, planar[0].n, 0, 40)


def _complex_end(planar):
    n, kd = _real_2d(planar).n, planar[0].n
    return _phased(planar, kd, n - kd - 40, n)


def _complex_narrow(planar):
    # rows n/2 .. n/2 + 5: a complex stretch narrower than kd
    n = _real_2d(planar).n
    return _phased(planar, 1, n // 2, n // 2 + 5)


def _complex_every_row(planar):
    return _phased(planar, planar[0].n, 0, _real_2d(planar).n)


def _complex_dtype_real(planar):
    op = _real_2d(planar)
    return AssembledOperator(matrix=op.matrix.astype(complex), grid=op.grid,
                             bc=op.bc)


def _nudged(op, entries):
    """``op`` with its entries (i, j) and (j, i) of ``entries`` scaled by
    1 + 1e-9: their bits change, the operator barely."""
    rows, cols = np.array(entries).T
    vals = 1e-9 * np.asarray(op.matrix[rows, cols]).ravel()
    off = rows != cols
    bump = sp.csr_matrix((np.concatenate([vals, vals[off].conj()]),
                          (np.concatenate([rows, cols[off]]),
                           np.concatenate([cols, rows[off]]))),
                         shape=op.matrix.shape)
    return AssembledOperator(matrix=(op.matrix + bump).tocsr(), grid=op.grid,
                             bc=op.bc)


def _runs_0_1(planar):
    # slice 0 couples to slice 1 by something other than c I, and slice
    # n/m - 2 differs from the last one
    n, m = _real_2d(planar).n, planar[0].n
    return _nudged(_real_2d(planar), [(0, m), (n - 2 * m, n - 2 * m)])


def _lead_0(planar):
    return _nudged(_real_2d(planar), [(0, planar[0].n)])


def _runs_2_2(planar):
    n, m = _real_2d(planar).n, planar[0].n
    return _nudged(_real_2d(planar), [(2 * m, 2 * m), (n - 3 * m, n - 3 * m)])


def _straight_tube(planar):
    # no curvature, no field: every slice but the last repeats slice 0
    sec = planar[0]
    curve = geo.CurveProfile(dim=2, S=14.0, ds=0.05)
    return ops.assemble_full(make_tube(curve, sec, 0.1), None,
                             geo.integrate_frame(curve))


def _nudged_in_its_end(planar):
    m = planar[0].n
    return _nudged(_complex_2d(planar), [(50 * m + 3, 50 * m + 3)])


def _runs(op):
    """(lead, trail) straight slices of a tube operator."""
    m = op.grid["section"].n
    return assemble._straight_runs(sp.triu(op.matrix, format="csr"), m)


@pytest.fixture
def one_band(monkeypatch):
    """banded_cholesky with no straight end: the whole matrix factors as
    the rest, the reference layout for the straight ends."""
    def factor(matrix):
        with monkeypatch.context() as patch:
            patch.setattr(assemble, "_straight_runs", lambda upper, m: (0, 0))
            return banded_cholesky(matrix)
    return factor


def _check_against_superlu(op, rng, is_complex, cholesky=banded_cholesky):
    lu = sla.splu(op.matrix.tocsc())
    solve = cholesky(op.matrix)
    for rhs in (rng.standard_normal(op.n),
                rng.standard_normal(op.n) + 1j * rng.standard_normal(op.n)):
        want = lu.solve(rhs) if is_complex or rhs.dtype == float else (
            lu.solve(rhs.real) + 1j * lu.solve(rhs.imag))
        got = solve(rhs)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("build, is_complex", [
    (_real_2d, False), (_complex_2d, True), (_complex_3d, True),
    (_complex_start, True), (_complex_end, True), (_complex_narrow, True),
    (_complex_every_row, True), (_complex_dtype_real, True)])
def test_solve_matches_superlu(planar, rng, one_band, build, is_complex):
    op = build(planar)
    assert op.is_complex == is_complex
    _check_against_superlu(op, rng, is_complex, one_band)


@pytest.mark.parametrize("build, is_complex, runs", [
    (_complex_2d, True, (239, 239)), (_complex_3d, True, (44, 44)),
    (_runs_0_1, False, (0, 1)), (_runs_2_2, False, (2, 2)),
    (_straight_tube, False, (558, 0)), (_nudged_in_its_end, True, (50, 239))])
def test_straight_end_solve_matches_superlu(planar, rng, build, is_complex,
                                            runs):
    # the straight ends of each layout are (lead, trail) slices long
    op = build(planar)
    assert op.is_complex == is_complex
    assert _runs(op) == runs
    _check_against_superlu(op, rng, is_complex)


@pytest.fixture
def slice_sizes(monkeypatch):
    """Every (m, (lead, trail), upper) that banded_cholesky looks for
    straight runs with, m the slice size it read off the matrix."""
    calls = []
    straight_runs = assemble._straight_runs

    @functools.wraps(straight_runs)
    def record(upper, m):
        calls.append((m, straight_runs(upper, m), upper))
        return calls[-1][1]

    monkeypatch.setattr(assemble, "_straight_runs", record)
    return calls


def _factored(op):
    """(section, its factor's run) of a built tube operator."""
    return op.grid["section"], lambda: banded_cholesky(op.matrix)


def _hardy_tube(run):
    """(section, run) of a hardy eigensolve on a tube of an interval
    section, whose own eigensolve looks for no straight run."""
    sec = grids.interval(1.0, 0.1)
    field = geo.AmbientField2D((((0.0, 0.0), 6.0, 1.0),))
    return sec, lambda: run(sec, field)


def _verify_hardy_b0(sec, field):
    with pytest.warns(ZeroFieldWarning):
        hardy.verify_hardy(sec, field, 0.0, R=2.0, L=8.0, ds=0.1)


def _large_b(sec, field):
    curve = geo.CurveProfile(dim=2, S=12.0, ds=0.1,
                             kappa=geo.Profile.single(0.0, 2.0, 0.85))
    tube = geo.TubeSpec(curve, sec, RegimeParams(eps=1.0, delta=0.0, b=0.0))
    hardy.large_b_experiment(tube, field, [0.0, 1.0])


_BUILDERS = {
    "planar": lambda planar: _factored(_real_2d(planar)),
    "planar-field": lambda planar: _factored(_complex_2d(planar)),
    "spatial": lambda planar: _factored(_real_3d(planar)),
    "spatial-twisted-field": lambda planar: _factored(_complex_3d(planar)),
    "hardy-segment": lambda planar: _hardy_tube(
        lambda sec, field: hardy.assemble_segment(sec, field, 1.0, R=2.0,
                                                  ds=0.1)),
    "verify-hardy-b0": lambda planar: _hardy_tube(_verify_hardy_b0),
    "verify-hardy-b1": lambda planar: _hardy_tube(
        lambda sec, field: hardy.verify_hardy(sec, field, 1.0, R=2.0, L=8.0,
                                              ds=0.1)),
    "deformed": lambda planar: _hardy_tube(
        lambda sec, field: hardy.deformation_experiment(
            sec, field, 1.0,
            hardy.DeformationSpec(e2=geo.Profile.single(0.0, 3.0, 1.0)),
            [0.0, 0.4], L=8.0, ds=0.1)),
    "large-b": lambda planar: _hardy_tube(_large_b),
}


@pytest.mark.parametrize("builder", list(_BUILDERS))
def test_factor_finds_every_builders_slices(planar, slice_sizes, builder):
    # every tube builder's s-major lattice couples its first node to its
    # copy in the next slice last in row 0, so the factor reads m =
    # section size off the matrix and finds the straight runs that size
    # gives
    section, run = _BUILDERS[builder](planar)
    slice_sizes.clear()  # a square section's own eigensolve, if built
    run()
    assert slice_sizes
    straight_runs = assemble._straight_runs.__wrapped__
    for m, runs, upper in slice_sizes:
        assert m == section.n
        assert runs == straight_runs(upper, section.n)


def test_tridiagonal_operators_take_no_straight_run(planar, slice_sizes):
    # a 1D effective operator and an interval section are kd = 1 bands:
    # their one-row slices look for no straight run
    sec, curve, frame, field = planar
    eff = ops.assemble_effective(make_tube(curve, sec, 0.1), field,
                                 frame=frame, mode="galerkin")
    banded_cholesky(eff.matrix)
    banded_cholesky(xsection.assemble_dirichlet_laplacian(sec).matrix)
    assert slice_sizes == []


def test_square_section_rows_are_straight_slices(rng, slice_sizes):
    # the Dirichlet Laplacian of a 19 x 19 square section is a tube of its
    # grid rows: all but one row are eliminated as straight slices, and it
    # solves as SuperLU does
    op = xsection.assemble_dirichlet_laplacian(grids.square(1.0, 0.1))
    _check_against_superlu(op, rng, False)
    ((m, (lead, trail), _),) = slice_sizes
    assert m == 19 and lead + trail == op.n // m - 1 == 18


@pytest.mark.parametrize("build", [
    _real_2d, _complex_2d, _complex_start, _complex_end, _complex_narrow,
    _complex_every_row, _complex_dtype_real])
def test_one_band_without_a_real_end(planar, monkeypatch, one_band, build):
    # without straight ends the whole matrix, with them the rows between
    # the straight ends, factor as a single band of kd = section size, in the
    # matrix dtype (real when no entry has an imaginary part), after the
    # real mode tridiagonals of each straight end (one factor for both ends
    # when they hold the same slices)
    bands = []
    factor, tridiagonal = assemble._factor, assemble._tridiagonal

    def record(ab, *args):
        bands.append((ab.shape, ab.dtype))
        return factor(ab, *args)

    def record_tridiagonal(d, e, *args):
        bands.append((d.shape, e.dtype))
        return tridiagonal(d, e, *args)

    monkeypatch.setattr(assemble, "_factor", record)
    monkeypatch.setattr(assemble, "_tridiagonal", record_tridiagonal)
    op = build(planar)
    m = kd = planar[0].n
    dtype = complex if op.matrix.data.imag.any() else float
    lead, trail = _runs(op)
    for cholesky, ends in ((one_band, []),
                           (banded_cholesky, [p for p in (lead, trail) if p])):
        bands.clear()
        cholesky(op.matrix)
        rows = op.n - sum(ends) * m
        shared = ends[1:] == ends[:1]
        assert bands == [((p * m,), float) for p in ends[shared:]] \
            + [((kd + 1, rows), dtype)]


def test_fully_complex_tube_takes_one_band(planar, monkeypatch, one_band,
                                           rng):
    # no slice of a tube complex in every slice is straight: it still
    # factors as one complex band of n columns, and solves to the bits of
    # the band without straight ends
    bands = []
    factor = assemble._factor

    def record(ab, *args):
        bands.append((ab.shape, ab.dtype))
        return factor(ab, *args)

    op = _complex_every_row(planar)
    assert _runs(op) == (0, 0)
    rhs = rng.standard_normal(op.n) + 1j * rng.standard_normal(op.n)
    want = one_band(op.matrix)(rhs)
    monkeypatch.setattr(assemble, "_factor", record)
    got = banded_cholesky(op.matrix)(rhs)
    assert bands == [((planar[0].n + 1, op.n), complex)]
    assert np.array_equal(got, want)


def _complex_2d_straight_ends(planar):
    return _complex_2d(planar)


@pytest.mark.parametrize("build", [_real_2d, _complex_2d, _complex_every_row,
                                   _complex_2d_straight_ends])
def test_band_factors_die_with_their_solve(planar, monkeypatch, one_band,
                                           build):
    # reference counting frees every band factor (and a straight end's V
    # and tridiagonal factor) once its solve is dropped; a reference cycle
    # through the solve would hold the bands (86 MB each on the 3D Hardy
    # segment) until the cycle collector runs
    factors = []
    factor = assemble._factor
    straight_end = assemble._straight_end

    def record(ab, *args):
        factors.append(weakref.ref(factor(ab, *args)))
        return factors[-1]()

    def record_end(*args):
        (lam, V), tridiagonal = straight_end(*args)
        factors.extend(weakref.ref(a) for a in (V, *tridiagonal)
                       if a is not None)
        return (lam, V), tridiagonal

    monkeypatch.setattr(assemble, "_factor", record)
    monkeypatch.setattr(assemble, "_straight_end", record_end)
    op = build(planar)
    cholesky = banded_cholesky if build is _complex_2d_straight_ends \
        else one_band
    gc.collect()
    gc.disable()
    try:
        solve = cholesky(op.matrix)
        solve(np.ones(op.n, dtype=op.matrix.dtype))
        del solve
        alive = [ref for ref in factors if ref() is not None]
    finally:
        gc.enable()
    assert factors and alive == []


@pytest.fixture(scope="module")
def thin_nrc2d():
    """nrc2d's operator at eps = 0.025, delta = 1."""
    root = Path(__file__).resolve().parent.parent
    cfg = ExperimentConfig.load(str(root / "configs" / "nrc2d.ini"))
    curve = cfg.build_curve()
    tube = geo.TubeSpec(curve, cfg.build_section(),
                        RegimeParams(eps=0.025, delta=1.0))
    return ops.assemble_full(tube, cfg.build_field(),
                             geo.integrate_frame(curve))


def test_field_free_ends_leave_no_subnormal_factor_entry(monkeypatch,
                                                         thin_nrc2d):
    # nrc2d at eps = 0.025, delta = 1: one complex band of the whole matrix
    # carries the field's imaginary part through the straight stretch after
    # it, where it decays into 60,143 subnormal entries; the straight ends
    # take that stretch out of the band
    op = thin_nrc2d
    factor = assemble._factor
    straight_end = assemble._straight_end

    def record(ab, *args):
        bands.append(factor(ab, *args))
        return bands[-1]

    def record_end(*args):
        (lam, V), tridiagonal = straight_end(*args)
        ends.append((V, *tridiagonal))
        return (lam, V), tridiagonal

    monkeypatch.setattr(assemble, "_factor", record)
    monkeypatch.setattr(assemble, "_straight_end", record_end)
    tiny = np.finfo(float).tiny
    m = op.grid["section"].n
    lead, trail = _runs(op)
    # V and the factor d, e, its complex copy and g of the straight ends
    # (one for both: they hold the same slices), the band of the rest
    bands, ends = [], []
    banded_cholesky(op.matrix)
    assert len(ends) == 1 and len(bands) == 1
    parts = [p for a in bands + list(ends[0]) for p in (a.real, a.imag)]
    assert sum(int(((p != 0) & (abs(p) < tiny)).sum()) for p in parts) == 0
    assert np.iscomplexobj(bands[0])
    assert bands[0].shape[1] == op.n - (lead + trail) * m <= 0.15 * op.n


def test_straight_ends_solve_as_accurately_as_the_band(thin_nrc2d, rng,
                                                       one_band):
    # eigh's eigenvalues of the slice block (||T0|| = 1e7 here) err by up to
    # 2.7e-9, alike on every slice of a mode; taken as they come they made
    # the straight-end solve 13 times less accurate than the band's
    op = thin_nrc2d
    rhs = rng.standard_normal(op.n) + 1j * rng.standard_normal(op.n)
    want = sla.splu(op.matrix.tocsc()).solve(rhs)
    band, straight = (np.linalg.norm(cholesky(op.matrix)(rhs) - want)
                      for cholesky in (one_band, banded_cholesky))
    assert straight <= 2 * band


def test_pivot_is_a_row_of_the_matrix(planar):
    # a negative diagonal entry before the field (complex in rows 15,281 to
    # 18,879), inside it or after it fails the band at exactly that row
    op = _complex_2d(planar)
    for row in (7640, 17080, 25930):
        spike = sp.csr_matrix(([op.matrix[row, row].real + 1.0], ([row], [row])),
                              shape=op.matrix.shape)
        with pytest.raises(NotPositiveDefinite,
                           match=f"ending at row {row + 1} \\(of {op.n}\\)") as info:
            banded_cholesky(op.matrix - spike)
        assert info.value.pivot == row + 1


@pytest.mark.parametrize("build", [_real_2d, _lead_0])
def test_pivot_of_a_straight_end_lies_in_its_rows(planar, build):
    # a shift above the bottom of the straight tube fails the lowest mode's
    # tridiagonal of the first straight end factored; its pivot is the last
    # row of the failing slice, at the trailing end counted from the last
    op = build(planar)
    n, m = op.n, planar[0].n
    lead, trail = _runs(op)
    assert trail == 239 and lead in (0, 239)
    upper = sp.triu(op.matrix, format="csr")
    c = upper[n - 2 * m, n - m]
    bottom = la.eigvalsh(upper[-m:, -m:].toarray(), lower=False)[0] + 2 * c
    shifted = (op.matrix - (bottom + 1e-3 * abs(c)) * sp.eye(n)).tocsr()
    with pytest.raises(NotPositiveDefinite, match=f"\\(of {n}\\)") as info:
        banded_cholesky(shifted)
    pivot = info.value.pivot
    if lead:
        assert pivot % m == 0 and m <= pivot <= lead * m
    else:
        assert (pivot - 1) % m == 0 and n - trail * m < pivot <= n + 1 - m


@pytest.fixture
def split_rests(monkeypatch):
    """Every rest splits, however narrow its band; records (kd, nr, a) of
    each split and whether its band is complex."""
    splits = []
    split_rest = assemble._split_rest

    def record(row, col, data, kd, nr, a, n):
        splits.append((kd, nr, a, np.iscomplexobj(data)))
        return split_rest(row, col, data, kd, nr, a, n)

    monkeypatch.setattr(assemble, "SPLIT_BAND_BYTES", 0)
    monkeypatch.setattr(assemble, "_split_rest", record)
    return splits


@pytest.mark.parametrize("build, is_complex, kd, runs", [
    (_complex_3d, True, 99, (44, 44)), (_real_3d, False, 81, (59, 59))])
@pytest.mark.parametrize("straight_ends", [False, True])
def test_split_rest_solve_matches_superlu(planar, rng, split_rests, one_band,
                                          build, is_complex, kd, runs,
                                          straight_ends):
    # a complex (twisted, with field) and a real 3D band, whole and between
    # its straight ends, in two halves and a separator of kd rows (the
    # twist couples a node to the diagonal neighbours of the next slice,
    # so kd = 81 + 18 there); a real band sweeps a complex right-hand side
    # by its real and imaginary parts
    op = build(planar)
    split_rests.clear()
    assert op.matrix.data.imag.any() == is_complex
    m = op.grid["section"].n
    lead, trail = runs if straight_ends else (0, 0)
    assert _runs(op) == runs
    _check_against_superlu(op, rng, is_complex,
                           banded_cholesky if straight_ends else one_band)
    rest = op.n - (lead + trail) * m
    assert split_rests == [(kd, rest, lead * m, is_complex)]


def test_rest_splits_above_the_split_bytes(planar, monkeypatch, one_band):
    # the band of the rest, kd + 1 entries of 16 bytes per row of the
    # complex 3D tube, splits when it holds more than SPLIT_BAND_BYTES; the
    # shipped constant keeps the largest 2D rest (6,399 x 80 x 16 bytes)
    # one band and splits the smallest 3D one (14,801 x 362 x 16 bytes)
    assert 6399 * 80 * 16 <= assemble.SPLIT_BAND_BYTES < 14801 * 362 * 16
    splits = []
    split_rest = assemble._split_rest

    def record(*args):
        splits.append(args[3:5])
        return split_rest(*args)

    monkeypatch.setattr(assemble, "_split_rest", record)
    op = _complex_3d(planar)
    kd = op.grid["section"].n + 18
    band = (kd + 1) * op.n * 16
    monkeypatch.setattr(assemble, "SPLIT_BAND_BYTES", band)
    one_band(op.matrix)
    assert splits == []
    monkeypatch.setattr(assemble, "SPLIT_BAND_BYTES", band - 1)
    one_band(op.matrix)
    assert splits == [(kd, op.n)]


@pytest.mark.parametrize("straight_ends", [False, True])
def test_pivot_of_a_split_rest_is_a_row_of_the_matrix(planar, split_rests,
                                                      one_band, straight_ends):
    # a negative diagonal entry in the left part (rows before 6,390), the
    # separator (6,390 to 6,488) or the right part, eliminated from the
    # last row, fails the split at exactly that row, also when the rest
    # starts after a straight end of 44 slices of 81 rows
    op = _complex_3d(planar)
    split_rests.clear()
    cholesky = banded_cholesky if straight_ends else one_band
    for row in (5000, 6389, 6390, 6420, 6488, 6489, 8000):
        spike = sp.csr_matrix(([op.matrix[row, row].real + 1.0], ([row], [row])),
                              shape=op.matrix.shape)
        with pytest.raises(NotPositiveDefinite,
                           match=f"ending at row {row + 1} \\(of {op.n}\\)") as info:
            cholesky(op.matrix - spike)
        assert info.value.pivot == row + 1
    kd, nr, a, _ = split_rests[0]
    assert (a + (nr - kd) // 2, kd) == (6390, 99)


def test_split_band_memory_budget(planar, split_rests, monkeypatch):
    # a split rest counts its two bands (nr - kd rows of kd + 1 entries
    # together), W_L, W_R and S' (kd x kd each), besides the straight ends
    # (the two ends hold the same slices: one V, one d, e, g and complex e)
    op = _complex_3d(planar)
    split_rests.clear()
    m = op.grid["section"].n
    kd = m + 18
    lead, trail = _runs(op)
    assert lead == trail
    rest = op.n - (lead + trail) * m
    need = ((kd + 1) * (rest - kd) + 3 * kd * kd) * 16 \
        + (8 + 8 + 16 + 8) * lead * m + 8 * m * m
    monkeypatch.setattr(assemble, "BAND_BUDGET_BYTES", need - 1)
    with pytest.raises(GridBudgetError, match=f"of {need} bytes"):
        banded_cholesky(op.matrix)
    monkeypatch.setattr(assemble, "BAND_BUDGET_BYTES", need)
    banded_cholesky(op.matrix)
    assert len(split_rests) == 1


@pytest.mark.parametrize("build", [_complex_3d, _real_3d])
def test_split_solve_bytes_do_not_depend_on_the_worker(planar, rng,
                                                      split_rests,
                                                      monkeypatch, build):
    # the halves through the worker thread and run inline give the same
    # bits
    op = build(planar)
    split_rests.clear()
    rhs = rng.standard_normal(op.n) + 1j * rng.standard_normal(op.n)
    got = []
    for inline in (False, True):
        if inline:
            monkeypatch.setattr(assemble, "_halves",
                                lambda left, right: (left(), right()))
        solve = banded_cholesky(op.matrix)
        got.append((solve(rhs), solve(rhs.real)))
    assert len(split_rests) == 2
    for x, y in got[1:]:
        assert np.array_equal(x, got[0][0]) and np.array_equal(y, got[0][1])


def test_split_factors_die_with_their_solve(planar, split_rests,
                                           monkeypatch):
    # the halves' bands and their W go with the solve: neither the worker
    # thread nor a closure of the split keeps them
    refs = []

    def recorded(build):
        def record(*args):
            built = build(*args)
            refs.append(weakref.ref(built))
            return built
        return record

    monkeypatch.setattr(assemble, "_band", recorded(assemble._band))
    monkeypatch.setattr(assemble, "_schur_factor",
                        recorded(assemble._schur_factor))
    op = _complex_3d(planar)
    refs.clear()
    gc.collect()
    gc.disable()
    try:
        solve = banded_cholesky(op.matrix)
        solve(np.ones(op.n, dtype=complex))
        del solve
        # the worker drops its last task (and the result it returned) just
        # after handing the result over; one more task waits for that
        assemble._worker().submit(lambda: None).result()
        alive = [ref for ref in refs if ref() is not None]
    finally:
        gc.enable()
    assert len(refs) == 4 and alive == []


def test_split_halves_run_on_two_threads_without_the_gil():
    # the GIL-free binding of every kernel resolves from scipy's own entry
    # points wherever scipy runs, so the halves always run at once
    assert all(callable(assemble._kernel(r)) for r in assemble._KERNEL_ARGUMENTS)
    started = threading.Event()

    def left():
        started.set()
        return threading.get_ident()

    def right():
        assert started.wait(60)  # the worker has taken the left half
        return threading.get_ident()

    assert assemble._halves(left, right)[0] != threading.get_ident()


def test_split_halves_raise_the_left_error_first():
    # as when the halves run in turn, the left half's error wins

    def fail(exc):
        def run():
            raise exc
        return run

    with pytest.raises(KeyError):
        assemble._halves(fail(KeyError()), fail(IndexError()))
    with pytest.raises(IndexError):
        assemble._halves(lambda: None, fail(IndexError()))
    with pytest.raises(KeyError):
        assemble._halves(fail(KeyError()), lambda: None)


def _random_band(rng, kd, n, dtype):
    """Upper band storage, Fortran-ordered, of a random Hermitian matrix
    of half-width kd, made positive definite by its diagonal."""
    ab = rng.standard_normal((kd + 1, n)).astype(dtype)
    if dtype is complex:
        ab.imag = rng.standard_normal((kd + 1, n))
    ab[kd] = 2.0 * (kd + 1) + np.abs(ab[kd])
    return np.asfortranarray(ab)


def _by_parts(solve, cb, x):
    # a complex right-hand side on a real factor, as its two parts
    if np.iscomplexobj(x) and not np.iscomplexobj(cb):
        return solve(cb, x.real) + 1j * solve(cb, x.imag)
    return solve(cb, x)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("kd", [1, 80, 361])
def test_band_kernels_match_scipys_wrappers(rng, kd, dtype):
    # the binding's ?pbtrf, its two ?pbtrs sweeps and each ?tbsv give the
    # bits of cholesky_banded, cho_solve_banded and blas.?tbsv, a complex
    # right-hand side on a real band swept in place with stride 2; a band
    # that is not positive fails at the same pivot
    n = 3 * kd + 50
    ab = _random_band(rng, kd, n, dtype)
    want = la.cholesky_banded(ab, check_finite=False)
    cb = assemble._factor(ab.copy(order="F"), lambda p: p, n)
    assert np.array_equal(cb, want)
    tbsv = la.get_blas_funcs("tbsv", (cb,))
    for rhs in (rng.standard_normal(n),
                rng.standard_normal(n) + 1j * rng.standard_normal(n)):
        x = rhs.astype(np.result_type(rhs, cb))
        assemble._sweep(cb, x, 2)
        assemble._sweep(cb, x, 0)
        assert np.array_equal(x, _by_parts(
            lambda c, y: la.cho_solve_banded((c, False), y), want, rhs))
        for trans in (0, 1, 2):
            x = rhs.astype(np.result_type(rhs, cb))
            assemble._sweep(cb, x, trans)
            assert np.array_equal(x, _by_parts(
                lambda c, y: tbsv(kd, c, y, trans=trans), want, rhs))
    row = n // 3
    ab[kd, row] = -1.0
    with pytest.raises(la.LinAlgError) as scipy_info:
        la.cholesky_banded(ab)
    with pytest.raises(NotPositiveDefinite) as info:
        assemble._factor(ab, lambda p: p, n)
    assert info.value.pivot == int(str(scipy_info.value).split("-")[0]) \
        == row + 1


def test_band_kernels_reject_what_they_cannot_read(rng):
    # the kernels read raw memory: a C-ordered band, a strided vector, a
    # vector of another length, a real vector on a complex factor and
    # dtypes other than float64 and complex128 are refused, not misread
    ab = _random_band(rng, 3, 40, complex)
    for bad in (np.ascontiguousarray(ab), ab.astype(np.complex64),
                ab.real.astype(np.float32)):
        with pytest.raises(ValueError):
            assemble._factor(bad, lambda p: p, 40)
    cb = assemble._factor(ab, lambda p: p, 40)
    for bad in (np.ones(80, dtype=complex)[::2], np.ones(39, dtype=complex),
                np.ones(40), np.ones(40, dtype=np.complex64)):
        with pytest.raises(ValueError):
            assemble._sweep(cb, bad, 0)
    with pytest.raises(ValueError):
        assemble._sweep(np.ascontiguousarray(cb), np.ones(40, dtype=complex), 0)


def _random_tridiagonals(rng, modes, slices):
    """Diagonal and off-diagonal (its last entry unused) of ``modes``
    positive-definite (diagonally dominant) tridiagonals of ``slices`` rows,
    uncoupled, in one."""
    d = 2.5 + rng.random(modes * slices)
    e = rng.uniform(-1.0, 1.0, modes * slices)
    e[slices - 1::slices] = 0.0
    return d, e


def test_tridiagonal_kernels_match_scipys_wrappers(rng):
    # the binding's dpttrf, dpttrs and zpttrs give the bits of scipy's
    # lapack.dpttrf, dpttrs and zpttrs, on a real and a complex right-hand
    # side; a tridiagonal that is not positive fails at the same pivot
    d, e = _random_tridiagonals(rng, 7, 30)
    want_d, want_e, info = la.lapack.dpttrf(d, e[:-1])
    assert info == 0
    assemble._tridiagonal(d, e, lambda p: p, d.size)
    assert np.array_equal(d, want_d) and np.array_equal(e[:-1], want_e)
    e_z = e.astype(complex)
    for rhs in (rng.standard_normal(d.size),
                rng.standard_normal(d.size) + 1j * rng.standard_normal(d.size)):
        x = rhs.copy()
        if np.iscomplexobj(rhs):
            assemble._tridiagonal_solve(d, e_z, x)
            want, info = la.lapack.zpttrs(want_d, want_e.astype(complex), rhs,
                                          lower=1)
        else:
            assemble._tridiagonal_solve(d, e, x)
            want, info = la.lapack.dpttrs(want_d, want_e, rhs)
        assert info == 0 and np.array_equal(x, want)
    d, e = _random_tridiagonals(rng, 7, 30)
    row = 100
    d[row] = -1.0
    info = la.lapack.dpttrf(d, e[:-1])[2]
    with pytest.raises(NotPositiveDefinite) as failed:
        assemble._tridiagonal(d, e, lambda p: p, d.size)
    assert failed.value.pivot == info == row + 1


def test_tridiagonal_kernels_reject_what_they_cannot_read(rng):
    # a strided, read-only or wrongly typed diagonal, off-diagonal or
    # vector, or one of another length, is refused, not misread
    d, e = _random_tridiagonals(rng, 3, 10)
    read_only = d.copy()
    read_only.flags.writeable = False
    for bad_d, bad_e in ((np.repeat(d, 2)[::2], e), (read_only, e),
                         (d.astype(np.float32), e), (d.astype(complex), e),
                         (d, np.repeat(e, 2)[::2]), (d, e.astype(np.float32)),
                         (d, e.astype(complex)), (d, e[:-1]),
                         (d.reshape(3, 10), e.reshape(3, 10))):
        with pytest.raises(ValueError):
            assemble._tridiagonal(bad_d, bad_e, lambda p: p, 30)
    assemble._tridiagonal(d, e, lambda p: p, 30)
    y = np.ones(30)
    read_only = y.copy()
    read_only.flags.writeable = False
    for bad_e, bad_y in ((e, np.ones(60)[::2]), (e, read_only),
                         (e, np.ones(30, dtype=np.float32)), (e, np.ones(29)),
                         (e, np.ones(30, dtype=complex)),
                         (e.astype(complex), y)):
        with pytest.raises(ValueError):
            assemble._tridiagonal_solve(d, bad_e, bad_y)


def test_resolvent_distance_rejects_indefinite_shift(planar):
    sec, curve, frame, field = planar
    tube = make_tube(curve, sec, 0.1)
    op = ops.assemble_full(tube, field, frame)
    lam0 = ops.smallest_eigenpairs(op, k=1).eigenvalues[0]
    below = AssembledOperator(
        matrix=(op.matrix - (lam0 + 0.5) * sp.eye(op.n)).tocsr(),
        grid=op.grid, bc=op.bc, shift=op.shift - lam0 - 0.5,
        regime=op.regime, meta=op.meta)
    eff = ops.assemble_effective(tube, field, frame=frame, mode="galerkin")
    with pytest.raises(NotPositiveDefinite) as info:
        ops.resolvent_distance(below, eff)
    assert 1 <= info.value.pivot <= op.n


def test_lowest_eigenpairs_rejects_a_shift_above_the_spectrum(planar):
    # the factor proves no eigenvalue lies below sigma; above the ground
    # energy it fails instead of returning the eigenvalue nearest sigma
    op = _complex_2d(planar)
    lam0 = assemble.lowest_eigenpairs(op.matrix, k=1)[0][0]
    with pytest.raises(NotPositiveDefinite, match="sigma = ") as info:
        assemble.lowest_eigenpairs(op.matrix, k=1, sigma=lam0 + 0.5)
    assert 1 <= info.value.pivot <= op.n


def test_lowest_eigenpairs_k_guard_names_its_limit():
    # at most min(n, LANCZOS_ROWS // 2) pairs: a thick restart keeps
    # LANCZOS_ROWS // 2 Ritz vectors
    real = sp.diags([1.0, 2.0, 3.0]).tocsr()
    with pytest.raises(ValueError, match=r"k = 4 is outside 1\.\.3"):
        assemble.lowest_eigenpairs(real, k=4)
    with pytest.raises(ValueError, match=r"k = 0 is outside 1\.\.3"):
        assemble.lowest_eigenpairs(real, k=0)
    kmax = assemble.LANCZOS_ROWS // 2
    spread = sp.diags(np.arange(1.0, 3 * kmax + 1)).tocsr()
    vals = assemble.lowest_eigenpairs(spread, k=kmax)[0]
    assert np.abs(vals - np.arange(1.0, kmax + 1)).max() < 1e-12
    with pytest.raises(ValueError, match=f"LANCZOS_ROWS // 2\\) = {kmax}"):
        assemble.lowest_eigenpairs(spread, k=kmax + 1)


def test_exhausted_krylov_space_gives_exact_pairs():
    # n = 3: the third basis vector spans the space, whose Ritz pairs are
    # the eigenpairs; a start in an invariant subspace stops at beta = 0
    # without a division by it
    real = sp.diags([1.0, 2.0, 3.0]).tocsr()
    herm = sp.csr_matrix(np.array([[2.0, 1j, 0.0], [-1j, 2.0, 0.0],
                                   [0.0, 0.0, 4.0]]))
    with np.errstate(all="raise"):
        for matrix, want in ((real, [1.0, 2.0, 3.0]), (herm, [1.0, 3.0, 4.0])):
            vals, vecs, res = assemble.lowest_eigenpairs(matrix, k=3)
            assert np.abs(vals - want).max() < 1e-14
            assert np.abs(vecs.conj().T @ vecs - np.eye(3)).max() < 1e-14
            assert res.max() < 1e-14
        e1 = np.array([1.0, 0.0, 0.0])
        vals, vecs, _ = assemble.lowest_eigenpairs(real, k=1, v0=e1)
        assert vals[0] == 1.0 and np.array_equal(np.abs(vecs[:, 0]), e1)
        with pytest.raises(EigensolverDiverged, match="has 1 < k = 2"):
            assemble.lowest_eigenpairs(real, k=2, v0=e1)


def test_lowest_eigenpairs_rejects_a_mass_matrix_that_is_not_diagonal():
    matrix = sp.diags([2.0, 3.0, 4.0, 5.0]).tocsr()
    coupled = (sp.eye(4) + 0.1 * sp.eye(4, k=1) + 0.1 * sp.eye(4, k=-1))
    for M in (coupled.tocsr(), sp.diags([1.0, -1.0, 1.0, 1.0])):
        with pytest.raises(ValueError, match="diagonal and positive"):
            assemble.lowest_eigenpairs(matrix, k=1, M=M)


def test_lanczos_out_of_applications_reports_residual_norms():
    # after 5 applications the basis spans K_5(D, v); the error carries the
    # residual norms ||D y - theta y|| of its three largest Ritz pairs, as
    # a dense Rayleigh-Ritz on that space gives them
    D = np.diag(np.linspace(1.0, 2.0, 40))
    v = np.random.default_rng(3).standard_normal(40)
    v /= np.linalg.norm(v)
    with pytest.raises(EigensolverDiverged, match="in 5 applications") as info:
        assemble.lanczos(lambda x: D @ x, v, D @ v, 3, 1e-12, 5)
    K = np.linalg.qr(np.column_stack(
        [np.linalg.matrix_power(D, p) @ v for p in range(5)]))[0]
    theta, S = np.linalg.eigh(K.T @ D @ K)
    top = np.argsort(-np.abs(theta))[:3]
    Y = K @ S[:, top]
    want = np.linalg.norm(D @ Y - Y * theta[top], axis=0)
    assert np.abs(info.value.residuals - want).max() <= 1e-8 * want.max()


def test_non_finite_matrix_rejected():
    mat = sp.diags([2.0, np.nan, 2.0]).tocsr()
    with pytest.raises(ValueError, match="non-finite"):
        banded_cholesky(mat)


def test_band_memory_budget(planar, monkeypatch, one_band):
    # the budget counts the band allocated: (kd + 1) entries per row, 16
    # bytes each in a complex band
    op = _complex_2d(planar)
    kd = planar[0].n  # kd = section size
    need = (kd + 1) * op.n * 16
    monkeypatch.setattr(assemble, "BAND_BUDGET_BYTES", need - 1)
    with pytest.raises(GridBudgetError, match=f"of {need} bytes"):
        one_band(op.matrix)
    monkeypatch.setattr(assemble, "BAND_BUDGET_BYTES", need)
    one_band(op.matrix)


def test_band_memory_budget_counts_the_straight_ends(planar, monkeypatch):
    # with straight ends the budget counts the band of the rest, one V
    # (both ends hold the same block) and, per row of a straight end, 8
    # bytes for each of d, e and g and 16 for the complex copy of e that a
    # complex matrix solves with; ends of the same slice count share them.
    # That is well under the whole band's bytes
    m = kd = planar[0].n
    for build, per_row, same in ((_complex_2d, 40, True),
                                 (_nudged_in_its_end, 40, False),
                                 (_runs_2_2, 24, True)):
        op = build(planar)
        lead, trail = _runs(op)
        assert (lead == trail) == same
        rest = op.n - (lead + trail) * m
        entry = 16 if per_row == 40 else 8
        need = (kd + 1) * rest * entry + 8 * m * m \
            + per_row * (lead if same else lead + trail) * m
        whole = (kd + 1) * op.n * entry
        assert need < whole - 1
        monkeypatch.setattr(assemble, "BAND_BUDGET_BYTES", whole - 1)
        banded_cholesky(op.matrix)
        monkeypatch.setattr(assemble, "BAND_BUDGET_BYTES", need - 1)
        with pytest.raises(GridBudgetError, match=f"of {need} bytes"):
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
        assert [p.count for p in fake_pools] == [1, 1]
    assert [p.count for p in fake_pools] == [2, 3]
    assert assemble.blas_report()["pools"] == {"numpy": 2, "scipy": 3}


def test_blas_threads_restores_on_error(fake_pools):
    with pytest.raises(RuntimeError):
        with assemble.blas_threads(1):
            raise RuntimeError
    assert [p.count for p in fake_pools] == [2, 3]


def test_blas_threads_without_a_pool_is_a_noop(monkeypatch):
    monkeypatch.setattr(assemble, "_blas_pools", lambda: ())
    with assemble.blas_threads(1), assemble.blas_threads(4):
        pass
    assert assemble.blas_report()["pools"] == {}


def test_blas_threads_sets_the_loaded_pools():
    pools = assemble._blas_pools()
    before = [get() for _, get, _ in pools]
    with assemble.blas_threads(1):
        assert [get() for _, get, _ in pools] == [1] * len(pools)
    assert [get() for _, get, _ in pools] == before


def test_every_band_factor_runs_on_one_thread(planar, fake_pools,
                                             monkeypatch, one_band):
    # narrow and wide (kd >= 256) bands, real, complex and complex in part,
    # and the mode tridiagonals of straight ends all factor on one thread,
    # called from outside every blas_threads block or inside one of 4
    # threads
    seen = []

    def recorded(factor):
        def record(*args):
            seen.append([p.count for p in fake_pools])
            return factor(*args)
        return record

    for name in ("_factor", "_tridiagonal"):
        monkeypatch.setattr(assemble, name, recorded(getattr(assemble, name)))
    partial = np.ones(4 * 256, dtype=complex)
    partial[2 * 256] = 1j
    for kd, n, off in ((255, 257, np.full(2, 1j)), (256, 258, np.ones(2)),
                       (256, 258, np.full(2, 1j)), (256, 1280, partial)):
        mat = (4.0 * sp.eye(n) + sp.diags(off, kd, shape=(n, n))
               + sp.diags(np.conj(off), -kd, shape=(n, n))).tocsr()
        one_band(mat)
        with assemble.blas_threads(4):
            one_band(mat)
    # the rest and one tridiagonal factor for both straight ends
    banded_cholesky(_complex_2d(planar).matrix)
    assert len(seen) == 10 and all(counts == [1, 1] for counts in seen)
    assert [p.count for p in fake_pools] == [2, 3]


def test_solver_entry_points_run_on_one_thread(planar, fake_pools, monkeypatch):
    seen = []
    sweep = assemble._sweep

    def record(*args):
        seen.append([p.count for p in fake_pools])
        return sweep(*args)

    monkeypatch.setattr(assemble, "_sweep", record)
    op = _real_2d(planar)
    assemble.lowest_eigenpairs(op.matrix, k=1)
    mass = sp.diags(np.linspace(1.0, 2.0, op.n))
    assemble.lowest_eigenpairs(op.matrix, k=1, M=mass)  # a pencil
    ops.resolvent_distance(op, op, tol=1e-2)
    assert seen and all(counts == [1, 1] for counts in seen)
    assert [p.count for p in fake_pools] == [2, 3]
