"""The benchmark's four workloads: set-up, the fixed sweep, and traced probes.

Each workload has three parts.

- ``setup()`` builds the fixture: config, section, curve, field, the
  integrated frame and the cold cross-section constants.
- ``sweep(state, seed, out_dir)`` issues the workload's fixed sweep once, from
  a single client.  It returns ``{"ops", "summary", "errors"}``, where one op
  is one sweep point or one certificate.
- ``probe(state)`` runs only in the traced run, after the sweep.  It times
  work that the package reaches through names bound at import, which the span
  recorder cannot see, and returns computed counts.

Why each workload was chosen is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

import time
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as sla

from magtube import config, hardy, runner
from magtube import geometry as geo
from magtube import operators as ops
from magtube import xsection as xs
from magtube.assemble import AssembledOperator, RegimeParams

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
FIXTURES = Path(__file__).resolve().parent / "fixtures"

NRC_TOL = 1e-3  # Lanczos tolerance of every resolvent_distance call here
NRC3D_POINT = (0.1, 1.0)  # (eps, delta) of the criterion-4 3D fixture
NRC2D_PROBE_POINT = (0.025, 1.0)
HARDY_CONSTANT_B = (0.1, 4.0)  # criterion 7: small-b law, large-b saturation


class Workload(NamedTuple):
    setup: Callable
    sweep: Callable
    probe: Callable


def _fixture(path) -> SimpleNamespace:
    cfg = config.ExperimentConfig.load(str(path))
    st = SimpleNamespace(cfg=cfg, section=cfg.build_section(),
                         field=cfg.build_field(), curve=None, frame=None)
    if "curve" in cfg.raw:
        st.curve = cfg.build_curve()
        st.frame = geo.integrate_frame(st.curve)
    xs.compute_constants(st.section)
    ops.transverse_ground(st.section)
    return st


def _run_config(cfg, seed, out_dir, name, collect, result):
    """runner.run one config; a raise fails every op the config owns."""
    try:
        tables = runner.run(cfg, out_dir=str(Path(out_dir) / name),
                            seed=seed)["tables"]
    except Exception as exc:  # noqa: BLE001 - counted as failed ops
        result["errors"][name] = f"{type(exc).__name__}: {exc}"
        return
    collect(tables, result)


def _empty() -> dict:
    return {"ops": {}, "summary": {}, "errors": {}}


# -- probes -----------------------------------------------------------------------


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def _matrix_probes(op: AssembledOperator, shifted: sp.spmatrix) -> dict:
    """Computed sizes, the Hermiticity defect and a default-options SuperLU
    factor of the matrix the workload's solver factors."""
    coo = shifted.tocoo()
    defect, herm_s = _timed(op.hermiticity_defect)
    lu, factor_s = _timed(sla.splu, shifted.tocsc())
    return {
        "operators.n": shifted.shape[0],
        "operators.nnz": shifted.nnz,
        "operators.bandwidth": int(np.abs(coo.row - coo.col).max()),
        "operators.hermiticity_defect": defect,
        "operators.hermiticity_probe_s": herm_s,
        "operators.factor_probe_s": factor_s,
        "operators.factor_fill_nnz": lu.L.nnz + lu.U.nnz,
    }


def _gauge_2d_probe(st, tube) -> float:
    ax = ops.axis_grid(tube.curve)
    _, dt = _timed(geo.gauge_2d, st.field, st.frame, tube, ax.mids,
                   tube.section.node_coords())
    return dt


# -- nrc2d: the paper's headline norm-resolvent sweep ------------------------------


def _nrc_collect(tables, result):
    table = tables[0]
    for delta, eps, _b, dist, conv in table.rows:
        result["ops"][f"delta={delta:g},eps={eps:g}"] = {
            "distance": dist, "converged": bool(conv)}
    prefix = "fitted_order_delta_"
    result["summary"]["fitted_order"] = {
        k[len(prefix):]: v for k, v in table.footer.items()
        if k.startswith(prefix)}


def nrc2d_setup():
    return _fixture(CONFIGS / "nrc2d.ini")


def nrc2d_sweep(st, seed, out_dir):
    # The config's own seed, not the run's: at tol = 1e-3 the resolvent
    # Lanczos of this sweep takes 502 to 642 matvecs depending on the start
    # vector (five seeds measured), a swing in wall_s wider than its bound.
    result = _empty()
    _run_config(st.cfg, st.cfg.seed, out_dir, "nrc2d", _nrc_collect, result)
    return result


def nrc2d_probe(st):
    eps, delta = NRC2D_PROBE_POINT
    tube = geo.TubeSpec(st.curve, st.section, RegimeParams(eps=eps, delta=delta))
    gauge_s = _gauge_2d_probe(st, tube)
    op = ops.assemble_full_2d(tube, st.field, st.frame)
    return {"geometry.gauge_probe_s": gauge_s,
            **_matrix_probes(op, op.matrix)}


# -- nrc3d: one resolvent_distance point of the criterion-4 3D fixture --------------


def nrc3d_setup():
    return _fixture(CONFIGS / "full3d.ini")


def _nrc3d_tube(st):
    eps, delta = NRC3D_POINT
    return geo.TubeSpec(st.curve, st.section, RegimeParams(eps=eps, delta=delta))


def nrc3d_sweep(st, seed, out_dir):
    result = _empty()
    tube = _nrc3d_tube(st)
    op_id = f"delta={tube.regime.delta:g},eps={tube.eps:g}"
    try:
        opA = ops.assemble_full_3d(tube, st.field, st.frame)
        opB = ops.assemble_effective_3d(tube, st.field, frame=st.frame,
                                        mode="galerkin")
        dist, info = ops.resolvent_distance(opA, opB, tol=NRC_TOL, seed=seed)
    except Exception as exc:  # noqa: BLE001 - counted as a failed op
        result["errors"][op_id] = f"{type(exc).__name__}: {exc}"
        return result
    result["ops"][op_id] = {"distance": dist,
                            "converged": bool(info["converged"])}
    return result


def nrc3d_probe(st):
    tube = _nrc3d_tube(st)
    ax = ops.axis_grid(tube.curve)
    pulled = geo.pullback_field(st.field, st.frame, tube)
    _, gauge_s = _timed(geo.gauge_3d, pulled, tube, ax.mids,
                        *tube.section.axes)
    op = ops.assemble_full_3d(tube, st.field, st.frame)
    return {"geometry.gauge_probe_s": gauge_s,
            **_matrix_probes(op, op.matrix)}


# -- hardy3d: the criterion-7 3D-square Hardy certificate ---------------------------


def hardy3d_setup():
    return _fixture(FIXTURES / "hardy3d.ini")


def _hardy_params(st):
    get = st.cfg.get_float
    return (st.cfg.get_floats("regime", "b")[0], get("solver", "r"),
            get("solver", "l"), get("solver", "ds"))


def hardy3d_sweep(st, seed, out_dir):
    result = _empty()
    b, R, L, ds = _hardy_params(st)
    calls = [(f"verify,b={b:g}", hardy.verify_hardy, (b, R, L))]
    calls += [(f"constant,b={bc:g}", hardy.hardy_constant, (bc, R))
              for bc in HARDY_CONSTANT_B]
    for op_id, fn, args in calls:
        try:
            cert = fn(st.section, st.field, *args, ds=ds)
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            result["errors"][op_id] = f"{type(exc).__name__}: {exc}"
            continue
        rec = {"c_R": cert.c_R, "lam1_dn": cert.lam1_dn}
        if cert.passed is not None:
            rec.update(mu_min=cert.mu_min, margin=cert.margin,
                       passed=cert.passed)
        result["ops"][op_id] = rec
    return result


def hardy3d_probe(st):
    """The certificate's straight Dirichlet tube of verify_hardy: its gauge
    and the pencil matrix H - lam1 that the shift-invert at sigma = 0
    factors.  The tube matrix comes from a private function of hardy; a
    refactor that removes it fails this probe only, and the run reports
    why."""
    b, R, L, ds = _hardy_params(st)
    s_nodes = (-L + ds * np.arange(int(round(2 * L / ds)) + 1))[1:-1]
    s_mids = np.concatenate([[s_nodes[0] - ds / 2], s_nodes + ds / 2])
    curve = geo.CurveProfile(dim=3, S=L, ds=ds)
    tube = geo.TubeSpec(curve, st.section,
                        RegimeParams(eps=1.0, delta=0.0, b=b))
    pulled = geo.PulledField(field=st.field, frame=geo.integrate_frame(curve),
                             tube=tube)
    _, gauge_s = _timed(geo.gauge_3d, pulled, tube, s_mids, *st.section.axes)
    H = hardy._straight_tube_matrix(st.section, st.field, b, s_nodes,
                                    neumann_ends=False)
    lam1, _ = ops.transverse_ground(st.section)
    A = (H - lam1 * sp.eye(H.shape[0])).tocsr()
    op = AssembledOperator(matrix=A, grid={}, bc={})
    return {"geometry.gauge_probe_s": gauge_s, **_matrix_probes(op, A)}


# -- spectra2d: asymptotics and the stability experiments ---------------------------


def _asym_collect(tables, result):
    gamma, track, resid = tables
    for eps, lam, _gam, _diff, ovl in track.rows:
        result["ops"][f"tracking,eps={eps:g}"] = {"lambda_shifted": lam,
                                                  "overlap": ovl}
    for eps, res in resid.rows:
        result["ops"][f"residual,eps={eps:g}"] = {"residual": res}
    result["summary"]["quasimode"] = {
        "fitted_order": resid.footer["fitted_order"],
        "target_order": resid.footer["target_order"]}
    result["summary"]["fredholm_defect"] = gamma.footer["fredholm_defect"]


def _stability_collect(tables, result):
    t_def, t_b = tables
    for amp, _b, lam1, _thr, _budget, below in t_def.rows:
        result["ops"][f"deformation,a={amp:g}"] = {"lam1": lam1,
                                                   "below": bool(below)}
    for b, lam1, empty in t_b.rows:
        result["ops"][f"large_b,b={b:g}"] = {"lam1": lam1,
                                             "empty": bool(empty)}
    result["summary"]["admissible_amplitudes"] = \
        t_def.footer["admissible_amplitudes"]
    result["summary"]["crossing_b"] = t_b.footer["crossing_b"]
    result["summary"]["conclusive"] = bool(t_b.footer["conclusive"])


def spectra2d_setup():
    return SimpleNamespace(asym=_fixture(CONFIGS / "asymptotics2d.ini"),
                           stab=_fixture(CONFIGS / "stability2d.ini"))


def spectra2d_sweep(st, seed, out_dir):
    result = _empty()
    _run_config(st.asym.cfg, seed, out_dir, "asymptotics2d", _asym_collect,
                result)
    _run_config(st.stab.cfg, seed, out_dir, "stability2d", _stability_collect,
                result)
    return result


def spectra2d_probe(st):
    """The large-b operator at the top of the schedule: ambient-field gauge
    quadrature and the matrix factored at sigma = 0.5 lam1."""
    s = st.stab
    b = max(s.cfg.get_floats("regime", "b"))
    tube = geo.TubeSpec(s.curve, s.section,
                        RegimeParams(eps=1.0, delta=0.0, b=b))
    gauge_s = _gauge_2d_probe(s, tube)
    op = ops.assemble_full_2d(tube, s.field, s.frame, shifted=False)
    lam1, _ = ops.transverse_ground(s.section)
    shifted = (op.matrix - 0.5 * lam1 * sp.eye(op.n)).tocsr()
    return {"geometry.gauge_probe_s": gauge_s, **_matrix_probes(op, shifted)}


WORKLOADS = {
    "nrc2d": Workload(nrc2d_setup, nrc2d_sweep, nrc2d_probe),
    "nrc3d": Workload(nrc3d_setup, nrc3d_sweep, nrc3d_probe),
    "hardy3d": Workload(hardy3d_setup, hardy3d_sweep, hardy3d_probe),
    "spectra2d": Workload(spectra2d_setup, spectra2d_sweep, spectra2d_probe),
}
