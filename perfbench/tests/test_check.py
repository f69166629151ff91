"""Correctness checker against the committed references."""

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_reference_passes_against_itself(workload):
    ref = check.load_reference(workload)
    verdicts = check.check(copy.deepcopy(ref), ref)
    assert verdicts and all(ok for _, ok, _ in verdicts)


def test_distance_off_by_one_percent_fails_that_point_only():
    ref = check.load_reference("nrc2d")
    out = copy.deepcopy(ref)
    out["ops"]["delta=0.5,eps=0.05"]["distance"] *= 1.01
    failed = [op for op, ok, _ in check.check(out, ref) if not ok]
    assert failed == ["delta=0.5,eps=0.05"]


def test_distance_within_lanczos_tolerance_passes():
    ref = check.load_reference("nrc3d")
    out = copy.deepcopy(ref)
    (point,) = out["ops"].values()
    point["distance"] *= 1 + 0.5e-3
    assert all(ok for _, ok, _ in check.check(out, ref))


def test_low_fitted_order_fails_its_delta_group():
    ref = check.load_reference("nrc2d")
    out = copy.deepcopy(ref)
    out["summary"]["fitted_order"]["0.5"] = 0.39
    failed = {op for op, ok, _ in check.check(out, ref) if not ok}
    assert failed == {op for op in ref["ops"] if op.startswith("delta=0.5,")}


def test_raised_and_failed_certificates_count():
    ref = check.load_reference("hardy3d")
    out = copy.deepcopy(ref)
    del out["ops"]["constant,b=4"]
    out["errors"] = {"constant,b=4": "EigensolverDiverged: no"}
    out["ops"]["verify,b=1"]["passed"] = False
    verdicts = {op: (ok, why) for op, ok, why in check.check(out, ref)}
    assert verdicts["constant,b=4"] == (False, "EigensolverDiverged: no")
    assert not verdicts["verify,b=1"][0]
    assert verdicts["constant,b=0.1"][0]


def test_stability_crossing_change_fails_large_b_rows():
    ref = check.load_reference("spectra2d")
    out = copy.deepcopy(ref)
    out["summary"]["crossing_b"] = 1.0
    failed = {op for op, ok, _ in check.check(out, ref) if not ok}
    assert failed == {op for op in ref["ops"] if op.startswith("large_b,")}


def test_benchmark_json_matches_the_code():
    import worker

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    produced = {f"{name}{suffix}" for name in worker.SPAN_NAMES
                for suffix in ("_s", ".calls")}
    produced |= set(worker.PROBES)
    produced |= set(run._counts({"ops": {}, "summary": {}}))
    produced |= {"bench.import_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == produced
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(worker.WORKLOADS) == set(run.WORKLOADS)
