"""Correctness checker: a workload's outputs against its committed reference.

One op is one sweep point or one certificate.  It fails when it raised, when a
field leaves its tolerance against the reference, or when a summary check of
its group fails: a fitted order below its acceptance threshold marks every
point of that fit as failed.  The checker reads the outputs themselves and not
``magtube --check``, whose footer targets do not cover ``nrc-sweep`` or
``stability``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Relative tolerances per field.  Distances come from a Lanczos solve at
# tol = 1e-3; every other float is an eigenvalue or residual solved to
# machine precision, so only thread-order rounding separates two seeds.
RTOL = {"distance": 1e-3}
DEFAULT_RTOL = 1e-6
# 2D norm-resolvent orders per delta (acceptance criterion 4)
ORDER_THRESHOLDS = {"0": 0.8, "0.5": 0.4, "1": 0.8}
QUASIMODE_SLACK = 0.2  # fitted_order >= target_order - 0.2


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as f:
        return json.load(f)


def _compare(ref: dict, got: dict) -> list:
    reasons = []
    for key, want in ref.items():
        have = got.get(key)
        if isinstance(want, (bool, str)) or want is None:
            if have != want:
                reasons.append(f"{key} {have!r} != {want!r}")
            continue
        rtol = RTOL.get(key, DEFAULT_RTOL)
        if (not isinstance(have, (int, float)) or isinstance(have, bool)
                or not math.isclose(have, want, rel_tol=rtol, abs_tol=1e-300)):
            reasons.append(f"{key} {have!r} vs {want!r} beyond rtol {rtol:g}")
    return reasons


def _op_rules(got: dict) -> list:
    reasons = []
    if "converged" in got and not got["converged"]:
        reasons.append("Lanczos did not converge")
    if "passed" in got and not (got["passed"] and got["mu_min"] >= got["c_R"]):
        reasons.append(f"certificate fails: mu_min {got['mu_min']!r} "
                       f"< c_R {got['c_R']!r}")
    return reasons


def _group_checks(summary: dict, ref: dict) -> list:
    """(op-id prefix, reason) for every failed summary check."""
    out = []
    if "fitted_order" in ref:
        orders = summary.get("fitted_order", {})
        for delta, threshold in ORDER_THRESHOLDS.items():
            order = orders.get(delta)
            if order is None or not order >= threshold:
                out.append((f"delta={delta},",
                            f"fitted order {order!r} < {threshold}"))
    if "quasimode" in ref:
        qm = summary.get("quasimode", {})
        order, target = qm.get("fitted_order"), qm.get("target_order")
        if order is None or target is None \
                or not order >= target - QUASIMODE_SLACK:
            out.append(("residual,", f"quasimode order {order!r} < "
                                     f"{target!r} - {QUASIMODE_SLACK}"))
    if "admissible_amplitudes" in ref:
        have = summary.get("admissible_amplitudes")
        if have != ref["admissible_amplitudes"]:
            out.append(("deformation,", f"admissible amplitudes {have!r} != "
                                        f"{ref['admissible_amplitudes']!r}"))
    if "crossing_b" in ref:
        have = (summary.get("crossing_b"), summary.get("conclusive"))
        want = (ref["crossing_b"], ref["conclusive"])
        if have != want or not want[1]:
            out.append(("large_b,", f"crossing_b/conclusive {have!r} != "
                                    f"{want!r}"))
    return out


def check(output: dict, reference: dict) -> list:
    """[(op id, ok, reason)] for every op of the reference."""
    groups = _group_checks(output.get("summary", {}), reference["summary"])
    errors = output.get("errors", {})
    results = []
    for op_id, ref in reference["ops"].items():
        got = output.get("ops", {}).get(op_id)
        if got is None:
            reasons = [errors.get(op_id) or "; ".join(errors.values())
                       or "missing"]
        else:
            reasons = _compare(ref, got) + _op_rules(got)
        reasons += [why for prefix, why in groups if op_id.startswith(prefix)]
        results.append((op_id, not reasons, "; ".join(reasons)))
    return results
