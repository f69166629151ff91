"""magtube benchmark: four fixed sweeps, end-to-end metrics and a traced split.

    python3 perfbench/run.py --workload nrc2d --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Run it from the root of a checkout; it imports the package from ``src/``.
Each run starts fresh Python processes (``worker.py``): a few that only set up,
which give the median ``setup_s``, then one that sets up and issues the
workload's fixed sweep once from a single client (closed loop), repeating it
only while another whole pass fits into ``--seconds``.  BLAS is capped at the
number of usable cores and the hash seed is fixed.  The outputs are checked
against ``reference/``.

With ``--trace 0`` the result carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` its per-layer metrics: span self times
and call counts, probes, and counts.  Every run writes a result file with its
environment under ``.perfbench_out/results/``; a traced run also writes its
spans under ``.perfbench_out/traces/``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--write-reference`` stores the outputs of the run as the workload's
reference instead of checking them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402

OUT = ROOT / ".perfbench_out"
WORKLOADS = ("nrc2d", "nrc3d", "hardy3d", "spectra2d")
SETUP_SAMPLES = 3  # set-ups per run, the last one in the sweeping process
RUN_LIMIT_S = 170.0  # a run ends within 180 s


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    """BLAS threads capped at the usable cores, and a fixed hash seed: with a
    random one the set iteration order, and with it the peak RSS of
    spectra2d, changes from run to run (208 to 273 MiB measured)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = env.get(var, "")
        if not cur.isdigit() or not 0 < int(cur) <= cores:
            env[var] = str(cores)
    return env


def _worker(args: list, deadline: float) -> dict:
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), *args,
           "--t0", repr(t0), "--out", str(OUT)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=_child_env(), timeout=deadline - t0)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the run limit: {args}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}: {args}")
    return json.loads(lines[-1])


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def _counts(output: dict) -> dict:
    """Counts read from the outputs of one pass."""
    ops = output["ops"].values()
    margins = [rec["margin"] for rec in ops if "margin" in rec]
    return {
        "operators.unconverged": sum(rec.get("converged") is False
                                     for rec in ops),
        "hardy.margin_min": min(margins, default=0.0),
        "asymptotics.fredholm_defect":
            output["summary"].get("fredholm_defect", 0.0),
    }


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 write_reference: bool = False) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    setups = []
    if not trace:
        setups = [_worker(base + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
    res = _worker(base, deadline)
    setups.append(res["setup_s"])
    outputs = [p["output"] for p in res["passes"]]
    if write_reference:
        if outputs[0]["errors"]:
            raise BenchError(f"not writing a reference with errors: "
                             f"{outputs[0]['errors']}")
        ref = {"workload": name, "seed": seed, "ops": outputs[0]["ops"],
               "summary": outputs[0]["summary"]}
        path = check.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    reference = check.load_reference(name)
    verdicts = [v for out in outputs for v in check.check(out, reference)]
    failures = [(op, why) for op, ok, why in verdicts if not ok]

    spec = _spec()
    if trace:
        measured = {**res["layers"], **_counts(outputs[0]),
                    "bench.import_s": res["import_s"]}
        wanted = spec["per_layer"]
    else:
        measured = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in res["passes"]),
            "cpu_s": statistics.median(p["cpu_s"] for p in res["passes"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted}
    record = {
        "workload": name, "seed": seed, "trace": trace, "seconds": seconds,
        "correct": not failures, "attempted": len(verdicts),
        "failed": len(failures), "failures": failures, "metrics": metrics,
        "setup_samples": setups,
        "passes": [{k: p[k] for k in ("wall_s", "cpu_s")}
                   for p in res["passes"]],
        "peak_rss_mb": res["peak_rss_mb"], "env": res["env"],
    }
    if "probe_error" in res:
        record["probe_error"] = res["probe_error"]
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{name}-seed{seed}-trace{trace}-{stamp}-{os.getpid()}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record


def _summary_line(rec: dict) -> str:
    parts = [f"{k}={m['value']:.6g} {m['unit']}"
             for k, m in rec["metrics"].items()]
    ratio = rec["failed"] / rec["attempted"]
    parts.append(f"fail_ratio={ratio:.6g} ({rec['failed']}/{rec['attempted']})")
    return f"{rec['workload']} seed={rec['seed']}: " + "  ".join(parts)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "magtube" / "__init__.py").is_file():
        print(f"no magtube sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = (args.seconds if args.seconds is not None
               else _spec()["run_seconds"])
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            rec = run_workload(name, args.seed, seconds, args.trace,
                               args.write_reference)
            records.append(rec)
            print(_summary_line(rec), flush=True)
            for op, why in rec["failures"]:
                print(f"  FAILED {op}: {why}", flush=True)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in records
                   for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
