"""One benchmark process: set up a workload, then sweep it, or set up only.

Started by ``run.py``, which passes the CLOCK_MONOTONIC time at which it
started this process, so set-up time counts interpreter start and imports.
The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import magtube  # noqa: E402
from magtube import assemble, config, hardy, runner  # noqa: E402
from magtube import asymptotics as asym  # noqa: E402
from magtube import geometry as geo  # noqa: E402
from magtube import operators as ops  # noqa: E402
from magtube import xsection as xs  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# (span name, owner, attribute); each is wrapped at every module attribute
# that holds the function, so import-time aliases inside magtube count too
TRACED = (
    ("runner.run", runner, "run"),
    ("config.load", config.ExperimentConfig, "load"),
    ("xsection.constants", xs, "compute_constants"),
    ("geometry.frame", geo, "integrate_frame"),
    ("operators.assemble_full", ops, "assemble_full_2d"),
    ("operators.assemble_full", ops, "assemble_full_3d"),
    ("operators.assemble_effective", ops, "assemble_effective_2d"),
    ("operators.assemble_effective", ops, "assemble_effective_3d"),
    ("operators.resolvent_distance", ops, "resolvent_distance"),
    ("operators.eigensolve", assemble, "lowest_eigenpairs"),
    ("asymptotics.expand", asym, "expand_operator_2d"),
    ("asymptotics.quasimode", asym, "build_quasimode"),
    ("asymptotics.expansion", asym, "eigenvalue_expansion"),
    ("asymptotics.residual", asym.Quasimode, "residual"),
    ("hardy.verify", hardy, "verify_hardy"),
    ("hardy.constant", hardy, "hardy_constant"),
    ("hardy.segment", hardy, "assemble_segment"),
    ("hardy.deformation", hardy, "deformation_experiment"),
    ("hardy.deformed_tube", hardy, "assemble_deformed_tube"),
    ("hardy.large_b", hardy, "large_b_experiment"),
)
ROOT_SPANS = ("bench.setup", "bench.sweep")
SPAN_NAMES = ROOT_SPANS + tuple(dict.fromkeys(name for name, _, _ in TRACED))
PROBES = (
    "geometry.gauge_probe_s",
    "operators.factor_probe_s",
    "operators.factor_fill_nnz",
    "operators.hermiticity_probe_s",
    "operators.hermiticity_defect",
    "operators.n",
    "operators.nnz",
    "operators.bandwidth",
)


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)  # all threads of the process
    return ru.ru_utime + ru.ru_stime


def _blas() -> list:
    """Every OpenBLAS loaded in the process, with its config and the thread
    count in effect."""
    libs = []
    with open("/proc/self/maps", encoding="utf-8") as f:
        paths = sorted({line.split()[-1] for line in f
                        if "openblas" in line.rsplit("/", 1)[-1].lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for suffix in ("", "64_"):
            for prefix in ("scipy_openblas_", "openblas_"):
                get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                cfg = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get is not None and cfg is not None:
                    get.restype, cfg.restype = ctypes.c_int, ctypes.c_char_p
                    entry.update(threads=get(), config=cfg().decode())
        libs.append(entry)
    return libs


def _cache_size(index: int):
    path = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size")
    return path.read_text().strip() if path.exists() else None


def _commit():
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_path = ROOT / ".git" / ref[5:]
        return ref_path.read_text().strip() if ref_path.exists() else None
    return ref


def environment(seed: int) -> dict:
    return {
        "commit": _commit(),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "env": {k: os.environ.get(k) for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "PYTHONHASHSEED")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "magtube": magtube.__version__,
        "l2_cache": _cache_size(2),
        "l3_cache": _cache_size(3),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--t0", type=float, required=True,
                   help="CLOCK_MONOTONIC time at which run.py started us")
    p.add_argument("--out", required=True,
                   help="directory for scratch outputs and span files")
    args = p.parse_args(argv)
    imported = time.monotonic()
    wl = WORKLOADS[args.workload]

    rec = spans.Recorder(f"{args.workload}-{args.seed}-{os.getpid()}")
    if args.trace:
        modules = [m for name, m in sys.modules.items()
                   if name == "magtube" or name.startswith("magtube.")]
        for name, owner, attr in TRACED:
            rec.wrap(name, owner, attr, alias_modules=modules)
    span = rec.span if args.trace else (lambda name: contextlib.nullcontext())

    with span("bench.setup"):
        state = wl.setup()
    setup_end = time.monotonic()
    result = {"setup_s": setup_end - args.t0, "import_s": imported - args.t0}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    # Whole passes of the fixed sweep, another one only while it fits into
    # --seconds; at least one.  A traced run makes one pass, so its span
    # totals are those of one sweep.
    out_dir = Path(args.out) / "work" / rec.run_id
    passes = []
    while True:
        cpu0, t0 = _cpu_s(), time.perf_counter()
        with span("bench.sweep"):
            output = wl.sweep(state, args.seed, out_dir)
        wall = time.perf_counter() - t0
        passes.append({"wall_s": wall, "cpu_s": _cpu_s() - cpu0,
                       "output": output})
        if len(passes) == 1:  # later passes add allocator growth only
            result["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace or time.monotonic() + wall > setup_end + args.seconds:
            break
    result["passes"] = passes
    shutil.rmtree(out_dir, ignore_errors=True)

    if args.trace:
        rec.restore()
        layers = {f"{name}{suffix}": 0 for name in SPAN_NAMES
                  for suffix in ("_s", ".calls")}
        layers.update(dict.fromkeys(PROBES, 0))
        for name, (self_s, calls) in spans.layer_totals(rec.spans).items():
            layers[f"{name}_s"] = self_s
            layers[f"{name}.calls"] = calls
        try:
            layers.update(wl.probe(state))
        except Exception as exc:  # noqa: BLE001 - reported, probes only
            result["probe_error"] = f"{type(exc).__name__}: {exc}"
            print(f"probe failed: {result['probe_error']}", file=sys.stderr)
        layers["trace.overhead_s"] = rec.overhead_s
        result["layers"] = layers
        trace_dir = Path(args.out) / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        rec.write_jsonl(trace_dir / f"{rec.run_id}.jsonl")
    result["env"] = environment(args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
