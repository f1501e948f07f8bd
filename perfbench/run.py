"""Layered benchmark for cliquereg: every metric and its correctness gate.

Run from the root of a checkout:

    python3 perfbench/run.py --workload register --seed 1 --seconds 50 --trace 0

Load is a closed loop with one client: one process, no extra threads, and
each op starts only after the previous one returns. Inputs come from the
seed during set-up; the timed loop runs whole passes over them for
``--seconds``, at least 100 ops. ``--trace 0`` prints the
end-to-end metrics. ``--trace 1`` alternates untraced and traced passes for
``--seconds``, then prints the per-layer metrics and writes the spans to
``.perfbench/``. The last line of standard output is one JSON object; the
metric names and units come from ``BENCHMARK.json``. See README.md here.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True
# One OpenBLAS thread, set before numpy loads, so the one-client load uses
# one core of the 2-core reference machine and leaves the other to the
# system; two BLAS threads made the relaxation's dense matvecs the noisiest
# op there. The environment record shows the count numpy actually used.
BLAS_ENV_BEFORE = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
# A timed run holds at least this many ops, so at least 10 lie beyond p90.
MIN_OPS = 100
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import cliquereg; print(time.perf_counter() - t)")


def import_program() -> None:
    """Import cliquereg from this checkout's source tree, and only from there."""
    if not (SRC / "cliquereg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import cliquereg

    if Path(cliquereg.__file__).resolve().parent != (SRC / "cliquereg").resolve():
        sys.exit(f"perfbench: imported cliquereg from {cliquereg.__file__}, not {SRC}")


def import_seconds() -> float:
    """Time of ``import cliquereg`` (numpy and scipy included) in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-B", "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": blas_threads(),
        "blas_env_before": BLAS_ENV_BEFORE,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV_BEFORE},
    }


@dataclass
class OpRecord:
    idx: int
    ms: float
    outcome: object
    error: str | None


def run_ops(workload, inputs, seconds: float, tracer=None,
            min_ops: int = 0) -> tuple[list[OpRecord], float]:
    """Closed loop of whole passes over the schedule: at least one pass and
    at least ``min_ops`` ops, then further passes while the last pass's
    duration says the next one ends within ``seconds`` of the start.

    Whole passes keep every input class at its weight share of the ops, so
    percentiles over all ops of the run are not tilted by a cut-off pass.
    """
    records = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for idx, inp in enumerate(inputs):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    outcome = workload.op(inp.data)
                else:
                    with tracer.op_span():
                        outcome = workload.op(inp.data)
                error = None
            except Exception as exc:  # an op that raises is a failed op; keep going
                outcome, error = None, f"{type(exc).__name__}: {exc}"
            records.append(OpRecord(idx, (time.perf_counter() - t0) * 1e3, outcome, error))
        now = time.perf_counter()
        if len(records) >= min_ops and now + (now - pass_start) > start + seconds:
            return records, now - start


def gate(check, inputs, records: list[OpRecord], reference: dict[int, tuple]) -> list[str]:
    """Failure lines for the ops that fail the gate or disagree with
    ``reference`` (first clique per input); fills ``reference`` as it goes."""
    failures = []
    for r in records:
        reason = check.check(r.idx, r.outcome, r.error)
        if reason is None:
            ref = reference.setdefault(r.idx, r.outcome.members)
            if r.outcome.members != ref:
                reason = "clique differs from the first op on this input"
        if reason is not None:
            failures.append(f"{inputs[r.idx].name}: {reason}")
    return failures


def per_pass(records: list[OpRecord], cycle: int, stat) -> float:
    """Median over complete schedule passes of ``stat`` of each pass's latencies.

    Every pass runs the same inputs, so passes are comparable; the median
    keeps a slow spell of the machine in one pass from moving the result.
    """
    return statistics.median(stat([r.ms for r in records[i:i + cycle]])
                             for i in range(0, len(records) - cycle + 1, cycle))


def throughput(ms: list[float]) -> float:
    return len(ms) / (sum(ms) / 1e3)


def p90(ms: list[float]) -> float:
    return statistics.quantiles(ms, n=10, method="inclusive")[-1]


def class_medians(workload, inputs, records) -> dict[str, float]:
    by_class: dict[str, list[float]] = {c.label: [] for c in workload.classes}
    for r in records:
        by_class[inputs[r.idx].label].append(r.ms)
    return {label: statistics.median(v) for label, v in by_class.items()}


def registration_quality(check, records) -> tuple[float, float]:
    """Mean inlier recall and median rotation error over one schedule pass."""
    ok = [r for r in records if r.outcome is not None]
    if not ok:
        return 0.0, 0.0
    recall = statistics.fmean(check.inlier_recall(r.idx, r.outcome) for r in ok)
    rot = statistics.median(check.rotation_error_deg(r.idx, r.outcome) for r in ok)
    return recall, rot


def emit(spec: list[dict], values: dict[str, float], correct: bool, attempted: int,
         failed: int) -> None:
    """Print each metric with its unit, then the result line."""
    names = [m["name"] for m in spec]
    if set(names) != set(values):
        sys.exit(f"perfbench: metrics {sorted(set(values) ^ set(names))} "
                 "differ from BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    for name, m in metrics.items():
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    import_program()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {list(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    env = environment()
    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env))

    problems: list[str] = []
    import_s, build_s, digests = [], [], set()
    for _ in range(SETUP_REPEATS):
        import_s.append(import_seconds())
        t0 = time.perf_counter()
        inputs = wl.schedule(args.seed)
        build_s.append(time.perf_counter() - t0)
        digests.add(workloads.input_digest(inputs))
    if len(digests) != 1:
        problems.append("set-up is not deterministic: input digests differ between repeats")
    setup_s = statistics.median(i + b for i, b in zip(import_s, build_s))
    print(f"setup {setup_s:.4f} s, median of {SETUP_REPEATS}: import "
          f"{statistics.median(import_s):.4f} s, inputs {statistics.median(build_s):.4f} s; "
          f"{len(inputs)} inputs, digest {digests.pop()[:16]}")

    check = workloads.Gate(wl, inputs)
    reference: dict[int, tuple] = {}
    cycle = len(inputs)
    if args.trace == 0:
        records, wall = run_ops(wl, inputs, args.seconds, min_ops=MIN_OPS)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted = len(records)
    else:
        # Untraced and traced passes alternate, so a slow spell of the
        # machine cannot pass for tracing overhead.
        tracer = spans.Tracer()
        records, traced, ratios = [], [], []
        deadline = time.perf_counter() + args.seconds
        while not ratios or time.perf_counter() < deadline:
            plain, _ = run_ops(wl, inputs, 0)
            tracer.install()
            try:
                timed, _ = run_ops(wl, inputs, 0, tracer)
            finally:
                tracer.uninstall()
            records += plain
            traced += timed
            ratios.append(sum(r.ms for r in timed) / sum(r.ms for r in plain))
        wall = sum(r.ms for r in records) / 1e3
        attempted = len(records) + len(traced)

    failures = gate(check, inputs, records, reference)
    lat = [r.ms for r in records]
    print(f"ops {len(records)} in {wall:.3f} s; failure_rate "
          f"{len(failures) / len(records):.4g} ratio")
    for label, ms in class_medians(wl, inputs, records).items():
        print(f"class {label} op_ms_p50 {ms:.3f} ms")
    quality = {}
    if wl.name == "register":
        recall, rot = registration_quality(check, records[:cycle])
        quality = {"registration.inlier_recall": recall, "registration.rot_err_deg_p50": rot}
        print(f"registration inlier_recall {recall:.6g} ratio, rot_err_deg_p50 {rot:.6g} deg")

    if args.trace == 0:
        values = {
            "ops_per_s": per_pass(records, cycle, throughput),
            "op_ms_p50": statistics.median(lat),
            "op_ms_p90": p90(lat),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "clique_size_mean": statistics.fmean(
                len(r.outcome.members) if r.outcome else 0 for r in records[:cycle]),
        }
        out = spec["end_to_end"]
    else:
        # The traced passes must agree op by op with the untraced ones.
        failures += gate(check, inputs, traced, reference)
        problems += spans.integrity_errors(tracer.spans, wl.required_spans)
        values = spans.layer_metrics(tracer.spans, cycle)
        values.update({
            "trace.untraced_ops_per_s": per_pass(records, cycle, throughput),
            "trace.ops_per_s": per_pass(traced, cycle, throughput),
            "trace.overhead_ratio": statistics.median(ratios),
            "trace.op_ms_p50": statistics.median(r.ms for r in traced),
            "registration.inlier_recall": 0.0,
            "registration.rot_err_deg_p50": 0.0,
        })
        values.update(quality)
        for name in (w["name"] for w in spec["workloads"]):
            w = workloads.WORKLOADS[name]
            medians = class_medians(w, inputs, records) if w is wl else {}
            for c in w.classes:
                values[f"class.{name}.{c.label}.op_ms_p50"] = medians.get(c.label, 0.0)
        print(f"traced ops {len(traced)} in {len(ratios)} passes; overhead "
              f"{statistics.median(ratios):.4f}x (median traced/untraced pass time); "
              f"{len(tracer.spans)} spans")
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": wl.name, "seed": args.seed, "env": env,
            "inputs": [inp.name for inp in inputs],
            "spans": [[s.name, s.op, s.parent, s.start, s.end, s.attrs] for s in tracer.spans],
        }))
        print(f"spans written to {trace_file.relative_to(ROOT)}")
        out = spec["per_layer"]

    for line in failures + problems:
        print("FAIL " + line, file=sys.stderr)
    emit(out, values, not failures and not problems, attempted, len(failures))


if __name__ == "__main__":
    main()
