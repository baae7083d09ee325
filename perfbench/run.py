"""Run one workload of the repository benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ring-saturated --seed 1993 \\
        --seconds 20 --trace 0

Prints a human-readable report (every metric by name, with its unit and
whether higher or lower is better, the output checks, the machine
fingerprint) and, as the last line of standard output, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes a separate traced run, reports the per-layer
metrics and writes the spans as Chrome ``trace_event`` JSON under
``.perfbench_out/``.  Exits non-zero when an output check fails.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(message: str) -> "NoReturn":  # noqa: F821
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def fingerprint(jobs: int, connections: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "pool_jobs": jobs,
        "connections": connections,
    }


def source_hash(root: Path) -> str:
    """Hash of the package and benchmark sources: ledger entries of one
    seed are compared only within one version of the code."""
    digest = hashlib.sha256()
    for base in (root / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_ledger(root: Path, key: str, counters: dict) -> tuple:
    """Compare this run's exact counters with earlier runs of the same
    workload, seed and source; record them on first sight."""
    state = root / ".perfbench_state"
    state.mkdir(exist_ok=True)
    path = state / f"{hashlib.sha256(key.encode()).hexdigest()[:24]}.json"
    canonical = json.loads(json.dumps(counters, sort_keys=True))
    if path.exists():
        same = json.loads(path.read_text()) == canonical
        return same, "matches earlier run" if same else f"differs from {path.name}"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(canonical, sort_keys=True))
    os.replace(tmp, path)
    return True, "first run of this seed and source"


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=workloads.DEFAULT_SEED,
        help=f"workload seed (default {workloads.DEFAULT_SEED}; the held-out "
        f"seed is {workloads.HELD_OUT_SEED})",
    )
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="time budget of the measured units (default: run_seconds)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.is_file():
        fail(f"{bench_file.name} not found at {ROOT}")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail("the package sources (src/repro) are not in this checkout")
    if not (ROOT / "BENCH_kernel.json").is_file():
        fail("BENCH_kernel.json (the kernel counter baseline) is missing")
    spec = json.loads(bench_file.read_text())

    sys.path.insert(0, str(ROOT / "src"))
    os.environ["REPRO_CACHE_DIR"] = str(ROOT / ".perfbench_work" / "default-store")

    seed = args.seed
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    jobs = len(os.sched_getaffinity(0))
    connections = min(2, jobs)

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = workloads.Context(
        root=ROOT, work=work, seed=seed, seconds=seconds, jobs=jobs,
        trace=bool(args.trace),
        speed=workloads.HostSpeed(
            cores=jobs if args.workload in workloads.POOLED else 1
        ),
    )
    run, setup_code = workloads.WORKLOADS[args.workload]
    try:
        setup = None
        if setup_code is not None and not ctx.trace:
            setup = workloads.measure_setup(ctx, setup_code)
        outcome = run(ctx)
        if setup is not None:
            outcome.end_to_end["setup_s"], outcome.raw["setup_s"] = setup
        outcome.end_to_end["peak_rss_mb"] = workloads.peak_rss_mb()
        if ctx.trace:
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            trace_path = out_dir / f"trace-{args.workload}-seed{seed}.json"
            ctx.spans.write_chrome(trace_path)
            outcome.notes.append(f"spans written to {trace_path.relative_to(ROOT)}")
    finally:
        ctx.speed.close()
        shutil.rmtree(work, ignore_errors=True)

    if outcome.ledger:
        key = f"{args.workload}|{seed}|{source_hash(ROOT)}"
        ok, detail = check_ledger(ROOT, key, outcome.ledger)
        outcome.check("exact counters repeat across runs of this seed", ok, detail)

    section = "per_layer" if ctx.trace else "end_to_end"
    metrics = {}
    for entry in spec[section]:
        name = entry["name"]
        if ctx.trace:
            # A layer this workload never enters did no work.
            value = outcome.per_layer.get(name, 0.0)
        else:
            value = outcome.end_to_end.get(name)
            outcome.check(f"{name} measured", value is not None)
            if value is None:
                continue
        metrics[name] = {"value": float(value), "unit": entry["unit"]}

    print(f"workload {args.workload}  seed {seed}  budget {seconds:g}s  "
          f"trace {args.trace}")
    print(f"fingerprint {json.dumps(fingerprint(jobs, connections))}")
    for line in outcome.notes:
        print(line)
    probes = [seconds for _, seconds in ctx.speed.samples]
    if probes and not ctx.trace:
        print(
            f"host speed: {len(probes)} probes, median "
            f"{1000 * statistics.median(probes):.1f} ms, range "
            f"{1000 * min(probes):.1f}-{1000 * max(probes):.1f} ms "
            f"(nominal {1000 * workloads.HostSpeed.NOMINAL_S:.0f} ms); "
            "end-to-end times are on the nominal-speed scale"
        )
    print(f"{section} metrics:")
    for entry in spec[section]:
        name = entry["name"]
        if name in metrics:
            raw = outcome.raw.get(name)
            raw_text = f"  (raw wall {raw:.6g})" if raw is not None else ""
            print(
                f"  {name:<28} {metrics[name]['value']:>16.6g} "
                f"{entry['unit']:<10} {entry['better']}{raw_text}"
            )
    if not ctx.trace:
        outcome.extra.setdefault(
            "failed_frac",
            (workloads.failed_frac(max(outcome.attempted, 1), outcome.failed),
             "ratio", "lower"),
        )
        print("workload-specific metrics (printed, not in the JSON result):")
        for name, (value, unit, better) in sorted(outcome.extra.items()):
            print(f"  {name:<28} {value:>16.6g} {unit:<10} {better}")
    print("checks:")
    for name, ok, detail in outcome.checks:
        failure = f" ({detail})" if detail and not ok else ""
        print(f"  [{'ok' if ok else 'FAIL'}] {name}{failure}")

    result = {
        "correct": outcome.correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
