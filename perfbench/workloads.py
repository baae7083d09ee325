"""The benchmark's workloads.

Each workload calls the package's public functions from outside, times
every call with a :class:`stats.Spans` span named after the layer it
enters, checks the outputs, and returns an :class:`Outcome`.  A workload
is a sequence of identical *units* (same seed, same inputs) repeated
until the run's time budget is spent; end-to-end metrics are medians
over units, and the exact counters of every unit must agree.

Layers, by the span ``layer`` they are recorded under:

``traces``  repro.traces (SyntheticTraceGenerator)
``sim``     repro.sim + repro.ring engines, through run_simulation
``models``  repro.models scalar solvers (sweep_from_result, model_for)
``grid``    repro.models.grid (ModelGrid / solve_grid)
``pool``    repro.core.parallel (execute_points)
``store``   repro.core.store (ResultStore)
``check``   repro.check (explore, engine expansion)
``spec``    repro.spec (explore with expansion="spec")
``serve``   repro.serve (daemon, through its HTTP client)
``bench``   the benchmark's own glue
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from stats import HostSpeed, Spans, failed_frac, median, tail

#: The default workload seed (SystemConfig's own default, which the
#: committed BENCH_*.json baselines use) and the held-out seed kept for
#: confirming a claimed gain on inputs not used while writing it.
DEFAULT_SEED = 1993
HELD_OUT_SEED = 4099

#: Set-up is measured this many times per run; setup_s is the median.
SETUP_REPEATS = 7


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    seconds: float
    jobs: int
    trace: bool
    speed: HostSpeed
    spans: Spans = field(default_factory=lambda: Spans(False))


@dataclass
class Outcome:
    """What one run of a workload measured and checked."""

    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    #: Metrics printed for the workloads they apply to but not part of
    #: the JSON result: name -> (value, unit, better).
    extra: Dict[str, Tuple[float, str, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    #: Exact counters that must repeat across runs of one seed.
    ledger: Dict[str, object] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: Unadjusted wall-clock values of host-speed-adjusted metrics.
    raw: Dict[str, float] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def result_digest(result) -> str:
    """Bit-level identity of a SimulationResult (its store encoding)."""
    from repro.core.store import result_to_jsonable

    encoded = json.dumps(result_to_jsonable(result), sort_keys=True)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def digest_of(items: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(items).encode("utf-8")).hexdigest()


def repeat_units(ctx: Context, min_units: int, unit: Callable[[int], object]):
    """Run ``unit(i)`` until the next unit would overrun the budget."""
    outs = []
    start = time.perf_counter()
    while True:
        outs.append(unit(len(outs)))
        elapsed = time.perf_counter() - start
        done = len(outs)
        if done >= min_units and elapsed * (done + 1) / done > ctx.seconds:
            return outs


def probe(ctx: Context, spans: Spans) -> None:
    """A host-speed probe between timed operations (layer ``probe``)."""
    with spans.span("host-speed probe", "probe"):
        ctx.speed.probe()


def traced_pair(ctx: Context, unit: Callable[[Spans, int], object]):
    """The unit untraced, traced, then untraced again.

    The first unit absorbs first-run costs (page faults, lazy imports)
    and is discarded.  Returns ``(reference, traced_unit, root)``: the
    spans of the second untraced unit and of the traced one, whose
    difference on the host-speed scale is the tracing overhead.
    """
    unit(Spans(False), 0)
    ctx.spans.enabled = True
    with ctx.spans.span("unit", "bench", op="unit") as root:
        traced = unit(ctx.spans, 1)
    reference = Spans(False)
    with reference.span("unit", "bench") as ref:
        unit(reference, 2)
    probe(ctx, reference)
    return ref, traced, root


def child_env(ctx: Context) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ctx.root / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_CACHE_DIR"] = str(ctx.work / "default-store")
    return env


def measure_setup(ctx: Context, code: str) -> Tuple[float, float]:
    """Median of a fresh interpreter running ``code``: ``(host-speed
    adjusted, raw wall)`` seconds.  One pair of probes brackets all the
    repeats, each of which takes a fraction of a second.

    ``code`` gets a fresh directory under the run's work dir as
    ``sys.argv[1]`` (for store creation).
    """
    spans = []
    ctx.speed.probe()
    for attempt in range(SETUP_REPEATS):
        with Spans(False).span("setup", "bench") as span:
            subprocess.run(
                [sys.executable, "-c", code, str(ctx.work / f"setup-{attempt}")],
                cwd=ctx.root,
                env=child_env(ctx),
                check=True,
            )
        spans.append(span)
    ctx.speed.probe()
    factor = ctx.speed.factor(spans[0].start, spans[-1].end)
    raw = median([span.seconds for span in spans])
    return raw * factor, raw


def latency_metrics(out: Outcome, samples: Sequence[float], what: str) -> None:
    p50 = median(samples)
    value, percentile, n = tail(samples)
    out.end_to_end["point_p50_s"] = p50
    out.end_to_end["point_tail_s"] = value
    rule = "" if n > 10 else " (fewer than 11 samples: maximum)"
    out.notes.append(
        f"point = {what}; n={n}; p50={p50:.4f}s; "
        f"tail=p{percentile:.1f} {value:.4f}s{rule}"
    )


def store_bytes(directory: Path) -> List[int]:
    return [
        path.stat().st_size
        for path in directory.rglob("*.json")
        if not path.name.startswith(".tmp-")
    ]


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def model_errors(points) -> Tuple[float, float]:
    """Max |model - simulated| processor / network utilisation, in
    percentage points, at the 50 MIPS extraction cycle."""
    from repro.core.hybrid import EXTRACTION_CYCLE_PS, model_for

    util = net = 0.0
    for config, result in points:
        solved = model_for(config, result).solve(EXTRACTION_CYCLE_PS)
        util = max(
            util,
            abs(solved.processor_utilization - result.processor_utilization),
        )
        net = max(
            net, abs(solved.network_utilization - result.network_utilization)
        )
    return 100.0 * util, 100.0 * net


def engine_metrics(results) -> Dict[str, float]:
    """Simulated-time engine state summed or averaged over results."""
    refs = misses = waits = wait_total = 0
    for result in results:
        refs += result.trace.data_refs
        misses += result.stats.total_misses()
        if result.telemetry is not None:
            # Slot waits are recorded in ring cycles.
            clock_ps = result.config.ring.clock_ps
            for histogram in result.telemetry.finalize().slot_wait.values():
                waits += histogram.count
                wait_total += histogram.total * clock_ps
    count = len(results)
    return {
        "engine.elapsed_ps": float(sum(r.elapsed_ps for r in results)),
        "engine.ring_util": sum(r.network_utilization for r in results) / count,
        "engine.proc_util": sum(r.processor_utilization for r in results) / count,
        "engine.miss_rate": misses / refs if refs else 0.0,
        "engine.slot_wait_mean_ns": (wait_total / waits / 1000.0) if waits else 0.0,
    }


def build_traces(spec, config, data_refs: int) -> List[list]:
    """Every processor's trace, generated as run_simulation would
    generate it internally, materialised before the simulation."""
    from repro.memory.address import AddressMap
    from repro.traces.synthetic import SyntheticTraceGenerator

    address_map = AddressMap(spec.processors, config.block_size, seed=config.seed)
    generator = SyntheticTraceGenerator(spec, address_map, seed=config.seed)
    return [
        list(generator.stream(node, data_refs)) for node in range(spec.processors)
    ]


def layer_seconds(spans: Spans, layer: str, name: Optional[str] = None) -> float:
    return sum(
        s.seconds
        for s in spans.layer_spans(layer)
        if name is None or s.name == name
    )


# ----------------------------------------------------------------------
# ring-saturated
# ----------------------------------------------------------------------
RING_PROCESSORS = 64
RING_REFS = 800
#: Three paper-scale saturated rings at the 50 MIPS extraction point.
RING_POINTS = (
    ("mp3d", "snooping"),
    ("mp3d", "directory"),
    ("fft", "snooping"),
)
#: Passes over the warm store per unit (each a few milliseconds).
RING_WARM_PASSES = 20
#: Six units or more keep both the median and the tail rule's rank
#: (n - 11 of n = 3 x units) among the mp3d snooping runs.
RING_MIN_UNITS = 6


@dataclass
class SimPoint:
    label: str
    config: object
    result: object
    counters: Dict[str, int]
    #: Wall seconds, and seconds on the host-speed scale.
    total_s: float
    adj_s: float


def _ring_config(ctx: Context, protocol: str):
    from repro import Protocol, SystemConfig

    return SystemConfig(
        num_processors=RING_PROCESSORS, protocol=Protocol(protocol), seed=ctx.seed
    )


def _ring_unit(ctx: Context, spans: Spans, index: int):
    from repro.core.experiment import last_kernel_counters, run_simulation
    from repro.core.store import ResultStore
    from repro.traces.benchmarks import benchmark_spec

    points: List[SimPoint] = []
    probe(ctx, spans)
    for bench, protocol in RING_POINTS:
        config = _ring_config(ctx, protocol)
        spec = benchmark_spec(bench, RING_PROCESSORS)
        label = f"{bench}.{protocol}.{RING_PROCESSORS}p"
        with spans.span(label, "bench", op=f"u{index}.{label}") as point:
            with spans.span("SyntheticTraceGenerator", "traces"):
                traces = build_traces(spec, config, RING_REFS)
            with spans.span("run_simulation", "sim"):
                result = run_simulation(
                    spec, config=config, data_refs=RING_REFS, traces=traces
                )
        counters = last_kernel_counters()
        probe(ctx, spans)
        points.append(
            SimPoint(
                label, config, result, counters,
                point.seconds, ctx.speed.adjust(point),
            )
        )

    # Warm pass: the same points answered from a result store that was
    # filled outside the timed simulation region.
    store_dir = ctx.work / f"ring-store-{index}"
    store = ResultStore(store_dir)
    put_s = []
    for point in points:
        with spans.span("ResultStore.put", "store") as put:
            store.put(point.label, RING_REFS, point.config, point.result)
        put_s.append(put.seconds)
    passes = []
    for _ in range(RING_WARM_PASSES):
        with spans.span("warm pass", "bench") as warm:
            for point in points:
                with spans.span("ResultStore.get", "store"):
                    hit = store.get(point.label, RING_REFS, point.config)
                if hit is None:
                    raise RuntimeError(f"warm store missed {point.label}")
        passes.append(warm.seconds)
    return {
        "points": points,
        "warm_s": median(passes),
        "put_s": sum(put_s),
        "store": store.counters(),
        "entry_bytes": store_bytes(store_dir),
    }


def ring_saturated(ctx: Context) -> Outcome:
    from repro.core.experiment import last_kernel_counters, run_simulation

    out = Outcome()
    if ctx.trace:
        reference, unit, root = traced_pair(
            ctx, lambda spans, i: _ring_unit(ctx, spans, i)
        )
        units = [unit]
    else:
        units = repeat_units(
            ctx, RING_MIN_UNITS, lambda i: _ring_unit(ctx, ctx.spans, i)
        )
    refs = len(RING_POINTS) * RING_PROCESSORS * RING_REFS
    first = units[0]["points"]
    out.attempted = len(units) * len(RING_POINTS)

    # Exact counters repeat across units of the seed.
    signature = [
        (p.label, result_digest(p.result), p.counters) for p in first
    ]
    out.check(
        "ring: units repeat bit for bit",
        all(
            [(p.label, result_digest(p.result), p.counters) for p in u["points"]]
            == signature
            for u in units[1:]
        ),
    )
    out.ledger = {"points": [[label, d, c] for label, d, c in signature]}

    # Pre-built traces match the package's own generation, bit for bit.
    fft = first[-1]
    internal = run_simulation(
        "fft", config=fft.config, data_refs=RING_REFS
    )
    out.check(
        "ring: traces= matches internal generation",
        result_digest(internal) == result_digest(fft.result),
        fft.label,
    )
    # At the default seed, mp3d 64p snooping reproduces BENCH_kernel.json.
    expected = kernel_baseline_events(ctx.root)
    if ctx.seed == DEFAULT_SEED:
        events = first[0].counters["events_processed"]
    else:
        from repro import Protocol, SystemConfig

        run_simulation(
            "mp3d",
            config=SystemConfig(
                num_processors=RING_PROCESSORS, protocol=Protocol.SNOOPING
            ),
            data_refs=RING_REFS,
        )
        events = last_kernel_counters()["events_processed"]
    out.check(
        "ring: default-seed events_processed matches BENCH_kernel.json",
        events == expected,
        f"{events} vs {expected}",
    )

    util_err, net_err = model_errors([(p.config, p.result) for p in first])
    point_s = [p.adj_s for unit in units for p in unit["points"]]
    # A unit's time is the sum over its simulations of each one's median
    # across units: robust to the host's speed changing mid-run.
    unit_s = sum(
        median([unit["points"][i].adj_s for unit in units])
        for i in range(len(RING_POINTS))
    )
    out.raw["sim_refs_per_s"] = refs / sum(
        median([unit["points"][i].total_s for unit in units])
        for i in range(len(RING_POINTS))
    )
    warm = [unit["warm_s"] for unit in units]

    out.end_to_end["sim_refs_per_s"] = refs / unit_s
    out.end_to_end["points_per_s"] = len(RING_POINTS) / unit_s
    latency_metrics(out, point_s, "one 64p simulation incl. trace generation")
    out.extra["warm_pass_s"] = (median(warm), "s", "lower")
    out.extra["model_util_err"] = (util_err, "pct_points", "lower")
    out.extra["model_net_err"] = (net_err, "pct_points", "lower")

    if ctx.trace:
        spans = ctx.spans
        store = units[0]["store"]
        gen_s = layer_seconds(spans, "traces")
        run_s = layer_seconds(spans, "sim")
        events = sum(p.counters["events_processed"] for p in first)
        out.per_layer.update(
            {
                "traces.gen_s": gen_s,
                "traces.refs_per_s": refs / gen_s,
                "sim.run_s": run_s,
                "sim.ns_per_event": 1e9 * run_s / events,
                "sim.events": events,
                "sim.relay_hops": sum(p.counters["relay_hops"] for p in first),
                "sim.cancelled_wakes": sum(
                    p.counters["cancelled_wakes"] for p in first
                ),
                "store.get_s": layer_seconds(spans, "store", "ResultStore.get")
                / RING_WARM_PASSES,
                "store.put_s": units[0]["put_s"],
                "store.hit_ratio": store["hits"] / (store["hits"] + store["misses"]),
                "store.lost_writes": store["lost_writes"],
                "store.entry_bytes": median(units[0]["entry_bytes"]),
            }
        )
        out.per_layer.update(engine_metrics([p.result for p in first]))
        finish_trace(out, ctx, reference, root)
    return out


def kernel_baseline_events(root: Path) -> int:
    with open(root / "BENCH_kernel.json") as handle:
        baseline = json.load(handle)
    workload = baseline["workloads"]["simulate.mp3d.snooping.64p"]
    return workload["counters"]["events_processed"]


# ----------------------------------------------------------------------
# hybrid-sweep
# ----------------------------------------------------------------------
HYBRID_BENCHMARKS = ("mp3d", "water", "cholesky")
HYBRID_SIZES = (8, 16, 32)
HYBRID_PROTOCOLS = ("snooping", "directory")
HYBRID_REFS = 1_500
HYBRID_SEEDS = 3
#: Two units (108 point latencies) steady the per-point median, whose
#: samples are ~0.15 s simulations timed inside busy pool workers.
HYBRID_MIN_UNITS = 2
#: Warm passes per unit (each ~0.1 s: pool start plus 54 store reads).
HYBRID_WARM_PASSES = 5
#: The design surface: 50 ring clocks x 100 memory latencies x the
#: paper's 20 processor cycles = 100,000 grid points.
SURFACE_AXES = {
    "ring_clock_ps": list(range(1_000, 6_000, 100)),
    "memory_access_ps": list(range(50_000, 150_000, 1_000)),
}


def hybrid_points(seed: int):
    from repro import Protocol
    from repro.core.hybrid import extraction_point
    from repro.core.parallel import derive_seed

    points = []
    for index in range(HYBRID_SEEDS):
        point_seed = derive_seed(seed, index)
        for bench in HYBRID_BENCHMARKS:
            for processors in HYBRID_SIZES:
                for protocol in HYBRID_PROTOCOLS:
                    point = extraction_point(
                        bench, processors, Protocol(protocol),
                        data_refs=HYBRID_REFS,
                    )
                    points.append(dataclasses.replace(point, seed=point_seed))
    return points


def _hybrid_unit(ctx: Context, spans: Spans, index: int, points):
    from repro import Protocol, SystemConfig
    from repro.core.experiment import clear_simulation_cache
    from repro.core.hybrid import sweep_from_result
    from repro.core.parallel import SweepReport, execute_points
    from repro.models import grid as grid_engine
    from repro.models.base import SOLVER_STATS, reset_solver_stats

    store_dir = ctx.work / f"hybrid-store-{index}"
    clear_simulation_cache(disk=False)
    # One execute_points call per derived seed, with a host-speed probe
    # between calls, so the scale follows the host through the pass.
    probe(ctx, spans)
    outcomes, colds = [], []
    per_seed = len(points) // HYBRID_SEEDS
    for start in range(0, len(points), per_seed):
        with spans.span("execute_points cold", "pool", op=f"u{index}.cold") as cold:
            part = execute_points(
                points[start : start + per_seed], jobs=ctx.jobs,
                cache_dir=store_dir,
            )
        probe(ctx, spans)
        outcomes.extend(part.outcomes)
        colds.append(cold)
    report = SweepReport(outcomes=outcomes, jobs=ctx.jobs)
    if report.cache_hits:
        raise RuntimeError("cold pass hit a fresh store")

    reset_solver_stats()
    sweeps = []
    for number, (point, result) in enumerate(zip(points, report.results)):
        op = f"u{index}.p{number}"
        with spans.span("sweep_from_result", "models", op=op) as sweep:
            sweep_from_result(result, point.num_processors, point.protocol)
        sweeps.append(sweep)
    probe(ctx, spans)
    model_evals = SOLVER_STATS["model_evals"]
    factors = [ctx.speed.factor(c.start, c.end) for c in colds]
    point_factors = [f for f in factors for _ in range(per_seed)]

    warm_s = []
    hits = 0
    for _ in range(HYBRID_WARM_PASSES):
        clear_simulation_cache(disk=False)
        with spans.span("execute_points warm", "pool") as warm:
            warm_report = execute_points(
                points, jobs=ctx.jobs, cache_dir=store_dir
            )
        warm_s.append(warm.seconds)
        hits += warm_report.cache_hits
    clear_simulation_cache(disk=False)

    grid_engine.reset_grid_stats()
    surface_config = SystemConfig(num_processors=16, protocol=Protocol.SNOOPING)
    surface_inputs = next(
        result.inputs
        for point, result in zip(points, report.results)
        if point.num_processors == 16 and point.protocol is Protocol.SNOOPING
    )
    with spans.span("surface", "bench") as surface:
        with spans.span("ModelGrid.from_product", "grid"):
            grid = grid_engine.ModelGrid.from_product(
                "ring_snooping", surface_config, surface_inputs,
                parameters=SURFACE_AXES,
            )
        with spans.span("solve_grid", "grid") as solve:
            solution = grid_engine.solve_grid(grid)
    return {
        "report": report,
        "cold_s": sum(c.seconds for c in colds),
        "sweep_s": [sweep.seconds for sweep in sweeps],
        "cold_adj_s": sum(c.seconds * f for c, f in zip(colds, factors)),
        "sweep_adj_s": [ctx.speed.adjust(sweep) for sweep in sweeps],
        # Each point's extraction ran in a worker during its cold call.
        "point_adj_s": [
            outcome.wall_s * factor + ctx.speed.adjust(sweep)
            for outcome, factor, sweep in zip(
                report.outcomes, point_factors, sweeps
            )
        ],
        "warm_s": median(warm_s),
        "warm_hits": hits,
        "warm_attempts": HYBRID_WARM_PASSES * len(points),
        "model_evals": model_evals,
        "surface_s": surface.seconds,
        "solve_s": solve.seconds,
        "surface_points": solution.size,
        "grid": dict(grid_engine.GRID_STATS),
        "store_dir": store_dir,
    }


def _hybrid_ledger(unit) -> Dict[str, object]:
    return {
        "results": digest_of(
            [result_digest(r) for r in unit["report"].results]
        ),
        "model_evals": unit["model_evals"],
        "grid_evals": unit["grid"]["grid_evals"],
        "points_failed": unit["grid"]["points_failed"],
    }


def _hybrid_store_probe(ctx: Context, spans: Spans, points, unit):
    """Time ResultStore.get (warm store) and put (fresh store) for each
    point key; per-layer only, outside the traced unit."""
    from repro.core.store import ResultStore

    warm = ResultStore(unit["store_dir"])
    fresh = ResultStore(ctx.work / "hybrid-store-probe")
    get_s = put_s = 0.0
    for point, result in zip(points, unit["report"].results):
        config = point.resolved_config()
        with spans.span("ResultStore.get", "store") as get:
            found = warm.get(point.benchmark, point.data_refs, config)
        with spans.span("ResultStore.put", "store") as put:
            fresh.put(point.benchmark, point.data_refs, config, result)
        if found is None:
            raise RuntimeError(f"store probe missed {point}")
        get_s += get.seconds
        put_s += put.seconds
    return get_s, put_s, warm.lost_writes + fresh.lost_writes


def _hybrid_replay(ctx: Context, spans: Spans, points):
    """Re-run the first seed's points in-process with the traces built
    outside run_simulation, so trace generation and the kernel get their
    own spans (pool workers are invisible to the parent's spans)."""
    from repro.core.experiment import last_kernel_counters, run_simulation
    from repro.traces.benchmarks import benchmark_spec

    replayed = []
    counters = {"events_processed": 0, "relay_hops": 0, "cancelled_wakes": 0}
    refs = 0
    for point in points[: len(points) // HYBRID_SEEDS]:
        config = point.resolved_config()
        spec = benchmark_spec(point.benchmark, point.num_processors)
        with spans.span("replay point", "bench"):
            with spans.span("SyntheticTraceGenerator", "traces"):
                traces = build_traces(spec, config, point.data_refs)
            with spans.span("run_simulation", "sim"):
                result = run_simulation(
                    spec, config=config, data_refs=point.data_refs, traces=traces
                )
        for key in counters:
            counters[key] += last_kernel_counters()[key]
        refs += point.num_processors * point.data_refs
        replayed.append(result)
    return replayed, counters, refs


def hybrid_sweep(ctx: Context) -> Outcome:
    from repro.core.experiment import clear_simulation_cache
    from repro.core.parallel import execute_points

    out = Outcome()
    points = hybrid_points(ctx.seed)
    if ctx.trace:
        reference, unit, root = traced_pair(
            ctx, lambda spans, i: _hybrid_unit(ctx, spans, i, points)
        )
        units = [unit]
    else:
        units = repeat_units(
            ctx, HYBRID_MIN_UNITS, lambda i: _hybrid_unit(ctx, ctx.spans, i, points)
        )
    first = units[0]
    results = first["report"].results
    out.attempted = len(units) * len(points)

    out.ledger = _hybrid_ledger(first)
    out.check(
        "hybrid: units repeat bit for bit",
        all(_hybrid_ledger(u) == out.ledger for u in units[1:]),
    )
    out.check(
        "hybrid: warm passes are all store hits",
        all(u["warm_hits"] == u["warm_attempts"] for u in units),
    )
    out.check(
        "hybrid: surface solved without failed points",
        first["grid"]["points_failed"] == 0,
        f"{first['grid']['points_failed']} failed",
    )
    # Pooled and serial results for one point and seed are identical.
    clear_simulation_cache(disk=False)
    serial = execute_points(points[:1], jobs=1, use_cache=False)
    clear_simulation_cache(disk=False)
    out.check(
        "hybrid: pooled result equals serial result",
        result_digest(serial.results[0]) == result_digest(results[0]),
        f"{points[0].benchmark}@{points[0].num_processors}p",
    )

    refs = sum(p.num_processors * p.data_refs for p in points)
    samples = [s for u in units for s in u["point_adj_s"]]
    out.end_to_end["sim_refs_per_s"] = median(
        [refs / u["cold_adj_s"] for u in units]
    )
    out.raw["sim_refs_per_s"] = median([refs / u["cold_s"] for u in units])
    out.end_to_end["points_per_s"] = median(
        [len(points) / (u["cold_adj_s"] + sum(u["sweep_adj_s"])) for u in units]
    )
    latency_metrics(out, samples, "one sweep point: extraction + model sweep")
    out.extra["warm_pass_s"] = (median([u["warm_s"] for u in units]), "s", "lower")
    out.extra["surface_points_per_s"] = (
        median([u["surface_points"] / u["surface_s"] for u in units]),
        "1/s",
        "higher",
    )
    util_err, net_err = model_errors(
        [(p.resolved_config(), r) for p, r in zip(points, results)]
    )
    out.extra["model_util_err"] = (util_err, "pct_points", "lower")
    out.extra["model_net_err"] = (net_err, "pct_points", "lower")

    if ctx.trace:
        spans = ctx.spans
        report = first["report"]
        busy = sum(o.wall_s for o in report.outcomes)
        wall = first["cold_s"]
        with spans.span("store probe", "bench"):
            get_s, put_s, lost = _hybrid_store_probe(ctx, spans, points, first)
        with spans.span("replay", "bench") as replay:
            replayed, counters, replay_refs = _hybrid_replay(ctx, spans, points)
        gen_s = layer_seconds(spans, "traces")
        run_s = layer_seconds(spans, "sim")
        out.per_layer.update(
            {
                "traces.gen_s": gen_s,
                "traces.refs_per_s": replay_refs / gen_s,
                "sim.run_s": run_s,
                "sim.ns_per_event": 1e9 * run_s / counters["events_processed"],
                "sim.events": counters["events_processed"],
                "sim.relay_hops": counters["relay_hops"],
                "sim.cancelled_wakes": counters["cancelled_wakes"],
                "models.sweep_s": sum(first["sweep_s"]),
                "models.model_evals": first["model_evals"],
                "grid.solve_s": first["solve_s"],
                "grid.grid_evals": first["grid"]["grid_evals"],
                "grid.points_failed": first["grid"]["points_failed"],
                "pool.wall_s": wall,
                "pool.busy_s": busy,
                "pool.efficiency": busy / (ctx.jobs * wall),
                "pool.overhead_s": wall - busy / ctx.jobs,
                "store.get_s": get_s,
                "store.put_s": put_s,
                "store.hit_ratio": first["warm_hits"] / first["warm_attempts"],
                "store.lost_writes": lost,
                "store.entry_bytes": median(store_bytes(first["store_dir"])),
            }
        )
        out.per_layer.update(engine_metrics(results))
        out.check(
            "hybrid: replayed traces= results equal pooled results",
            [result_digest(r) for r in replayed]
            == [result_digest(r) for r in results[: len(replayed)]],
        )
        out.notes.append(
            f"replay of {len(replayed)} points for the traces/sim split: "
            f"{replay.seconds:.2f}s (outside the unit, not in the overhead)"
        )
        finish_trace(out, ctx, reference, root)
    return out


# ----------------------------------------------------------------------
# check-exhaustive
# ----------------------------------------------------------------------
CHECK_NODES = 4
CHECK_LINES = 2
CHECK_PROOFS = (
    ("snooping", "engine"),
    ("directory", "engine"),
    ("hierarchical", "engine"),
    ("snooping", "spec"),
)
#: Passes over the completed checkpoints (each a few milliseconds).
CHECK_WARM_PASSES = 30


def _explore(ctx: Context, protocol: str, expansion: str, store):
    from repro.check.explorer import explore

    return explore(
        protocol,
        CHECK_NODES,
        CHECK_LINES,
        max_depth=64,
        max_states=100_000,
        jobs=ctx.jobs,
        store=store,
        expansion=expansion,
    )


class _TimedStore:
    """Wraps a ResultStore so its checkpoint reads and writes get
    ``store`` spans inside the explorer's span."""

    def __init__(self, store, spans: Spans) -> None:
        self._store = store
        self._spans = spans

    def __getattr__(self, name):
        return getattr(self._store, name)

    def get_blob(self, kind, key):
        with self._spans.span("ResultStore.get_blob", "store"):
            return self._store.get_blob(kind, key)

    def put_blob(self, kind, key, payload):
        with self._spans.span("ResultStore.put_blob", "store"):
            return self._store.put_blob(kind, key, payload)


@dataclass
class Proof:
    protocol: str
    expansion: str
    report: object
    seconds: float
    adj_s: float
    store: object
    #: The same proof answered again from its completed checkpoint.
    cached: object = None

    @property
    def name(self) -> str:
        return f"{self.protocol}/{self.expansion}"


def _check_unit(ctx: Context, spans: Spans, index: int, order):
    from repro.core.store import ResultStore

    proofs: List[Proof] = []
    probe(ctx, spans)
    for protocol, expansion in order:
        store = ResultStore(ctx.work / f"check-{index}-{protocol}-{expansion}")
        layer = "spec" if expansion == "spec" else "check"
        with spans.span(
            f"explore {protocol}/{expansion}", layer,
            op=f"u{index}.{protocol}.{expansion}",
        ) as span:
            report = _explore(ctx, protocol, expansion, _TimedStore(store, spans))
        probe(ctx, spans)
        proofs.append(
            Proof(protocol, expansion, report, span.seconds,
                  ctx.speed.adjust(span), store)
        )
    passes = []
    hits = lookups = 0
    for _ in range(CHECK_WARM_PASSES):
        with spans.span("warm pass", "bench") as warm:
            for proof in proofs:
                store = ResultStore(proof.store.directory)
                layer = "spec" if proof.expansion == "spec" else "check"
                with spans.span(f"explore {proof.name} (resume)", layer):
                    proof.cached = _explore(
                        ctx, proof.protocol, proof.expansion,
                        _TimedStore(store, spans),
                    )
                hits += store.blob_hits
                lookups += store.blob_hits + store.blob_misses
        passes.append(warm.seconds)
    return {
        "proofs": proofs,
        "warm_s": median(passes),
        "warm_hit_ratio": hits / lookups,
    }


def refs_per_expansion() -> int:
    """Data references the explorer applies per expanded state."""
    from repro.check.explorer import step_alphabet

    return sum(len(step.refs) for step in step_alphabet(CHECK_NODES, CHECK_LINES))


def check_exhaustive(ctx: Context) -> Outcome:
    out = Outcome()
    # The state spaces have no random inputs; the seed orders the proofs.
    order = random.Random(ctx.seed).sample(CHECK_PROOFS, len(CHECK_PROOFS))
    if ctx.trace:
        reference, unit, root = traced_pair(
            ctx, lambda spans, i: _check_unit(ctx, spans, i, order)
        )
        units = [unit]
    else:
        units = repeat_units(
            ctx, 1, lambda i: _check_unit(ctx, ctx.spans, i, order)
        )
    out.attempted = len(units) * len(order)
    for unit in units:
        counters = {}
        for proof in unit["proofs"]:
            report = proof.report
            ok = report.ok and report.complete and not report.resumed
            out.check(f"check: {proof.name} ok and complete", ok, report.summary())
            out.failed += not ok
            cached = proof.cached
            out.check(
                f"check: {proof.name} cached proof ok and complete",
                cached.ok and cached.complete and cached.resumed,
            )
            counters[proof.name] = report.counters()
        if out.ledger:
            out.check("check: units repeat counters", counters == out.ledger)
        out.ledger = counters

    first = units[0]["proofs"]
    refs = sum(p.report.states_expanded for p in first) * refs_per_expansion()
    explore_adj = [sum(p.adj_s for p in u["proofs"]) for u in units]
    explore_s = [sum(p.seconds for p in u["proofs"]) for u in units]
    samples = [p.adj_s for u in units for p in u["proofs"]]

    out.end_to_end["sim_refs_per_s"] = median([refs / s for s in explore_adj])
    out.raw["sim_refs_per_s"] = median([refs / s for s in explore_s])
    out.end_to_end["points_per_s"] = median([len(order) / s for s in explore_adj])
    latency_metrics(out, samples, f"one exhaustive {CHECK_NODES}p/{CHECK_LINES}l proof")
    out.extra["warm_pass_s"] = (median([u["warm_s"] for u in units]), "s", "lower")
    out.extra["explore_s"] = (median(explore_s), "s", "lower")

    if ctx.trace:
        spans = ctx.spans
        states = sum(p.report.states for p in first)
        steps = sum(p.report.steps_applied for p in first)
        engine_s = sum(p.seconds for p in first if p.expansion == "engine")
        spec_s = sum(p.seconds for p in first if p.expansion == "spec")
        sizes = [size for p in first for size in store_bytes(p.store.directory)]
        out.per_layer.update(
            {
                "check.explore_s": engine_s,
                "spec.explore_s": spec_s,
                "check.states": states,
                "check.steps_applied": steps,
                "check.steps_per_s": steps / (engine_s + spec_s),
                "check.useful_ratio": states / steps,
                "store.get_s": layer_seconds(spans, "store", "ResultStore.get_blob")
                / (CHECK_WARM_PASSES + 1),
                "store.put_s": layer_seconds(spans, "store", "ResultStore.put_blob"),
                "store.hit_ratio": units[0]["warm_hit_ratio"],
                "store.lost_writes": sum(p.store.lost_writes for p in first),
                "store.entry_bytes": median(sizes),
            }
        )
        for proof in first:
            out.notes.append(f"explore {proof.name}: {proof.seconds:.3f}s")
        finish_trace(out, ctx, reference, root)
    return out


# ----------------------------------------------------------------------
# serve-queue
# ----------------------------------------------------------------------
SERVE_BENCHMARKS = ("mp3d", "water", "cholesky")
SERVE_SIZES = (8, 16)
SERVE_PROTOCOLS = ("snooping", "directory")
#: Per-request bound: a request still open after this counts as failed.
SERVE_TIMEOUT_S = 5.0
SERVE_RESUBMITS = 8
SERVE_PAIRS = 4
SERVE_BOOTS = 3


class Daemon:
    """``repro serve`` in a child process, stopped and reaped on exit."""

    def __init__(self, ctx: Context, store_dir: Path) -> None:
        self.ctx = ctx
        self.store_dir = store_dir
        self.proc: Optional[subprocess.Popen] = None
        self.url = ""
        self.boot_s = 0.0

    def __enter__(self) -> "Daemon":
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--jobs", str(self.ctx.jobs), "--cache-dir", str(self.store_dir),
            ],
            cwd=self.ctx.root,
            env=child_env(self.ctx),
            stderr=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stderr.readline()
        match = re.search(r"listening on (\S+)", line)
        if match is None:
            self.__exit__(None, None, None)
            raise RuntimeError(f"serve daemon did not start: {line!r}")
        self.url = match.group(1)
        self.boot_s = time.perf_counter() - start
        # Keep draining stderr so the daemon never blocks on a full pipe.
        self._drain = threading.Thread(
            target=lambda: self.proc.stderr.read(), daemon=True
        )
        self._drain.start()
        return self

    def __exit__(self, *exc_info) -> None:
        if self.proc is None:
            return
        if self.url:
            from repro.serve import ServeClient, ServeError

            try:
                ServeClient(self.url, timeout=SERVE_TIMEOUT_S).shutdown()
            except (ServeError, OSError):
                pass
        else:
            self.proc.kill()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
        if self.url:
            self._drain.join(timeout=30)
        self.proc.stderr.close()


def serve_specs(seed: int) -> List[Dict[str, object]]:
    """~24 small sweep specs; the seed picks each spec's trace length."""
    rng = random.Random(seed)
    specs = []
    for bench in SERVE_BENCHMARKS:
        for processors in SERVE_SIZES:
            for protocol in SERVE_PROTOCOLS:
                for _ in range(2):
                    specs.append(
                        {
                            "kind": "sweep",
                            "benchmark": bench,
                            "processors": processors,
                            "protocol": protocol,
                            "data_refs": 400 + 20 * rng.randrange(20),
                        }
                    )
    rng.shuffle(specs)
    return specs


@dataclass
class Request:
    spec: Dict[str, object]
    phase: str
    submit_s: float = 0.0
    stream_s: float = 0.0
    latency_s: float = 0.0
    coalesced: bool = False
    job: str = ""
    state: str = ""
    simulated: int = 0
    cache_hits: int = 0
    error: str = ""

    @property
    def failed(self) -> bool:
        return bool(self.error) or self.state != "done"


def _drive(spans: Spans, url: str, spec, phase: str, op: str) -> Request:
    """Submit one job and follow its NDJSON stream as ``repro submit``
    does: to the end of the stream, within the per-request bound."""
    from repro.serve import ServeClient, ServeError

    client = ServeClient(url, timeout=SERVE_TIMEOUT_S)
    request = Request(dict(spec), phase)
    start = time.perf_counter()
    try:
        with spans.span("POST /jobs", "serve", op=op) as submit:
            job = client.submit(spec)
        request.submit_s = submit.seconds
        request.coalesced = bool(job["coalesced"])
        request.job = job["job"]
        with spans.span("GET /jobs/{id}/events", "serve", op=op) as stream:
            for _event in client.events(job["job"]):
                if time.perf_counter() - start > SERVE_TIMEOUT_S:
                    raise TimeoutError("request exceeded its bound")
        request.stream_s = stream.seconds
        final = client.job(job["job"])
        request.state = final["state"]
        request.simulated = final["simulated"]
        request.cache_hits = final["cache_hits"]
    except (ServeError, OSError) as exc:
        request.error = f"{type(exc).__name__}: {exc}"
    request.latency_s = time.perf_counter() - start
    if request.latency_s > SERVE_TIMEOUT_S and not request.error:
        request.error = "request exceeded its bound"
    return request


def serve_queue(ctx: Context) -> Outcome:
    from repro import Protocol
    from repro.core.experiment import clear_simulation_cache
    from repro.core.parallel import SweepPoint, execute_points
    from repro.serve import ServeClient
    from repro.serve.protocol import simulate_payload

    out = Outcome()
    if ctx.trace:
        ctx.spans.enabled = True
    else:
        boots = []
        for attempt in range(SERVE_BOOTS):
            with Daemon(ctx, ctx.work / f"serve-boot-{attempt}") as daemon:
                boots.append(daemon.boot_s)
        out.end_to_end["setup_s"] = median(boots)
    spans = ctx.spans
    specs = serve_specs(ctx.seed)
    requests: List[Request] = []
    with Daemon(ctx, ctx.work / "serve-store") as daemon:
        with spans.span("serve-queue", "bench", op="serve") as total:
            with spans.span("cold", "bench") as cold:
                for number, spec in enumerate(specs):
                    requests.append(
                        _drive(spans, daemon.url, spec, "cold", f"cold{number}")
                    )
            with spans.span("resubmit", "bench") as warm:
                for number, spec in enumerate(specs[:SERVE_RESUBMITS]):
                    requests.append(
                        _drive(spans, daemon.url, spec, "resubmit", f"re{number}")
                    )
            for pair in range(SERVE_PAIRS):
                spec = dict(specs[pair], data_refs=int(specs[pair]["data_refs"]) + 1)
                slots: List[Optional[Request]] = [None, None]

                def follow(slot: int, spec=spec, pair=pair) -> None:
                    slots[slot] = _drive(
                        spans, daemon.url, spec, "pair", f"pair{pair}.{slot}"
                    )

                threads = [
                    threading.Thread(target=follow, args=(slot,))
                    for slot in range(2)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=2 * SERVE_TIMEOUT_S)
                for slot, thread in enumerate(threads):
                    if thread.is_alive() or slots[slot] is None:
                        raise RuntimeError("client thread did not finish")
                    requests.append(slots[slot])

        # Served, pooled and serial results for one point and seed agree.
        point = {
            "kind": "simulate", "benchmark": "mp3d", "processors": 8,
            "protocol": "snooping", "data_refs": 600, "seed": ctx.seed,
        }
        served = _drive(Spans(False), daemon.url, point, "identity", "identity")
        served_payload = None
        if not served.failed:
            served_payload = ServeClient(
                daemon.url, timeout=SERVE_TIMEOUT_S
            ).result(served.job)
    sweep_point = SweepPoint("mp3d", 8, Protocol.SNOOPING, 600, seed=ctx.seed)
    clear_simulation_cache(disk=False)
    pooled = execute_points([sweep_point], jobs=ctx.jobs, use_cache=False)
    clear_simulation_cache(disk=False)
    serial = execute_points([sweep_point], jobs=1, use_cache=False)
    clear_simulation_cache(disk=False)
    local = json.loads(json.dumps(simulate_payload(serial.results[0])))
    out.check(
        "serve: pooled result equals serial result",
        result_digest(pooled.results[0]) == result_digest(serial.results[0]),
    )
    out.check(
        "serve: served result equals serial result",
        served_payload == local,
        served.error or "",
    )

    out.attempted = len(requests)
    out.failed = sum(1 for r in requests if r.failed)
    out.extra["failed_frac"] = (
        failed_frac(out.attempted, out.failed), "ratio", "lower"
    )
    # A failed request misses every latency limit: it enters the latency
    # samples as infinitely slow.
    samples = [r.latency_s if not r.failed else float("inf") for r in requests]
    latency_metrics(out, samples, "one job, submit to end of stream")
    out.end_to_end["points_per_s"] = (out.attempted - out.failed) / total.seconds
    cold_reqs = [r for r in requests if r.phase == "cold" and not r.failed]
    out.end_to_end["sim_refs_per_s"] = sum(
        int(r.spec["data_refs"]) * int(r.spec["processors"]) for r in cold_reqs
    ) / cold.seconds
    out.extra["warm_pass_s"] = (warm.seconds, "s", "lower")
    for r in requests:
        if r.failed:
            out.notes.append(f"FAILED {r.phase} {r.spec}: {r.error or r.state}")
    if ctx.trace:
        ok = [r for r in requests if not r.failed]
        out.per_layer.update(
            {
                "serve.submit_s": median([r.submit_s for r in ok]),
                "serve.stream_s": median([r.stream_s for r in ok]),
                "serve.coalesced": sum(1 for r in requests if r.coalesced),
                "serve.simulated": sum(r.simulated for r in requests),
                "serve.cache_hits": sum(r.cache_hits for r in requests),
                "serve.timeouts": out.failed,
            }
        )
        finish_trace(out, ctx, None, None)
    return out


# ----------------------------------------------------------------------
# Traced-run bookkeeping
# ----------------------------------------------------------------------
def finish_trace(out: Outcome, ctx: Context, reference, root) -> None:
    """Per-layer self times and tracing overhead of a traced run.

    The self times of all layers sum to the traced wall (the root
    spans); ``trace.unattributed_share`` is the part of it spent in the
    benchmark's own glue, outside every package layer and probe.
    """
    selfs = ctx.spans.self_times()
    wall = sum(s.seconds for s in ctx.spans.spans if s.parent == 0)
    out.per_layer["trace.unattributed_share"] = selfs.get("bench", 0.0) / wall
    if reference is not None:
        overhead = root.seconds - reference.seconds
        out.per_layer["trace.overhead_s"] = overhead
        adjusted = ctx.speed.adjust(root) - ctx.speed.adjust(reference)
        out.notes.append(
            f"tracing overhead: traced unit {root.seconds:.3f}s - untraced "
            f"unit {reference.seconds:.3f}s = {overhead:+.3f}s "
            f"({adjusted:+.3f}s on the host-speed scale; one pair of units "
            "does not resolve an overhead below the host's drift)"
        )
    width = max(len(layer) for layer in selfs)
    out.notes.append(f"per-layer self time over {wall:.3f}s of traced wall:")
    for layer, seconds in sorted(selfs.items(), key=lambda kv: -kv[1]):
        out.notes.append(
            f"  {layer:<{width}} {seconds:9.3f}s {100.0 * seconds / wall:6.1f}%"
        )


WORKLOADS: Dict[str, Tuple[Callable[[Context], Outcome], Optional[str]]] = {
    "ring-saturated": (
        ring_saturated,
        "import repro.core.experiment, repro.traces.synthetic, repro.memory.address",
    ),
    "hybrid-sweep": (
        hybrid_sweep,
        "import sys, repro.core.parallel, repro.core.hybrid, repro.models.grid\n"
        "from repro.core.store import ResultStore\n"
        "ResultStore(sys.argv[1])",
    ),
    "check-exhaustive": (
        check_exhaustive,
        "import sys, repro.check, repro.spec\n"
        "from repro.core.store import ResultStore\n"
        "ResultStore(sys.argv[1])",
    ),
    # Set-up is the daemon's boot, measured inside the workload.
    "serve-queue": (serve_queue, None),
}

#: Workloads whose timed operations run on a pool of ``jobs`` workers;
#: their host-speed probes run on that many cores.
POOLED = ("hybrid-sweep", "check-exhaustive")
