"""Integration tests for the simulation driver."""

import pytest

from repro.core.config import Protocol, SystemConfig
from repro.core.experiment import (
    clear_simulation_cache,
    run_simulation,
    run_simulation_cached,
)
from repro.core.metrics import MissClass

REFS = 1_500  # small but non-trivial traces for integration checks


@pytest.fixture(scope="module")
def snooping_result():
    return run_simulation(
        "mp3d", num_processors=4, protocol=Protocol.SNOOPING, data_refs=REFS
    )


def test_result_metrics_sane(snooping_result):
    result = snooping_result
    assert 0.0 < result.processor_utilization <= 1.0
    assert 0.0 <= result.network_utilization <= 1.0
    assert result.shared_miss_latency_ns > 0.0
    assert result.elapsed_ps > 0
    assert result.instructions > 4 * REFS  # > 1 instr per data ref


def test_trace_characteristics_match_workload(snooping_result):
    trace = snooping_result.trace
    assert trace.benchmark == "mp3d"
    assert trace.processors == 4
    assert trace.data_refs == 4 * REFS
    assert 0.0 < trace.shared_fraction < 1.0
    assert trace.total_miss_rate_percent > 0.0
    assert trace.shared_miss_rate_percent > trace.total_miss_rate_percent


def test_model_inputs_extracted(snooping_result):
    inputs = snooping_result.inputs
    assert inputs.protocol is Protocol.SNOOPING
    assert inputs.data_refs_per_instr == pytest.approx(
        snooping_result.trace.data_refs / snooping_result.instructions
    )
    assert inputs.f_miss_total() > 0.0
    assert inputs.f_probes > 0.0
    # Snooping probes are all broadcasts.
    assert inputs.f_broadcast_probes == pytest.approx(inputs.f_probes)


def test_simulation_is_deterministic():
    a = run_simulation(
        "water", num_processors=4, protocol=Protocol.DIRECTORY, data_refs=800
    )
    b = run_simulation(
        "water", num_processors=4, protocol=Protocol.DIRECTORY, data_refs=800
    )
    assert a.elapsed_ps == b.elapsed_ps
    assert a.processor_utilization == b.processor_utilization
    assert a.stats.probes_sent == b.stats.probes_sent


def test_seed_changes_results():
    from dataclasses import replace

    base = SystemConfig(num_processors=4, protocol=Protocol.SNOOPING)
    a = run_simulation("mp3d", config=base, data_refs=800)
    b = run_simulation("mp3d", config=replace(base, seed=77), data_refs=800)
    assert a.elapsed_ps != b.elapsed_ps


def test_all_protocols_run_all_benchmarks_smoke():
    for protocol in Protocol:
        result = run_simulation(
            "cholesky", num_processors=4, protocol=protocol, data_refs=400
        )
        assert result.processor_utilization > 0.0


def test_directory_produces_figure5_classes():
    result = run_simulation(
        "mp3d", num_processors=8, protocol=Protocol.DIRECTORY, data_refs=REFS
    )
    counts = result.stats.counts_by_class()
    assert counts[MissClass.REMOTE_CLEAN] > 0
    assert counts[MissClass.DIRTY_ONE_CYCLE] + counts[MissClass.TWO_CYCLE] > 0


def test_cached_runs_are_reused():
    clear_simulation_cache()
    first = run_simulation_cached(
        "mp3d", 4, Protocol.SNOOPING, data_refs=500
    )
    second = run_simulation_cached(
        "mp3d", 4, Protocol.SNOOPING, data_refs=500
    )
    assert first is second
    different = run_simulation_cached(
        "mp3d", 4, Protocol.DIRECTORY, data_refs=500
    )
    assert different is not first
    clear_simulation_cache()


def test_spec_object_accepted_directly():
    from repro.traces.benchmarks import benchmark_spec

    spec = benchmark_spec("water", 8).scaled(shared_run_mean=10.0)
    result = run_simulation(spec, data_refs=400)
    assert result.benchmark == "water"
    assert result.config.num_processors == 8


def test_final_state_passes_invariants():
    from repro.core.experiment import build_engine
    from repro.proc.processor import TraceProcessor
    from repro.ring.flatring import spawn_trace_processor
    from repro.sim.kernel import Simulator
    from repro.traces.benchmarks import benchmark_spec
    from repro.traces.synthetic import SyntheticTraceGenerator

    sim = Simulator()
    config = SystemConfig(num_processors=4, protocol=Protocol.SNOOPING)
    engine = build_engine(sim, config)
    spec = benchmark_spec("mp3d", 4)
    generator = SyntheticTraceGenerator(spec, engine.address_map, seed=3)
    for node in range(4):
        processor = TraceProcessor(
            sim, node, engine, generator.stream(node, 600), config.processor
        )
        spawn_trace_processor(sim, processor, name=f"cpu{node}")
    sim.run()
    engine.check_invariants()
