"""Scalar-oracle equivalence suite for the vectorized grid engine.

The scalar models in ``repro.models`` are the reference implementation;
``repro.models.grid`` re-expresses them over NumPy arrays.  Every test
here drives both through the same inputs -- hundreds of seeded-random
design points per family plus the degenerate corners -- and holds the
grid to the oracle within 1e-9 relative tolerance (the engine's
contract; in practice the match is bit-exact because the vectorized
iteration mirrors the scalar one operation for operation).
"""

from __future__ import annotations

import random
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import Protocol, SystemConfig
from repro.core.metrics import MissClass
from repro.core.results import ModelInputs, OperatingPoint
from repro.models import grid as grid_engine
from repro.models.bus import BusModel
from repro.models.matching import matching_bus_clock_ns
from repro.models.register_insertion import (
    access_comparison,
    crossover_utilization,
    register_insertion_access_ps,
    slotted_access_ps,
)
from repro.models.ring_directory import DirectoryRingModel
from repro.models.ring_linkedlist import LinkedListRingModel
from repro.models.ring_snooping import SnoopingRingModel
from repro.models.snoop_rate import (
    TABLE3_BLOCK_SIZES,
    TABLE3_WIDTHS,
    snoop_interarrival_ns,
)

#: The equivalence contract: every finite grid metric within this
#: relative tolerance of the scalar oracle.
REL = 1e-9

FAMILIES = {
    "ring_snooping": (Protocol.SNOOPING, SnoopingRingModel),
    "ring_directory": (Protocol.DIRECTORY, DirectoryRingModel),
    "ring_linkedlist": (Protocol.LINKED_LIST, LinkedListRingModel),
    "bus": (Protocol.BUS, BusModel),
}

#: Seeded-random design points per family (plus the corners below).
RANDOM_POINTS = 500

_METRICS = (
    "processor_cycle_ns",
    "processor_utilization",
    "network_utilization",
    "shared_miss_latency_ns",
    "upgrade_latency_ns",
    "time_per_instruction_ps",
)


def _assert_matches(ours: OperatingPoint, oracle: OperatingPoint, where=""):
    for name in _METRICS:
        assert getattr(ours, name) == pytest.approx(
            getattr(oracle, name), rel=REL, abs=1e-12
        ), f"{name} diverged from the scalar oracle {where}"


def _random_config(rng: random.Random, protocol: Protocol) -> SystemConfig:
    base = SystemConfig(
        num_processors=rng.choice((2, 4, 8, 16, 32, 64)),
        protocol=protocol,
    )
    return replace(
        base,
        ring=replace(
            base.ring,
            clock_ps=rng.randrange(1_000, 10_000),
            width_bits=rng.choice((16, 32, 64)),
        ),
        bus=replace(base.bus, clock_ps=rng.randrange(5_000, 40_000)),
        cache=replace(base.cache, block_size=rng.choice((16, 32, 64, 128))),
        memory=replace(
            base.memory,
            access_ps=rng.randrange(50_000, 300_000),
            cache_response_ps=rng.randrange(50_000, 300_000),
            directory_lookup_ps=rng.randrange(0, 20_000),
        ),
    )


def _make_inputs(
    protocol: Protocol,
    processors: int,
    *,
    private=0.002,
    local_clean=0.002,
    remote_clean=0.01,
    remote_dirty=0.005,
    dirty_one=0.0,
    two_cycle=0.0,
    upgrades_with=0.002,
    upgrades_without=0.001,
    writeback=0.001,
    memory_accesses=0.02,
    broadcast_share=1.0,
    forwards=0.0,
    upgrade_traversals=0.0,
) -> ModelInputs:
    f_miss = {klass: 0.0 for klass in MissClass}
    f_miss[MissClass.PRIVATE] = private
    f_miss[MissClass.LOCAL_CLEAN] = local_clean
    f_miss[MissClass.REMOTE_CLEAN] = remote_clean
    f_miss[MissClass.REMOTE_DIRTY] = remote_dirty
    f_miss[MissClass.DIRTY_ONE_CYCLE] = dirty_one
    f_miss[MissClass.TWO_CYCLE] = two_cycle
    probes = (
        remote_clean
        + remote_dirty
        + dirty_one
        + two_cycle
        + upgrades_with
        + upgrades_without
    )
    return ModelInputs(
        benchmark="synthetic",
        num_processors=processors,
        protocol=protocol,
        data_refs_per_instr=0.33,
        f_miss=f_miss,
        f_upgrade_with_sharers=upgrades_with,
        f_upgrade_without_sharers=upgrades_without,
        f_writeback=writeback,
        f_sharing_writeback=writeback,
        f_probes=probes,
        f_broadcast_probes=probes * broadcast_share,
        f_blocks=remote_clean + remote_dirty + dirty_one + two_cycle + 0.002,
        f_memory_accesses=memory_accesses,
        f_forwards=forwards,
        mean_upgrade_traversals=upgrade_traversals,
    )


def _random_inputs(
    rng: random.Random, protocol: Protocol, processors: int, scale=0.01
) -> ModelInputs:
    def f():
        return rng.random() * scale

    return _make_inputs(
        protocol,
        processors,
        private=f(),
        local_clean=f(),
        remote_clean=f(),
        remote_dirty=f(),
        dirty_one=f(),
        two_cycle=f(),
        upgrades_with=f(),
        upgrades_without=f(),
        writeback=f(),
        memory_accesses=f(),
        broadcast_share=rng.random(),
        forwards=f(),
        upgrade_traversals=1.0 + rng.random() * 3.0,
    )


def _random_points(family: str, count: int):
    protocol, _ = FAMILIES[family]
    rng = random.Random(f"grid-oracle-{family}")
    points = []
    for _ in range(count):
        config = _random_config(rng, protocol)
        inputs = _random_inputs(rng, protocol, config.num_processors)
        cycle_ps = rng.randrange(1_000, 40_000)
        points.append((config, inputs, cycle_ps))
    return points


# ----------------------------------------------------------------------
# Seeded-random equivalence, every family
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_random_points_match_scalar_oracle(family):
    protocol, model_type = FAMILIES[family]
    points = _random_points(family, RANDOM_POINTS)
    solution = grid_engine.solve_grid(
        grid_engine.ModelGrid.from_points(family, points)
    )
    assert solution.n_failed == 0
    assert solution.n_converged == len(points)
    for index, (config, inputs, cycle_ps) in enumerate(points):
        oracle = model_type(config, inputs).solve(cycle_ps)
        _assert_matches(
            solution.operating_point(index),
            oracle,
            where=f"at random point {index} of family {family}",
        )


# ----------------------------------------------------------------------
# Degenerate corners
# ----------------------------------------------------------------------
def _corner_points(family: str):
    protocol, _ = FAMILIES[family]
    quiet = dict(
        private=0.0,
        local_clean=0.0,
        remote_clean=0.0,
        remote_dirty=0.0,
        dirty_one=0.0,
        two_cycle=0.0,
        upgrades_with=0.0,
        upgrades_without=0.0,
        writeback=0.0,
        memory_accesses=0.0,
    )
    hot = dict(
        remote_clean=0.3,
        remote_dirty=0.2,
        upgrades_with=0.1,
        memory_accesses=0.5,
    )
    small = SystemConfig(num_processors=2, protocol=protocol)
    big = SystemConfig(num_processors=64, protocol=protocol)
    return [
        # Zero miss rate: the solver's idle early-out branch.
        (small, _make_inputs(protocol, 2, **quiet), 20_000),
        # Saturated utilization at a 1 ns processor: the clamp region.
        (big, _make_inputs(protocol, 64, **hot), 1_000),
        # Minimum legal machine, default mix.
        (small, _make_inputs(protocol, 2), 4_000),
        # Enormous cycle time (1 us): busy dominates everything.
        (big, _make_inputs(protocol, 64), 1_000_000),
    ]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_corner_points_match_scalar_oracle(family):
    protocol, model_type = FAMILIES[family]
    points = _corner_points(family)
    solution = grid_engine.solve_grid(
        grid_engine.ModelGrid.from_points(family, points)
    )
    assert solution.n_failed == 0
    for index, (config, inputs, cycle_ps) in enumerate(points):
        oracle = model_type(config, inputs).solve(cycle_ps)
        _assert_matches(
            solution.operating_point(index),
            oracle,
            where=f"at corner {index} of family {family}",
        )


def test_one_processor_rejected_consistently():
    """Both engines share the config layer, so a degenerate 1-processor
    machine is rejected before either solver can disagree about it."""
    with pytest.raises(ValueError):
        SystemConfig(num_processors=1)


# ----------------------------------------------------------------------
# Warm-started sweeps (the chained product grids)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_grid_sweep_matches_scalar_sweep(family):
    protocol, model_type = FAMILIES[family]
    config = SystemConfig(num_processors=16, protocol=protocol)
    inputs = _make_inputs(protocol, 16, forwards=0.004, upgrade_traversals=2.5)
    scalar = model_type(config, inputs).sweep()
    vector = grid_engine.grid_sweep(config, inputs)
    assert vector.label == scalar.label
    assert vector.protocol == scalar.protocol
    assert vector.benchmark == scalar.benchmark
    assert len(vector.points) == len(scalar.points)
    for ours, oracle in zip(vector.points, scalar.points):
        _assert_matches(
            ours, oracle, where=f"at {oracle.processor_cycle_ns} ns"
        )


def test_product_grid_matches_scalar_across_parameter_axes():
    protocol, model_type = FAMILIES["ring_snooping"]
    config = SystemConfig(num_processors=8, protocol=protocol)
    inputs = _make_inputs(protocol, 8)
    clocks = [1_500, 2_000, 4_000]
    widths = [16, 32, 64]
    cycles = [2.0, 5.0, 10.0, 20.0]
    grid = grid_engine.ModelGrid.from_product(
        "ring_snooping",
        config,
        inputs,
        cycles_ns=cycles,
        parameters={"ring_clock_ps": clocks, "ring_width_bits": widths},
    )
    assert grid.chain_shape == (len(clocks) * len(widths), len(cycles))
    solution = grid_engine.solve_grid(grid)
    assert solution.n_failed == 0

    index = 0
    for clock_ps in clocks:  # configuration-major, itertools.product order
        for width in widths:
            variant = replace(
                config,
                ring=replace(
                    config.ring, clock_ps=clock_ps, width_bits=width
                ),
            )
            oracle = model_type(variant, inputs).sweep(cycles)
            for point in oracle.points:
                _assert_matches(
                    solution.operating_point(index),
                    point,
                    where=f"at clock {clock_ps} width {width}",
                )
                index += 1
    assert index == solution.size

    # surface() exposes the same numbers shaped (configs, cycles).
    shaped = solution.surface("processor_utilization")
    assert shaped.shape == grid.chain_shape
    assert np.array_equal(
        shaped.reshape(-1), solution.processor_utilization
    )


# ----------------------------------------------------------------------
# Table 4 matching (vectorized bisection)
# ----------------------------------------------------------------------
def test_matching_bus_clock_grid_matches_scalar():
    protocol = Protocol.SNOOPING
    points = []
    for processors, ring_clock_ps, cycle_ps in (
        (8, 2_000, 10_000),
        (8, 4_000, 5_000),
        (16, 2_000, 2_500),
        (32, 2_000, 10_000),
    ):
        base = SystemConfig(num_processors=processors, protocol=protocol)
        config = replace(
            base, ring=replace(base.ring, clock_ps=ring_clock_ps)
        )
        points.append((config, _make_inputs(protocol, processors), cycle_ps))
    ours = grid_engine.matching_bus_clock_grid(points)
    for index, (config, inputs, cycle_ps) in enumerate(points):
        oracle = matching_bus_clock_ns(config, inputs, cycle_ps)
        assert ours[index] == pytest.approx(oracle, rel=REL), (
            f"matching clock diverged at point {index}"
        )


# ----------------------------------------------------------------------
# Closed-form families: register insertion and snoop rate
# ----------------------------------------------------------------------
def test_register_insertion_grids_match_scalar():
    loads = [i / 20.0 for i in range(20)]
    slotted = grid_engine.slotted_access_grid(loads, 4_000.0)
    inserted = grid_engine.register_insertion_access_grid(loads, 1_000.0)
    for index, load in enumerate(loads):
        assert slotted[index] == pytest.approx(
            slotted_access_ps(load, 4_000.0), rel=REL
        )
        assert inserted[index] == pytest.approx(
            register_insertion_access_ps(load, 1_000.0), rel=REL
        )

    axis, slotted, inserted = grid_engine.access_comparison_grid(
        4_000.0, 1_000.0
    )
    scalar = access_comparison(4_000.0, 1_000.0)
    assert len(scalar) == axis.shape[0]
    for index, point in enumerate(scalar):
        assert axis[index] == pytest.approx(point.utilization, rel=REL)
        assert slotted[index] == pytest.approx(point.slotted_ps, rel=REL)
        assert inserted[index] == pytest.approx(
            point.register_insertion_ps, rel=REL
        )

    assert grid_engine.crossover_utilization_grid(
        4_000.0, 1_000.0
    ) == pytest.approx(crossover_utilization(4_000.0, 1_000.0), rel=REL)

    with pytest.raises(ValueError):
        grid_engine.register_insertion_access_grid(
            loads, 1_000.0, fairness_efficiency=0.0
        )


def test_snoop_interarrival_grid_matches_scalar():
    widths = np.array(TABLE3_WIDTHS).reshape(-1, 1)
    blocks = np.array(TABLE3_BLOCK_SIZES).reshape(1, -1)
    table = grid_engine.snoop_interarrival_grid(widths, blocks)
    assert table.shape == (len(TABLE3_WIDTHS), len(TABLE3_BLOCK_SIZES))
    for i, width in enumerate(TABLE3_WIDTHS):
        for j, block in enumerate(TABLE3_BLOCK_SIZES):
            assert table[i, j] == pytest.approx(
                snoop_interarrival_ns(width, block), rel=REL
            )
    with pytest.raises(ValueError):
        grid_engine.snoop_interarrival_grid(12, 32)  # not a byte multiple
    with pytest.raises(ValueError):
        grid_engine.snoop_interarrival_grid(32, 32, probe_slots=3)


# ----------------------------------------------------------------------
# Engine plumbing: stats, protocol routing
# ----------------------------------------------------------------------
def test_grid_stats_count_work_deterministically():
    points = _random_points("ring_snooping", 40)
    grid = grid_engine.ModelGrid.from_points("ring_snooping", points)

    grid_engine.reset_grid_stats()
    grid_engine.solve_grid(grid)
    first = dict(grid_engine.GRID_STATS)
    assert first["grid_solves"] == 1
    assert first["grid_evals"] > 0
    assert first["points_converged"] == len(points)
    assert first["points_failed"] == 0

    grid_engine.reset_grid_stats()
    grid_engine.solve_grid(grid)
    assert dict(grid_engine.GRID_STATS) == first  # same grid, same work


def test_family_for_protocol_matches_model_for():
    from repro.core.hybrid import model_for

    scalar_types = {
        "ring_snooping": SnoopingRingModel,
        "ring_directory": DirectoryRingModel,
        "ring_linkedlist": LinkedListRingModel,
        "bus": BusModel,
    }
    for protocol in (
        Protocol.SNOOPING,
        Protocol.DIRECTORY,
        Protocol.LINKED_LIST,
        Protocol.BUS,
    ):
        family = grid_engine.family_for_protocol(protocol)
        config = SystemConfig(num_processors=4, protocol=protocol)
        inputs = _make_inputs(protocol, 4)

        class FakeResult:
            pass

        result = FakeResult()
        result.inputs = inputs
        assert isinstance(model_for(config, result), scalar_types[family])


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        grid_engine.ModelGrid.from_points(
            "nonsense", _random_points("ring_snooping", 1)
        )
    with pytest.raises(ValueError):
        grid_engine.ModelGrid.from_points("ring_snooping", [])


# ----------------------------------------------------------------------
# End to end through the sensitivity layer (one real extraction)
# ----------------------------------------------------------------------
def test_model_sensitivity_sweep_grid_equals_scalar_rows():
    from repro.core.sensitivity import model_sensitivity_sweep

    kwargs = dict(
        parameter="ring_clock_ps",
        values=[1_500, 2_000, 4_000],
        data_refs=600,
    )
    scalar = model_sensitivity_sweep("mp3d", 4, use_grid=False, **kwargs)
    vector = model_sensitivity_sweep("mp3d", 4, use_grid=True, **kwargs)
    assert vector == scalar
