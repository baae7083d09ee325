"""Parameter sensitivity sweeps.

The paper pins most machine parameters (128 KB caches, 140 ns memory,
32-bit 500 MHz links) and sweeps only processor speed.  This module
sweeps the pinned parameters through full simulations, quantifying how
much the paper's conclusions owe to each choice -- the ablation-style
question a modern evaluation would be expected to answer.

Supported parameters (name -> what changes):

* ``cache_size_bytes``  -- per-processor data-cache capacity;
* ``memory_access_ps``  -- memory bank access time;
* ``ring_width_bits``   -- link width (changes slot geometry);
* ``ring_clock_ps``     -- ring clock period;
* ``block_size``        -- cache block / transfer size (changes both
  the caches and the slot geometry);
* ``num_processors``    -- system size;
* ``bus_clock_ps``      -- bus clock period (Figure 6's other axis);
* ``cache_response_ps`` -- dirty-owner cache response time;
* ``directory_lookup_ps`` -- directory lookup time.

:func:`sensitivity_sweep` re-simulates per value;
:func:`model_sensitivity_sweep` holds one extraction fixed and lets
the analytical models resolve each value -- the cheap, grid-friendly
counterpart (these are also the axes ``repro.models.grid`` crosses
into design surfaces).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.config import Protocol, SystemConfig
from repro.core.experiment import DEFAULT_DATA_REFS, run_simulation
from repro.core.results import SimulationResult

__all__ = [
    "SUPPORTED_PARAMETERS",
    "apply_parameter",
    "sensitivity_sweep",
    "model_sensitivity_sweep",
]


def _set_cache_size(config: SystemConfig, value: int) -> SystemConfig:
    return replace(config, cache=replace(config.cache, size_bytes=value))


def _set_memory_access(config: SystemConfig, value: int) -> SystemConfig:
    return replace(config, memory=replace(config.memory, access_ps=value))


def _set_ring_width(config: SystemConfig, value: int) -> SystemConfig:
    return replace(config, ring=replace(config.ring, width_bits=value))


def _set_ring_clock(config: SystemConfig, value: int) -> SystemConfig:
    return replace(config, ring=replace(config.ring, clock_ps=value))


def _set_block_size(config: SystemConfig, value: int) -> SystemConfig:
    return replace(config, cache=replace(config.cache, block_size=value))


def _set_num_processors(config: SystemConfig, value: int) -> SystemConfig:
    return replace(config, num_processors=value)


def _set_bus_clock(config: SystemConfig, value: int) -> SystemConfig:
    return replace(config, bus=replace(config.bus, clock_ps=value))


def _set_cache_response(config: SystemConfig, value: int) -> SystemConfig:
    return replace(
        config, memory=replace(config.memory, cache_response_ps=value)
    )


def _set_directory_lookup(config: SystemConfig, value: int) -> SystemConfig:
    return replace(
        config, memory=replace(config.memory, directory_lookup_ps=value)
    )


SUPPORTED_PARAMETERS: Dict[str, Callable[[SystemConfig, int], SystemConfig]] = {
    "cache_size_bytes": _set_cache_size,
    "memory_access_ps": _set_memory_access,
    "ring_width_bits": _set_ring_width,
    "ring_clock_ps": _set_ring_clock,
    "block_size": _set_block_size,
    "num_processors": _set_num_processors,
    "bus_clock_ps": _set_bus_clock,
    "cache_response_ps": _set_cache_response,
    "directory_lookup_ps": _set_directory_lookup,
}


def apply_parameter(
    config: SystemConfig, parameter: str, value: int
) -> SystemConfig:
    """A copy of ``config`` with one supported parameter changed."""
    try:
        setter = SUPPORTED_PARAMETERS[parameter]
    except KeyError:
        options = ", ".join(sorted(SUPPORTED_PARAMETERS))
        raise KeyError(
            f"unknown parameter {parameter!r}; supported: {options}"
        ) from None
    return setter(config, value)


def sensitivity_sweep(
    benchmark: str,
    num_processors: int,
    parameter: str,
    values: Sequence[int],
    protocol: Protocol = Protocol.SNOOPING,
    data_refs: int = DEFAULT_DATA_REFS,
    base_config: Optional[SystemConfig] = None,
    jobs: int = 1,
) -> List[Dict[str, float]]:
    """Simulate the benchmark across parameter values.

    Returns one row per value with the headline metrics; the
    simulations are full runs, so emergent effects (miss-rate change
    with cache size, frame-geometry change with link width) are
    captured, not modelled.  Each value is an independent simulation,
    so ``jobs > 1`` evaluates them across worker processes with
    identical per-value results.
    """
    base = base_config or SystemConfig(
        num_processors=num_processors, protocol=protocol
    )
    base = replace(base, num_processors=num_processors, protocol=protocol)
    configs = [apply_parameter(base, parameter, value) for value in values]
    if jobs > 1:
        from repro.core.parallel import SweepPoint, execute_points

        report = execute_points(
            [
                SweepPoint(
                    benchmark,
                    num_processors,
                    protocol,
                    data_refs,
                    config=config,
                )
                for config in configs
            ],
            jobs=jobs,
        )
        results = report.results
    else:
        results = [
            run_simulation(
                benchmark,
                config=config,
                data_refs=data_refs,
                num_processors=num_processors,
            )
            for config in configs
        ]
    rows: List[Dict[str, float]] = []
    for value, result in zip(values, results):
        rows.append(
            {
                parameter: value,
                "proc util": round(result.processor_utilization, 4),
                "net util": round(result.network_utilization, 4),
                "miss latency (ns)": round(
                    result.shared_miss_latency_ns, 1
                ),
                "total miss %": round(
                    result.trace.total_miss_rate_percent, 3
                ),
                "shared miss %": round(
                    result.trace.shared_miss_rate_percent, 3
                ),
            }
        )
    return rows


def model_sensitivity_sweep(
    benchmark: str,
    num_processors: int,
    parameter: str,
    values: Sequence[int],
    protocol: Protocol = Protocol.SNOOPING,
    processor_cycle_ns: float = 20.0,
    data_refs: int = DEFAULT_DATA_REFS,
    base_config: Optional[SystemConfig] = None,
    use_grid: Optional[bool] = None,
) -> List[Dict[str, float]]:
    """Analytic counterpart of :func:`sensitivity_sweep`: one trace
    extraction, then the analytical model resolves each value.

    Misses the emergent effects a re-simulation captures (the event
    mix is held fixed) but costs milliseconds per value, so it scales
    to axes a simulation sweep cannot.  ``use_grid`` picks the solver:
    True or None (the default) uses the vectorized grid engine, False
    the scalar models.  Both paths produce identical rows.
    """
    from repro.core.hybrid import (
        _target_config,
        extraction_point,
        model_for,
    )
    from repro.core.experiment import run_simulation_cached

    if use_grid is None:
        use_grid = True
    point = extraction_point(
        benchmark,
        num_processors,
        protocol,
        config=base_config,
        data_refs=data_refs,
    )
    simulated = run_simulation_cached(
        benchmark,
        num_processors,
        point.protocol,
        data_refs=data_refs,
        config=point.config,
    )
    base = _target_config(num_processors, protocol, base_config)
    configs = [apply_parameter(base, parameter, value) for value in values]
    cycle_ps = round(processor_cycle_ns * 1000)
    if use_grid:
        from repro.models import grid as grid_engine

        solution = grid_engine.solve_grid(
            grid_engine.ModelGrid.from_points(
                grid_engine.family_for_protocol(protocol),
                [(config, simulated.inputs, cycle_ps) for config in configs],
            )
        )
        points = solution.operating_points()
    else:
        points = [
            model_for(config, simulated).solve(cycle_ps)
            for config in configs
        ]
    rows: List[Dict[str, float]] = []
    for value, solved in zip(values, points):
        rows.append(
            {
                parameter: value,
                "proc util": round(solved.processor_utilization, 4),
                "net util": round(solved.network_utilization, 4),
                "miss latency (ns)": round(solved.shared_miss_latency_ns, 1),
                "upgrade latency (ns)": round(solved.upgrade_latency_ns, 1),
            }
        )
    return rows
