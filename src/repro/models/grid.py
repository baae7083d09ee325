"""Vectorized analytical-model engine: whole design grids in one pass.

The scalar solver in :mod:`repro.models.base` finds one fixed point per
call; design surfaces and sensitivity sheets need thousands to
hundreds of thousands of them.  This module evaluates an entire grid
of configurations at once: configurations live in a
struct-of-arrays :class:`ModelGrid`, the per-class latency formulas of
all model families are re-expressed over NumPy arrays, and
:func:`solve_grid` runs the same bracketed-secant iteration as the
scalar solver with *convergence masks* -- converged points freeze,
divergent points are isolated to NaN without poisoning their
neighbours.

Equivalence contract
--------------------
The scalar solver stays the reference implementation.  Every formula
here mirrors its scalar counterpart operation-for-operation (same
operand order, same guards, same iteration path), so elementwise IEEE
float64 arithmetic produces *bit-identical* results: the equivalence
suite (``tests/test_grid_models.py``) holds the grid to the scalar
oracle within 1e-9 relative tolerance, and in practice the match is
exact.  Two deliberate deviations, both confined to *failed* points:

* a point whose residual is NaN at the bracket floor fails fast
  (``points_failed``) instead of stalling for the full iteration
  budget, and
* a point whose bracket doubles past the divergence cap is marked
  failed (time NaN) where the scalar solver raises
  :class:`~repro.models.base.FixedPointDiverged` -- a grid must not
  let one saturated corner abort the other 99,999 points.

Warm starts
-----------
Grids built by :meth:`ModelGrid.from_product` carry a *chain shape*
``(n_configs, n_cycles)``: the processor-cycle axis is solved column by
column, each column seeded with the previous column's solved times
(exactly the scalar ``sweep()`` warm start, batched across every
configuration at once).  Failed lanes reseed from the default guess so
a divergent point never poisons the rest of its chain.

NumPy is a declared dependency, but everything here imports it lazily
through :func:`require_numpy`: the simulator never solves grids, so a
simulation (and ``import repro``) does not pay for the import.  The
simulation hot paths never import NumPy -- the AST lint in
``tests/test_obs.py`` enforces that.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.config import Protocol, SystemConfig
from repro.core.metrics import MissClass
from repro.core.results import ModelInputs, OperatingPoint
from repro.models.ring_directory import DIRECTORY_SHARED_CLASSES
from repro.models.ring_snooping import SNOOPING_SHARED_CLASSES

__all__ = [
    "GRID_STATS",
    "GRID_FAMILIES",
    "GridSolution",
    "ModelGrid",
    "family_for_protocol",
    "require_numpy",
    "reset_grid_stats",
    "solve_grid",
]

#: Default bracket seed, matching the scalar solver's default.
_DEFAULT_GUESS_PS = 50_000.0

#: Deterministic engine counters (the grid-side ``SOLVER_STATS``).
#: ``grid_evals`` counts whole-grid latency evaluations -- the unit of
#: work the ``grid.solve`` bench gate pins; ``points_failed`` is the
#: counter the convergence-mask tests assert on.
GRID_STATS = {
    "grid_solves": 0,
    "grid_evals": 0,
    "points_converged": 0,
    "points_failed": 0,
}


def reset_grid_stats() -> None:
    """Zero :data:`GRID_STATS` (start of a measured workload)."""
    for key in GRID_STATS:
        GRID_STATS[key] = 0


# ----------------------------------------------------------------------
# Lazy NumPy
# ----------------------------------------------------------------------
def require_numpy():
    """Return the numpy module, imported on first use."""
    import numpy

    return numpy


# ----------------------------------------------------------------------
# Struct-of-arrays grids
# ----------------------------------------------------------------------
#: Per-configuration scalar fields (all exactly representable in
#: float64: small ints and ps quantities far below 2**53).
_CONFIG_FIELDS = (
    "processors",
    "clock_ps",
    "ring_cycles",
    "frame_stages",
    "probe_stages",
    "block_stages",
    "probe_slots",
    "block_slots",
    "num_frames",
    "access_ps",
    "cache_response_ps",
    "lookup_ps",
    "bus_clock_ps",
    "bus_request_cycles",
    "bus_reply_cycles",
    "bus_writeback_cycles",
    "f_private",
    "f_local_clean",
    "f_remote_clean",
    "f_remote_dirty",
    "f_dirty_one",
    "f_two_cycle",
    "f_upgrade_with",
    "f_upgrade_without",
    "f_writeback",
    "f_sharing_writeback",
    "f_probes",
    "f_broadcast_probes",
    "f_blocks",
    "f_memory_accesses",
    "f_forwards",
    "mean_upgrade_traversals",
)

_FIELDS = ("busy_ps",) + _CONFIG_FIELDS


def _config_row(config: SystemConfig, inputs: ModelInputs) -> Dict[str, float]:
    """Flatten one (config, inputs) pair to the grid's field schema.

    Goes through ``ring_layout()``/``ring_topology()`` so degenerate
    geometries are rejected exactly where the scalar models reject
    them (at model-construction time).
    """
    layout = config.ring_layout()
    topology = config.ring_topology()
    f_miss = inputs.f_miss
    return {
        "processors": float(config.num_processors),
        "clock_ps": float(config.ring.clock_ps),
        "ring_cycles": float(topology.total_stages),
        "frame_stages": float(layout.frame_stages),
        "probe_stages": float(layout.probe_stages),
        "block_stages": float(layout.block_stages),
        "probe_slots": float(layout.probe_slots),
        "block_slots": float(layout.block_slots),
        "num_frames": float(topology.num_frames),
        "access_ps": float(config.memory.access_ps),
        "cache_response_ps": float(config.memory.cache_response_ps),
        "lookup_ps": float(config.memory.directory_lookup_ps),
        "bus_clock_ps": float(config.bus.clock_ps),
        "bus_request_cycles": float(config.bus.request_cycles),
        "bus_reply_cycles": float(config.bus.reply_cycles),
        "bus_writeback_cycles": float(config.bus.writeback_cycles),
        "f_private": f_miss.get(MissClass.PRIVATE, 0.0),
        "f_local_clean": f_miss.get(MissClass.LOCAL_CLEAN, 0.0),
        "f_remote_clean": f_miss.get(MissClass.REMOTE_CLEAN, 0.0),
        "f_remote_dirty": f_miss.get(MissClass.REMOTE_DIRTY, 0.0),
        "f_dirty_one": f_miss.get(MissClass.DIRTY_ONE_CYCLE, 0.0),
        "f_two_cycle": f_miss.get(MissClass.TWO_CYCLE, 0.0),
        "f_upgrade_with": inputs.f_upgrade_with_sharers,
        "f_upgrade_without": inputs.f_upgrade_without_sharers,
        "f_writeback": inputs.f_writeback,
        "f_sharing_writeback": inputs.f_sharing_writeback,
        "f_probes": inputs.f_probes,
        "f_broadcast_probes": inputs.f_broadcast_probes,
        "f_blocks": inputs.f_blocks,
        "f_memory_accesses": inputs.f_memory_accesses,
        "f_forwards": inputs.f_forwards,
        "mean_upgrade_traversals": inputs.mean_upgrade_traversals,
    }


@dataclass
class ModelGrid:
    """A struct-of-arrays batch of model configurations.

    ``arrays`` maps each field of :data:`_FIELDS` to a float64 vector;
    all vectors share one flat length.  ``chain_shape`` is
    ``(n_configs, n_cycles)`` for grids laid out configuration-major
    with a contiguous processor-cycle axis (the warm-start chains); it
    is None for unstructured point batches.
    """

    family: str
    arrays: Dict[str, Any]
    chain_shape: Optional[Tuple[int, int]] = None

    @property
    def size(self) -> int:
        return int(self.arrays["busy_ps"].shape[0])

    @classmethod
    def from_points(
        cls,
        family: str,
        points: Sequence[Tuple[SystemConfig, ModelInputs, int]],
    ) -> "ModelGrid":
        """Grid from explicit ``(config, inputs, processor_cycle_ps)``
        triples (no chain structure; every point solves from the
        default bracket seed, like scalar ``solve()``)."""
        np = require_numpy()
        _check_family(family)
        points = list(points)
        if not points:
            raise ValueError("empty grid")
        rows = []
        for config, inputs, cycle_ps in points:
            row = _config_row(config, inputs)
            row["busy_ps"] = float(cycle_ps)
            rows.append(row)
        arrays = {
            name: np.array([row[name] for row in rows], dtype=np.float64)
            for name in _FIELDS
        }
        return cls(family=family, arrays=arrays, chain_shape=None)

    @classmethod
    def from_product(
        cls,
        family: str,
        config: SystemConfig,
        inputs: ModelInputs,
        cycles_ns: Optional[Sequence[float]] = None,
        parameters: Optional[Dict[str, Sequence[int]]] = None,
    ) -> "ModelGrid":
        """Cross-product grid: every combination of the ``parameters``
        axes (names from ``repro.core.sensitivity``) times the
        processor-cycle sweep (default: the paper's 1-20 ns axis).

        Layout is configuration-major, so each configuration's cycle
        sweep is one contiguous warm-start chain.
        """
        np = require_numpy()
        _check_family(family)
        cycles = [
            float(c) for c in (cycles_ns if cycles_ns is not None else range(1, 21))
        ]
        if not cycles:
            raise ValueError("empty cycle axis")
        configs = [config]
        if parameters:
            from repro.core.sensitivity import apply_parameter

            names = list(parameters)
            configs = []
            for combo in itertools.product(
                *(parameters[name] for name in names)
            ):
                variant = config
                for name, value in zip(names, combo):
                    variant = apply_parameter(variant, name, value)
                configs.append(variant)
        rows = [_config_row(variant, inputs) for variant in configs]
        n_cycles = len(cycles)
        # Same quantisation as the scalar sweep(): round(cycle_ns*1000).
        busy = np.array(
            [float(round(cycle_ns * 1000)) for cycle_ns in cycles],
            dtype=np.float64,
        )
        arrays = {
            name: np.repeat(
                np.array([row[name] for row in rows], dtype=np.float64),
                n_cycles,
            )
            for name in _CONFIG_FIELDS
        }
        arrays["busy_ps"] = np.tile(busy, len(rows))
        return cls(
            family=family, arrays=arrays, chain_shape=(len(rows), n_cycles)
        )


# ----------------------------------------------------------------------
# Queueing building blocks (array mirrors of models/base.py)
# ----------------------------------------------------------------------
def _clamp(utilization):
    np = require_numpy()
    return np.where(
        utilization < 0.0, 0.0, np.minimum(utilization, 0.995)
    )


def _md1_wait(utilization, service_ps):
    rho = _clamp(utilization)
    return rho * service_ps / (2.0 * (1.0 - rho))


def _slot_wait(utilization, slot_period_ps):
    rho = _clamp(utilization)
    return slot_period_ps * (0.5 + rho / (1.0 - rho))


def _ordered_sum(terms: Iterable[Any]):
    """Left-to-right accumulation, exactly like builtin sum()."""
    acc: Any = 0.0
    for term in terms:
        acc = acc + term
    return acc


def _guarded_ratio(numerator, denominator, predicate):
    """``numerator / denominator`` where ``predicate``, else 0.0 --
    the array form of the scalar models' division guards."""
    np = require_numpy()
    return np.where(
        predicate,
        numerator / np.where(predicate, denominator, 1.0),
        0.0,
    )


# ----------------------------------------------------------------------
# Per-family latency evaluators
# ----------------------------------------------------------------------
def _contention(a, T):
    """Array mirror of ring_common.compute_contention."""
    np = require_numpy()
    clock = a["clock_ps"]
    ring_cycles = a["ring_cycles"]
    processors = a["processors"]
    rate = processors / T

    f_probes = a["f_probes"]
    probe_rate = f_probes * rate
    has_probes = f_probes > 0.0
    broadcast_share = np.where(
        has_probes,
        np.minimum(
            1.0, a["f_broadcast_probes"] / np.where(has_probes, f_probes, 1.0)
        ),
        0.0,
    )
    mean_probe_occupancy = (
        broadcast_share * ring_cycles
        + (1.0 - broadcast_share) * ring_cycles / 2.0
    ) * clock
    probe_slots = a["num_frames"] * a["probe_slots"]
    probe_utilization = np.minimum(
        1.0, probe_rate * mean_probe_occupancy / probe_slots
    )
    probe_period = a["frame_stages"] * clock / (a["probe_slots"] / 2)
    probe_wait = _slot_wait(probe_utilization, probe_period)

    block_rate = a["f_blocks"] * rate
    mean_block_occupancy = (ring_cycles / 2.0) * clock
    block_slots = a["num_frames"] * a["block_slots"]
    block_utilization = np.minimum(
        1.0, block_rate * mean_block_occupancy / block_slots
    )
    block_period = a["frame_stages"] * clock / a["block_slots"]
    block_wait = _slot_wait(block_utilization, block_period)

    access_ps = a["access_ps"]
    per_bank_rate = a["f_memory_accesses"] * rate / processors
    bank_utilization = np.minimum(1.0, per_bank_rate * access_ps)
    bank_wait = _md1_wait(bank_utilization, access_ps)

    probe_weight = a["probe_slots"] * a["probe_stages"]
    block_weight = a["block_slots"] * a["block_stages"]
    total_weight = probe_weight + block_weight
    ring_utilization = (
        probe_utilization * probe_weight + block_utilization * block_weight
    ) / total_weight
    return {
        "probe_wait": probe_wait,
        "block_wait": block_wait,
        "bank_wait": bank_wait,
        "bank_utilization": bank_utilization,
        "ring_utilization": ring_utilization,
    }


def _eval_ring_snooping(a, T):
    c = _contention(a, T)
    clock = a["clock_ps"]
    ring_ps = a["ring_cycles"] * clock
    probe_drain = a["probe_stages"] * clock
    block_drain = a["block_stages"] * clock
    frame_ps = a["frame_stages"] * clock
    bank_total = a["access_ps"] + c["bank_wait"]

    remote_base = (
        c["probe_wait"] + probe_drain + ring_ps + c["block_wait"] + block_drain
    )
    latencies = {
        "private": bank_total,
        "local_clean": bank_total,
        "remote_clean": remote_base + bank_total,
        "remote_dirty": remote_base + a["cache_response_ps"],
        "upgrade": c["probe_wait"] + ring_ps + frame_ps + probe_drain,
    }
    frequencies = [
        ("private", a["f_private"]),
        ("local_clean", a["f_local_clean"]),
        ("remote_clean", a["f_remote_clean"]),
        ("remote_dirty", a["f_remote_dirty"] + a["f_dirty_one"] + a["f_two_cycle"]),
        ("upgrade", a["f_upgrade_with"] + a["f_upgrade_without"]),
    ]
    return latencies, frequencies, c["ring_utilization"], c["bank_utilization"]


def _eval_ring_directory(a, T):
    c = _contention(a, T)
    clock = a["clock_ps"]
    ring_ps = a["ring_cycles"] * clock
    probe_drain = a["probe_stages"] * clock
    block_drain = a["block_stages"] * clock
    bank_total = a["access_ps"] + c["bank_wait"]
    lookup = a["lookup_ps"]
    cache_response = a["cache_response_ps"]
    probe_wait = c["probe_wait"]
    block_wait = c["block_wait"]

    clean_one = (
        probe_wait
        + probe_drain
        + lookup
        + bank_total
        + block_wait
        + block_drain
        + ring_ps
    )
    dirty_one = (
        2.0 * probe_wait
        + 2.0 * probe_drain
        + lookup
        + cache_response
        + block_wait
        + block_drain
        + ring_ps
    )
    response_mix = (cache_response + bank_total) / 2.0
    two_cycle = (
        2.0 * probe_wait
        + 2.0 * probe_drain
        + lookup
        + response_mix
        + block_wait
        + block_drain
        + 2.0 * ring_ps
    )
    upgrade_without = 2.0 * probe_wait + 2.0 * probe_drain + lookup + ring_ps
    upgrade_with = upgrade_without + probe_wait + ring_ps

    latencies = {
        "private": bank_total,
        "local_clean": bank_total,
        "remote_clean": clean_one,
        "dirty_one_cycle": dirty_one,
        "two_cycle": two_cycle,
        "upgrade_without": upgrade_without,
        "upgrade_with": upgrade_with,
    }
    frequencies = [
        ("private", a["f_private"]),
        ("local_clean", a["f_local_clean"]),
        ("remote_clean", a["f_remote_clean"]),
        ("dirty_one_cycle", a["f_dirty_one"] + a["f_remote_dirty"]),
        ("two_cycle", a["f_two_cycle"]),
        ("upgrade_without", a["f_upgrade_without"]),
        ("upgrade_with", a["f_upgrade_with"]),
    ]
    return latencies, frequencies, c["ring_utilization"], c["bank_utilization"]


def _eval_ring_linkedlist(a, T):
    np = require_numpy()
    latencies, frequencies, net, bank = _eval_ring_directory(a, T)
    c = _contention(a, T)
    clock = a["clock_ps"]
    probe_step = c["probe_wait"] + a["probe_stages"] * clock
    ring_ps = a["ring_cycles"] * clock

    f_clean = a["f_remote_clean"]
    f_dirtyish = a["f_dirty_one"] + a["f_two_cycle"]
    clean_forwards = np.maximum(0.0, a["f_forwards"] - f_dirtyish)
    forward_share = np.where(
        f_clean > 0.0,
        np.minimum(
            1.0, clean_forwards / np.where(f_clean > 0.0, f_clean, 1.0)
        ),
        0.0,
    )
    bank_total = a["access_ps"] + c["bank_wait"]
    response_delta = a["cache_response_ps"] - bank_total
    latencies = dict(latencies)
    latencies["remote_clean"] = latencies["remote_clean"] + (
        forward_share * (probe_step + response_delta)
    )

    traversals = np.maximum(1.0, a["mean_upgrade_traversals"])
    purge = (traversals - 1.0) * (probe_step + ring_ps)
    latencies["upgrade_with"] = (
        latencies["upgrade_without"] + probe_step + purge + ring_ps
    )
    return latencies, frequencies, net, bank


def _eval_bus(a, T):
    np = require_numpy()
    clock = a["bus_clock_ps"]
    processors = a["processors"]
    rate = processors / T

    f_remote_clean = a["f_remote_clean"]
    f_remote_dirty = a["f_remote_dirty"] + a["f_dirty_one"] + a["f_two_cycle"]
    f_local_clean = a["f_local_clean"]
    f_upgrade = a["f_upgrade_with"] + a["f_upgrade_without"]
    remote = f_remote_clean + f_remote_dirty
    demand = (
        remote * (a["bus_request_cycles"] + a["bus_reply_cycles"])
        + f_local_clean * a["bus_request_cycles"]
        + f_upgrade * a["bus_request_cycles"]
        + (a["f_writeback"] + a["f_sharing_writeback"])
        * a["bus_writeback_cycles"]
    )
    utilization = np.minimum(1.0, demand * clock * rate)
    acquisitions = (
        2.0 * (f_remote_clean + f_remote_dirty)
        + f_local_clean
        + f_upgrade
        + a["f_writeback"]
        + a["f_sharing_writeback"]
    )
    has_acquisitions = acquisitions != 0.0
    mean_hold = np.where(
        has_acquisitions,
        demand / np.where(has_acquisitions, acquisitions, 1.0) * clock,
        0.0,
    )
    bus_wait = np.where(
        mean_hold != 0.0, _md1_wait(utilization, mean_hold), 0.0
    )

    access_ps = a["access_ps"]
    per_bank_rate = a["f_memory_accesses"] * rate / processors
    bank_utilization = np.minimum(1.0, per_bank_rate * access_ps)
    bank_wait = _md1_wait(bank_utilization, access_ps)
    bank_total = access_ps + bank_wait

    request = a["bus_request_cycles"] * clock
    reply = a["bus_reply_cycles"] * clock
    latencies = {
        "private": bank_total,
        "local_clean": bank_total,
        "remote_clean": bus_wait + request + bank_total + bus_wait + reply,
        "remote_dirty": (
            bus_wait + request + a["cache_response_ps"] + bus_wait + reply
        ),
        "upgrade": bus_wait + request,
    }
    frequencies = [
        ("private", a["f_private"]),
        ("local_clean", f_local_clean),
        ("remote_clean", f_remote_clean),
        ("remote_dirty", f_remote_dirty),
        ("upgrade", f_upgrade),
    ]
    return latencies, frequencies, utilization, bank_utilization


_EVALUATORS = {
    "bus": _eval_bus,
    "ring_snooping": _eval_ring_snooping,
    "ring_directory": _eval_ring_directory,
    "ring_linkedlist": _eval_ring_linkedlist,
}

#: Fixed-point model families the grid engine solves.  (The fifth
#: family, register insertion, is closed-form: see
#: :mod:`repro.models.register_insertion`.)
GRID_FAMILIES = ("bus", "ring_snooping", "ring_directory", "ring_linkedlist")

_PROTOCOL_FAMILY = {
    Protocol.SNOOPING: "ring_snooping",
    Protocol.DIRECTORY: "ring_directory",
    Protocol.LINKED_LIST: "ring_linkedlist",
    Protocol.HIERARCHICAL: "ring_directory",
    Protocol.BUS: "bus",
}


def family_for_protocol(protocol: Protocol) -> str:
    """Grid family matching ``core.hybrid.model_for``'s model choice."""
    return _PROTOCOL_FAMILY[protocol]


def _check_family(family: str) -> None:
    if family not in _EVALUATORS:
        raise ValueError(
            f"unknown model family {family!r}; pick one of {GRID_FAMILIES}"
        )


# ----------------------------------------------------------------------
# The masked fixed-point solver
# ----------------------------------------------------------------------
def _solve_flat(evaluate, arrays, guess, tolerance, max_iterations):
    """Solve every lane of a flat grid; returns (time, converged, failed).

    The per-lane iterate sequence is exactly the scalar solver's:
    bracket floor at max(busy, 1), doubling walk while the residual
    stays positive (cap 80, then the lane *fails* instead of raising),
    then guarded secant steps that fall back to bisection whenever the
    extrapolation leaves the bracket.  Lanes that converge freeze (their
    state is masked out of every later update), so one slow corner
    costs iterations, never accuracy.
    """
    np = require_numpy()
    busy = arrays["busy_ps"]
    n = busy.shape[0]

    def residual(T):
        GRID_STATS["grid_evals"] += 1
        with np.errstate(all="ignore"):
            latencies, freq_pairs, _, _ = evaluate(arrays, T)
            implied = busy + _ordered_sum(
                frequency * latencies[name] for name, frequency in freq_pairs
            )
            return implied - T, implied

    time = np.full(n, np.nan)
    converged = np.zeros(n, dtype=bool)
    failed = np.zeros(n, dtype=bool)

    low = np.maximum(busy, 1.0)
    r_low, implied_low = residual(low)

    # No contention at idle: the latencies at the bracket floor already
    # satisfy T (scalar early-return branch).
    idle = r_low <= 0.0
    time = np.where(idle, implied_low, time)
    converged = converged | idle

    # A NaN residual at the floor can never bracket a root; isolate the
    # lane now instead of burning the full iteration budget on it.
    broken = np.isnan(r_low)
    failed = failed | broken
    solving = ~(idle | broken)

    if guess is None:
        guess = np.full(n, _DEFAULT_GUESS_PS)
    high = np.maximum(guess, 2.0 * low)
    with np.errstate(all="ignore"):
        r_high, _ = residual(np.where(solving, high, 1.0))

    active = solving & (r_high > 0.0)
    doublings = 0
    while bool(active.any()):
        low = np.where(active, high, low)
        r_low = np.where(active, r_high, r_low)
        high = np.where(active, high * 2.0, high)
        doublings += 1
        if doublings > 80:
            # Scalar solver raises FixedPointDiverged here; a grid
            # isolates the lane so its neighbours still solve.
            failed = failed | active
            solving = solving & ~active
            break
        r_new, _ = residual(np.where(active, high, 1.0))
        r_high = np.where(active, r_new, r_high)
        active = active & (r_high > 0.0)

    # Invariant per solving lane: r(low) > 0 >= r(high).
    t0 = low.copy()
    r0 = r_low.copy()
    t1 = high.copy()
    r1 = r_high.copy()
    for _ in range(max_iterations):
        if not bool(solving.any()):
            break
        with np.errstate(all="ignore"):
            denom = r1 - r0
            nonzero = denom != 0.0
            secant = t1 - r1 * (t1 - t0) / np.where(nonzero, denom, 1.0)
            candidate = np.where(nonzero, secant, low)
            span = high - low
            inside = (
                (low < candidate)
                & (candidate < high)
                & (np.abs(candidate - t1) <= span)
            )
            candidate = np.where(inside, candidate, low + 0.5 * span)
        r_cand, _ = residual(np.where(solving, candidate, 1.0))
        with np.errstate(all="ignore"):
            done = solving & (
                (np.abs(r_cand) <= tolerance * candidate)
                | (span <= tolerance * candidate)
            )
            time = np.where(done, candidate, time)
            converged = converged | done
            solving = solving & ~done
            positive = r_cand > 0.0
            low = np.where(solving & positive, candidate, low)
            high = np.where(solving & ~positive, candidate, high)
            t0 = np.where(solving, t1, t0)
            r0 = np.where(solving, r1, r0)
            t1 = np.where(solving, candidate, t1)
            r1 = np.where(solving, r_cand, r1)

    # Iteration budget exhausted: scalar solver returns the bracket
    # midpoint; a lane whose midpoint is not finite failed instead.
    if bool(solving.any()):
        mid = 0.5 * (low + high)
        good = solving & np.isfinite(mid)
        time = np.where(good, mid, time)
        converged = converged | good
        failed = failed | (solving & ~np.isfinite(mid))

    # Never report a non-finite time as converged.
    bad = converged & ~np.isfinite(time)
    converged = converged & ~bad
    failed = failed | bad
    time = np.where(failed, np.nan, time)
    return time, converged, failed


@dataclass
class GridSolution:
    """Solved operating points for every lane of a :class:`ModelGrid`.

    Failed lanes carry NaN in every metric; ``converged``/``failed``
    are boolean masks over the flat grid.
    """

    grid: ModelGrid
    time_per_instruction_ps: Any
    converged: Any
    failed: Any
    processor_utilization: Any = field(default=None)
    network_utilization: Any = field(default=None)
    bank_utilization: Any = field(default=None)
    shared_miss_latency_ns: Any = field(default=None)
    upgrade_latency_ns: Any = field(default=None)

    @property
    def size(self) -> int:
        return self.grid.size

    @property
    def n_converged(self) -> int:
        return int(self.converged.sum())

    @property
    def n_failed(self) -> int:
        return int(self.failed.sum())

    @property
    def processor_cycle_ns(self):
        return self.grid.arrays["busy_ps"] / 1000.0

    def surface(self, metric: str = "processor_utilization"):
        """The metric reshaped to ``(n_configs, n_cycles)`` (product
        grids only)."""
        if self.grid.chain_shape is None:
            raise ValueError("surface() needs a from_product grid")
        return getattr(self, metric).reshape(self.grid.chain_shape)

    def operating_point(self, index: int) -> OperatingPoint:
        return OperatingPoint(
            processor_cycle_ns=float(self.grid.arrays["busy_ps"][index])
            / 1000.0,
            processor_utilization=float(self.processor_utilization[index]),
            network_utilization=float(self.network_utilization[index]),
            shared_miss_latency_ns=float(self.shared_miss_latency_ns[index]),
            upgrade_latency_ns=float(self.upgrade_latency_ns[index]),
            time_per_instruction_ps=float(
                self.time_per_instruction_ps[index]
            ),
        )

    def operating_points(self) -> List[OperatingPoint]:
        return [self.operating_point(index) for index in range(self.size)]


def _weighted_latencies(family, latencies, freq_pairs):
    """Array mirror of ring_snooping.make_operating_point's shared and
    upgrade latency averaging."""
    np = require_numpy()
    freq_map = dict(freq_pairs)
    shared_names = (
        DIRECTORY_SHARED_CLASSES
        if family in ("ring_directory", "ring_linkedlist")
        else SNOOPING_SHARED_CLASSES
    )
    total = _ordered_sum(freq_map.get(name, 0.0) for name in shared_names)
    weighted = _ordered_sum(
        latencies[name] * freq_map.get(name, 0.0) for name in shared_names
    )
    shared = _guarded_ratio(weighted, total, total > 0.0)

    upgrade_names = [
        name for name in latencies if name.startswith("upgrade")
    ]
    upgrade_total = _ordered_sum(
        freq_map.get(name, 0.0) for name in upgrade_names
    )
    upgrade_weighted = _ordered_sum(
        latencies[name] * freq_map.get(name, 0.0) for name in upgrade_names
    )
    upgrade_mean = _ordered_sum(
        latencies[name] for name in upgrade_names
    ) / len(upgrade_names)
    upgrade = np.where(
        upgrade_total > 0.0,
        _guarded_ratio(upgrade_weighted, upgrade_total, upgrade_total > 0.0),
        upgrade_mean,
    )
    return shared, upgrade


def solve_grid(
    grid: ModelGrid,
    tolerance: float = 1e-6,
    max_iterations: int = 500,
) -> GridSolution:
    """Solve the whole grid and package per-lane operating points.

    Product grids chain warm starts along the processor-cycle axis
    (column ``c`` seeds from column ``c-1``'s solved times, exactly the
    scalar ``sweep()`` strategy); failed lanes reseed their chain from
    the default guess.  Point grids start every lane from the default
    guess.
    """
    np = require_numpy()
    GRID_STATS["grid_solves"] += 1
    evaluate = _EVALUATORS[grid.family]
    arrays = grid.arrays
    n = grid.size

    if grid.chain_shape is not None:
        chains, length = grid.chain_shape
        time = np.full(n, np.nan)
        converged = np.zeros(n, dtype=bool)
        failed = np.zeros(n, dtype=bool)
        base = np.arange(chains) * length
        guess = None
        for position in range(length):
            lanes = base + position
            sub = {name: array[lanes] for name, array in arrays.items()}
            t, c, f = _solve_flat(
                evaluate, sub, guess, tolerance, max_iterations
            )
            time[lanes] = t
            converged[lanes] = c
            failed[lanes] = f
            guess = np.where(np.isfinite(t), t, _DEFAULT_GUESS_PS)
    else:
        time, converged, failed = _solve_flat(
            evaluate, arrays, None, tolerance, max_iterations
        )

    GRID_STATS["points_converged"] += int(converged.sum())
    GRID_STATS["points_failed"] += int(failed.sum())

    # One final full-grid evaluation at the solved times reproduces the
    # scalar solver's returned breakdown exactly: every scalar exit path
    # returns model(T) evaluated at the T it returns.
    safe_time = np.where(np.isfinite(time) & (time > 0.0), time, 1.0)
    with np.errstate(all="ignore"):
        latencies, freq_pairs, network, bank = evaluate(arrays, safe_time)
        shared, upgrade = _weighted_latencies(
            grid.family, latencies, freq_pairs
        )
        nan = np.nan
        solution = GridSolution(
            grid=grid,
            time_per_instruction_ps=time,
            converged=converged,
            failed=failed,
            processor_utilization=np.where(
                failed, nan, arrays["busy_ps"] / time
            ),
            network_utilization=np.where(failed, nan, network),
            bank_utilization=np.where(failed, nan, bank),
            shared_miss_latency_ns=np.where(failed, nan, shared / 1000.0),
            upgrade_latency_ns=np.where(failed, nan, upgrade / 1000.0),
        )
    return solution
