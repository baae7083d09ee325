"""State abstraction and replay harness for the model checker.

The coherence engines are process-oriented: their in-flight state
lives in suspended processes (generators, which cannot be serialised,
or flat machines parked on the event heap).  The checker therefore
never copies a *live* engine.  Instead it works over **quiescent**
abstract states -- the engine after the event heap has drained.  A
quiescent harness is plain data: :meth:`EngineHarness.freeze`
serialises it once and each ``thaw()`` of the result is an independent
copy, which is how the explorer expands a state by one step.  Any
state can also be reached by *replaying* a script of reference steps
on a freshly built engine.  Replay is cheap at checker scale (2--4
nodes, 1--2 shared lines) and gives the explorer minimal
counterexamples for free: a BFS node's script *is* its reproduction
recipe.

A step is one or two concurrent references (the two-reference "race"
steps exercise the shared-lock, snapshot and gated-commit paths that
sequential replay alone cannot reach).  Each reference starts through
the engine's ``spawn_miss`` -- for the snooping and directory engines
the same flat machine a simulated processor runs, so an exhaustive
proof covers the code that simulations execute.  After spawning the
refs the harness drains the heap under a generous horizon; a heap that
outlives the horizon is reported as divergence (livelock), stuck
processes as deadlock.

On top of the structural invariants the harness keeps a **freshness
oracle**: a shadow version counter per line plus the version each
node's copy was sourced from.  A node that hits on a copy older than
the line's current version has read a stale value -- the data-value
coherence bug that SWMR violations cause but that metadata checks
alone can miss.  The oracle is exact for single-reference steps; after
a race step the interleaving chosen by the event loop decides which
write is last, so the oracle resynchronises instead of judging.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.config import CacheConfig, Protocol, SystemConfig
from repro.memory.cache import AccessOutcome
from repro.memory.states import CacheState
from repro.sim.kernel import Simulator

from repro.check.invariants import InvariantViolation, check_addresses

if TYPE_CHECKING:
    from repro.check.frozen import FrozenHarness

__all__ = [
    "DRAIN_HORIZON_PS",
    "HIERARCHY_CLUSTERS",
    "PROTOCOLS",
    "Ref",
    "StepSpec",
    "AbstractState",
    "EngineHarness",
    "hierarchy_per_cluster",
]

#: 50 ms of simulated time -- orders of magnitude beyond any legal
#: transaction at checker scale.  A heap still live past this horizon
#: is divergence, not latency.
DRAIN_HORIZON_PS = 50_000_000_000

#: Protocols the checker drives, keyed by CLI spelling.
PROTOCOLS: Dict[str, Protocol] = {
    "snooping": Protocol.SNOOPING,
    "directory": Protocol.DIRECTORY,
    "linkedlist": Protocol.LINKED_LIST,
    "bus": Protocol.BUS,
    "hierarchical": Protocol.HIERARCHICAL,
}

#: Checker configurations of the hierarchical ring always use two
#: local rings: the smallest hierarchy that exercises every
#: inter-cluster path, and the one the symmetry group is built for.
HIERARCHY_CLUSTERS = 2


def hierarchy_per_cluster(nodes: int) -> int:
    """Nodes per local ring at checker scale (and a validity check)."""
    if nodes % HIERARCHY_CLUSTERS:
        raise ValueError(
            f"hierarchical checking needs an even node count "
            f"(got {nodes}: {HIERARCHY_CLUSTERS} equal clusters)"
        )
    return nodes // HIERARCHY_CLUSTERS

#: State changes a *bystander* -- a (node, line) pair not referenced in
#: the current step -- may legally undergo: invalidation, downgrade, or
#: nothing.  A bystander that gains a copy or gains write permission
#: marks a protocol bug regardless of any metadata agreement.
_LEGAL_BYSTANDER = frozenset(
    {
        (CacheState.INV, CacheState.INV),
        (CacheState.RS, CacheState.RS),
        (CacheState.WE, CacheState.WE),
        (CacheState.RS, CacheState.INV),
        (CacheState.WE, CacheState.RS),
        (CacheState.WE, CacheState.INV),
    }
)


@dataclass(frozen=True, order=True)
class Ref:
    """One processor reference: ``node`` touches shared line ``line``."""

    node: int
    line: int
    is_write: bool

    def label(self) -> str:
        return f"{'W' if self.is_write else 'R'}(n{self.node},l{self.line})"


@dataclass(frozen=True)
class StepSpec:
    """One explorer step: 1 ref, or 2 concurrent refs (a race)."""

    refs: Tuple[Ref, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.refs) <= 2:
            raise ValueError("a step holds one or two references")

    @property
    def is_race(self) -> bool:
        return len(self.refs) > 1

    def label(self) -> str:
        inner = " || ".join(ref.label() for ref in self.refs)
        return f"[{inner}]" if self.is_race else inner


#: Hashable canonical form of a quiescent system state: per-(node,
#: line) cache states plus each line's coherence metadata view.  Two
#: scripts reaching the same AbstractState are protocol-equivalent for
#: every future step, which is what makes the BFS visited-set sound.
AbstractState = Tuple[
    Tuple[Tuple[int, int, str], ...],  # (node, line, cache-state name)
    Tuple[Tuple[int, tuple], ...],  # (line, coherence_view)
]


def _small_config(protocol: Protocol, nodes: int, lines: int) -> SystemConfig:
    # A cache comfortably larger than the checked line pool: conflict
    # evictions would be driven by private fills the checker never
    # issues, so every state change is a protocol action.
    cache = CacheConfig(size_bytes=1024, block_size=32)
    config = SystemConfig(
        num_processors=nodes, protocol=protocol, cache=cache
    )
    if protocol is Protocol.HIERARCHICAL:
        hierarchy_per_cluster(nodes)  # validates the node count
        config = replace(
            config,
            ring=replace(config.ring, clusters=HIERARCHY_CLUSTERS),
        )
    return config


class EngineHarness:
    """A fresh engine plus the oracles, driven by :class:`StepSpec`.

    ``apply(step)`` spawns the step's references, drains the event
    heap, updates the freshness oracle and runs the bystander check.
    It raises :class:`InvariantViolation` (kinds ``deadlock``,
    ``divergence``, ``freshness`` or ``bystander``) -- structural
    SWMR/agreement checking stays with the caller via
    :meth:`check` so each layer picks its strictness.
    """

    def __init__(self, protocol: str, nodes: int, lines: int) -> None:
        if protocol not in PROTOCOLS:
            raise ValueError(
                f"unknown protocol {protocol!r}; "
                f"expected one of {sorted(PROTOCOLS)}"
            )
        self.protocol = protocol
        self.nodes = nodes
        self.lines = lines
        self.sim = Simulator()
        from repro.core.experiment import build_engine

        self.engine = build_engine(
            self.sim, _small_config(PROTOCOLS[protocol], nodes, lines)
        )
        self.addresses: List[int] = [
            self.engine.address_map.shared_block_address(line)
            for line in range(lines)
        ]
        #: Shadow write counter per line (the "data value" stand-in).
        self.versions: List[int] = [0] * lines
        #: Version each node's current copy was sourced from.
        self.observed: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # Step execution
    # ------------------------------------------------------------------
    def apply(self, step: StepSpec) -> None:
        before = self._cache_matrix()
        spawned = False
        hits: List[Ref] = []
        for ref in step.refs:
            address = self.addresses[ref.line]
            outcome = self.engine.caches[ref.node].classify(
                address, ref.is_write
            )
            if outcome is AccessOutcome.HIT:
                hits.append(ref)
                continue
            self.engine.spawn_miss(
                ref.node, address, outcome, name=f"check:{ref.label()}"
            )
            spawned = True
        if spawned:
            self._drain(step)
        self._check_bystanders(step, before)
        self._account_freshness(step, hits)

    def _drain(self, step: StepSpec) -> None:
        self.sim.run(until=self.sim.now + DRAIN_HORIZON_PS)
        if self.sim.peek() is not None:
            raise InvariantViolation(
                "divergence",
                f"event heap still live {DRAIN_HORIZON_PS} ps after "
                f"step {step.label()} (livelock)",
            )
        if self.sim.active_process_count > 0:
            raise InvariantViolation(
                "deadlock",
                f"{self.sim.active_process_count} process(es) stuck "
                f"after step {step.label()}",
            )

    def _check_bystanders(
        self, step: StepSpec, before: Dict[Tuple[int, int], CacheState]
    ) -> None:
        touched = {(ref.node, ref.line) for ref in step.refs}
        after = self._cache_matrix()
        for key, prior in before.items():
            if key in touched:
                continue
            if (prior, after[key]) not in _LEGAL_BYSTANDER:
                node, line = key
                raise InvariantViolation(
                    "bystander",
                    f"step {step.label()} moved uninvolved node {node} "
                    f"line {line} from {prior.name} to {after[key].name}",
                )

    def _account_freshness(
        self, step: StepSpec, hits: Sequence[Ref]
    ) -> None:
        if step.is_race:
            # The event loop picked the write order; resynchronise.
            for ref in step.refs:
                if ref.is_write:
                    self.versions[ref.line] += 1
            self._resync_observed()
            return
        (ref,) = step.refs
        address = self.addresses[ref.line]
        current = self.versions[ref.line]
        if ref in hits:
            # Served entirely from the local copy: it must be current.
            seen = self.observed.get((ref.node, ref.line), 0)
            if seen != current:
                raise InvariantViolation(
                    "freshness",
                    f"{ref.label()} hit on version {seen} of line "
                    f"{ref.line}, current is {current}",
                )
        if ref.is_write:
            self.versions[ref.line] = current + 1
            self.observed[(ref.node, ref.line)] = current + 1
        else:
            self.observed[(ref.node, ref.line)] = current
        # Copies invalidated by this step no longer pin a version.
        for node in range(self.nodes):
            if (
                self.engine.caches[node].state_of(address)
                is CacheState.INV
            ):
                self.observed.pop((node, ref.line), None)

    def _resync_observed(self) -> None:
        for line, address in enumerate(self.addresses):
            for node in range(self.nodes):
                if (
                    self.engine.caches[node].state_of(address)
                    is not CacheState.INV
                ):
                    self.observed[(node, line)] = self.versions[line]
                else:
                    self.observed.pop((node, line), None)

    # ------------------------------------------------------------------
    # Oracles and canonicalization
    # ------------------------------------------------------------------
    def check(self, *, strict: bool = True) -> None:
        """Structural invariants over every checked line."""
        check_addresses(self.engine, self.addresses, strict=strict)

    def snapshot(self) -> AbstractState:
        caches = tuple(
            (node, line, state.name)
            for (node, line), state in sorted(
                self._cache_matrix().items()
            )
        )
        views = tuple(
            (line, self._view_of(address))
            for line, address in enumerate(self.addresses)
        )
        return (caches, views)

    def _view_of(self, address: int) -> tuple:
        """Canonical metadata for one line, any engine.

        Engines with a ``coherence_view`` report it directly; engines
        without one (the hierarchical ring keeps per-cluster metadata)
        fall back to the ownership facts every engine exposes --
        ``dirty_hint`` plus an ``owned_by`` scan -- under the
        ``"owner"`` tag, which the symmetry layer relabels like a
        dirty bit.
        """
        view = getattr(self.engine, "coherence_view", None)
        if view is not None:
            try:
                return view(self.engine.address_map.block_of(address))
            except NotImplementedError:
                pass
        dirty = self.engine.dirty_hint(address)
        owner = next(
            (
                node
                for node in range(self.nodes)
                if self.engine.owned_by(address, node)
            ),
            None,
        )
        return ("owner", dirty, owner)

    def freeze(self) -> "FrozenHarness":
        """Serialise this *quiescent* harness once, for many copies.

        At quiescence nothing live remains -- the event heap is empty
        and no process is suspended mid-transaction -- so the whole
        object graph (caches, directories, locks, RNG, clock) is plain
        data.  Each ``thaw()`` of the result rebuilds an independent
        harness whose future behaviour is bit-identical to replaying
        this harness's script on a fresh engine.  The explorer freezes
        a frontier state once and thaws one child per alphabet step:
        an expansion costs one step, not ``depth`` steps, and each
        child is one unpickle of a few kilobytes.
        """
        if self.sim.peek() is not None:
            raise RuntimeError(
                "freeze() requires a quiescent harness "
                "(the event heap is still live)"
            )
        from repro.check.frozen import FrozenHarness

        return FrozenHarness(self)

    def clone(self) -> "EngineHarness":
        """An independent copy of this quiescent harness."""
        return self.freeze().thaw()

    def _cache_matrix(self) -> Dict[Tuple[int, int], CacheState]:
        return {
            (node, line): self.engine.caches[node].state_of(address)
            for node in range(self.nodes)
            for line, address in enumerate(self.addresses)
        }

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    @classmethod
    def replay(
        cls,
        protocol: str,
        nodes: int,
        lines: int,
        script: Iterable[StepSpec],
        *,
        stop_before_last: bool = False,
        tracer: Optional[object] = None,
    ) -> "EngineHarness":
        """Rebuild the state a script reaches, on a fresh engine.

        ``stop_before_last`` replays all but the final step (the state
        a counterexample starts from).  ``tracer`` is attached to the
        fresh simulator for the whole replay, so a counterexample can
        be re-executed under :class:`repro.obs.Tracer` to produce a
        full event trace of the failure.
        """
        steps = list(script)
        if stop_before_last:
            steps = steps[:-1]
        harness = cls(protocol, nodes, lines)
        if tracer is not None:
            harness.sim.tracer = tracer
        for step in steps:
            harness.apply(step)
        return harness
