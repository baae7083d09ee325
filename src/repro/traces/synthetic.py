"""Synthetic per-processor trace generation.

Each processor's reference stream is generated independently (from a
seed + processor-id substream) as a sequence of **episodes**: a block
is chosen from one of the workload's pools and referenced for a
geometrically-distributed run, with stores drawn at the pool's write
fraction.  The first reference of an episode usually misses; the rest
hit -- so the episode-length knobs control the miss rates while the
reference-mix knobs (shared fraction, write fractions, instructions
per data reference) hold in expectation by construction.

Because pools have different run lengths, episodes are selected with
probability proportional to ``ref_fraction / run_mean`` so that the
*reference-level* pool mix matches the spec exactly in expectation.

Pools
-----
* **private** -- per-processor region (local home), Zipf locality;
* **migratory** -- a small global hot set referenced read-write by all
  processors: the source of dirty misses, invalidations, and the
  directory protocol's 1-cycle-dirty/2-cycle misses;
* **partitioned** -- per-processor slices of shared space, with an
  occasional stray access into another processor's slice (the
  multitasking effect): hits mostly, plus clean remote misses;
* **read-mostly** -- a large global pool with a low write fraction:
  capacity-driven clean misses.

The generators are deterministic in (seed, processor id) and
independent of simulation interleaving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List

from repro.memory.address import PAGE_SIZE, AddressMap
from repro.sim.rng import DeterministicRng, zipf_cumulative_weights
from repro.traces.benchmarks import BenchmarkSpec
from repro.traces.records import TraceRecord

__all__ = ["SyntheticTraceGenerator", "generate_trace", "Pool"]

#: Default write fraction for the read-mostly pool (see the
#: ``read_mostly_write_fraction`` spec field, which overrides this).
#: Kept very low: read-mostly writes hit blocks whose other copies are
#: spread thin, producing the no-sharer invalidations the paper shows
#: only ~12% of.
READ_MOSTLY_WRITE_FRACTION = 0.005


@dataclass(frozen=True)
class Pool:
    """One block pool: how often it is referenced and how."""

    name: str
    #: Target fraction of all data references landing in this pool.
    ref_fraction: float
    #: Mean episode length (consecutive references to one block).
    run_mean: float
    #: Store probability per reference.
    write_fraction: float
    #: Probability this pool starts the next episode (derived).
    episode_weight: float


class SyntheticTraceGenerator:
    """Builds per-processor reference streams for one benchmark spec."""

    def __init__(
        self,
        spec: BenchmarkSpec,
        address_map: AddressMap,
        seed: int = 1993,
    ) -> None:
        if address_map.num_nodes != spec.processors:
            raise ValueError(
                f"address map has {address_map.num_nodes} nodes but spec "
                f"wants {spec.processors} processors"
            )
        self.spec = spec
        self.address_map = address_map
        self.seed = seed
        self._zipf_private = zipf_cumulative_weights(
            spec.private_blocks, spec.zipf_exponent
        )
        total_shared = spec.shared_blocks_per_proc * spec.processors
        self._migratory_blocks = max(1, min(spec.migratory_blocks, total_shared))
        remaining = max(0, total_shared - self._migratory_blocks)
        self._partition_size = max(1, remaining // (2 * spec.processors))
        self._read_mostly_base = (
            self._migratory_blocks + self._partition_size * spec.processors
        )
        self._read_mostly_size = max(
            1, total_shared - self._read_mostly_base
        )
        self._zipf_read_mostly = zipf_cumulative_weights(
            self._read_mostly_size, spec.zipf_exponent
        )
        # Migratory blocks are picked uniformly: every block of the hot
        # set is passed around by all processors, which is enough
        # reader overlap for invalidations to find shared copies, and
        # it avoids concentrating write serialisation on a single
        # block (a convoy the paper's traces do not exhibit).
        self._zipf_migratory = zipf_cumulative_weights(
            self._migratory_blocks, 0.0
        )
        self.pools = self._build_pools()

    # ------------------------------------------------------------------
    # Pool construction
    # ------------------------------------------------------------------
    def _build_pools(self) -> List[Pool]:
        spec = self.spec
        migratory_write = self._solve_migratory_write_fraction()
        raw = [
            # (name, ref fraction, run mean, write fraction)
            (
                "private",
                1.0 - spec.shared_fraction,
                spec.private_run_mean,
                spec.private_write_fraction,
            ),
            (
                "migratory",
                spec.shared_fraction * spec.migratory_fraction,
                spec.shared_run_mean,
                migratory_write,
            ),
            (
                "partitioned",
                spec.shared_fraction * spec.partitioned_fraction,
                spec.shared_run_mean * 2.0,
                spec.partitioned_write_fraction,
            ),
            (
                "read-mostly",
                spec.shared_fraction * spec.read_mostly_fraction,
                spec.shared_run_mean,
                spec.read_mostly_write_fraction,
            ),
        ]
        # Episodes are picked proportionally to refs/run so that the
        # reference-level mix matches the target fractions.
        weights = [fraction / run for _, fraction, run, _ in raw]
        total = sum(weights)
        pools = []
        for (name, fraction, run, write), weight in zip(raw, weights):
            pools.append(
                Pool(
                    name=name,
                    ref_fraction=fraction,
                    run_mean=run,
                    write_fraction=write,
                    episode_weight=weight / total if total else 0.0,
                )
            )
        return pools

    def _solve_migratory_write_fraction(self) -> float:
        """Write fraction for migratory data hitting the spec's shared
        store mix (partitioned and read-mostly write at their fixed
        fractions; migratory absorbs the remainder, clamped to
        [0.05, 0.95])."""
        spec = self.spec
        if spec.migratory_fraction <= 0.0:
            return 0.0
        target = spec.shared_write_fraction
        fixed = (
            spec.read_mostly_fraction * spec.read_mostly_write_fraction
            + spec.partitioned_fraction * spec.partitioned_write_fraction
        )
        solved = (target - fixed) / spec.migratory_fraction
        return min(0.95, max(0.05, solved))

    # ------------------------------------------------------------------
    # Block selection
    # ------------------------------------------------------------------
    def _spread(self, logical_index: int) -> int:
        """Map a logical shared-block index to a page-spread physical one.

        Real shared data structures span many pages, so the paper's
        random page-to-home allocation spreads even a hot working set
        over all memory banks.  A dense logical layout would instead
        put a whole pool on one page (one home bank would serialise
        every miss).  Each logical block therefore gets its own page,
        with the in-page offset varied so cache-set usage stays spread.
        """
        blocks_per_page = PAGE_SIZE // self.address_map.block_size
        return logical_index * blocks_per_page + (
            logical_index % blocks_per_page
        )

    def _pick_block(self, pool: Pool, rng: DeterministicRng, node: int) -> int:
        if pool.name == "private":
            index = rng.zipf_index(self.spec.private_blocks, self._zipf_private)
            return self.address_map.private_block_address(node, index)
        if pool.name == "migratory":
            index = rng.zipf_index(self._migratory_blocks, self._zipf_migratory)
            return self.address_map.shared_block_address(self._spread(index))
        if pool.name == "partitioned":
            owner = node
            if rng.bernoulli(self.spec.partition_stray_probability):
                owner = rng.randint(0, self.spec.processors - 1)
            index = (
                self._migratory_blocks
                + owner * self._partition_size
                + rng.randint(0, self._partition_size - 1)
            )
            return self.address_map.shared_block_address(self._spread(index))
        index = rng.zipf_index(self._read_mostly_size, self._zipf_read_mostly)
        return self.address_map.shared_block_address(
            self._spread(self._read_mostly_base + index)
        )

    def _pick_pool(self, emitted_by_pool: "dict[str, int]", emitted: int) -> Pool:
        """Deficit-stratified pool selection.

        The next episode goes to the pool whose realised reference
        share lags its target the most.  Randomness stays in the run
        lengths and block choices; stratifying the pool sequence keeps
        the reference mix tight even in short traces (a purely random
        choice needs ~10x more references to converge because private
        episodes are few and hundreds of references long).
        """
        return max(
            self.pools,
            key=lambda pool: pool.ref_fraction * emitted
            - emitted_by_pool[pool.name],
        )

    @staticmethod
    def _run_length(pool: Pool, rng: DeterministicRng) -> int:
        """Episode length draw with the pool's mean.

        Short (shared) runs are geometric -- their dispersion *is* the
        miss-rate mechanism.  Long private runs use a bounded uniform
        draw around the mean instead: a geometric with mean 500 has a
        standard deviation of 500, which makes the realised pool mix of
        a finite trace far too noisy, while locality behaviour is
        insensitive to the run-length tail at scales far beyond the
        miss-rate scale.
        """
        mean = pool.run_mean
        if mean <= 50.0:
            return rng.geometric(mean)
        low = max(1, int(mean / 2))
        high = max(low, int(3 * mean / 2))
        return rng.randint(low, high)

    def _burst_length(
        self, run: int, write_fraction: float, rng: DeterministicRng
    ) -> int:
        """Writes at the tail of a migratory episode.

        Returns either 0 (a read-only visit) or a full burst; the
        burst probability is set so the expected write count is
        exactly ``run * write_fraction``.
        """
        target = run * write_fraction
        if target <= 0.0:
            return 0
        # The accumulation factor makes bursts larger and rarer than a
        # uniform spread, so processors' read-shared copies pile up
        # between bursts -- the structure behind the paper's Table 1
        # observation that most invalidations find copies to kill.
        desired = math.ceil(target * self.spec.migratory_accumulation)
        burst = min(run, max(1, desired))
        # Keep at least one leading read when the write expectation
        # still fits: the burst's first store is then a permission
        # upgrade on a block the episode just pulled in (and downgraded
        # the prior owner of), not a write miss.
        if burst == run and run > 1 and target <= run - 1:
            burst = run - 1
        if rng.bernoulli(min(1.0, target / burst)):
            return burst
        return 0

    # ------------------------------------------------------------------
    # Stream generation
    # ------------------------------------------------------------------
    def stream(self, node: int, data_refs: int) -> Iterator[TraceRecord]:
        """The trace for processor ``node``: ``data_refs`` records."""
        if not 0 <= node < self.spec.processors:
            raise ValueError(f"node {node} out of range")
        instr_per_data = self.spec.instr_per_data
        rng = DeterministicRng(self.seed, stream=node)
        # Per-reference draws bound once: ``random() < p`` is
        # ``rng.bernoulli(p)``, ``randrange(n)`` is ``rng.randint(0, n-1)``.
        random = rng._random.random
        randrange = rng._random.randrange
        new_record = tuple.__new__
        block_size = self.address_map.block_size
        word_slots = max(1, block_size // 4)
        instr_carry = 0.0
        emitted = 0
        emitted_by_pool = {pool.name: 0 for pool in self.pools}
        while emitted < data_refs:
            pool = self._pick_pool(emitted_by_pool, emitted + 1)
            base = self._pick_block(pool, rng, node)
            run = min(self._run_length(pool, rng), data_refs - emitted)
            write_fraction = pool.write_fraction
            migratory = pool.name == "migratory"
            if migratory:
                # Migratory data follows the textbook read-modify-write
                # pattern: a read run ending in a write burst.  This
                # preserves the pool's write fraction while making an
                # invalidation almost always find the previous users'
                # copies -- the structure behind the paper's Table 1
                # ("most invalidations need the multicast round") and
                # Figure 5 dirty-miss shares.
                first_write = run - self._burst_length(run, write_fraction, rng)
            for position in range(run):
                instr_carry += instr_per_data
                instr_before = int(instr_carry)
                instr_carry -= instr_before
                if migratory:
                    is_write = position >= first_write
                else:
                    is_write = random() < write_fraction
                # The word offset varies within the block so the stream
                # looks like real addresses, not block ids.
                yield new_record(
                    TraceRecord,
                    (instr_before, base + randrange(word_slots) * 4, is_write),
                )
            emitted += run
            emitted_by_pool[pool.name] += run

    def streams(self, data_refs: int) -> List[Iterator[TraceRecord]]:
        """One stream per processor."""
        return [
            self.stream(node, data_refs)
            for node in range(self.spec.processors)
        ]


def generate_trace(
    spec: BenchmarkSpec,
    address_map: AddressMap,
    node: int,
    data_refs: int,
    seed: int = 1993,
) -> List[TraceRecord]:
    """Materialise one processor's trace as a list (test convenience)."""
    generator = SyntheticTraceGenerator(spec, address_map, seed)
    return list(generator.stream(node, data_refs))
