"""Unit and property tests for the synthetic workload generators.

``tests/golden/trace_streams.json`` pins the generated streams
themselves, digest by digest, so a change to the generator's inner loop
is checked for bit-identity on its own and not only through simulation
results.  Regenerate it only for a deliberate change to the streams
(which must also bump the result-store key):
``PYTHONPATH=src python tests/test_traces.py --write``.
"""

import hashlib
import json
import pathlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.address import SHARED_BASE, AddressMap
from repro.traces.benchmarks import (
    BENCHMARKS,
    PAPER_TABLE2,
    available_configurations,
    benchmark_spec,
)
from repro.traces.synthetic import SyntheticTraceGenerator, generate_trace


TRACE_GOLDEN = pathlib.Path(__file__).parent / "golden" / "trace_streams.json"
#: (benchmark, processors) configurations pinned by the trace golden.
GOLDEN_CONFIGS = (("mp3d", 64), ("fft", 64), ("water", 16))
GOLDEN_SEEDS = (1993, 4099)
GOLDEN_REFS = 800


def make_generator(name="mp3d", processors=8, seed=5):
    spec = benchmark_spec(name, processors)
    amap = AddressMap(processors, 16, seed=seed)
    return spec, SyntheticTraceGenerator(spec, amap, seed=seed)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_all_paper_configurations_present():
    expected = {
        ("mp3d", 8), ("mp3d", 16), ("mp3d", 32),
        ("water", 8), ("water", 16), ("water", 32),
        ("cholesky", 8), ("cholesky", 16), ("cholesky", 32),
        ("fft", 64), ("weather", 64), ("simple", 64),
    }
    assert set(available_configurations()) == expected
    assert set(PAPER_TABLE2) == expected


def test_unknown_benchmark_lists_options():
    with pytest.raises(KeyError) as excinfo:
        benchmark_spec("nonexistent", 8)
    assert "mp3d@8" in str(excinfo.value)


def test_spec_lookup_case_insensitive():
    assert benchmark_spec("MP3D", 16) is BENCHMARKS[("mp3d", 16)]


def test_specs_have_consistent_pool_fractions():
    for spec in BENCHMARKS.values():
        assert 0.0 < spec.shared_fraction < 1.0
        assert spec.migratory_fraction + spec.partitioned_fraction <= 1.0
        assert spec.read_mostly_fraction >= 0.0
        assert spec.instr_per_data > 0.0


def test_spec_scaled_override():
    spec = benchmark_spec("mp3d", 8)
    scaled = spec.scaled(shared_run_mean=3.0)
    assert scaled.shared_run_mean == 3.0
    assert scaled.name == spec.name


# ----------------------------------------------------------------------
# Generator mechanics
# ----------------------------------------------------------------------
def test_stream_length_exact():
    _, generator = make_generator()
    records = list(generator.stream(0, 500))
    assert len(records) == 500


def test_stream_deterministic():
    _, gen_a = make_generator(seed=9)
    _, gen_b = make_generator(seed=9)
    assert list(gen_a.stream(2, 300)) == list(gen_b.stream(2, 300))


def test_streams_differ_across_processors():
    _, generator = make_generator()
    a = list(generator.stream(0, 200))
    b = list(generator.stream(1, 200))
    assert a != b


def test_streams_differ_across_seeds():
    _, gen_a = make_generator(seed=1)
    _, gen_b = make_generator(seed=2)
    assert list(gen_a.stream(0, 200)) != list(gen_b.stream(0, 200))


def test_private_addresses_belong_to_generating_node():
    spec, generator = make_generator()
    amap = generator.address_map
    for record in generator.stream(3, 2_000):
        if record.address < SHARED_BASE:
            assert amap.home_of(record.address) == 3


def test_pool_episode_weights_sum_to_one():
    _, generator = make_generator()
    total = sum(pool.episode_weight for pool in generator.pools)
    assert total == pytest.approx(1.0)


def test_reference_mix_matches_spec():
    """Shared fraction and write fractions land near the Table 2
    targets (reference-weighted episode selection)."""
    spec, generator = make_generator("mp3d", 8)
    records = list(generator.stream(0, 40_000))
    shared = [r for r in records if r.address >= SHARED_BASE]
    private = [r for r in records if r.address < SHARED_BASE]
    shared_fraction = len(shared) / len(records)
    assert abs(shared_fraction - spec.shared_fraction) < 0.05
    private_writes = sum(r.is_write for r in private) / len(private)
    assert abs(private_writes - spec.private_write_fraction) < 0.04
    shared_writes = sum(r.is_write for r in shared) / len(shared)
    assert abs(shared_writes - spec.shared_write_fraction) < 0.07


def test_instruction_ratio_matches_spec():
    spec, generator = make_generator("water", 8)
    records = list(generator.stream(0, 20_000))
    instr = sum(r.instr_before for r in records)
    assert abs(instr / len(records) - spec.instr_per_data) < 0.02


def test_addresses_word_aligned_within_block():
    _, generator = make_generator()
    for record in generator.stream(0, 1_000):
        assert record.address % 4 == 0


def test_generator_rejects_mismatched_map():
    spec = benchmark_spec("mp3d", 8)
    amap = AddressMap(16, 16)
    with pytest.raises(ValueError):
        SyntheticTraceGenerator(spec, amap)


def test_stream_rejects_bad_node():
    _, generator = make_generator()
    with pytest.raises(ValueError):
        next(generator.stream(8, 10))


def test_generate_trace_helper():
    spec = benchmark_spec("mp3d", 8)
    amap = AddressMap(8, 16)
    records = generate_trace(spec, amap, node=0, data_refs=50)
    assert len(records) == 50


def test_migratory_blocks_shared_across_processors():
    """Different processors touch overlapping migratory blocks --
    without this, no dirty misses could ever occur."""
    _, generator = make_generator("mp3d", 8)
    blocks = []
    for node in (0, 1):
        touched = {
            record.address // 16
            for record in generator.stream(node, 5_000)
            if record.address >= SHARED_BASE
        }
        blocks.append(touched)
    assert blocks[0] & blocks[1]


@given(refs=st.integers(1, 400), node=st.integers(0, 7), seed=st.integers(0, 50))
@settings(max_examples=20, deadline=None)
def test_stream_always_yields_exactly_n_valid_records(refs, node, seed):
    spec = benchmark_spec("cholesky", 8)
    amap = AddressMap(8, 16, seed=seed)
    generator = SyntheticTraceGenerator(spec, amap, seed=seed)
    records = list(generator.stream(node, refs))
    assert len(records) == refs
    for record in records:
        assert record.instr_before >= 0
        assert record.address >= 0
        assert isinstance(record.is_write, bool)


# ----------------------------------------------------------------------
# Golden streams
# ----------------------------------------------------------------------
def _stream_digests() -> dict:
    """sha256 of each pinned stream, keyed ``name@procs/seed/node``."""
    digests = {}
    for name, processors in GOLDEN_CONFIGS:
        spec = benchmark_spec(name, processors)
        for seed in GOLDEN_SEEDS:
            amap = AddressMap(processors, 16, seed=seed)
            generator = SyntheticTraceGenerator(spec, amap, seed=seed)
            for node in (0, processors - 1):
                records = list(generator.stream(node, GOLDEN_REFS))
                # JSON keeps the field types: ``true`` is not ``1``.
                encoded = json.dumps([list(record) for record in records])
                key = f"{name}@{processors}/{seed}/{node}"
                digests[key] = hashlib.sha256(encoded.encode()).hexdigest()
    return digests


def test_streams_match_golden():
    assert TRACE_GOLDEN.exists(), f"{TRACE_GOLDEN} not checked in"
    golden = json.loads(TRACE_GOLDEN.read_text())
    assert _stream_digests() == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_traces.py --write")
    TRACE_GOLDEN.write_text(
        json.dumps(_stream_digests(), sort_keys=True, indent=1) + "\n"
    )
    print(f"wrote {TRACE_GOLDEN}")
