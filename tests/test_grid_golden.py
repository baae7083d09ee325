"""Golden-regression tests for the paper pipeline's model half.

The committed benchmark artefacts (``benchmarks/output/*.txt``) pin the
exact figures and tables the benchmark harness produces.  Regenerating
a slice of them through the library entry points and matching the
artefacts byte-for-byte (figures) and cell-for-cell (tables) keeps both
artefacts pinned by the test suite, not only by the benchmark run.
"""

from __future__ import annotations

import importlib.util
import pathlib
import re
from dataclasses import replace

import pytest

from repro.analysis.figures import render_sweeps
from repro.core.config import Protocol, SystemConfig
from repro.core.experiment import run_simulation_cached
from repro.core.sweep import ring_vs_bus
from repro.models.matching import matching_bus_clock_ns

BENCH_DIR = pathlib.Path(__file__).parent.parent / "benchmarks"
OUTPUT_DIR = BENCH_DIR / "output"


def _bench_constants():
    spec = importlib.util.spec_from_file_location(
        "bench_conftest", BENCH_DIR / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _golden(name: str) -> str:
    path = OUTPUT_DIR / f"{name}.txt"
    if not path.exists():
        pytest.skip(f"golden artefact {path} not checked in")
    return path.read_text()


# ----------------------------------------------------------------------
# Figure 6, MP3D-8 panel: rendered charts == committed artefact
# ----------------------------------------------------------------------
def test_fig6_mp3d8_grid_render_matches_golden():
    """``ring_vs_bus`` (scalar model sweeps) renders the MP3D-8 panel
    of the committed Fig 6 artefact byte for byte."""
    golden = _golden("fig6_ring_vs_bus")
    refs = _bench_constants().REFS_SPLASH
    sweeps = ring_vs_bus("mp3d", 8, data_refs=refs)
    for metric, label in [
        ("processor_utilization", "processor utilization"),
        ("network_utilization", "network utilization"),
        ("shared_miss_latency_ns", "miss latency (ns)"),
    ]:
        block = render_sweeps(
            sweeps,
            metric,
            title=f"Fig 6 MP3D-8: {label}",
            width=48,
            height=10,
        )
        assert block in golden, (
            f"rendered Fig 6 MP3D-8 {label} chart drifted from the "
            "committed artefact"
        )


# ----------------------------------------------------------------------
# Table 4, MP3D-8 rows: matching bus clocks == committed artefact
# ----------------------------------------------------------------------
def test_table4_mp3d8_grid_rows_match_golden():
    """``matching_bus_clock_ns`` reproduces the MP3D-8 rows of the
    committed Table 4 artefact cell for cell."""
    golden = _golden("table4_matching_bus")
    golden_rows = {}
    for line in golden.splitlines():
        match = re.match(
            r"^\s*mp3d 8\s*\|\s*(\d+) MHz\s*\|\s*([\d./]+)\s*\|", line
        )
        if match:
            golden_rows[int(match.group(1))] = tuple(
                float(cell) for cell in match.group(2).split("/")
            )
    assert set(golden_rows) == {250, 500}, (
        "mp3d 8 rows missing from golden table4 artefact"
    )

    refs = _bench_constants().REFS_SPLASH
    extraction = run_simulation_cached(
        "mp3d", 8, Protocol.SNOOPING, data_refs=refs
    )
    mips_points = (100, 200, 400)
    for ring_mhz, expected in golden_rows.items():
        base = SystemConfig(num_processors=8)
        config = replace(
            base, ring=replace(base.ring, clock_ps=round(1e6 / ring_mhz))
        )
        ours = tuple(
            round(
                matching_bus_clock_ns(
                    config, extraction.inputs, round(1e6 / mips)
                ),
                1,
            )
            for mips in mips_points
        )
        assert ours == expected, (
            f"Table 4 mp3d-8 @ ring {ring_mhz} MHz: {ours} vs "
            f"golden {expected}"
        )
