"""Golden regression tests against the checked-in benchmark artefacts.

The benchmark harness writes its rendered tables to
``benchmarks/output/*.txt``; those files are committed, so they pin
the exact numbers every prior session produced.  These tests re-derive
a cheap slice of two of them and compare against the parsed artefact,
and pin both ring engines' full simulated output byte for byte:

* one row of Table 1 (mp3d, 16 processors, full-map directory) --
  a real trace-driven simulation, so this catches any drift in trace
  generation, the protocol engines, or the simulation kernel;
* all of Table 3 (snooping rate) -- closed-form slot geometry, checked
  cell-for-cell exactly;
* the complete serialised result (statistics, utilisations, latency
  histograms) and kernel counters of mp3d at 16 processors under the
  snooping and the full-map directory engines, compared as canonical
  JSON text against ``tests/golden/engine_outputs.json`` (the kernel
  counters are those of the default relay fast path;
  ``REPRO_NO_FASTPATH=1`` changes them, not the result).  Regenerate
  that file only for a deliberate behaviour change:
  ``PYTHONPATH=src python tests/test_golden_regression.py --write``.

Simulations are deterministic, so "tolerance" only needs to absorb the
artefact's 1-decimal rendering (+/- 0.05 on each percentage).
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import re
import sys

import pytest

from repro.core.config import Protocol
from repro.core.experiment import (
    last_kernel_counters,
    run_simulation,
    run_simulation_cached,
)
from repro.core.store import result_to_jsonable
from repro.models.snoop_rate import TABLE3_WIDTHS, snoop_rate_table

BENCH_DIR = pathlib.Path(__file__).parent.parent / "benchmarks"
OUTPUT_DIR = BENCH_DIR / "output"
ENGINE_GOLDEN = pathlib.Path(__file__).parent / "golden" / "engine_outputs.json"
#: Engines pinned by the engine-output golden (benchmark mp3d, 16p).
GOLDEN_ENGINES = (Protocol.SNOOPING, Protocol.DIRECTORY)


def _bench_constants():
    """Load benchmarks/conftest.py for REFS_SPLASH (single source)."""
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


def _parse_triple(cell: str):
    return tuple(float(part) for part in cell.split("/"))


# ----------------------------------------------------------------------
# Table 1: one trace-driven row (mp3d, 16p, full map)
# ----------------------------------------------------------------------
def test_table1_mp3d_fullmap_row_matches_golden(temp_store):
    golden = _golden("table1_traversals")
    match = re.search(
        r"^\s*mp3d16\s*\|\s*full\s*\|\s*([\d./]+)\s*\|\s*[\d./]+"
        r"\s*\|\s*([\d./]+)\s*\|",
        golden,
        re.MULTILINE,
    )
    assert match, "mp3d16/full row missing from golden table1 artefact"
    golden_miss = _parse_triple(match.group(1))
    golden_inv = _parse_triple(match.group(2))

    refs = _bench_constants().REFS_SPLASH
    result = run_simulation_cached(
        "mp3d", 16, Protocol.DIRECTORY, data_refs=refs
    )
    miss = result.stats.miss_traversals.as_paper_row()
    inv = result.stats.upgrade_traversals.as_paper_row()
    ours_miss = (miss["1"], miss["2"], miss["3+"])
    ours_inv = (inv["1"], inv["2"], inv["3+"])

    # The artefact renders one decimal; anything past +/-0.05 per
    # bucket means the simulation itself drifted.
    assert ours_miss == pytest.approx(golden_miss, abs=0.05), (
        f"miss traversal drift: ours {ours_miss} vs golden {golden_miss}"
    )
    assert ours_inv == pytest.approx(golden_inv, abs=0.05), (
        f"invalidate traversal drift: ours {ours_inv} vs golden "
        f"{golden_inv}"
    )


# ----------------------------------------------------------------------
# Table 3: closed-form, exact
# ----------------------------------------------------------------------
def test_table3_snoop_rate_matches_golden():
    golden = _golden("table3_snoop_rate")
    # Parse the "ours" table (first block, before the paper copy).
    ours_section = golden.split("Table 3 -- paper")[0]
    golden_cells = {}
    for line in ours_section.splitlines():
        match = re.match(r"^\s*(\d+)\s*\|(.+)$", line)
        if not match:
            continue
        block = int(match.group(1))
        values = [int(cell) for cell in match.group(2).split("|")]
        golden_cells[block] = dict(zip(TABLE3_WIDTHS, values))
    assert golden_cells, "no data rows parsed from golden table3 artefact"

    for row in snoop_rate_table():
        block = row["block size (bytes)"]
        assert block in golden_cells, f"block {block} missing from golden"
        for width in TABLE3_WIDTHS:
            assert row[f"{width}-bit"] == golden_cells[block][width], (
                f"Table 3 cell ({block} B, {width}-bit): "
                f"ours {row[f'{width}-bit']} vs golden "
                f"{golden_cells[block][width]}"
            )


# ----------------------------------------------------------------------
# Full engine output: mp3d, 16p, snooping and full map, byte for byte
# ----------------------------------------------------------------------
def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=1)


def _engine_output(protocol: Protocol) -> dict:
    """Serialised result and kernel counters of one fresh simulation."""
    result = run_simulation(
        "mp3d",
        num_processors=16,
        protocol=protocol,
        data_refs=_bench_constants().REFS_SPLASH,
    )
    return {
        "result": result_to_jsonable(result),
        "kernel": last_kernel_counters(),
    }


@pytest.mark.parametrize(
    "protocol", GOLDEN_ENGINES, ids=[p.value for p in GOLDEN_ENGINES]
)
def test_engine_output_matches_golden(protocol):
    assert ENGINE_GOLDEN.exists(), f"{ENGINE_GOLDEN} not checked in"
    golden = json.loads(ENGINE_GOLDEN.read_text())[protocol.value]
    assert _canonical(_engine_output(protocol)) == _canonical(golden), (
        f"{protocol.value} engine output drifted from {ENGINE_GOLDEN.name}"
    )


def _write_engine_golden() -> None:
    ENGINE_GOLDEN.parent.mkdir(exist_ok=True)
    outputs = {p.value: _engine_output(p) for p in GOLDEN_ENGINES}
    ENGINE_GOLDEN.write_text(_canonical(outputs) + "\n")
    print(f"wrote {ENGINE_GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_regression.py --write")
    _write_engine_golden()
