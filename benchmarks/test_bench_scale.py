"""EXP-SCALE — feasibility at scale: latency, caching, and the scale plane.

The paper's framework extracts everything on-the-fly so that results are
always fresh.  This experiment quantifies what that costs and what buys
it back, in two regimes:

- **Pipeline regime** (hundreds of scholars): simulated network latency
  and request count of one recommendation as the population grows, and
  the same run under increasing cache TTLs (TTL 0 = the paper's pure
  mode).
- **Population regime** (10^3 → 10^5 scholars): the streamed world +
  sharded scale plane (:mod:`repro.scale`).  Worlds are derived lazily
  from the seed, indexes are hash-sharded, and retrieval/screening/
  scoring fan out per shard.  Measures per-query wall-clock time at
  each size, the process-backend speedup (seed-rehydrated worker
  processes vs a sequential baseline, bit-identical across a
  processes × shards grid), the string-interning savings, and anchors
  correctness against the paper's own COI rule and ranking formula over
  a full scan (``paper_reference_topk``).  Writes
  ``BENCH_scale.json`` at the repo root, uploaded by CI's
  ``scale-bench`` job.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.pipeline import Minaret
from repro.scale.bench import run_scale_bench
from repro.scholarly.registry import ScholarlyHub
from repro.world.config import WorldConfig
from repro.world.generator import generate_world
from benchmarks.conftest import print_table, sample_manuscripts

WORLD_SIZES = (100, 300, 600)
CACHE_TTLS = (0.0, 300.0, None)  # on-the-fly, 5-minute, immortal

#: Population sweep of the scale-plane regime (the 10^5 point is the
#: issue's "million-scholar path" acceptance size; ingest is ~1 min).
SCALE_SIZES = (1_000, 10_000, 100_000)
OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_scale.json"


def one_run(world, cache_ttl=0.0, repeats=1):
    hub = ScholarlyHub.deploy(world, cache_ttl=cache_ttl)
    manuscript, __ = sample_manuscripts(world, count=1)[0]
    minaret = Minaret(hub)
    result = None
    for __r in range(repeats):
        result = minaret.recommend(manuscript)
    return hub, result


def test_bench_scale_world_size(benchmark):
    def sweep():
        rows = []
        for size in WORLD_SIZES:
            world = generate_world(WorldConfig(author_count=size, seed=42))
            hub, result = one_run(world)
            rows.append(
                (
                    size,
                    hub.total_requests(),
                    f"{hub.total_latency():.1f}s",
                    len(result.candidates),
                    len(result.ranked),
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "EXP-SCALE: one recommendation vs world size (TTL 0 = on-the-fly)",
        ("scholars", "requests", "sim latency", "candidates", "recommended"),
        rows,
    )
    # Requests are bounded by max_candidates, not world size: the pipeline
    # must not degrade to crawling the whole world.
    request_counts = [int(r[1]) for r in rows]
    assert max(request_counts) < 3.0 * min(request_counts)


def test_bench_scale_cache_ttl(benchmark, bench_world):
    def sweep():
        rows = []
        for ttl in CACHE_TTLS:
            hub, __ = one_run(bench_world, cache_ttl=ttl, repeats=3)
            label = "0 (on-the-fly)" if ttl == 0 else (str(ttl) if ttl else "inf")
            rows.append(
                (
                    label,
                    hub.total_requests(),
                    f"{hub.crawler.cache_hit_rate():.2f}",
                    f"{hub.total_latency():.1f}s",
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "EXP-SCALE: 3 repeated recommendations vs cache TTL",
        ("cache TTL", "requests", "hit rate", "sim latency"),
        rows,
    )
    requests = [int(r[1]) for r in rows]
    # Longer TTLs must strictly reduce network traffic.
    assert requests[0] > requests[-1]
    # The immortal cache must serve the repeat runs almost entirely.
    assert float(rows[-1][2]) > 0.5


def test_bench_scale_population(benchmark):
    """The population-regime sweep: streamed worlds, sharded query path."""
    report = benchmark.pedantic(
        lambda: run_scale_bench(sizes=SCALE_SIZES), rounds=1, iterations=1
    )
    rows = [
        (
            f"{entry['authors']:,}",
            f"{entry['ingest_seconds']:.1f}s",
            f"{entry['index']['postings']:,}",
            f"{entry['mean_wall_seconds'] * 1000:.1f}ms",
            {True: "yes", False: "NO", None: "-"}[
                entry["topk_matches_reference"]
            ],
        )
        for entry in report["sizes"]
    ]
    print_table(
        f"EXP-SCALE: sharded query path vs population "
        f"({report['shards']} shards, {report['workers']} workers)",
        (
            "scholars",
            "ingest",
            "postings",
            "wall/query",
            "ref=",
        ),
        rows,
    )
    interning = report["interning"]
    print(
        f"string interning at {interning['authors']} authors: "
        f"{interning['saved_bytes']:,} bytes saved "
        f"({interning['saved_pct']:.1f}%)"
    )
    scaling = report["scaling"]
    print(
        f"population x{scaling['size_ratio']:.0f} -> query wall "
        f"x{scaling['query_wall_ratio']:.2f} (sublinear={scaling['sublinear']})"
    )
    process = report["process"]
    print(
        f"process backend at {process['size']:,} scholars "
        f"({process['workers']} workers on {process['cpus']} cpus): "
        f"{process['sequential_wall_seconds'] * 1000:.1f}ms sequential -> "
        f"{process['process_wall_seconds'] * 1000:.1f}ms process per query, "
        f"measured x{process['measured_speedup']:.2f}; "
        f"first query {process['first_query_wall_seconds'] * 1000:.0f}ms "
        f"incl. spawn+rehydrate"
    )
    print_table(
        "EXP-SCALE: process-backend bit-identity vs the paper reference "
        f"({process['grid_size']} scholars)",
        ("processes", "shards", "identical"),
        [
            (cell["processes"], cell["shards"], "yes" if cell["identical"] else "NO")
            for cell in process["grid"]
        ],
    )
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {OUTPUT}")

    # The 10^5-scholar world must actually have been swept.
    assert report["sizes"][-1]["authors"] >= 100_000
    # Wherever the paper reference ran, the sharded top-k matched it
    # entry-for-entry.
    verified = [
        entry["topk_matches_reference"]
        for entry in report["sizes"]
        if entry["topk_matches_reference"] is not None
    ]
    assert verified and all(verified)
    # Per-query wall time grows sub-linearly in world size.
    assert scaling["sublinear"]
    # Interning must save memory, not cost it.
    assert interning["saved_bytes"] > 0
    # The process backend answers exactly like the sequential plane —
    # at the measured size and across the whole processes x shards grid
    # against the paper reference.  This holds on any host.
    assert process["topk_identical"]
    assert process["grid_identical"]
    # The wall-clock speedup claim needs real cores to parallelize
    # over, so it is asserted only on hosts that have them (CI is >= 4).
    if process["cpus"] >= 4:
        assert process["measured_speedup"] >= 2.5, process
