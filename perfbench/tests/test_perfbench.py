"""Tests of the benchmark itself, at toy input sizes.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYERS = json.loads((ROOT / "perfbench" / "layers.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.harness import HostSpeed  # noqa: E402
from perfbench.tracing import Span, layer_rollup, self_seconds  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )


def result_of(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr[-3000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = result_of(
        run_bench(
            "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--toy"
        )
    )
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in expected}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_layer_map_covers_every_per_layer_metric():
    assert set(LAYERS["layers"]) == {metric["name"] for metric in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checker_counts_a_corrupted_output_as_failed(workload):
    result = result_of(
        run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--toy", "--corrupt")
    )
    assert result["correct"] is False
    assert result["failed"] >= 1
    failed_frac = result["failed"] / result["attempted"]
    assert failed_frac > 0


def test_same_seed_gives_same_inputs():
    from perfbench import workloads
    from repro.world.config import WorldConfig
    from repro.world.generator import generate_world

    import random

    world = generate_world(WorldConfig(author_count=150, seed=42))
    first = workloads.manuscript_payloads(world, random.Random(9))
    second = workloads.manuscript_payloads(world, random.Random(9))
    drawn = [next(first) for __ in range(20)]
    assert drawn == [next(second) for __ in range(20)]
    assert len({json.dumps(p, sort_keys=True) for p in drawn}) == 20


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    completed = run_bench(
        "--workload", "editor-cold", "--seed", "1", "--seconds", "1", cwd=tmp_path
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def _span(span_id, name, layer, start, end, parent=None):
    return Span(span_id, name, layer, start, end, parent, 1)


def test_rollup_adds_up_to_the_traced_wall_time():
    spans = [
        _span(1, "unit", "bench", 0.0, 10.0),
        _span(2, "MinaretApi.handle", "api", 1.0, 9.0, parent=1),
        _span(3, "SimulatedHttpClient.get", "web", 2.0, 4.0, parent=2),
        # Two pool threads at once share the instant equally.
        _span(4, "SimulatedHttpClient.get", "web", 5.0, 7.0, parent=2),
        _span(5, "CoiScreen.screen", "scoring", 5.0, 7.0, parent=2),
    ]
    rollup = layer_rollup(spans, [(0.0, 10.0)])
    assert rollup["wall"] == 10.0
    assert rollup["unattributed"] == pytest.approx(2.0)
    assert rollup["web"] == pytest.approx(3.0)
    assert rollup["scoring"] == pytest.approx(1.0)
    assert rollup["api"] == pytest.approx(4.0)
    assert sum(v for k, v in rollup.items() if k != "wall") == pytest.approx(10.0)
    assert self_seconds(spans, "MinaretApi.handle") == pytest.approx(4.0)


def test_host_speed_divides_by_the_samples_around_a_stretch_of_time():
    speed = HostSpeed()
    # Fast (1 ms) samples around t = 10 s, slow (2 ms) ones around t = 20 s.
    speed.times = [9.8, 10.1, 10.4, 19.8, 20.1, 20.4, 20.6]
    speed.samples_ms = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]
    assert speed.factor(10.0, 10.2) == pytest.approx(1.0 / speed.REFERENCE_MS)
    assert speed.factor(20.0, 20.2) == pytest.approx(2.0 / speed.REFERENCE_MS)
    # No sample near the stretch: the whole run's median.
    assert speed.factor(50.0, 51.0) == pytest.approx(2.0 / speed.REFERENCE_MS)
    assert speed.factor() == pytest.approx(2.0 / speed.REFERENCE_MS)


def test_a_host_speed_sample_times_the_walk():
    speed = HostSpeed()
    speed.after(0.0)
    assert len(speed.samples_ms) == 1 and speed.samples_ms[0] > 0.0
    assert speed.rss_mb > 0.0
