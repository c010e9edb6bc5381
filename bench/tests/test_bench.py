"""The benchmark's own tests: smoke runs of every workload in both
modes, worker-count bit identity, exact-repeat counts, span self time and
the refusal to run without the levdyn sources.

    python3 -m pytest bench/tests -q

They start the benchmark and the CLI as subprocesses and take about a
minute on two cores.  They are not part of the tier-1 suite.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def last_json(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_reports_every_metric(name: str, trace: str):
    result = last_json(bench("--workload", name, "--size", "smoke", "--seconds", "0.1",
                             "--trace", trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_all_prints_every_end_to_end_metric_per_workload():
    done = bench("--workload", "all", "--size", "smoke", "--seconds", "0.1")
    result = last_json(done)
    assert result["correct"]
    for name in workloads.WORKLOADS:
        for metric in (*run.END_TO_END, "wall_s", "failed_frac"):
            assert any(line.split()[:2] == [name, metric] for line in done.stdout.splitlines())
            if metric in run.END_TO_END:
                assert f"{name}.{metric}" in result["metrics"]


@pytest.mark.parametrize("name", ["sweep-fig5", "stabmap"])
def test_worker_count_does_not_change_output(name: str, tmp_path: Path):
    workload = workloads.WORKLOADS[name]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workload.config(7, "smoke")), encoding="utf-8")
    digests = set()
    for workers in ("1", "2"):
        out = tmp_path / f"out-{workers}.csv"
        argv = workload.argv(str(config), str(out), "smoke")
        argv[argv.index("--workers") + 1] = workers
        subprocess.run(
            [sys.executable, "-m", "levdyn.cli", *argv], cwd=ROOT, env=run.child_env(),
            check=True, timeout=120,
        )
        digests.add(workloads.output_digest(out.read_bytes()))
    assert len(digests) == 1


def test_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        assert last_json(bench("--workload", "stabmap", "--size", "smoke", "--seed", "3",
                               "--seconds", "0.1", "--trace", "1"))["correct"]
        report = BENCH / ".work" / "BENCH_stabmap_smoke_seed3_trace1.json"
        metrics = json.loads(report.read_text(encoding="utf-8"))["metrics"]
        counts.append({name: metrics[name] for name in run.EXACT_COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["orbits.steps"] > 0 and counts[0]["lyap.tangent_steps"] > 0


def test_self_time_subtracts_children():
    # parent 0..10 with children 1..3 and 4..8 (which has a child 5..6)
    recorded = [
        ["run", 0.0, 10.0, None, "main", {}],
        ["sweep.run_sweep", 1.0, 3.0, 0, "main", {}],
        ["output.write_csv", 4.0, 8.0, 0, "main", {}],
        ["output.format", 5.0, 6.0, 2, "main", {}],
        ["orbits.iterate", 0.0, 99.0, None, "replay", {}],
    ]
    assert spans.self_times(recorded, "main") == {"run": 4.0, "sweep": 2.0, "output": 4.0}


def test_digest_ignores_only_the_timestamp():
    a = b"# seed: 1\n# timestamp: 2026-01-01T00:00:00+00:00\nx\n1\n"
    b = b"# seed: 1\n# timestamp: 2027-05-05T10:00:00+00:00\nx\n1\n"
    assert workloads.output_digest(a) == workloads.output_digest(b)
    assert workloads.output_digest(a) != workloads.output_digest(a.replace(b"1\n", b"2\n"))


def test_refuses_to_run_without_levdyn_sources(tmp_path: Path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "stabmap", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170, check=False,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
