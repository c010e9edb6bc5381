"""levdyn benchmark: four figure-scale workloads, end to end and by layer.

    python3 bench/run.py --workload sweep-fig5 --seed 1 --seconds 16 --trace 0
    python3 bench/run.py --workload all            # every workload, one table

Untraced (``--trace 0``): each sample runs the workload in a fresh
process (the levdyn CLI, or bench/micro_conv.py) and times it from spawn
to exit; samples repeat while the next one would still end within
``--seconds``.  A fixed pure-Python loop timed around every sample, on as
many vCPUs at once as the workload keeps busy, measures the machine's
momentary speed; ``wall_rel`` is wall time over that reference.  Set-up
time is probed separately in fresh interpreters, each probe bracketed by
the same loop on one vCPU; ``setup_s`` is the median probe scaled to a
machine on which the loop takes ``REFERENCE_NOMINAL_S``.  Every output
is checked.

Traced (``--trace 1``): the same untraced samples as a reference, then
one run of bench/traced.py, which records a span around every call into
a levdyn module's public functions and reports per-layer metrics, self
time per module and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines above it
give every metric with its unit and sample count, the run environment
and any failure.  A fuller record, with every sample, goes to
bench/.work/BENCH_<workload>_<size>_seed<seed>_trace<t>.json.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"

#: wall-clock budget of one workload in one invocation (the limit is 180 s)
DEADLINE_S = 170.0
#: fresh-interpreter set-up probes per run, after one unmeasured warm-up
SETUP_PROBES = 8

#: pure-Python loop steps of the speed reference (about 0.18 s)
REFERENCE_STEPS = 1_000_000
#: reference_s of the nominal machine that ``setup_s`` is scaled to
REFERENCE_NOMINAL_S = 0.18
#: loops per bracketing reference around a sample; the fastest counts
REFERENCE_REPEATS = 3

END_TO_END = {"wall_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "config.parse_ms": "ms",
    "sweep.points_per_s": "1/s",
    "sweep.point_ms_p50": "ms",
    "sweep.point_ms_p90": "ms",
    "sweep.parallel_eff": "ratio",
    "sweep.survival_frac": "ratio",
    "orbits.steps": "count",
    "orbits.steps_per_s": "1/s",
    "orbits.period_us": "us",
    "lyap.tangent_steps": "count",
    "lyap.tangent_steps_per_s": "1/s",
    "lyap.useful_step_ratio": "ratio",
    "lyap.share": "ratio",
    "maps.jacobian_per_s": "1/s",
    "attractor.capture_points_per_s": "1/s",
    "attractor.box_points_per_s": "1/s",
    "micro.ticks": "count",
    "micro.ticks_per_s": "1/s",
    "micro.replica_ms_p50": "ms",
    "output.rows": "count",
    "output.bytes": "count",
    "output.rows_per_s": "1/s",
    "output.emit_share": "ratio",
    **{f"{layer}.self_s": "s" for layer in (
        "config", "sweep", "orbits", "lyap", "maps", "attractor", "micro", "output",
        "entry",
    )},
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}

#: counts that must repeat exactly for one code version, workload, size and seed
EXACT_COUNTS = (
    "orbits.steps", "lyap.tangent_steps", "micro.ticks", "output.rows",
    "output.bytes", "sweep.survival_frac",
)


def fail_setup(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def spawn(cmd: list[str], timeout: float, stderr_path: Path) -> tuple[float, float, float, int, bytes]:
    """Run ``cmd`` through bench/launch.py in its own session and wait.

    Returns (start on the monotonic clock, wall seconds from spawn to
    exit, peak RSS in MB of the command's process tree, exit code, the
    command's standard output).  A run still going at ``timeout`` is
    killed with its whole session and reported with exit code -9.
    """
    launcher = [sys.executable, str(BENCH / "launch.py"), *cmd]
    with open(stderr_path, "wb") as err:
        began = time.monotonic()
        proc = subprocess.Popen(launcher, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                                stderr=err, start_new_session=True)
        killer = threading.Timer(max(timeout, 0.0), _kill_group, (proc.pid,))
        killer.start()
        try:
            output = proc.communicate()[0]
        finally:
            killer.cancel()
            _kill_group(proc.pid)  # nothing of a run may outlive it
            proc.wait()
    *lines, last = output.split(b"\n")[:-1] or [b"{}"]
    report = json.loads(last) if last.startswith(b"{") else {}
    if "exit" not in report:
        return began, time.monotonic() - began, 0.0, -9, b""
    return (report["start"], report["wall_s"], report["peak_rss_mb"], report["exit"],
            b"\n".join(lines))


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _terminate(signum: int, frame: Any) -> None:
    raise SystemExit(128 + signum)  # unwinds through spawn, which kills the run


def reference_s() -> float:
    """Seconds this process takes for a fixed pure-Python float loop, the
    kind of work levdyn's hot loops do.

    The benchmark machine is a shared 2-vCPU VM whose speed shifts by up
    to a third for minutes at a time; CPU time shifts with it, so the
    slowdown is not time spent off the CPU.  Taken around every sample
    and set-up probe, this reference measures the machine's speed at that
    moment, and ``wall_rel`` and ``setup_s`` divide it out.  It involves
    no levdyn code, so a change to levdyn cannot move it.
    """
    start = time.perf_counter()
    x, total = 0.3, 0.0
    for _ in range(REFERENCE_STEPS):
        x = 3.9 * x * (1.0 - x)
        total += math.sqrt(x + 1.0) / (x + 2.0)
    return time.perf_counter() - start


def _reference_helper(conn: Any) -> None:
    while conn.recv():
        conn.send(reference_s())


class Reference:
    """``reference_s`` on ``processes`` vCPUs at once, the mean of their
    times; a call returns the fastest of ``REFERENCE_REPEATS`` of those.

    The fastest is the machine's speed at that moment without the stalls
    that hit a single short loop now and then; left in, one such stall
    would skew the whole sample it brackets.

    A grid workload keeps both vCPUs busy, so the host's load on either
    of them slows it, and so does the two vCPUs sharing a core; a loop on
    one vCPU with the other idle sees neither.  Its reference therefore
    loads as many vCPUs as it does.  The extra loops run in helper
    processes that live as long as this object.
    """

    def __init__(self, processes: int) -> None:
        self.helpers: list[tuple[Any, Any]] = []
        for _ in range(processes - 1):
            conn, child = multiprocessing.Pipe()
            helper = multiprocessing.Process(target=_reference_helper, args=(child,),
                                             daemon=True)
            helper.start()
            self.helpers.append((helper, conn))

    def __call__(self) -> float:
        return min(self._once() for _ in range(REFERENCE_REPEATS))

    def _once(self) -> float:
        for _, conn in self.helpers:
            conn.send(True)
        times = [reference_s()] + [conn.recv() for _, conn in self.helpers]
        return sum(times) / len(times)

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc: Any) -> None:
        for helper, conn in self.helpers:
            conn.send(False)
            helper.join()
        self.helpers = []


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def environment() -> dict[str, Any]:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "code_sha256": code_digest(),
    }


def loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unknown"


def code_digest() -> str:
    """sha256 over the levdyn sources and the benchmark's own code."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "levdyn").rglob("*.py")) + sorted(BENCH.glob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Ledger:
    """Digests and counts seen per (workload, size, seed, code version),
    kept across invocations in the work directory: a second run of the
    same code and seed that disagrees is a failure, not noise."""

    def __init__(self, path: Path) -> None:
        self.path = path
        try:
            self.entries = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            self.entries = {}

    def check(self, key: str, field: str, value: Any) -> str | None:
        entry = self.entries.setdefault(key, {})
        if field in entry and entry[field] != value:
            return f"{field} differs from an earlier run of this code: {value} != {entry[field]}"
        entry[field] = value
        self.path.write_text(json.dumps(self.entries, indent=1, sort_keys=True), encoding="utf-8")
        return None


def load_golden(size: str, name: str) -> dict:
    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
    return golden.get(size, {}).get(name, {})


def output_counts(data: bytes, suffix: str) -> tuple[int, int]:
    """(data rows, bytes) of an output: CSV rows below the header, or one
    JSON document."""
    if suffix == ".json":
        return 1, len(data)
    lines = [line for line in data.split(b"\n") if line and not line.startswith(b"#")]
    return max(len(lines) - 1, 0), len(data)


def measure(name: str, seed: int, seconds: float, trace: bool, size: str,
            reference: Reference) -> dict:
    import workloads

    workload = workloads.WORKLOADS[name]
    deadline = time.monotonic() + DEADLINE_S
    env = environment()
    env["loadavg_start"] = loadavg()
    work = WORK / name
    work.mkdir(parents=True, exist_ok=True)
    document = workload.config(seed, size)
    config_path = work / f"config-{size}-{seed}.json"
    config_path.write_text(json.dumps(document, indent=1), encoding="utf-8")
    out_path = work / f"out{workload.out_suffix}"
    argv = workload.argv(str(config_path), str(out_path), size)
    parsed = workloads.prepare(argv)
    if workload.command == "micro-conv":
        program = [sys.executable, str(BENCH / "micro_conv.py")]
    else:
        program = [sys.executable, "-m", "levdyn.cli"]
    ledger = Ledger(WORK / "ledger.json")
    key = f"{name}|{size}|seed{seed}|{env['code_sha256']}"
    golden = load_golden(size, name) if seed == workloads.DEFAULT_SEED else {}
    errors: list[str] = []
    result: dict[str, Any] = {"workload": name, "seed": seed, "size": size,
                              "seconds": seconds, "trace": int(trace), "env": env}

    setups: list[dict] = []
    setup_failed = 0
    if not trace:
        # the first probe only warms the file and bytecode caches; the
        # others are bracketed by the speed reference on one vCPU, the
        # one that set-up runs on
        probe = [sys.executable, str(BENCH / "setup_probe.py"), *argv]
        for i in range(SETUP_PROBES + 1):
            if i == 1:
                before = reference_s()
            start, _, _, code, output = spawn(probe, deadline - time.monotonic(),
                                              work / "setup.err")
            if code != 0:
                errors.append(f"set-up probe exited {code}: {tail(work / 'setup.err')}")
                setup_failed = 1
                break
            if i:
                after = reference_s()
                setups.append({"setup_s": float(output.decode().strip()) - start,
                               "reference_s": (before + after) / 2})
                before = after

    def check_output(data: bytes, what: str) -> str | None:
        digest = workloads.output_digest(data)
        problem = None
        if "digest" not in result:
            result["digest"] = digest
            problem = workload.check(data, parsed)
            problem = problem or ledger.check(key, "digest", digest)
            if golden and digest != golden["sha256"]:
                problem = problem or f"digest {digest} differs from golden.json"
        elif digest != result["digest"]:
            problem = f"output digest {digest} differs from the first sample's"
        return problem and f"{what}: {problem}"

    samples: list[dict] = []
    references = [reference()]
    began = time.monotonic()
    while True:
        out_path.unlink(missing_ok=True)
        _, wall, rss, code, _ = spawn(program + argv, deadline - time.monotonic(),
                                      work / "sample.err")
        references.append(reference())
        speed = (references[-2] + references[-1]) / 2
        sample = {"wall_s": wall, "reference_s": speed, "wall_rel": wall / speed,
                  "peak_rss_mb": rss, "exit": code}
        if code:
            problem = f"exit code {code}: {tail(work / 'sample.err')}"
        elif not out_path.exists():
            problem = "no output written"
        else:
            problem = check_output(out_path.read_bytes(), f"sample {len(samples) + 1}")
        if problem:
            sample["error"] = problem
            errors.append(problem)
        samples.append(sample)
        # stop before a sample that would run past --seconds, or leave too
        # little of the deadline for the traced run
        now = time.monotonic()
        if now + wall - began > seconds or deadline - now < wall * (4.0 if trace else 1.5):
            break

    walls = [s["wall_s"] for s in samples]
    result["samples"] = samples
    result["setup_samples"] = setups
    attempted = len(samples) + setup_failed
    failed = sum(1 for s in samples if "error" in s) + setup_failed
    result["wall_s"] = median(walls)
    metrics = {
        "wall_rel": median([s["wall_rel"] for s in samples]),
        "setup_s": REFERENCE_NOMINAL_S * median([s["setup_s"] / s["reference_s"] for s in setups]),
        "peak_rss_mb": median([s["peak_rss_mb"] for s in samples]),
    }
    counts = {"wall_rel": len(walls), "setup_s": len(setups), "peak_rss_mb": len(walls)}

    if trace:
        attempted += 1
        layer, problem = traced_run(workload, size, config_path, work, deadline, reference,
                                    metrics["wall_rel"], result["wall_s"], check_output)
        problem = problem or check_counts(layer, ledger, key, golden)
        if problem:
            errors.append(problem)
            failed += 1
        metrics = layer
        counts = {metric: 1 for metric in layer}
        counts["trace.overhead_s"] = counts["trace.overhead_frac"] = len(walls)

    env["loadavg_end"] = loadavg()
    result.update(attempted=attempted, failed=failed, errors=errors,
                  metrics=metrics, sample_counts=counts)
    report = WORK / f"BENCH_{name}_{size}_seed{seed}_trace{int(trace)}.json"
    report.write_text(json.dumps(result, indent=1), encoding="utf-8")
    result["report"] = str(report.relative_to(ROOT))
    return result


def tail(path: Path, lines: int = 3) -> str:
    try:
        text = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    except OSError:
        return ""
    return " | ".join(text[-lines:])


def traced_run(workload: Any, size: str, config_path: Path, work: Path, deadline: float,
               reference: Reference, wall_rel: float, wall_s: float,
               check_output: Any) -> tuple[dict, str | None]:
    spans_path = work / "spans.json"
    out_path = work / f"traced-out{workload.out_suffix}"
    spans_path.unlink(missing_ok=True)
    out_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "traced.py"), workload.name, size,
           str(config_path), str(out_path), str(spans_path)]
    before = reference()
    start, _, _, code, _ = spawn(cmd, deadline - time.monotonic(), work / "traced.err")
    empty = {metric: 0.0 for metric in PER_LAYER}
    if code != 0 or not spans_path.exists():
        return empty, f"traced run exited {code}: {tail(work / 'traced.err')}"
    doc = json.loads(spans_path.read_text(encoding="utf-8"))
    if doc["exit_code"] != 0:
        return empty, f"traced workload exited {doc['exit_code']}: {tail(work / 'traced.err')}"
    if not out_path.exists():
        return empty, "traced run wrote no output"
    data = out_path.read_bytes()
    problem = check_output(data, "traced run") or doc["mismatch"]
    rows, size_bytes = output_counts(data, workload.out_suffix)
    # in the wall_rel frame, so that the machine's drift between the
    # untraced samples and the traced run cancels
    speed = (before + doc["reference_after"]) / 2
    overhead_frac = ratio((doc["main_end"] - start) / speed, wall_rel) - 1.0
    return layer_metrics(doc["spans"], rows, size_bytes, overhead_frac, wall_s), problem


def layer_metrics(spans_: list, rows: int, size_bytes: int, overhead_frac: float,
                  wall_s: float) -> dict[str, float]:
    import spans as spans_mod

    def pick(run: str, *names: str) -> list:
        return [s for s in spans_ if s[4] == run and s[0] in names]

    def total(chosen: list, field: str | None = None) -> float:
        if field is None:
            return sum(s[2] - s[1] for s in chosen)
        return sum(s[5].get(field, 0) for s in chosen)

    def durations(chosen: list, scale: float) -> list[float]:
        return [(s[2] - s[1]) * scale for s in chosen]

    root = pick("main", "run")[0]
    grid = pick("main", "sweep.run_sweep", "sweep.stability_map")
    points = pick("replay", "sweep._eval_point")
    iterates = pick("replay", "orbits.iterate")
    clouds = pick("main", "attractor.capture_cloud")
    periods = pick("replay", "orbits.detect_period")
    tangents = pick("replay", "lyap.lyapunov_top", "lyap.lyapunov_1d")
    jacobians = pick("maps", "maps.coupled_jacobian")
    boxes = pick("main", "attractor.occupied_box_counts")
    micro = [s for s in pick("main", "micro.run_micro") if s[5].get("ticks")]
    writes = pick("main", "output.write_csv", "output.write_json")
    point_ms = durations(points, 1e3)
    workers = grid[0][5].get("workers", 1) if grid else 1
    steps = total(iterates, "steps") + total(clouds, "steps")
    tangent_steps = total(tangents, "tangent_steps")

    metrics = {
        "config.parse_ms": median(durations(pick("config", "bench.config"), 1e3)),
        "sweep.points_per_s": ratio(total(grid, "points"), total(grid)),
        "sweep.point_ms_p50": median(point_ms),
        "sweep.point_ms_p90": quantile(point_ms, 0.9),
        "sweep.parallel_eff": ratio(total(points), workers * total(grid)),
        "sweep.survival_frac": ratio(total(points, "survivors"), total(points, "initials")),
        "orbits.steps": steps,
        "orbits.steps_per_s": ratio(steps, total(iterates) + total(clouds)),
        "orbits.period_us": ratio(total(periods) * 1e6, len(periods)),
        "lyap.tangent_steps": tangent_steps,
        "lyap.tangent_steps_per_s": ratio(tangent_steps, total(tangents)),
        "lyap.useful_step_ratio": ratio(tangent_steps, tangent_steps + total(tangents, "transient")),
        "lyap.share": ratio(total(tangents), total(points)),
        "maps.jacobian_per_s": ratio(len(jacobians), total(jacobians)),
        "attractor.capture_points_per_s": ratio(total(clouds, "points"), total(clouds)),
        "attractor.box_points_per_s": ratio(total(boxes, "box_points"), total(boxes)),
        "micro.ticks": total(micro, "ticks"),
        "micro.ticks_per_s": ratio(total(micro, "ticks"), total(micro)),
        "micro.replica_ms_p50": median(durations(micro, 1e3)),
        "output.rows": rows,
        "output.bytes": size_bytes,
        "output.rows_per_s": ratio(rows, total(writes)),
        "output.emit_share": ratio(total(writes), root[2] - root[1]),
        "trace.overhead_s": overhead_frac * wall_s,
        "trace.overhead_frac": overhead_frac,
    }
    self_by_layer: dict[str, float] = {}
    for prefix, seconds in spans_mod.self_times(spans_, "main").items():
        layer = "entry" if prefix == "run" else spans_mod.layer_of(prefix)
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + seconds
    for layer in (*spans_mod.LAYERS, "entry"):
        metrics[f"{layer}.self_s"] = self_by_layer.get(layer, 0.0)
    return {metric: metrics[metric] for metric in PER_LAYER}


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def check_counts(metrics: dict, ledger: Ledger, key: str, golden: dict) -> str | None:
    counts = {name: metrics[name] for name in EXACT_COUNTS}
    if golden and counts != golden["counts"]:
        return f"counts {counts} differ from golden.json {golden['counts']}"
    return ledger.check(key, "counts", counts)


def print_result(result: dict) -> None:
    name, env = result["workload"], result["env"]
    print(
        f"# {name}: nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']} "
        f"numpy={env['numpy']} commit={env['commit']} code={env['code_sha256'][:12]} "
        f"loadavg_start={env['loadavg_start']!r} loadavg_end={env['loadavg_end']!r}"
    )
    units = PER_LAYER if result["trace"] else END_TO_END
    for metric, value in result["metrics"].items():
        n = result["sample_counts"][metric]
        print(f"{name:12s} {metric:32s} {value:16.6g} {units[metric]:6s} n={n}")
    print(f"{name:12s} {'failed_frac':32s} {ratio(result['failed'], result['attempted']):16.6g} "
          f"{'ratio':6s} {result['failed']} of {result['attempted']} runs failed")
    walls = ", ".join(f"{s['wall_s']:.3f}" for s in result["samples"])
    print(f"{name:12s} {'wall_s':32s} {result['wall_s']:16.6g} {'s':6s} "
          f"n={len(result['samples'])}, samples {walls}")
    for error in result["errors"]:
        print(f"{name}: FAILED {error}", file=sys.stderr)
    print(f"{name:12s} report: {result['report']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="levdyn benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    if not (ROOT / "src" / "levdyn" / "cli.py").is_file():
        return fail_setup(f"levdyn sources not found under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload == "all":
        names = list(workloads.WORKLOADS)
    elif args.workload in workloads.WORKLOADS:
        names = [args.workload]
    else:
        return fail_setup(f"unknown workload {args.workload!r}; "
                          f"choose from {', '.join(workloads.WORKLOADS)} or all")
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed

    results = []
    for name in names:
        with Reference(workloads.WORKLOADS[name].processes) as reference:
            result = measure(name, seed, args.seconds, bool(args.trace), args.size, reference)
        print_result(result)
        results.append(result)

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        for metric, value in result["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
