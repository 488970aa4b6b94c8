"""tsvsim benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from the sibling `src/` tree and
byte-compiled first. One process, a closed loop with one client: each request
starts when the previous one has finished and been checked. Requests fall
into three classes (light, mid, heavy; see workloads.py) and the scheduler
gives each class a fixed share of the S measured seconds.

--trace 0 prints the end-to-end metrics: set-up time (median of fresh
interpreters that import tsvsim and complete the first request, with BLAS held
to one thread; see SetupProbe), per-class
latency medians and p90s, and the tracemalloc peak of one heavy request.
Timings are scaled to a nominal machine speed (speed.py).
--trace 1 instead replays a fixed round of requests, untraced and traced in
turn, and prints per-layer metrics per round (see spans.py) plus the tracing
overhead. Both check every output; a failed check makes the run incorrect
and the exit code 1. The last stdout line is the JSON result; the lines above
it give the machine, every metric by name with its unit and sample count,
and the workload-specific names of each metric.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

import speed
import workloads
from gen import TRAJ_SEEDS_PER_BATCH, TRAJ_STEPS
from spans import PER_LAYER, Tracer
from workloads import CLASSES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_PROBES = 7
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_TIMEOUT_S = 60
# the timed loop stops this long after S even if a class is short of samples
LOOP_LIMIT_S = 60
WARM_LIGHT = 30
WARM_MIN_S = 1.0
# the speed reference loop (speed.py) runs once per this much loop time
REF_PERIOD_S = 0.1

END_TO_END = {
    "setup_s": "s",
    "light_ms_p50": "ms",
    "light_ms_p90": "ms",
    "mid_ms_p50": "ms",
    "mid_ms_p90": "ms",
    "heavy_ms_p50": "ms",
    "heavy_peak_mib": "MiB",
}
# What each class metric is called in the workload's own terms.
ALIASES = {
    "scn_scaling": {"light": "scn_small", "mid": "scn_mid", "heavy": "scn_large"},
    "weak_trajectories": {"light": "strong_batch", "mid": "traj2_batch",
                          "heavy": "traj3_batch"},
    "builtin_mix": {"light": "builtin_exact", "mid": "builtin_pointer",
                    "heavy": "builtin_mc"},
    "parse_fuzz": {"light": "fuzz_random", "mid": "fuzz_soup", "heavy": "fuzz_mutation"},
}


def percentile(xs: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def machine() -> dict:
    import numpy as np

    info: dict = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
                  "cpu_model": platform.processor() or platform.machine()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            models = [ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")]
        if models:
            info["cpu_model"] = models[0]
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    info["caches"] = caches
    info["ram_mib"] = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2 ** 20
    info["python"] = platform.python_version()
    info["numpy"] = np.__version__
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        info["blas"] = "unknown"
    info["blas_threads_env"] = {var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS}
    return info


class SetupProbe:
    """Times fresh interpreters that import tsvsim and complete the workload's
    first request (see setup_probe.py).

    The probes run with BLAS held to one thread. On the shared 2-core host,
    starting the BLAS thread pool and handing it its first calls costs either
    nothing or 0.06 to 0.15 s, depending on whether the host is running the
    second core at the time, in phases that last minutes; that made set-up a
    coin flip between two levels. One thread removes the flip and leaves the
    import and the first request. The timed loop keeps the BLAS threads as
    found."""

    def __init__(self, workload: str, seed: int, first: workloads.Request, workdir: Path):
        (workdir / "probe.json").write_text(
            json.dumps({"cls": first.cls, "key": first.key, "spec": first.spec}),
            encoding="utf-8")
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
                    str(workdir)]
        self.times: list[float] = []
        self.scaled: list[float] = []
        self.problems: list[str] = []
        self.env = dict(os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1"))

    def __call__(self) -> None:
        try:
            proc = subprocess.run(self.cmd, capture_output=True, text=True, cwd=ROOT,
                                  env=self.env, timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            self.problems.append(f"set-up probe took over {PROBE_TIMEOUT_S} s")
            return
        if proc.returncode == 0:
            elapsed, loop = map(float, proc.stdout.split()[-2:])
            self.times.append(elapsed)
            self.scaled.append(elapsed * speed.scale([loop]))
        else:
            self.problems.append(
                f"set-up probe exit {proc.returncode}: {proc.stderr.strip()[-300:]}")


class Feed:
    """Hands out each class's requests in order, cycling when a list ends."""

    def __init__(self, reqs: dict[str, list[workloads.Request]]):
        self.reqs = reqs
        self.next = {cls: 0 for cls in CLASSES}

    def take(self, cls: str) -> workloads.Request:
        items = self.reqs[cls]
        req = items[self.next[cls] % len(items)]
        self.next[cls] += 1
        return req


def timed_call(runner: workloads.Runner, req: workloads.Request) -> tuple[float, bytes]:
    start = perf_counter()
    raw = runner.call(req)
    elapsed = perf_counter() - start
    return elapsed, runner.verify(req, raw)


def warm_up(runner: workloads.Runner, feed: Feed, workload: str) -> float:
    """Untimed pass so that lazy set-up and BLAS start-up finish before the
    clock runs. The first heavy requests run under tracemalloc; the largest
    peak of any one of them, in MiB, is returned."""
    peak = 0
    tracemalloc.start()
    try:
        for _ in range(workloads.PEAK_REQUESTS[workload]):
            tracemalloc.reset_peak()
            timed_call(runner, feed.take("heavy"))
            peak = max(peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    for _ in range(3):
        timed_call(runner, feed.take("mid"))
    start, n = perf_counter(), 0
    while n < WARM_LIGHT or perf_counter() - start < WARM_MIN_S:
        timed_call(runner, feed.take("light"))
        n += 1
    return peak / 2 ** 20


def measure(runner: workloads.Runner, feed: Feed, shares: dict[str, float], seconds: float,
            probe: SetupProbe) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
    """Closed loop: run the class furthest below its time share until the
    time is up and every class has its minimum sample count. Returns the
    latencies by class and, by class, the factor that scales each latency to
    the nominal machine speed (see speed.py).

    The set-up probes and the reference loop run at evenly spaced points of
    the loop, so they see the same machine as the requests; their time is
    not counted against the loop's."""
    samples: dict[str, list[float]] = {cls: [] for cls in CLASSES}
    spans: dict[str, list[tuple[float, float]]] = {cls: [] for cls in CLASSES}
    spent = dict.fromkeys(CLASSES, 0.0)
    refs: list[float] = []
    ref_at: list[float] = []
    start = perf_counter()
    paused = 0.0
    while True:
        now = perf_counter() - start - paused
        done = len(probe.times) + len(probe.problems)
        if done < SETUP_PROBES and now >= done * seconds / SETUP_PROBES:
            before = perf_counter()
            probe()
            paused += perf_counter() - before
            continue
        if now >= len(refs) * REF_PERIOD_S:
            ref_at.append(perf_counter())
            refs.append(speed.reference_loop())
            paused += refs[-1]
            continue
        if now >= LOOP_LIMIT_S + seconds:
            break
        candidates = CLASSES
        if now >= seconds:
            candidates = [c for c in CLASSES if len(samples[c]) < workloads.MIN_SAMPLES[c]]
            if not candidates:
                break
        cls = min(candidates, key=lambda c: spent[c] / shares[c])
        begun = perf_counter()
        elapsed, _ = timed_call(runner, feed.take(cls))
        spans[cls].append((begun, begun + elapsed))
        samples[cls].append(elapsed)
        spent[cls] += elapsed
    scales = {cls: speed.local_scales(ref_at, refs, spans[cls]) for cls in CLASSES}
    return samples, scales


def end_to_end(samples: dict[str, list[float]], setup: list[float],
               peak_mib: float) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup) if setup else 0.0,  # 0: every probe failed
        "light_ms_p50": statistics.median(samples["light"]) * 1e3,
        "light_ms_p90": percentile(samples["light"], 0.9) * 1e3,
        "mid_ms_p50": statistics.median(samples["mid"]) * 1e3,
        "mid_ms_p90": percentile(samples["mid"], 0.9) * 1e3,
        "heavy_ms_p50": statistics.median(samples["heavy"]) * 1e3,
        "heavy_peak_mib": peak_mib,
    }


def throughputs(workload: str, samples: dict[str, list[float]]) -> dict[str, float]:
    """The workload's throughput figures: work done over time spent on it."""
    if workload == "weak_trajectories":
        steps = (len(samples["mid"]) + len(samples["heavy"])) * TRAJ_SEEDS_PER_BATCH * TRAJ_STEPS
        return {"traj_steps_per_s": steps / (sum(samples["mid"]) + sum(samples["heavy"])),
                "strong_measures_per_s":
                    len(samples["light"]) * TRAJ_SEEDS_PER_BATCH / sum(samples["light"])}
    if workload == "parse_fuzz":
        n = sum(len(v) for v in samples.values())
        return {"fuzz_inputs_per_s": n / sum(sum(v) for v in samples.values())}
    return {}


def trace_run(runner: workloads.Runner, feed: Feed, workload: str,
              seconds: float, spans_path: Path) -> dict[str, float]:
    """Run one fixed round of requests untraced and traced in turn until the
    time is up; alternating keeps drifts in machine speed out of the
    overhead. Every round's outputs must equal the first untraced round's."""
    rnd = [feed.take(cls) for cls in CLASSES
           for _ in range(workloads.TRACE_ROUND[workload][cls])]

    def run_round() -> tuple[float, list[bytes]]:
        total, outs = 0.0, []
        for req in rnd:
            elapsed, out = timed_call(runner, req)
            total += elapsed
            outs.append(out)
        return total, outs

    tracer = Tracer()
    untraced = traced = 0.0
    reference: list[bytes] | None = None
    rounds = 0
    start = perf_counter()
    while rounds == 0 or perf_counter() - start < seconds:
        elapsed, outs = run_round()
        untraced += elapsed
        reference = reference or outs
        with tracer:
            elapsed, traced_outs = run_round()
        traced += elapsed
        rounds += 1
        for req, *got, want in zip(rnd, outs, traced_outs, reference):
            if any(g != want for g in got):
                runner.failures.append(f"{req.key}: output differs between rounds "
                                       "or with tracing on")
    metrics = tracer.layer_metrics(rounds)
    metrics["trace.overhead_ms"] = (traced - untraced) * 1e3 / rounds
    tracer.write(spans_path)
    print(f"# trace: {rounds} rounds of {len(rnd)} requests each way, "
          f"{len(tracer.spans)} spans written to {spans_path}")
    return {name: metrics[name] for name in PER_LAYER}


def report(metrics: dict[str, float], units: dict[str, str], notes: dict[str, str]) -> None:
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {units[name]}{note}")


def run(args: argparse.Namespace, workdir: Path) -> int:
    reqs = workloads.requests(args.workload, args.seed, SRC, workdir)
    sys.path.insert(0, str(SRC))
    runner = workloads.Runner(args.workload, args.seed, workdir, workloads.load_digests())
    import tsvsim
    if Path(tsvsim.__file__).resolve().parent != SRC / "tsvsim":
        print(f"error: imported tsvsim from {tsvsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print("# machine " + json.dumps(machine(), sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")

    feed = Feed(reqs)
    peak_mib = warm_up(runner, feed, args.workload)
    if args.trace:
        metrics = trace_run(runner, feed, args.workload, args.seconds,
                            WORK / f"spans-{args.workload}.jsonl")
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        report(metrics, units, {})
    else:
        probe = SetupProbe(args.workload, args.seed, reqs["light"][0], workdir)
        samples, scales = measure(runner, feed, workloads.SHARES[args.workload],
                                  args.seconds, probe)
        runner.failures.extend(probe.problems)
        runner.attempted += len(probe.times) + len(probe.problems)
        raw = end_to_end(samples, probe.times, peak_mib)
        scaled = {cls: [x * f for x, f in zip(samples[cls], scales[cls])] for cls in CLASSES}
        metrics = end_to_end(scaled, probe.scaled, peak_mib)
        print("# timings are scaled to the nominal machine speed (speed.py); median factor "
              f"{statistics.median(f for v in scales.values() for f in v):.4f}")
        alias = ALIASES[args.workload]
        notes = {"setup_s": f"raw {raw['setup_s']:.6g}; median of {len(probe.times)} "
                            "fresh interpreters",
                 "heavy_peak_mib": f"{alias['heavy']}_peak_mib, tracemalloc, untimed"}
        for name in END_TO_END:
            cls, _, q = name.partition("_ms_")
            if q:
                notes[name] = (f"raw {raw[name]:.6g}; {alias[cls]}_ms_{q}; "
                               f"n={len(samples[cls])}")
        units = END_TO_END
        report(metrics, units, notes)
        for name, value in throughputs(args.workload, samples).items():
            print(f"{name} = {value:.6g} 1/s  (raw)")
    runner.finish()
    failed = len(runner.failures)
    print(f"failed_frac = {failed / runner.attempted:.6g} ({failed} of {runner.attempted})")
    for problem in runner.failures[:20]:
        print(f"# FAILED {problem}")
    result = {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                        help="'all' runs every workload in turn, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "tsvsim" / "__init__.py").is_file():
        print(f"error: no tsvsim sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", w,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for w in workloads.WORKLOADS]
        return max(codes)
    compileall.compile_dir(str(SRC), quiet=1)
    workdir = WORK / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
