"""eqcausal benchmark: one workload, closed loop, one client in one process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each pipeline run starts only after the previous one has ended and its
outputs have been checked. With `--trace 0` the run reports the end-to-end
metrics; with `--trace 1` it alternates untraced and traced pipeline runs and
reports the per-layer metrics, the tracing overhead and the self-time
accounting check. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See perfbench/README.md for the workloads and metrics.
"""

import bootstrap  # noqa: I001  (first: pins thread pools before numpy loads)

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import PER_LAYER, TIME_SHARES, Tracer

HERE = Path(__file__).resolve().parent

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("wall_s_tail", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("quality_loss", "1"),
)
TRACE_CHECKS = (
    ("trace.overhead", "ratio"),
    ("trace.self_sum_ratio", "ratio"),
)

SETUP_REPEATS = 7      # fresh interpreters per run, after one that fills the bytecode cache
TAIL_BEYOND = 10       # samples that must lie beyond the reported tail percentile
MIN_TRACED = 3         # traced pipeline runs, even when --seconds is short
DEADLINE_S = 150.0     # stop starting pipeline runs after this, whatever --seconds says
SELF_SUM_TOL = 0.05    # layers' self times must add up to the traced wall time within this


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine_info() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_sha": git_sha(),
        "threads": bootstrap.THREAD_ENV,
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a clone."""
    git = bootstrap.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Speed:
    """The machine's current speed, read from a fixed LAPACK kernel.

    On a shared host the same work can take 50 % longer a few minutes later.
    Timing the kernel just before and just after each measured interval and
    rescaling the interval by REFERENCE_S / (mean kernel time) reports every
    time at one reference speed, the one at which the kernel takes
    REFERENCE_S. The kernel runs no eqcausal code, so a change to eqcausal
    moves the rescaled times exactly as it moves the raw ones.
    """

    SIZE = 120
    REPEATS = 3
    REFERENCE_S = 0.005

    def __init__(self):
        import numpy as np

        self._eigvals = np.linalg.eigvals
        self._matrix = np.random.default_rng(0).uniform(size=(self.SIZE, self.SIZE))
        self.kernel_times: list[float] = []

    def kernel(self) -> float:
        """Median time of the kernel over REPEATS calls, now."""
        times = []
        for _ in range(self.REPEATS):
            t0 = time.perf_counter()
            self._eigvals(self._matrix)
            times.append(time.perf_counter() - t0)
        self.kernel_times.append(statistics.median(times))
        return self.kernel_times[-1]

    def factor(self, before: float) -> float:
        """Rescaling for an interval that began with kernel time `before` and ends now."""
        return self.REFERENCE_S / ((before + self.kernel()) / 2.0)


def measure_setup(config_path: Path, speed: Speed) -> float:
    """Median rescaled set-up time over SETUP_REPEATS fresh interpreters."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        before = speed.kernel()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(config_path)],
                              capture_output=True, text=True, timeout=60, cwd=bootstrap.ROOT)
        factor = speed.factor(before)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        if i:
            times.append(float(proc.stdout.strip().splitlines()[-1]) * factor)
    return statistics.median(times)


def tail(walls: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n


class Runner:
    """Runs one workload's pipeline and checks every run's outputs."""

    def __init__(self, cli, workload, config, out: Path, seed: int):
        self.cli = cli
        self.workload = workload
        self.config = config
        self.out = out
        self.seed = seed
        self.reference = None  # output (path, sha256) set of the first clean run
        self.quality = None
        self.attempted = 0
        self.failed = 0

    def run(self) -> float:
        """One pipeline run; returns its wall time and counts it as failed if a check fails."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            manifest = self.cli.run_experiment(self.config, out_dir=self.out, seed=self.seed)
        except Exception:  # a raw exception is a failed run, not the end of the benchmark
            wall = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return wall
        wall = time.perf_counter() - t0
        problems = [] if manifest.success else [f"manifest.success is false: {manifest.stages[-1]}"]
        if not problems:
            problems = self.workload.check(self.out)
        outputs = sorted((r["path"], r["sha256"]) for r in manifest.outputs)
        if not problems and self.reference is None:
            self.reference = outputs
            self.quality = self.workload.quality(self.out)
        elif outputs != self.reference:
            problems.append("output sha256 set differs from the first run of this invocation")
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"perfbench: run {self.attempted} failed: {problem}", file=sys.stderr)
        return wall


def prepare(cli, name: str, seed: int, work: Path) -> tuple[Runner, Path]:
    """Write the workload's inputs and config under `work`; return its runner and config path."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](work / "inputs", seed)
    config_path = work / "config.json"
    config_path.parent.mkdir(parents=True, exist_ok=True)
    config_path.write_text(json.dumps(workload.config(), indent=2), encoding="utf-8")
    return Runner(cli, workload, cli.load_config(config_path), work / "out", seed), config_path


def end_to_end(runner: Runner, config_path: Path, seconds: float, started: float) -> dict:
    speed = Speed()
    setup_s = measure_setup(config_path, speed)
    runner.run()  # warm-up: lazy imports, allocator, first outputs
    walls, raw = [], []
    t0 = time.perf_counter()
    while ((time.perf_counter() - t0 < seconds or len(walls) <= TAIL_BEYOND)
           and time.perf_counter() - started < DEADLINE_S):
        before = speed.kernel()
        raw.append(runner.run())
        walls.append(raw[-1] * speed.factor(before))
    tail_value, percentile = tail(walls)
    print(f"# wall_s_tail is p{percentile:.1f} of {len(walls)} timed runs")
    print(f"# unscaled median wall {statistics.median(raw)!r} s; speed kernel median "
          f"{statistics.median(speed.kernel_times)!r} s (reference {Speed.REFERENCE_S} s)")
    print(f"# {runner.workload.quality_name} = {runner.quality!r} (reported as quality_loss)")
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "wall_s_tail": tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (runner.attempted - runner.failed) / runner.attempted,
        "quality_loss": runner.quality if runner.quality is not None else 0.0,
    }


def per_layer(runner: Runner, seconds: float, started: float) -> tuple[dict, list]:
    speed = Speed()
    tracer = Tracer()
    runner.run()  # untraced warm-up; its outputs are the reference for the traced runs
    untraced, traced, layers, self_sums = [], [], [], []
    t0 = time.perf_counter()
    while ((time.perf_counter() - t0 < seconds or len(traced) < MIN_TRACED)
           and time.perf_counter() - started < DEADLINE_S):
        before = speed.kernel()
        untraced.append(runner.run() * speed.factor(before))
        tracer.reset()
        tracer.install()
        before = speed.kernel()
        try:
            wall = runner.run()
        finally:
            tracer.uninstall()
        traced.append(wall * speed.factor(before))
        layers.append(tracer.layer_metrics())
        self_sums.append(tracer.self_sum() / wall)

    problems = []
    metrics = {}
    for name, _ in PER_LAYER:
        values = [run[name] for run in layers]
        if name in TIME_SHARES:
            metrics[name] = statistics.median(values)
        else:  # counts and ratios of counts repeat exactly for one seed
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                problems.append(f"{name} differs between traced runs: {values}")
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(untraced)
    metrics["trace.self_sum_ratio"] = statistics.median(self_sums)
    if abs(metrics["trace.self_sum_ratio"] - 1.0) > SELF_SUM_TOL:
        problems.append(f"layer self times add up to {metrics['trace.self_sum_ratio']:.4f} "
                        f"of the traced wall time")
    print(f"# {len(traced)} traced and {len(untraced)} untraced timed runs; median traced run "
          f"{statistics.median(traced)!r} s, the base of every share")
    return metrics, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    bootstrap.require_program()
    import eqcausal
    from eqcausal import cli
    bootstrap.check_imported(eqcausal)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = bootstrap.WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        runner, config_path = prepare(cli, args.workload, args.seed, work)
        print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
              f"closed loop, one client, {args.seconds:g} s")
        print(f"# machine {json.dumps(machine_info(), sort_keys=True)}")
        if args.trace:
            values, problems = per_layer(runner, args.seconds, started)
            units = dict(PER_LAYER + TRACE_CHECKS)
        else:
            values, problems = end_to_end(runner, config_path, args.seconds, started), []
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    result = {
        "correct": runner.failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
