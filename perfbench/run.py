"""rangesim benchmark: drive the CLI from outside and report its metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paper-sw --seed 7 --seconds 25 --trace 0

`--trace 0` measures end to end. Commands run as a closed loop, one
`python3 perfbench/launch.py <rangesim args>` process at a time, in whole
cycles over the workload's commands until `--seconds` have passed. Cycle 0
uses the CLI's default seed and its output must match the SHA-256 locked
in hashes.json; later cycles use CLI seeds derived from `--seed`. Every
output is checked by check.py.

`--trace 1` runs one seed-derived cycle untraced as subprocesses, then in
this process with `--workers 1`: traced, untraced, traced again (see
layertrace.py). It reports the per-layer metrics of the last pass. The two
traced passes must give identical counts and every pass identical bytes.

The last stdout line is the JSON result; the lines before it print every
metric by name with its unit, median, a high percentile and sample count.
The full record, environment included, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import multiprocessing
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import asdict, dataclass, field

from workloads import WORKLOADS, Command, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCHER = os.path.join(HERE, "launch.py")
HASHES = os.path.join(HERE, "hashes.json")
OUT_DIR = os.path.join(HERE, "out")

# One BLAS/OpenMP thread everywhere: the CLI's parallelism is its own
# --workers pool, and a second thread pool per process would oversubscribe
# the cores and make timings depend on the BLAS build.
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
LOCK_SEED = 1  # the CLI's default --seed
SETUP_REPEATS = 7
COMMAND_TIMEOUT_S = 150.0


@dataclass
class Sample:
    """One launched command and what was measured and checked about it."""

    label: str
    seed: int
    workers: int
    main_s: float | None = None
    first_row_s: float | None = None
    rss_mb: float | None = None
    sha256: str = ""
    problems: list[str] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return env


def cli_seed(seed: int, cycle: int) -> int:
    if cycle == 0:
        return LOCK_SEED
    digest = hashlib.sha256(f"rangesim-bench:{seed}:{cycle}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def load_lock() -> dict:
    with open(HASHES, encoding="utf-8") as fh:
        return json.load(fh)


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _read_until_exit(proc, start):
    """Drain stdout and stderr; return (stdout, stderr, seconds to first data row)."""
    out, err = bytearray(), bytearray()
    first_row = None
    deadline = start + COMMAND_TIMEOUT_S
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ, out)
        sel.register(proc.stderr, selectors.EVENT_READ, err)
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise TimeoutError(f"command ran over {COMMAND_TIMEOUT_S} s")
            for key, _ in sel.select(remaining):
                chunk = os.read(key.fd, 1 << 16)
                if not chunk:
                    sel.unregister(key.fileobj)
                    continue
                key.data.extend(chunk)
                # the first data row is complete once the second newline arrives
                if first_row is None and key.data is out and out.count(b"\n") >= 2:
                    first_row = time.perf_counter() - start
    return bytes(out), bytes(err), first_row


def run_command(workload: Workload, command: Command, seed: int, workers: int,
                lock: dict | None) -> Sample:
    """Launch one CLI command, measure it, check its output."""
    sample = Sample(command.label, seed, workers)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, LAUNCHER, *workload.argv(command, seed, workers)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(), cwd=ROOT,
        start_new_session=True)
    try:
        with proc.stdout, proc.stderr:
            out, err, sample.first_row_s = _read_until_exit(proc, start)
        code = proc.wait()
    except TimeoutError as exc:
        _kill_group(proc)
        sample.problems.append(str(exc))
        return sample
    except BaseException:
        _kill_group(proc)
        raise
    report = {}
    worker_kb = 0
    for line in err.decode(errors="replace").splitlines():
        if not line.startswith("perfbench "):
            print(f"  [{command.label}] {line}", file=sys.stderr)
            continue
        for item in line.split()[1:]:
            key, value = item.split("=", 1)
            if key == "worker_maxrss_kb":
                worker_kb += int(value)
            else:
                report[key] = float(value)
    if code != 0:
        sample.problems.append(f"exit code {code}")
    if "main_s" in report:
        sample.main_s = report["main_s"]
        sample.rss_mb = (report["maxrss_kb"] + worker_kb) / 1024
    else:
        sample.problems.append("no timing report from the launcher")
    sample.sha256 = hashlib.sha256(out).hexdigest()
    sample.problems += check_output(command, out)
    if lock is not None and seed == lock["seed"]:
        locked = lock["commands"].get(command.label, {})
        if locked.get("argv") != workload.argv(command, seed, workers):
            sample.problems.append("hashes.json locks other arguments for this command")
        elif locked.get("sha256") != sample.sha256:
            sample.problems.append("output differs from the SHA-256 locked in hashes.json")
    return sample


def check_output(command: Command, out: bytes) -> list[str]:
    try:
        return command.check(out.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        return [f"unreadable output: {exc}"]


def build() -> None:
    """Byte-compile the package so no timed run pays for it."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC], check=True,
                   stdout=subprocess.DEVNULL, cwd=ROOT, timeout=120)


def measure_setup() -> list[float]:
    """Fresh interpreters importing the CLI and building its parser."""
    code = "import rangesim.cli as cli; cli.build_parser()"
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], env=child_env(), cwd=ROOT)
        # A blocking wait: a wait with a timeout polls in steps of up to
        # 50 ms, which would show up in the figure.
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        try:
            returncode = proc.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - start)
        if returncode != 0:
            raise subprocess.CalledProcessError(returncode, proc.args)
    return times


def spread(values: list[float]) -> str:
    """Median, the highest percentile with ten samples beyond it, and n."""
    vals = sorted(values)
    n = len(vals)
    text = f"median {statistics.median(vals):.6g}"
    for q in (99, 95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            return f"{text}, p{q} {vals[math.ceil(q / 100 * n) - 1]:.6g}, n={n}"
    return f"{text}, max {vals[-1]:.6g}, n={n}"


def end_to_end(workload: Workload, seed: int, seconds: int, lock: dict):
    setups = measure_setup()
    samples: list[Sample] = []
    start = time.perf_counter()
    cycle = 0
    while cycle == 0 or time.perf_counter() - start < seconds:
        for command in workload.commands:
            sample = run_command(workload, command, cli_seed(seed, cycle),
                                 workload.workers, lock)
            samples.append(sample)
            print(f"  {sample.label} seed={sample.seed} main_s={sample.main_s} "
                  f"first_row_s={sample.first_row_s} rss_mb={sample.rss_mb} "
                  f"sha256={sample.sha256[:16]} problems={sample.problems}")
        cycle += 1
    good = [s for s in samples if not s.problems]
    commands = {c.label: c for c in workload.commands}
    by_label = {label: [s for s in good if s.label == label] for label in commands}
    metrics = {}
    if all(by_label.values()):
        # The commands of a workload differ widely in cost, so each figure
        # combines per-command medians over the cycles: one disturbed
        # command, or where the time window ends, cannot shift it.
        def typical(attr):
            return [statistics.median(getattr(s, attr) for s in runs)
                    for runs in by_label.values()]

        cycle_steps = sum(workload.nominal_steps(c) for c in workload.commands)
        rates = [workload.nominal_steps(commands[s.label]) / s.main_s for s in good]
        metrics = {
            "steps_per_s": (cycle_steps / sum(typical("main_s")), "1/s", rates),
            "first_row_s": (statistics.fmean(typical("first_row_s")), "s",
                            [s.first_row_s for s in good]),
            "setup_s": (statistics.median(setups), "s", setups),
            "peak_rss_mb": (max(typical("rss_mb")), "MB", [s.rss_mb for s in good]),
        }
    for name, (value, unit, values) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} (per sample: {spread(values)})")
    failed = len(samples) - len(good)
    print(f"metric failed_ops = {failed} of {len(samples)} commands")
    record = {"samples": [asdict(s) for s in samples], "setup_s": setups}
    return len(samples), failed, {k: (v, u) for k, (v, u, _) in metrics.items()}, record, []


def import_rangesim():
    """Import the checkout's package into this process for tracing."""
    sys.path.insert(0, SRC)
    import rangesim.cli
    if not os.path.abspath(rangesim.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"rangesim imported from {rangesim.cli.__file__}, not {SRC}")
    return rangesim.cli


def run_in_process(cli, workload: Workload, command: Command, seed: int):
    """One command through `rangesim.cli.main` with --workers 1; (seconds, stdout, ok)."""
    sink, saved = io.StringIO(), sys.stdout
    sys.stdout = sink
    start = time.perf_counter()
    try:
        code = cli.main(workload.argv(command, seed, workers=1))
    except Exception:
        traceback.print_exc()
        code = None
    finally:
        sys.stdout = saved
    return time.perf_counter() - start, sink.getvalue().encode("utf-8"), code == 0


def traced(workload: Workload, seed: int):
    from layertrace import Tracer

    seed = cli_seed(seed, 1)
    problems = []
    pool = [run_command(workload, command, seed, workload.workers, None)
            for command in workload.commands]
    failed = sum(bool(sample.problems) for sample in pool)
    problems += [f"{s.label}: {p}" for s in pool for p in s.problems]
    cli = import_rangesim()

    def one_pass():
        nonlocal failed
        walls = 0.0
        for sample, command in zip(pool, workload.commands):
            wall, out, ok = run_in_process(cli, workload, command, seed)
            walls += wall
            if not ok or hashlib.sha256(out).hexdigest() != sample.sha256:
                failed += 1
                problems.append(f"{command.label}: in-process output differs from the "
                                f"--workers {workload.workers} subprocess output")
        return walls

    def traced_pass():
        tracer = Tracer()
        tracer.install()
        try:
            wall = one_pass()
        finally:
            tracer.uninstall()
        return wall, tracer

    # The first pass also warms the process, so the untraced pass and the
    # pass the figures come from both run warm.
    _, tracer_a = traced_pass()
    untraced_wall = one_pass()
    traced_wall, tracer = traced_pass()
    attempted = 4 * len(workload.commands)
    metrics = tracer.layer_metrics()
    mismatched = []
    for name, (value, unit) in tracer_a.layer_metrics().items():
        if unit != "s" and value != metrics[name][0]:
            mismatched.append(f"{name} differs between two traced passes: "
                              f"{value} != {metrics[name][0]}")
    if tracer.missing:
        print(f"  not traced (absent from rangesim): {', '.join(tracer.missing)}")
    pool_wall = sum(s.main_s or 0.0 for s in pool)
    metrics["harness.pool_overhead_s"] = (
        pool_wall * workload.workers - metrics["harness.round_s"][0], "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for p in problems + mismatched:
        print(f"  problem: {p}")
    record = {
        "cli_seed": seed,
        "spans": {name: {"calls": tracer.calls[name], "total_s": tracer.total_ns[name] / 1e9,
                         "self_s": tracer.self_ns[name] / 1e9}
                  for name in sorted(tracer.calls)},
        "span_parents": {f"{parent or '<root>'} > {child}": calls
                         for (parent, child), calls in sorted(tracer.edges.items())},
        "not_traced": tracer.missing,
    }
    return attempted, failed, metrics, record, mismatched


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError as exc:
        return f"unknown ({exc})"
    return done.stdout.strip() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "start_method": multiprocessing.get_context().get_start_method(),
        "git_commit": git_commit(),
        "thread_pins": THREAD_PINS,
    }


def declared_metrics(trace: bool) -> set[str] | None:
    """Metric names BENCHMARK.json declares for this mode, if the file is there."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except FileNotFoundError:
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "rangesim", "cli.py")):
        print(f"perfbench: no rangesim sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)
    workload = WORKLOADS[args.workload]
    build()
    env = environment()
    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    if args.trace:
        attempted, failed, metrics, record, problems = traced(workload, args.seed)
    else:
        attempted, failed, metrics, record, problems = end_to_end(
            workload, args.seed, args.seconds, load_lock())
    declared = declared_metrics(bool(args.trace))
    if metrics and declared is not None and declared != set(metrics):
        problems.append(f"metrics {sorted(set(metrics) ^ declared)} disagree with "
                        "BENCHMARK.json")
        print(f"  problem: {problems[-1]}")
    correct = failed == 0 and not problems and bool(metrics)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                   "environment": env, "correct": correct, "attempted": attempted,
                   "failed": failed, "problems": problems, "metrics": metrics, **record},
                  fh, indent=1)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
