"""mobiuskit benchmark: CLI size ladders, checked against closed-form oracles.

One client in a closed loop calls ``mobiuskit.cli.main(argv)`` in this
process, with stdout captured, and waits for each report before the next
command; a fresh ``python -m mobiuskit.cli`` subprocess times the cold
start.  Run from the repository root:

    python3 perfbench/run.py --workload fine_ladder --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (self time per pass, counters, tracing overhead).  Without
``--workload`` every workload runs both ways, each in its own process.  The
last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# one process, no worker threads: pin BLAS before numpy is first imported
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
SMALL_PER_RUNG = 4  # extra in-process runs of the smallest rung after each rung
COLD_PER_ROUND = 3
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
MIN_SMALL = 110  # p90 needs at least ten samples beyond it
MIN_COLD = 12
IMPORT_REPEATS = 5
COMMAND_TIMEOUT_S = 120


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


class Runner:
    """Runs ladder rungs through the CLI and checks every report."""

    def __init__(self, cli, ladder):
        self.cli = cli
        self.ladder = ladder
        self.attempted = 0
        self.failures = []
        self._verified = {}  # rung index -> stdout already checked against the oracle

    def _check(self, index: int, stdout: str, code):
        rung = self.ladder.rungs[index]
        self.attempted += 1
        ok = self._verified.get(index) == stdout and code == rung.exit_code
        if not ok:
            try:
                ok = code == rung.exit_code and rung.check(json.loads(stdout))
            except ValueError:
                ok = False
            if ok:
                self._verified[index] = stdout
        if not ok:
            self.failures.append(f"{rung.label}: exit {code}, report {stdout[:200]!r}")

    def call(self, index: int, tracer=None):
        """One in-process command, unchecked; returns (seconds, stdout, exit code)."""
        out = io.StringIO()
        if tracer is not None:
            tracer.command = index
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = self.cli.main(self.ladder.rungs[index].argv)
        except Exception as e:  # a traceback is a failed command, not a crashed benchmark
            code = f"raised {type(e).__name__}: {e}"
        return time.perf_counter() - started, out.getvalue(), code

    def run(self, index: int) -> float:
        """One checked in-process command; returns its seconds."""
        elapsed, stdout, code = self.call(index)
        self._check(index, stdout, code)
        return elapsed

    def run_pass(self, tracer=None):
        """Every rung once, checked after the clock stops; returns
        (pass seconds, per-rung seconds, stdout bytes)."""
        started = time.perf_counter()
        outputs = [self.call(index, tracer) for index in range(len(self.ladder.rungs))]
        elapsed = time.perf_counter() - started
        for index, (_, stdout, code) in enumerate(outputs):
            self._check(index, stdout, code)
        return elapsed, [t for t, _, _ in outputs], sum(len(stdout.encode("utf-8")) for _, stdout, _ in outputs)

    def cold(self) -> float:
        """The smallest rung in a fresh interpreter; returns milliseconds."""
        index = self.ladder.small
        argv = [sys.executable, "-m", "mobiuskit.cli", *self.ladder.rungs[index].argv]
        started = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              encoding="utf-8", timeout=COMMAND_TIMEOUT_S)
        elapsed = time.perf_counter() - started
        self._check(index, done.stdout, done.returncode)
        return elapsed * 1000.0


def environment(seed: int) -> dict:
    import ctypes

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line and line.strip().endswith(".so")}
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(library, symbol):
                getter = getattr(library, symbol)
                getter.argtypes, getter.restype = [], ctypes.c_int
                threads = getter()
                break
    commit = "unknown: not a git checkout"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": commit,
    }


def setup(workload: str, seed: int):
    """Write the inputs and compute the oracle answers, SETUP_REPEATS times."""
    directory = os.path.join(WORK, f"{workload}-seed{seed}")
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        ladder = workloads.build(workload, seed, directory)
        times.append(time.perf_counter() - started)
    return ladder, times, directory


def time_for_another(started: float, round_started: float, seconds: float) -> bool:
    """Whether one more round like the last still ends within `seconds`."""
    now = time.perf_counter()
    return now - started + (now - round_started) <= seconds


def measure(runner: Runner, seconds: float) -> dict:
    """Untraced closed loop.  A round runs every rung once; after each rung
    come a few more runs of the smallest rung, and the cold commands are
    spread over the round, so that every statistic samples the whole run."""
    ladder = runner.ladder
    count = len(ladder.rungs)
    passes, rungs, small, cold = [], [[] for _ in range(count)], [], []
    started = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        for index in range(count):
            rungs[index].append(runner.run(index))
            small.extend(runner.run(ladder.small) for _ in range(SMALL_PER_RUNG))
            if (index + 1) * COLD_PER_ROUND // count > index * COLD_PER_ROUND // count:
                cold.append(runner.cold())
        passes.append(sum(samples[-1] for samples in rungs))
        small.append(rungs[ladder.small][-1])
        enough = len(passes) >= MIN_PASSES and len(small) >= MIN_SMALL and len(cold) >= MIN_COLD
        if enough and not time_for_another(started, round_started, seconds):
            break
    return {"passes": passes, "rungs": rungs, "small": small, "cold": cold}


def import_times():
    """Median import cost of mobiuskit.cli and of numpy inside it, in ms."""
    code = "import mobiuskit.cli"
    totals, numpys = [], []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
        total = numpy_us = 0
        for line in done.stderr.splitlines():
            fields = line.split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            cumulative, name = int(fields[1]), fields[2]
            if name.startswith(" mobiuskit"):  # a top-level import: no nesting indent
                total += cumulative
            if name.strip() == "numpy":
                numpy_us = cumulative
        totals.append(total / 1000.0)
        numpys.append(numpy_us / 1000.0)
    return statistics.median(totals), statistics.median(numpys)


def golden_self_check(cli) -> list:
    """The golden CLI cases of tests/make_goldens.py, run under the traced
    rebinding: stdout must match byte for byte, and the exit code too."""
    path = os.path.join(ROOT, "tests", "make_goldens.py")
    spec = importlib.util.spec_from_file_location("perfbench_goldens", path)
    goldens = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(goldens)
    with open(os.path.join(goldens.GOLDEN, "manifest.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    problems = []
    for name, template in goldens.CASES:
        argv = [part.replace("{D}", goldens.DATA) for part in template]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        with open(os.path.join(goldens.GOLDEN, f"{name}.out.json"), encoding="utf-8") as handle:
            expected = handle.read()
        if out.getvalue() != expected or code != manifest[name]["exit_code"]:
            problems.append(f"golden {name}: output or exit code differs under tracing")
    return problems


def traced_run(runner: Runner, seconds: float, cli) -> tuple:
    """Alternate untraced and traced passes; per-layer figures per pass."""
    tracer = tracing.Tracer()
    plain, traced, layer_runs, counts_seen = [], [], [], []
    output_bytes = set()
    last_spans = []
    run_started = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        plain.append(runner.run_pass()[0])
        tracer.reset()
        tracer.install()
        try:
            elapsed, _, written = runner.run_pass(tracer)
        finally:
            tracer.uninstall()
        traced.append(elapsed)
        output_bytes.add(written)
        layer_runs.append(tracing.self_times(tracer.spans, elapsed))
        counts_seen.append(dict(tracer.counts))
        last_spans = list(tracer.spans)
        if len(traced) >= MIN_TRACED_PASSES and not time_for_another(run_started, round_started, seconds):
            break
    tracer.install()
    try:
        problems = golden_self_check(cli)
    finally:
        tracer.uninstall()
    if any(c != counts_seen[0] for c in counts_seen) or len(output_bytes) != 1:
        problems.append("counters differ between traced passes of the same inputs")
    metrics = {}
    for name in layer_runs[0]:
        metrics[name] = (statistics.fmean(run[name] for run in layer_runs), "s")
    accounted = sum(value for value, _ in metrics.values())
    traced_mean = statistics.fmean(traced)
    if abs(accounted - traced_mean) > 1e-6 * max(1.0, traced_mean):
        problems.append(f"self times add up to {accounted} s, traced passes take {traced_mean} s")
    import_ms, numpy_ms = import_times()
    metrics["cli.import_ms"] = (import_ms, "ms")
    metrics["cli.import_numpy_ms"] = (numpy_ms, "ms")
    metrics["cli.output_bytes"] = (output_bytes.pop(), "bytes")
    units = {"incidence.mu_max_bits": "bits", "fileio.bytes_read": "bytes"}
    for name, value in counts_seen[0].items():
        metrics[name] = (value, units.get(name, "count"))
    metrics["trace.pass_s"] = (traced_mean, "s")
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain), "ratio")
    origin = last_spans[0][1]
    record = {
        "rungs": [rung.label for rung in runner.ladder.rungs],
        "span_fields": ["name", "start_s", "end_s", "parent", "rung"],
        "spans": [[n, s - origin, e - origin, p, c] for n, s, e, p, c in last_spans],
        "passes": {"traced_s": traced, "untraced_s": plain},
    }
    return metrics, problems, record


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "mobiuskit", "cli.py")):
        return fail(f"no mobiuskit sources under {SRC}; run from a checkout of the repository")
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    sys.path.insert(0, SRC)
    import mobiuskit.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        return fail(f"imported mobiuskit from {cli.__file__}, not from {SRC}")
    env = environment(args.seed)
    ladder, setup_times, directory = setup(args.workload, args.seed)
    runner = Runner(cli, ladder)
    runner.run_pass()  # warm-up: first LAPACK calls, caches, compiled bytecode
    runner.cold()
    problems = []
    if args.trace:
        metrics, problems, record = traced_run(runner, args.seconds, cli)
        samples = {}
    else:
        m = measure(runner, args.seconds)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "pass_s": (statistics.median(m["passes"]), "s"),
            "large_cmd_s": (statistics.median(m["rungs"][ladder.large]), "s"),
            "small_cmd_ms": (statistics.median(m["small"]) * 1000.0, "ms"),
            "small_cmd_p90_ms": (percentile(m["small"], 90) * 1000.0, "ms"),
            "cold_cmd_ms": (statistics.median(m["cold"]), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        samples = {
            "setup_s": len(setup_times), "pass_s": len(m["passes"]), "large_cmd_s": len(m["passes"]),
            "small_cmd_ms": len(m["small"]), "small_cmd_p90_ms": len(m["small"]), "cold_cmd_ms": len(m["cold"]),
            "peak_rss_mb": 1,
        }
        record = {
            "rungs": {rung.label: statistics.median(t) for rung, t in zip(ladder.rungs, m["rungs"])},
            "samples": m,
        }
    problems += runner.failures
    failed = len(runner.failures)
    result = {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        count = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:40s} {value:14.6g} {unit}{count}")
    print(f"  {'error_ratio':40s} {failed / max(1, runner.attempted):14.6g} ratio  (n={runner.attempted})")
    for problem in problems[:10]:
        print(f"  problem: {problem}")
    if len(problems) > 10:
        print(f"  ... and {len(problems) - 10} more problems")
    out_path = os.path.join(directory, f"result-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"environment": env, "result": result, "problems": problems, "record": record}, handle)
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=1800)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.stderr.write(done.stderr)
                return fail(f"{workload} trace {trace} exited {done.returncode}")
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one of " + ", ".join(workloads.WORKLOADS) + "; all when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
