"""fluxsym benchmark.

    python3 perfbench/run.py --workload derive_audit --seed 1 --seconds 50 --trace 0

Run from the root of a fluxsym source tree (`src/fluxsym` beside this
directory).  The workloads are in `workloads.py`; README.md defines every
metric.  With `--trace 0` the run measures the end-to-end metrics with no
wrappers installed, for `--seconds` of wall time; with `--trace 1` it
alternates traced and untraced ops for `--seconds` of op time and reports
the per-layer metrics.  Every op's output is checked
(`checks.py`).  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the line before it is a JSON record of the run: machine state,
calibration timings, sample counts and every problem found.
`--workload all` runs each workload in turn and prints a table.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from importlib import metadata
from pathlib import Path

# Single-threaded numerics for this process and the ones it spawns; set
# before numpy is first imported (by checks or fluxsym).
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_ENV)

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SPAWNS = 7   # cold imports of fluxsym.cli per run
TAIL_BEYOND = 10   # op_tail_s: the highest percentile with this many ops above

# The metrics BENCHMARK.json gates.  cold_run_s, op_p50_s and op_tail_s go
# to the record line only: on a machine whose speed drifts they spread too
# far between runs to gate (README.md).
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

# Per workload, the traced functions (and counters) this benchmark relies on
# to be busy there; a zero means a wrapper missed its target.
HEAVY = {
    "derive_audit": [
        "kernel.normalize", "kernel.differentiate", "kernel.substitute",
        "kernel.is_zero", "parser.parse", "forms.wedge", "forms.exterior_d",
        "forms.section", "isovector.lie_form", "isovector.ideal_reduce",
        "isovector.check_self_consistency", "isovector.extract_determining",
        "isovector.audit_against_published", "isovector.closure_check",
        "characteristics.solve_characteristics",
        "characteristics.enumerate_cases", "characteristics.back_substitute",
        "reports.write_report"],
    "numerics": [
        "numerics.solve_pde", "numerics.transform_field",
        "numerics.material_residual", "numerics.invariance_residual",
        "numerics.discrete_residual", "numerics.export_csv",
        "numerics.compile_numeric", "numerics.grid_nodes",
        "characteristics.enumerate_cases", "parser.parse",
        "reports.write_report"],
}


# --------------------------------------------------------------------------
# Machine state
# --------------------------------------------------------------------------

def _version(package):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def machine_state() -> dict:
    """Load average and cumulative CPU steal (jiffies, all CPUs)."""
    state = {"loadavg": None, "steal_jiffies": None}
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            state["loadavg"] = [float(x) for x in fh.read().split()[:3]]
        with open("/proc/stat", encoding="ascii") as fh:
            state["steal_jiffies"] = int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        pass
    return state


def calibrate() -> float:
    """Median time of a fixed pure-Python loop unrelated to fluxsym."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        sum(i * i for i in range(200_000))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# --------------------------------------------------------------------------
# Running ops
# --------------------------------------------------------------------------

class Outputs:
    """One op's commands, the files they write and the first op's bytes."""

    def __init__(self, workload: str, seed: int, out_dir: Path):
        self.workload, self.seed = workload, seed
        self.dir = out_dir
        # paths relative to the source root (the working directory), so a
        # report that records its CSV path is the same bytes in every run
        self.commands = workloads.commands(workload, str(out_dir.relative_to(ROOT)), seed)
        self.names = [name for _, _, files in self.commands for name in files]
        self.reference = None   # {name: sha256} of the checked first op

    def clear(self, names):
        for name in names:
            (self.dir / name).unlink(missing_ok=True)

    def read(self, names) -> dict:
        return {name: (self.dir / name).read_bytes()
                for name in names if (self.dir / name).exists()}

    def set_reference(self, files: dict) -> list:
        """Fully check the first op's output and self-test the checker."""
        problems = checks.CHECKERS[self.workload](files)
        problems += checks.self_test(self.workload, files) if not problems else []
        self.reference = {n: hashlib.sha256(b).hexdigest() for n, b in files.items()}
        return problems

    def compare(self, names) -> list:
        """Problems if any of `names` differs from the first op's bytes."""
        problems = []
        for name in names:
            path = self.dir / name
            if not path.exists():
                problems.append(f"{name} was not written")
            elif hashlib.sha256(path.read_bytes()).hexdigest() != self.reference[name]:
                problems.append(f"{name} differs from the first op's bytes")
        return problems


def run_op(cli, commands) -> tuple:
    """Run one op in-process through `cli.main`; (seconds of each command,
    problems)."""
    problems, seconds = [], []
    sink = io.StringIO()
    for label, argv, _ in commands:
        start = time.perf_counter()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an op that raises is a failed op
            code = f"{type(exc).__name__}: {exc}"
        seconds.append(time.perf_counter() - start)
        if code not in (0, None):
            problems.append(f"{label} exited with {code}")
    return seconds, problems


def spawn(args, env) -> tuple:
    """Run `python <args>` as a fresh process: (seconds, exit code, peak RSS MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def tail(samples: list) -> tuple:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples above."""
    ordered = sorted(samples)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


# --------------------------------------------------------------------------
# The two kinds of run
# --------------------------------------------------------------------------

def end_to_end_run(cli, seconds, outputs, record) -> tuple:
    """Warm in-process ops interleaved with spawns for `seconds` of wall
    time; (metrics, ops, failed)."""
    commands, names = outputs.commands, outputs.names
    env = child_env()
    setup_s, cold_s, cold_rss, cold_bad = [], {}, {}, False
    cold = list(commands)
    spawns = SETUP_SPAWNS + len(cold)
    ops, failed = 0, 0
    per_command = {label: [] for label, _, _ in commands}
    start = time.perf_counter()
    # Each warm op is followed by a spawn when one is due, so that the spawns
    # are spread evenly over the run: setup imports and cold commands
    # alternate in proportion.  Spawns still due when the time is up follow.
    while True:
        elapsed = time.perf_counter() - start
        if elapsed < seconds:
            gc.collect()
            outputs.clear(names)
            times, problems = run_op(cli, commands)
            problems += outputs.compare(names)
            for (label, _, _), took in zip(commands, times):
                per_command[label].append(took)
            ops += 1
            failed += bool(problems)
            record["problems"] += problems
        done = len(setup_s) + len(commands) - len(cold)
        if done == spawns:
            if elapsed >= seconds:
                break
            continue
        if elapsed < seconds and done >= spawns * elapsed / seconds:
            continue
        if cold and len(cold) * SETUP_SPAWNS >= (SETUP_SPAWNS - len(setup_s)) * len(commands):
            label, argv, own = cold.pop(0)
            outputs.clear(own)
            took, code, rss = spawn(["-m", "fluxsym.cli", *argv], env)
            problems = outputs.compare(own)
            if code != 0:
                problems.append(f"cold {label} exited with {code}")
            cold_s[label], cold_rss[label] = took, rss
            cold_bad |= bool(problems)
            record["problems"] += problems
        else:
            took, code, _ = spawn(["-c", "import fluxsym.cli"], env)
            setup_s.append(took)
            if code != 0:
                record["problems"].append(f"import fluxsym.cli exited with {code}")
    ops += 1   # the cold pass
    failed += cold_bad
    warm = [sum(op) for op in zip(*per_command.values())]
    tail_s, percentile = tail(warm)
    record.update(warm_ops=len(warm), op_tail_percentile=round(percentile, 1),
                  setup_spawns=len(setup_s), wall_s=time.perf_counter() - start,
                  samples={"op_s": warm, "command_s": per_command,
                           "setup_s": setup_s, "cold_s": cold_s})
    record["informational"] = {
        "cold_run_s": {"value": sum(cold_s.values()), "unit": "s"},
        "op_p50_s": {"value": statistics.median(warm), "unit": "s"},
        "op_tail_s": {"value": tail_s, "unit": "s"},
    }
    metrics = {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": len(warm) / sum(warm),
        "peak_rss_mb": max(cold_rss.values()),
    }
    return metrics, ops, failed


def code_hash(commands) -> str:
    """Digest of the fluxsym sources and the op's commands."""
    digest = hashlib.sha256(json.dumps(commands).encode())
    for path in sorted((SRC / "fluxsym").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def traced_run(cli, seconds, outputs, record) -> tuple:
    """Alternate traced and untraced ops; (per-layer metrics, ops, failed)."""
    commands, names = outputs.commands, outputs.names
    workload, seed = outputs.workload, outputs.seed
    trace = tracer.Tracer()
    per_op, times = [], {True: [], False: []}
    op_starts, ops, failed = [], 0, 0
    while sum(times[True]) + sum(times[False]) < seconds or not times[False]:
        traced = len(times[True]) <= len(times[False])
        gc.collect()
        outputs.clear(names)
        try:
            if traced:
                trace.install()
                op_starts.append(len(trace.spans))
                counters = dict(trace.counters)
            elapsed, problems = run_op(cli, commands)
        finally:
            trace.uninstall()
        elapsed = sum(elapsed)
        if traced:
            per_op.append(trace.op_metrics(op_starts[-1], counters))
        problems += outputs.compare(names)
        times[traced].append(elapsed)
        ops += 1
        failed += bool(problems)
        record["problems"] += problems

    # exact repeat of every deterministic count, within the run and against
    # earlier runs of the same code, workload and seed
    counts = {m: per_op[0][m] for m in tracer.METRICS if not m.endswith(".self_s")}
    metrics = {m: counts[m] if m in counts else statistics.median(op[m] for op in per_op)
               for m in tracer.METRICS}
    metrics["bench.trace_overhead"] = (statistics.median(times[True])
                                       / statistics.median(times[False]))
    record.update(traced_ops=len(times[True]), untraced_ops=len(times[False]))
    drift = sorted(m for m in counts for op in per_op if op[m] != counts[m])
    store = OUT / "counts" / f"{code_hash(commands)}-{workload}-{seed}.json"
    if store.exists():
        earlier = json.loads(store.read_text(encoding="utf-8"))
        drift += sorted(m for m in counts if earlier.get(m) != counts[m])
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(counts, sort_keys=True, indent=1), encoding="utf-8")
    if drift:
        record["problems"].append(f"deterministic counts drifted: {sorted(set(drift))}")
    idle = [f for f in HEAVY[workload] if not metrics[f + ".calls"]]
    if idle:
        record["problems"].append(f"heavy layers recorded 0 calls: {idle}")

    spans = OUT / f"spans-{workload}-{seed}.json"
    trace.write(str(spans), op_starts)
    record["spans"] = str(spans.relative_to(ROOT))
    return metrics, ops, failed


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------

def run_workload(args) -> int:
    if not (SRC / "fluxsym" / "cli.py").is_file():
        print(f"fluxsym sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": _version("numpy"),
        "scipy": _version("scipy"), "thread_env": THREAD_ENV,
        "machine_before": machine_state(), "calibration_s": [calibrate()],
        "problems": [],
    }
    os.chdir(ROOT)
    out_dir = OUT / "work"   # one run at a time per source tree
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    outputs = Outputs(args.workload, args.seed, out_dir)
    try:
        if not args.trace:   # a fresh process first: compiles bytecode, warms the page cache
            spawn(["-c", "import fluxsym.cli"], child_env())
        import fluxsym.cli as cli
        _, problems = run_op(cli, outputs.commands)   # the warm-up op
        files = outputs.read(outputs.names)
        problems += [f"{n} was not written" for n in outputs.names if n not in files]
        problems += outputs.set_reference(files) if not problems else []
        record["problems"] += problems
        metrics, ops, failed = {}, 0, 0
        if not problems:
            run = traced_run if args.trace else end_to_end_run
            metrics, ops, failed = run(cli, args.seconds, outputs, record)
        ops, failed = ops + 1, failed + bool(problems)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    record["calibration_s"].append(calibrate())
    record["machine_after"] = machine_state()
    record["failed_ratio"] = failed / ops
    record["problems"] = record["problems"][:20]
    units = END_TO_END_UNITS if not args.trace else {
        **{m: tracer.unit(m) for m in tracer.METRICS}, "bench.trace_overhead": "ratio"}
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not record["problems"] and bool(metrics),
        "attempted": ops, "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; a table of every metric."""
    rows, results = [], {}
    for workload in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        if done.returncode != 0:
            print(f"{workload}: exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        record, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
        results[workload] = result
        rows.append((workload, "failed_ratio", record["failed_ratio"], "ratio"))
        shown = {**result["metrics"], **record.get("informational", {})}
        rows += [(workload, m, v["value"], v["unit"]) for m, v in shown.items()]
    for row in rows:
        print(f"{row[0]:<18} {row[1]:<44} {row[2]:>14.6g} {row[3]}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
