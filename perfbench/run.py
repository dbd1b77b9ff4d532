"""Benchmark of the ergosym command line on three seeded workloads.

    python3 perfbench/run.py --workload divergence --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1            # all workloads, one after another

Run it from anywhere; it uses the `src/` tree next to this directory and
writes only under `.perfbench_work/` there.

--trace 0 (end to end): one client runs the workload's commands one after
another, each as its own `python -m ergosym.cli` subprocess, and repeats
the pass until --seconds have passed (at least three passes). Each child's
CPU time and peak RSS come from its own `os.wait4` rusage. Reports the
median over passes of wall_s, cpu_s and peak_rss_mib, and setup_s, the
median wall time of a fresh subprocess that imports ergosym.cli and runs
load_config + validate on every config of the workload (one before each
pass).

--trace 1 (per layer): one subprocess pass gives the reference outputs.
In process (`ergosym.cli.main(argv)`), a traced pass with tracemalloc gives
the peak-memory metrics, then untraced and traced passes alternate until
--seconds have passed (at least two traced). Reports the per-layer metrics
of `tracing.py` (medians over the timed traced passes; counts must repeat
exactly in every traced pass) and the tracing overhead, traced minus
untraced wall time. Spans are written to `.perfbench_work/results/`.

Every output is checked by `checks.py`, which shares no code with ergosym;
later passes must be byte-identical to the first. The last line printed is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
code is 0 when every output was correct, 1 otherwise, and 2 when there is
no ergosym source tree to run.
"""

from __future__ import annotations

import os

# pinned in this process (before numpy loads) and in every child
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "ERGOSYM_THREADS": "1"}
os.environ.update(PINNED)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
COMMAND_TIMEOUT = 60.0

SETUP_CODE = """
import sys
import ergosym.cli as cli
args = sys.argv[1:]
for path, command in zip(args[::2], args[1::2]):
    diags = cli.validate(cli.load_config(path), command)
    if diags:
        sys.exit("; ".join(diags))
"""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED)
    env["PYTHONPATH"] = str(SRC)
    # children cache bytecode, as an installed package would, whatever the
    # caller's setting; the warm-up set-up writes the cache
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


# Runs one command and reports its own rusage. A child's ru_maxrss starts
# from the RSS of the process that forked it, so children are forked from
# this small launcher rather than from the benchmark process.
LAUNCH_CODE = """
import json, os, subprocess, sys, threading, time
timeout, log, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
with open(log, "wb") as fh:
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
proc.returncode = os.waitstatus_to_exitcode(status)
print(json.dumps([proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024]))
"""


def run_child(argv: list[str], log: Path) -> tuple[int, float, float, float]:
    """Run one subprocess; returns (exit code, wall s, cpu s, peak RSS MiB),
    with CPU and RSS from this child's own rusage."""
    launcher = [sys.executable, "-c", LAUNCH_CODE, str(COMMAND_TIMEOUT), str(log), *argv]
    done = subprocess.run(launcher, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=COMMAND_TIMEOUT + 30)
    if done.returncode != 0:
        return done.returncode, 0.0, 0.0, 0.0
    rc, wall, cpu, rss = json.loads(done.stdout)
    return rc, wall, cpu, rss


def read_outputs(cmd: workloads.Command, out: Path) -> dict[str, str]:
    return {name: (out / name).read_text() for name in cmd.outputs if (out / name).is_file()}


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "threads": PINNED,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }


def summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "p25": q[0], "p75": q[2],
            "n": len(values), "samples": values}


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


class Run:
    """One benchmark run of one workload and seed."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: int):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.dir = fresh_dir(WORK / f"{workload}-{seed}-trace{trace}-{os.getpid()}")
        self.commands = workloads.build(workload, seed, self.dir / "configs")
        self.tally = Tally()
        self.check_problems: dict[str, list[str]] = {}
        self.logs = self.dir / "logs"
        self.logs.mkdir()

    def out_dir(self, cmd: workloads.Command, lane: str) -> Path:
        return fresh_dir(self.dir / "out" / lane / cmd.name)

    # ---------------------------------------------------------- subprocesses

    def setup_once(self, i: int) -> float:
        pairs = [x for c in self.commands if c.config_path
                 for x in (str(c.config_path), c.validate_as)]
        rc, wall, _, _ = run_child([sys.executable, "-c", SETUP_CODE, *pairs],
                                   self.logs / f"setup-{i}.log")
        self.tally.record(rc == 0, f"set-up {i} exited {rc}")
        return wall

    def subprocess_pass(self, i: int) -> dict:
        walls, cpus, rss, outputs = [], [], [], {}
        for cmd in self.commands:
            out = self.out_dir(cmd, "sub")
            argv = [sys.executable, "-m", "ergosym.cli", *cmd.full_argv(out)]
            rc, wall, cpu, peak = run_child(argv, self.logs / f"{cmd.name}-{i}.log")
            walls.append(wall)
            cpus.append(cpu)
            rss.append(peak)
            outputs[cmd.name] = (rc, read_outputs(cmd, out))
        return {"wall": sum(walls), "cpu": sum(cpus), "rss": max(rss),
                "outputs": outputs}

    def judge(self, outputs: dict, reference: dict | None, lane: str) -> None:
        """Record each command of a pass: exit code, outputs present and,
        given a reference, byte-identical to a reference that passed its
        independent checks."""
        for cmd in self.commands:
            rc, files = outputs[cmd.name]
            missing = [n for n in cmd.outputs if n not in files]
            same = reference is None or files == reference[cmd.name][1]
            wrong = self.check_problems.get(cmd.name)
            ok = rc == 0 and not missing and same and not wrong
            self.tally.record(ok, f"{lane} {cmd.name}: exit {rc}, missing {missing}, "
                                  f"identical to reference: {same}, checks: {wrong}")

    def check(self, reference: dict) -> None:
        """Independent checks of the reference outputs."""
        for cmd in self.commands:
            problems = checks.check(cmd, reference[cmd.name][1])
            if problems:
                self.check_problems[cmd.name] = problems

    def end_to_end(self) -> dict:
        # set-ups alternate with passes so both sample the same stretch of time
        self.setup_once(-1)  # warm-up: byte-compiles and fills the page cache
        setup = [self.setup_once(0)]
        start = time.perf_counter()
        passes = [self.subprocess_pass(0)]
        reference = passes[0]["outputs"]
        t0 = time.perf_counter()
        self.check(reference)
        start += time.perf_counter() - t0  # checking is not part of the budget
        self.judge(reference, None, "pass 0")
        while len(passes) < MIN_PASSES or time.perf_counter() - start < self.seconds:
            setup.append(self.setup_once(len(passes)))
            p = self.subprocess_pass(len(passes))
            self.judge(p["outputs"], reference, f"pass {len(passes)}")
            passes.append(p)
        stats = {
            "wall_s": summary([p["wall"] for p in passes]),
            "cpu_s": summary([p["cpu"] for p in passes]),
            "peak_rss_mib": summary([p["rss"] for p in passes]),
            "setup_s": summary(setup),
        }
        return {"metrics": stats}

    # ---------------------------------------------------------- in process

    def inprocess_pass(self, main, lane: str) -> tuple[float, dict]:
        wall, outputs = 0.0, {}
        for cmd in self.commands:
            out = self.out_dir(cmd, lane)
            t0 = time.perf_counter()
            try:
                rc = main(cmd, cmd.full_argv(out))
            except (Exception, SystemExit) as e:  # a crash is a failed command
                rc = f"{type(e).__name__}: {e}"
            wall += time.perf_counter() - t0
            outputs[cmd.name] = (rc, read_outputs(cmd, out))
        return wall, outputs

    def per_layer(self) -> dict:
        import tracing

        reference = self.subprocess_pass(0)["outputs"]
        self.check(reference)
        self.judge(reference, None, "reference pass")

        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import ergosym.cli as cli

        tracer = tracing.Tracer()

        def traced_pass(lane: str, peaks: bool) -> float:
            tracer.pass_id = len(passes)
            tracer.install(peaks=peaks)
            try:
                wall, outputs = self.inprocess_pass(
                    lambda c, argv: tracer.run(c.name, cli.main, argv), "traced")
            finally:
                tracer.uninstall()
            self.judge(outputs, reference, f"{lane} pass {tracer.pass_id}")
            passes.append(wall)
            return wall

        # pass 0 measures tracemalloc peaks only; its allocation tracking is
        # too slow to share a pass with the timings
        passes: list[float] = []
        untraced, traced = [], []
        start = time.perf_counter()
        traced_pass("memory", peaks=True)
        while len(traced) < MIN_TRACED_PASSES or time.perf_counter() - start < self.seconds:
            wall, outputs = self.inprocess_pass(lambda c, argv: cli.main(argv), "plain")
            self.judge(outputs, reference, f"untraced pass {len(untraced)}")
            untraced.append(wall)
            traced.append(traced_pass("traced", peaks=False))

        auto = {c.name for c in self.commands if c.auto_window}
        specs = workloads.spec_count(self.commands)
        needed = workloads.random_draws_needed(self.commands)
        layers = [tracing.layer_metrics(tracer, i, auto, specs, needed)
                  for i in range(len(passes))]
        stats = {}
        for name in layers[0]:
            values = [m[name] for m in layers]
            if tracing.is_count(name) and len(set(values)) != 1:
                self.tally.record(False, f"count {name} differs between traced passes: "
                                         f"{values}")
            stats[name] = summary(values[:1] if name.endswith("_mib") else values[1:])
        stats["trace.wall_s"] = summary(traced)
        stats["trace.untraced_wall_s"] = summary(untraced)
        overhead = stats["trace.wall_s"]["median"] - stats["trace.untraced_wall_s"]["median"]
        stats["trace.overhead_s"] = summary([overhead])
        spans_file = WORK / "results" / f"{self.workload}-seed{self.seed}-spans.json"
        spans_file.write_text(json.dumps(tracer.spans))
        return {"metrics": stats, "spans_file": str(spans_file.relative_to(ROOT))}

    def execute(self) -> dict:
        (WORK / "results").mkdir(parents=True, exist_ok=True)
        try:
            result = self.per_layer() if self.trace else self.end_to_end()
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)
        result.update(workload=self.workload, seed=self.seed, seconds=self.seconds,
                      trace=self.trace, environment=environment(),
                      check_problems=self.check_problems,
                      attempted=self.tally.attempted, failed=self.tally.failed,
                      failures=self.tally.problems[:50])
        name = f"{self.workload}-seed{self.seed}-trace{self.trace}.json"
        (WORK / "results" / name).write_text(json.dumps(result, indent=1) + "\n")
        return result


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mib"):
        return "MiB"
    if "bytes" in metric:
        return "B"
    if metric.endswith("ratio") or metric.endswith("per_config"):
        return "ratio"
    return "count"


def report(result: dict) -> None:
    """Human-readable lines: each metric by name, with unit and sample count."""
    w = result["workload"]
    mode = "per layer (traced, in process)" if result["trace"] else \
        "end to end (closed loop, 1 client, subprocess per command)"
    env = result["environment"]
    print(f"== {w} seed={result['seed']} {mode}")
    print(f"  numpy {env['numpy']}, python {env['python']}, nproc {env['nproc']}, "
          f"git {env['git_sha']}, threads pinned: {env['threads']}")
    for name, s in result["metrics"].items():
        print(f"  {w}.{name:<40} {s['median']:>14.6g} {unit_of(name):<5} "
              f"p25={s['p25']:.6g} p75={s['p75']:.6g} n={s['n']}")
    ratio = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"  {w}.{'failed_ratio':<40} {ratio:>14.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    for cmd, problems in result["check_problems"].items():
        print(f"  check {cmd} FAILED: {problems}")
    for problem in result["failures"]:
        print(f"  failure: {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (SRC / "ergosym" / "cli.py").is_file():
        print(f"perfbench: no ergosym source tree at {SRC}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [Run(w, args.seed, args.seconds, args.trace).execute() for w in names]
    for r in results:
        report(r)
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else f"{r['workload']}."
        for name, s in r["metrics"].items():
            metrics[prefix + name] = {"value": s["median"], "unit": unit_of(name)}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
