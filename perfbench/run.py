"""Benchmark of the bidisk package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.
Workloads (perfbench/workloads.py): draws, verify, tables, fit.

Load model: one client, closed loop, concurrency 1.  A pass runs every
invocation of the workload in order, each in a fresh Python process, so
every pass pays interpreter start-up and the package's lazy caches as a
user does.  Passes repeat until their summed wall time reaches --seconds.
No process gets more threads than the CPUs this process may run on: the
BLAS pool is capped there and ``sample --threads`` asks for at most 2.
The seed reaches the program only as ``--seed`` or ``seed=``.

Each child's wall time is taken around its process, its CPU time and
peak RSS from os.wait4, so each figure belongs to that process alone.
The outputs of every pass must repeat the first pass byte for byte, and
the first pass's outputs are checked against perfbench/oracle.py; these
checks are not timed.

--trace 0 prints the end-to-end metrics:
  wall_s       median pass wall time
  wall_tail_s  highest percentile of pass wall time with >= 10 passes
               beyond it; below 44 passes, with a quarter of them beyond it
  cpu_s        median user+sys CPU of a pass's processes
  peak_rss_mb  median over passes of the largest ru_maxrss of one process
  setup_s      median wall time of a fresh process that only imports
               bidisk.cli, timed four times before the first pass and
               once before every later one, so it samples the whole run
The result's ``failed`` over ``attempted`` is failed_share: invocations
with a wrong exit code or a failed output check over invocations
attempted; it is printed by name with the metrics.

--trace 1 alternates plain and traced passes (perfbench/traced.py) and
prints the per-module metrics of perfbench/layers.py, medians over the
traced passes; trace.overhead_s is the traced median pass wall time minus
the plain one.

The last line of standard output is the result object; the line before it
is the run record with provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_FIRST = 4
# a child running longer than this is killed and counted as failed, so the
# run still ends within its time limit
CHILD_TIMEOUT_S = 120.0
# no new pass starts once the run could not finish it within this budget
RUN_BUDGET_S = 150.0

_PROBE = """
import ctypes, glob, json, os, platform, numpy
threads = None
for path in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")):
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(lib, sym):
            threads = getattr(lib, sym)()
            break
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__, "blas_threads": threads}))
"""


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: str


@dataclass
class Pass:
    traced: bool
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    failed: int = 0
    summaries: list[dict] = field(default_factory=list)


class Runner:
    def __init__(self, root: str, work: str, nproc: int):
        self.root = root
        self.work = work
        src = os.path.join(root, "src")
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            self.env[var] = str(nproc)

    def spawn(self, argv: list[str]) -> Child:
        out_path = os.path.join(self.work, "stdout.txt")
        err_path = os.path.join(self.work, "stderr.txt")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        if proc.returncode != 0:
            with open(err_path, encoding="utf-8", errors="replace") as fh:
                sys.stderr.write(fh.read()[-2000:])
        return Child(
            wall=wall,
            cpu=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            code=proc.returncode,
            stdout=stdout,
        )

    def argv(self, inv: workloads.Invocation, summary: str | None) -> list[str]:
        py = sys.executable
        if summary is not None:
            return [py, os.path.join(HERE, "traced.py"), summary, inv.kind, *inv.args]
        if inv.kind == "cli":
            return [py, "-m", "bidisk", *inv.args]
        return [py, os.path.join(HERE, "fit.py"), *inv.args]


def _digest(paths: tuple[str, ...], stdout: str) -> str:
    h = hashlib.sha256(stdout.encode("utf-8"))
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def tail(walls: list[float]) -> tuple[float, float, int]:
    """(value, percentile, passes beyond it) of the highest percentile of
    pass wall time that leaves ten passes beyond it.  A run of fewer than
    44 passes keeps a quarter of its passes beyond the reported one, so
    the figure is a tail that does not rest on the single slowest pass;
    below 4 passes it is the slowest pass."""
    v = sorted(walls)
    n = len(v)
    beyond = min(10, n // 4)
    k = n - 1 - beyond
    return v[k], (100.0 * k / (n - 1) if n > 1 else 100.0), beyond


def provenance(runner: Runner, args, nproc: int) -> dict:
    probe = runner.spawn([sys.executable, "-c", _PROBE])
    info = json.loads(probe.stdout) if probe.code == 0 else {}
    commit = None
    if os.path.isdir(os.path.join(runner.root, ".git")):
        got = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=runner.root, capture_output=True, text=True
        )
        commit = got.stdout.strip() or None
    tree = hashlib.sha256()
    src = os.path.join(runner.root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            tree.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                tree.update(fh.read())
    return {
        "commit": commit,
        "src_sha256": tree.hexdigest(),
        "python": info.get("python"),
        "numpy": info.get("numpy"),
        "blas_threads": info.get("blas_threads"),
        "nproc": nproc,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def _check(name: str, ctx: workloads.Context, stdout: dict[str, str], labels: list[str]) -> dict[str, list[str]]:
    try:
        return workloads.CHECK[name](ctx, stdout)
    except Exception as exc:  # an output the checks cannot even parse is wrong
        return {label: [f"output check raised {exc!r}"] for label in labels}


def measure(
    name: str, args, runner: Runner, ctx: workloads.Context, record: dict, setup: Setup | None
) -> tuple[list[Pass], list[str], int]:
    """Run passes until their wall times sum to --seconds; the first pass
    whose invocations all exit 0 has its outputs checked.  ``setup``, when
    given, is sampled before each pass."""
    invs = workloads.BUILD[name](ctx)
    labels = [inv.label for inv in invs]
    passes: list[Pass] = []
    problems: list[str] = []
    reference: dict[str, str] = {}
    checked = False
    measured = 0.0
    began = time.monotonic()
    while True:
        have_both = any(p.traced for p in passes) and not all(p.traced for p in passes)
        if measured >= args.seconds and (not args.trace or have_both):
            break
        if passes and time.monotonic() - began + passes[-1].wall > RUN_BUDGET_S:
            record["stopped_at_budget"] = True
            break
        if setup is not None:
            setup.sample(SETUP_FIRST if not passes else 1)
        this = Pass(traced=bool(args.trace) and len(passes) % 2 == 1)
        stdout: dict[str, str] = {}
        bad: set[str] = set()
        for i, inv in enumerate(invs):
            summary = os.path.join(ctx.work, f"summary{i}.json") if this.traced else None
            child = runner.spawn(runner.argv(inv, summary))
            this.wall += child.wall
            this.cpu += child.cpu
            this.rss_mb = max(this.rss_mb, child.rss_mb)
            stdout[inv.label] = child.stdout
            if child.code != 0:
                bad.add(inv.label)
                problems.append(f"pass {len(passes)}: {inv.label} exited {child.code}")
                continue
            digest = _digest(inv.outputs, child.stdout)
            if reference.setdefault(inv.label, digest) != digest:
                bad.add(inv.label)
                problems.append(f"pass {len(passes)}: {inv.label} output differs from the first pass")
            if summary is not None:
                with open(summary, encoding="utf-8") as fh:
                    this.summaries.append(json.load(fh))
        if not checked and not bad:
            checked = True
            for label, found in _check(name, ctx, stdout, labels).items():
                if found:
                    bad.add(label)
                    problems.extend(f"{label}: {msg}" for msg in found)
        this.failed = len(bad)
        passes.append(this)
        measured += this.wall
    if not checked:
        problems.append("no pass ran cleanly, so no output was checked")
    return passes, problems, len(invs) * len(passes)


class Setup:
    """Times fresh processes that only import bidisk.cli."""

    def __init__(self, runner: Runner):
        self.runner = runner
        self.argv = [sys.executable, "-c", "import bidisk.cli"]
        self.times: list[float] = []
        runner.spawn(self.argv)  # untimed: compiles the package's bytecode cache

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            child = self.runner.spawn(self.argv)
            if child.code != 0:
                raise RuntimeError("import bidisk.cli failed")
            self.times.append(child.wall)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bidisk", "__init__.py")):
        sys.stderr.write(f"error: no bidisk package under {root}/src; run from a checkout root\n")
        return 2
    nproc = len(os.sched_getaffinity(0))
    work = os.path.join(root, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        runner = Runner(root, work, nproc)
        ctx = workloads.Context(args.seed, work, args.tiny, min(2, nproc))
        record = provenance(runner, args, nproc)
        setup = None if args.trace else Setup(runner)
        passes, problems, attempted = measure(args.workload, args, runner, ctx, record, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    failed = sum(p.failed for p in passes)
    walls = [p.wall for p in plain]
    record["passes"] = len(plain)
    record["pass_walls_s"] = walls
    record["traced_passes"] = len(traced)
    record["failed_share"] = {"value": failed / attempted, "unit": "ratio"}
    if args.trace:
        per_pass = [layers.pass_metrics(p.summaries) for p in traced]
        metrics = layers.run_metrics(per_pass, [p.wall for p in traced], walls)
    else:
        value, pct, beyond = tail(walls)
        record["wall_tail"] = {"percentile": pct, "passes_beyond": beyond, "n": len(walls)}
        record["setup_repeats"] = len(setup.times)
        metrics = {
            "wall_s": statistics.median(walls),
            "wall_tail_s": value,
            "cpu_s": statistics.median(p.cpu for p in plain),
            "peak_rss_mb": statistics.median(p.rss_mb for p in plain),
            "setup_s": statistics.median(setup.times),
        }
        metrics = {k: {"value": float(v), "unit": layers.END_TO_END[k]} for k, v in metrics.items()}
    record["problems"] = problems

    for name, m in metrics.items():
        print(f"{args.workload:7s} {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:7s} {'failed_share':40s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} invocations)")
    for msg in problems:
        print(f"problem: {msg}")
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
