"""The repository's benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload compile-paper --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` is a separate run that records spans
around each layer's public calls and reports the per-layer metrics.  Metric
names and units come from ``BENCHMARK.json``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
A wrong output makes ``correct`` false and the exit code 1.  See
``perfbench/README.md`` for what each workload and metric means.

The workload runs in a child process.  This process waits for it and then
for every process it left behind: the processes substrate's shared-memory
segments start ``multiprocessing``'s resource tracker, which outlives the
interpreter that started it until it notices that interpreter is gone.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

from rss import children_by_parent

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("compile-paper", "edit-recompile", "http-mix")
#: Set in the child process that runs the workload.
CHILD_ENV = "PERFBENCH_WORKLOAD_PROCESS"
#: How long orphaned processes get to end by themselves before they are killed.
ORPHAN_GRACE_S = 20.0
PR_SET_CHILD_SUBREAPER = 36


def supervise() -> int:
    """Run this command again as a child and wait for every process it leaves.

    As a subreaper (Linux ``prctl``), this process adopts the child's
    descendants when their parents exit, so it can wait for each of them.
    """
    import ctypes

    ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    child = subprocess.Popen([sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
                             env={**os.environ, CHILD_ENV: "1"})
    try:
        code = child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        reap_orphans()
    return code if code >= 0 else 128 - code


def reap_orphans() -> None:
    """Wait until this process has no children left; kill those past the grace."""
    deadline = time.monotonic() + ORPHAN_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for orphan in children_by_parent().get(os.getpid(), []):
                try:
                    os.kill(orphan, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def cpu_ticks() -> list:
    """The machine's CPU time counters from ``/proc/stat`` (user, nice, ..., steal)."""
    with open("/proc/stat") as handle:
        return [int(field) for field in handle.readline().split()[1:9]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from common import Context

    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".perfbench"))
    ctx = Context(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                  workdir=workdir, nproc=len(os.sched_getaffinity(0)))
    ticks = cpu_ticks()
    try:
        if args.workload == "compile-paper":
            import compile_paper as workload
        elif args.workload == "edit-recompile":
            import edit_recompile as workload
        else:
            import http_mix as workload
        outcome = workload.run(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # Steal is CPU time a virtual machine's host gave to other guests: on a
    # shared box it is the noise every wall-clock figure of this run carries.
    spent = [after - before for before, after in zip(ticks, cpu_ticks())]
    outcome.notes.append(f"CPU steal was {100 * spent[7] / max(1, sum(spent)):.1f}% "
                         "of the machine's CPU time during the run")

    attempted = max(1, outcome.attempted)
    outcome.metrics["ok_share"] = (attempted - outcome.failed) / attempted
    outcome.layers["failed_share"] = outcome.failed / attempted
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = outcome.layers if args.trace else outcome.metrics
    metrics = {m["name"]: {"value": float(source.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    if outcome.tracer is not None:
        spans = os.path.join(ROOT, ".perfbench", f"spans-{args.workload}-{args.seed}.json")
        outcome.tracer.dump(spans)
        outcome.notes.append(f"{len(outcome.tracer.spans)} spans written to {spans}")
    for note in outcome.notes:
        print(f"# {args.workload}: {note}")
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:14.4f} {metric['unit']}")
    correct = outcome.wrong == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main() if os.environ.get(CHILD_ENV) else supervise())
