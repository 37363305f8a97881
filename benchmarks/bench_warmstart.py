"""Warm-start benchmark: what a persistent artifact store buys across restarts.

The question this answers: a compile process dies (deploy, crash, autoscaler)
and a fresh one takes its place — how fast is the *first* build of a source the
fleet has seen before?  Three scenarios over the same paper-sized Pascal
program, each timed inside its own freshly spawned Python process (the script
re-invokes itself with ``--child``, so "restart" means a real process restart,
not a cleared dict):

* **cold_store** — fresh process, *empty* store: every region is shipped and
  evaluated.  This is life without persistence.
* **warm_store** — fresh process, but mounting a store populated by an earlier
  life: region recordings read through from disk and replay; only the root
  region (never cached) evaluates.
* **warm_memory** — same process, second document on the already-warm in-memory
  cache: the ceiling the store tier is chasing.

Also verifies the store is *pure speed*: a full build with the store mounted is
byte-identical to one without, on all four substrates (simulated / threads /
processes / sockets), and the warm-store replay reproduces the cold result
exactly.

Emits ``BENCH_warmstart.json``.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_warmstart.py            # full run
    PYTHONPATH=src python benchmarks/bench_warmstart.py --quick    # CI smoke

``--gate`` enforces the PR's acceptance ratios locally (warm-store ≥3x faster
than cold-store at p50 and within 1.5x of warm-memory); CI records the JSON
without gating — shared runners are too noisy for wall-clock ratios.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")
if SRC_DIR not in sys.path:  # direct `python benchmarks/bench_warmstart.py` runs
    sys.path.insert(0, SRC_DIR)

from repro.api import Session  # noqa: E402
from repro.pascal.programs import generate_program  # noqa: E402

from percentiles import percentile, summary  # noqa: E402 — sibling module

#: Substrates the parity leg checks for byte-identical store-on/store-off builds.
ALL_SUBSTRATES = ("simulated", "threads", "processes", "sockets")


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _digest(result: Any) -> str:
    """A stable fingerprint of a compile's observable outcome."""
    blob = repr((result.value, list(result.errors))).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _workload(quick: bool) -> str:
    procedures, statements = (12, 4) if quick else (46, 8)
    return generate_program(
        procedures=procedures, statements_per_procedure=statements, seed=1987
    )


# ---------------------------------------------------------------- child process


def run_child(args: argparse.Namespace) -> int:
    """One process life: build the workload, report timings as one JSON line.

    Measures two things: the first build of the measured source in this process
    (cold if the store is empty, warm-store if a predecessor populated it), and
    a second document's build on the now-warm in-memory cache (warm_memory).
    """
    source = _workload(args.quick)
    with Session(
        backend=args.backend, machines=args.machines, store=args.store or None
    ) as session:
        # Untimed pool/parse-table warmup on a trivial source, so the measured
        # build times compilation, not interpreter and worker-pool startup.
        session.open("pascal", "program w; begin x := 1 end.").recompile()

        doc = session.open("pascal", source)
        started = time.perf_counter()
        first = doc.recompile()
        first_seconds = time.perf_counter() - started

        cache = session.artifact_cache
        doc2 = session.open("pascal", source)
        started = time.perf_counter()
        second = doc2.recompile()
        memory_seconds = time.perf_counter() - started

        cache.flush()  # settle write-behind so the next life sees every blob
        payload = {
            "first_seconds": first_seconds,
            "memory_seconds": memory_seconds,
            "digest": _digest(first),
            "memory_digest": _digest(second),
            "store_hits": cache.store_hits,
            "store_misses": cache.store_misses,
        }
    print("CHILD:" + json.dumps(payload))
    return 0


def _spawn_child(
    args: argparse.Namespace, store: Optional[str], backend: str
) -> Dict[str, Any]:
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--child",
        "--backend",
        backend,
        "--machines",
        str(args.machines),
    ]
    if args.quick:
        command.append("--quick")
    if store is not None:
        command.extend(["--store", store])
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        command, capture_output=True, text=True, env=env, timeout=600
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"warm-start child failed ({completed.returncode}):\n"
            f"{completed.stdout}\n{completed.stderr}"
        )
    for line in completed.stdout.splitlines():
        if line.startswith("CHILD:"):
            return json.loads(line[len("CHILD:"):])
    raise RuntimeError(f"child produced no report:\n{completed.stdout}")


# -------------------------------------------------------------------- scenarios


def run_restart_scenarios(args: argparse.Namespace, backend: str, workdir: str) -> Dict:
    cold_lives, warm_lives = (1, 2) if args.quick else (3, 5)

    colds: List[float] = []
    memories: List[float] = []
    digests = set()
    shared_store = os.path.join(workdir, "store")
    for index in range(cold_lives):
        # Every cold life gets a store of its own (an empty one is what makes it
        # cold); the first one doubles as the seed for the warm-store lives.
        store = shared_store if index == 0 else os.path.join(workdir, f"cold{index}")
        report = _spawn_child(args, store, backend)
        if report["store_hits"]:
            raise RuntimeError("cold life reported store hits — store not empty?")
        colds.append(report["first_seconds"])
        memories.append(report["memory_seconds"])
        digests.add(report["digest"])
        digests.add(report["memory_digest"])

    warms: List[float] = []
    warm_hits = 0
    for _ in range(warm_lives):
        report = _spawn_child(args, shared_store, backend)
        if not report["store_hits"]:
            raise RuntimeError(
                "warm-store life reported zero store hits — persistence broken"
            )
        warm_hits += report["store_hits"]
        warms.append(report["first_seconds"])
        memories.append(report["memory_seconds"])
        digests.add(report["digest"])
        digests.add(report["memory_digest"])

    if len(digests) != 1:
        raise RuntimeError(
            f"results diverged across lives/tiers: {len(digests)} distinct digests"
        )

    cold_p50 = percentile(colds, 0.50)
    warm_p50 = percentile(warms, 0.50)
    memory_p50 = percentile(memories, 0.50)
    return {
        "cold_store": summary(colds),
        "warm_store": summary(warms),
        "warm_memory": summary(memories),
        "warm_store_hits_total": warm_hits,
        "speedup_warm_store_vs_cold": cold_p50 / warm_p50 if warm_p50 else 0.0,
        "overhead_warm_store_vs_memory": (
            warm_p50 / memory_p50 if memory_p50 else 0.0
        ),
        "result_digest": digests.pop(),
    }


def run_parity(args: argparse.Namespace, workdir: str) -> Dict:
    """Full builds must be byte-identical with the store on and off, everywhere."""
    source = _workload(args.quick)
    parity: Dict[str, Any] = {}
    digests = set()
    for backend in ALL_SUBSTRATES:
        if backend == "processes" and not _fork_available():
            parity[backend] = {"skipped": "fork unavailable"}
            continue
        pair = {}
        for label, store in (
            ("store_off", None),
            ("store_on", os.path.join(workdir, f"parity-{backend}")),
        ):
            with Session(backend=backend, machines=args.machines, store=store) as s:
                result = s.open("pascal", source).recompile()
                pair[label] = _digest(result)
        identical = pair["store_off"] == pair["store_on"]
        parity[backend] = {**pair, "identical": identical}
        digests.update(pair.values())
        if not identical:
            raise RuntimeError(f"store changed results on the {backend} substrate")
    parity["identical_across_substrates"] = len(digests) == 1
    return parity


def run(args: argparse.Namespace) -> Dict:
    backend = "processes" if _fork_available() else "threads"
    with tempfile.TemporaryDirectory(prefix="repro-warmstart-") as workdir:
        scenarios = run_restart_scenarios(args, backend, workdir)
        parity = run_parity(args, workdir)

    cold = scenarios["cold_store"]["p50"]
    warm = scenarios["warm_store"]["p50"]
    memory = scenarios["warm_memory"]["p50"]
    print(f"substrate: {backend}, machines: {args.machines}")
    print(f"cold-store  first build  p50 {cold * 1000:.1f}ms "
          f"({scenarios['cold_store']['samples']} process lives)")
    print(f"warm-store  first build  p50 {warm * 1000:.1f}ms "
          f"({scenarios['warm_store']['samples']} process lives, "
          f"{scenarios['warm_store_hits_total']} store hits)")
    print(f"warm-memory rebuild      p50 {memory * 1000:.1f}ms")
    print(f"restart speedup {scenarios['speedup_warm_store_vs_cold']:.2f}x, "
          f"store overhead vs memory "
          f"{scenarios['overhead_warm_store_vs_memory']:.2f}x")
    checked = [b for b in ALL_SUBSTRATES if "identical" in parity.get(b, {})]
    print(f"parity: store on/off byte-identical on {', '.join(checked)}")

    return {
        "benchmark": "warmstart",
        "workload": {
            "language": "pascal",
            "quick": args.quick,
            "machines": args.machines,
            "backend": backend,
            "source_chars": len(_workload(args.quick)),
        },
        **scenarios,
        "parity": parity,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small program, few process lives (CI smoke)")
    parser.add_argument("--machines", type=int, default=8,
                        help="evaluator machines per compile")
    parser.add_argument("--output", default="BENCH_warmstart.json",
                        help="where to write the JSON report")
    parser.add_argument("--gate", action="store_true",
                        help="fail unless warm-store is ≥3x cold-store and "
                             "within 1.5x of warm-memory (local runs only)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--backend", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--store", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        return run_child(args)

    payload = run(args)
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")

    if args.gate:
        failures = []
        if payload["speedup_warm_store_vs_cold"] < 3.0:
            failures.append(
                f"warm-store speedup {payload['speedup_warm_store_vs_cold']:.2f}x "
                "< 3x over cold-store"
            )
        if payload["overhead_warm_store_vs_memory"] > 1.5:
            failures.append(
                f"warm-store is {payload['overhead_warm_store_vs_memory']:.2f}x "
                "warm-memory, over the 1.5x bound"
            )
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
