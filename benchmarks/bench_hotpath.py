"""End-to-end hot-path benchmark: p50/p95 wall clock per substrate, per phase.

Measures the per-compile fast path the packed-codec / precompiled-tables /
poll-free-mailbox / single-pass-lexer work targets, on the Pascal workload:

* **lex** — tokenizing the source (single-pass combined-regex scanner);
* **parse** — full front end (lex + LALR parse) via the registered language;
* **ship** — the parser coordinator encoding and sending region subtrees
  (``CompilationReport.wall_ship_seconds``; packed array-of-ints codec on the
  processes substrate);
* **evaluate** — the backend run (``wall_evaluation_seconds``);
* **end_to_end** — one whole ``Compiler.compile(source)`` call.

Emits ``BENCH_hotpath.json``.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_hotpath.py            # full run
    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick    # CI smoke

``--check-baseline benchmarks/BENCH_hotpath_baseline.json`` exits non-zero when the
processes-substrate end-to-end p50 regressed beyond the tolerance against the
committed baseline (the CI perf-smoke gate).  The tolerance factor defaults to 2.0
and is configurable per run — ``--tolerance 3.0`` or the ``BENCH_HOTPATH_TOLERANCE``
environment variable (the flag wins) — so noisy CI runners can widen the gate
without editing the workflow.  See ``benchmarks/README.md`` for the
baseline-regeneration workflow.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time
from typing import Dict, List

from repro.api import Session, get_language
from repro.distributed.compiler import CompilerConfiguration
from repro.pascal import generate_program
from repro.pascal.lexer import tokenize_pascal

from percentiles import summary  # sibling module: benchmarks/ is on sys.path

#: Default regression gate for --check-baseline: fail when p50 exceeds baseline by
#: this factor.  Override per run with --tolerance or BENCH_HOTPATH_TOLERANCE.
REGRESSION_FACTOR = 2.0


def default_tolerance() -> float:
    """The tolerance factor from the environment, or the built-in default."""
    raw = os.environ.get("BENCH_HOTPATH_TOLERANCE")
    if not raw:
        return REGRESSION_FACTOR
    try:
        value = float(raw)
    except ValueError:
        raise SystemExit(
            f"BENCH_HOTPATH_TOLERANCE={raw!r} is not a number"
        ) from None
    if value <= 0:
        raise SystemExit(f"BENCH_HOTPATH_TOLERANCE={raw!r} must be positive")
    return value


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def bench_substrate(
    backend: str,
    source: str,
    machines: int,
    iterations: int,
    compiled_plans: bool = True,
) -> Dict[str, Dict[str, float]]:
    """One substrate's numbers: end-to-end plus the per-phase decomposition."""
    phases: Dict[str, List[float]] = {
        "lex": [],
        "parse": [],
        "ship": [],
        "evaluate": [],
        "end_to_end": [],
    }
    with Session(backend=backend, machines=machines) as session:
        if compiled_plans:
            compiler = session.compiler("pascal")
        else:
            compiler = session.compiler(
                "pascal",
                configuration=CompilerConfiguration(use_compiled_plans=False),
            )
        compiler.compile(source)  # warm the pool, the parse tables and the caches
        for _ in range(iterations):
            started = time.perf_counter()
            tokenize_pascal(source)
            phases["lex"].append(time.perf_counter() - started)

            started = time.perf_counter()
            result = compiler.compile(source)
            phases["end_to_end"].append(time.perf_counter() - started)
            phases["parse"].append(result.wall_parse_seconds)
            phases["ship"].append(result.report.wall_ship_seconds)
            phases["evaluate"].append(result.report.wall_evaluation_seconds)
    return {phase: summary(samples) for phase, samples in phases.items()}


def run(args: argparse.Namespace) -> Dict:
    # Quick runs keep 9 iterations: with 3 samples the p50 is the middle of three
    # noisy runs and the --check-baseline gate flapped; 9 samples make the median
    # stable enough for a 2x tolerance (see benchmarks/README.md).
    if args.quick:
        procedures, statements, iterations = 10, 4, 9
    else:
        procedures, statements, iterations = 24, 6, 10
    compiled_plans = args.compiled_plans != "off"
    source = generate_program(
        procedures=procedures, statements_per_procedure=statements, seed=7
    )
    get_language("pascal")  # fail fast if the registry is broken

    if args.substrate:
        substrates = list(dict.fromkeys(args.substrate))
        if not _fork_available():
            unavailable = [s for s in substrates if s in ("processes", "sockets")]
            if unavailable:
                raise SystemExit(
                    f"substrate(s) {unavailable} need the 'fork' start method, "
                    "which this platform lacks"
                )
    else:
        substrates = ["simulated", "threads"]
        if _fork_available():
            substrates.append("processes")

    results: Dict[str, Dict] = {}
    for backend in substrates:
        print(
            f"benchmarking {backend} substrate ({iterations} iterations, "
            f"compiled plans {'on' if compiled_plans else 'off'})..."
        )
        results[backend] = bench_substrate(
            backend, source, args.machines, iterations, compiled_plans=compiled_plans
        )
        end = results[backend]["end_to_end"]
        print(f"  end-to-end p50 {end['p50'] * 1000:.1f}ms  p95 {end['p95'] * 1000:.1f}ms")

    return {
        "benchmark": "hotpath",
        "workload": {
            "language": "pascal",
            "procedures": procedures,
            "statements_per_procedure": statements,
            "seed": 7,
            "source_chars": len(source),
            "machines": args.machines,
            "iterations": iterations,
            "quick": args.quick,
            "compiled_plans": compiled_plans,
        },
        "substrates": results,
    }


def check_baseline(payload: Dict, baseline_path: str, tolerance: float) -> int:
    """Compare the processes-substrate end-to-end p50 against the committed baseline."""
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    shape = (
        "procedures",
        "statements_per_procedure",
        "machines",
        "quick",
        "compiled_plans",
    )
    current_shape = tuple(payload["workload"].get(k) for k in shape)
    baseline_shape = tuple(baseline["workload"].get(k) for k in shape)
    if current_shape != baseline_shape:
        print(
            f"baseline check skipped: workload shape {current_shape} does not match "
            f"baseline {baseline_shape}"
        )
        return 0
    current = payload["substrates"].get("processes")
    reference = baseline["substrates"].get("processes")
    if current is None or reference is None:
        print("baseline check skipped: processes substrate unavailable")
        return 0
    current_p50 = current["end_to_end"]["p50"]
    reference_p50 = reference["end_to_end"]["p50"]
    limit = reference_p50 * tolerance
    verdict = "OK" if current_p50 <= limit else "REGRESSION"
    print(
        f"baseline check [{verdict}]: processes end-to-end p50 {current_p50 * 1000:.1f}ms "
        f"vs baseline {reference_p50 * 1000:.1f}ms "
        f"(limit {limit * 1000:.1f}ms, tolerance {tolerance:g}x)"
    )
    return 0 if current_p50 <= limit else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small program, few iterations (CI smoke)")
    parser.add_argument("--machines", type=int, default=4, help="evaluator machines per compile")
    parser.add_argument(
        "--substrate",
        action="append",
        choices=["simulated", "threads", "processes", "sockets"],
        default=None,
        help=(
            "benchmark only these substrates (repeatable; includes 'sockets' so the "
            "ship-vs-evaluate split is comparable across all four); default: "
            "simulated, threads, and processes where fork is available"
        ),
    )
    parser.add_argument(
        "--compiled-plans",
        choices=["on", "off"],
        default="on",
        help=(
            "evaluate through plan-compiled closures (default) or the table-driven "
            "parity path (CompilerConfiguration(use_compiled_plans=False))"
        ),
    )
    parser.add_argument("--output", default="BENCH_hotpath.json", help="where to write the JSON report")
    parser.add_argument(
        "--check-baseline",
        metavar="PATH",
        help="fail (exit 1) if processes p50 regressed beyond the tolerance over this baseline JSON",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        metavar="FACTOR",
        help=(
            "regression tolerance factor for --check-baseline "
            f"(default {REGRESSION_FACTOR:g}, or BENCH_HOTPATH_TOLERANCE)"
        ),
    )
    args = parser.parse_args(argv)
    tolerance = args.tolerance if args.tolerance is not None else default_tolerance()
    if tolerance <= 0:
        parser.error("--tolerance must be positive")

    payload = run(args)
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")

    if args.check_baseline:
        return check_baseline(payload, args.check_baseline, tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
