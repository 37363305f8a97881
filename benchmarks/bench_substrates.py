"""Substrate benchmarks: the paper's efficiency substrates and the execution ones.

Two kinds of rows share this module:

* **pytest-benchmark micro-rows** (``test_*``) for the efficiency substrates the
  paper calls out (§4.3): rope strings with O(1) concatenation and applicative
  symbol tables.  Run via the usual benchmark harness.
* **a standalone execution-substrate comparison** (``main``): the same Pascal
  workload compiled on every execution substrate — ``simulated``, ``threads``,
  ``processes`` and the ``sockets`` compile cluster — reporting the
  ship-vs-evaluate wall-clock split per substrate.  The sockets column is the
  interesting one: shipping crosses a real TCP socket (pickled, length-prefixed
  frames), so the split shows what multi-host deployment costs over
  shared-memory processes.  Emits ``BENCH_sockets.json``::

      PYTHONPATH=src python benchmarks/bench_substrates.py            # full run
      PYTHONPATH=src python benchmarks/bench_substrates.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import time
from typing import Dict, List

from repro.strings.rope import Rope
from repro.symtab.symbol_table import SymbolTable

from percentiles import summary  # sibling module: benchmarks/ is on sys.path

# ------------------------------------------------------- efficiency substrates


def test_rope_concatenation(benchmark):
    fragment = Rope.leaf("movl\tr0, r1\n" * 4)

    def build(pieces: int = 2000):
        code = Rope.empty()
        for _ in range(pieces):
            code = Rope.concat(code, fragment)
        return code

    code = benchmark(build)
    assert len(code) == 2000 * len(fragment)


def test_symbol_table_applicative_updates(benchmark):
    names = [f"identifier_{index}" for index in range(500)]

    def build():
        table = SymbolTable()
        for index, name in enumerate(names):
            table = table.add(name, index)
        return table

    table = benchmark(build)
    assert len(table) == 500
    # Hash-index keys keep the unbalanced BST shallow (the paper's balancing argument).
    assert table.depth() <= 40


def test_symbol_table_lookup(benchmark):
    table = SymbolTable()
    for index in range(500):
        table = table.add(f"identifier_{index}", index)

    def lookups():
        total = 0
        for index in range(0, 500, 7):
            total += table.lookup(f"identifier_{index}")
        return total

    assert benchmark(lookups) > 0


# -------------------------------------------------------- execution substrates


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def bench_execution_substrate(
    backend: str, source: str, machines: int, iterations: int
) -> Dict[str, Dict[str, float]]:
    """Ship / evaluate / end-to-end wall clock for one warm substrate pool."""
    from repro.api import Session

    phases: Dict[str, List[float]] = {"ship": [], "evaluate": [], "end_to_end": []}
    reference = None
    with Session(backend=backend, machines=machines) as session:
        compiler = session.compiler("pascal")
        reference = compiler.compile(source).value  # warm pool, tables, caches
        for _ in range(iterations):
            started = time.perf_counter()
            result = compiler.compile(source)
            phases["end_to_end"].append(time.perf_counter() - started)
            phases["ship"].append(result.report.wall_ship_seconds)
            phases["evaluate"].append(result.report.wall_evaluation_seconds)
            assert result.value == reference  # parity is part of the benchmark
    row = {phase: summary(samples) for phase, samples in phases.items()}
    end_to_end = row["end_to_end"]["p50"] or 1.0
    # The headline number for the sockets column: how much of a compile is spent
    # shipping regions across the wire rather than evaluating them.
    row["ship_fraction_p50"] = row["ship"]["p50"] / end_to_end
    return row


def run(args: argparse.Namespace) -> Dict:
    from repro.pascal import generate_program

    if args.quick:
        procedures, statements, iterations = 8, 3, 3
    else:
        procedures, statements, iterations = 20, 5, 8
    source = generate_program(
        procedures=procedures, statements_per_procedure=statements, seed=7
    )

    substrates = ["simulated", "threads"]
    if _fork_available():
        substrates.append("processes")
    substrates.append("sockets")

    results: Dict[str, Dict] = {}
    for backend in substrates:
        print(f"benchmarking {backend} substrate ({iterations} iterations)...")
        results[backend] = bench_execution_substrate(
            backend, source, args.machines, iterations
        )
        row = results[backend]
        print(
            f"  end-to-end p50 {row['end_to_end']['p50'] * 1000:.1f}ms  "
            f"ship p50 {row['ship']['p50'] * 1000:.1f}ms  "
            f"evaluate p50 {row['evaluate']['p50'] * 1000:.1f}ms  "
            f"(ship fraction {row['ship_fraction_p50']:.1%})"
        )

    return {
        "benchmark": "substrates",
        "workload": {
            "language": "pascal",
            "procedures": procedures,
            "statements_per_procedure": statements,
            "seed": 7,
            "source_chars": len(source),
            "machines": args.machines,
            "iterations": iterations,
            "quick": args.quick,
        },
        "substrates": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="small program, few iterations (CI smoke)"
    )
    parser.add_argument(
        "--machines", type=int, default=4, help="evaluator machines per compile"
    )
    parser.add_argument(
        "--output", default="BENCH_sockets.json", help="where to write the JSON report"
    )
    args = parser.parse_args(argv)

    payload = run(args)
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
