"""Workload ``compile-paper``: the paper's claim, sequential vs parallel.

A closed loop with one client.  Each round generates a fresh paper-sized
program, compiles it once with the seed sequential static evaluator (the
oracle and the speedup denominator) and once with the combined evaluator on
the ``processes`` substrate at ``machines = nproc``.  Only the parallel
compile is the timed unit operation.  The traced run alternates rounds: even
rounds drive the layers one by one under spans, odd rounds call
``Compiler.compile`` untraced, and the two are compared for
``trace.overhead_share``.
"""

from __future__ import annotations

import gc
import random
import time

from repro.api import Session, get_language
from repro.partition.decomposition import plan_decomposition

from common import (PROBES, Context, Outcome, PascalOracle, RssSampler, Tracer, mean, median,
                    normalize_labels, overhead_share, setup_layers, setup_probes, tail)
from inputs import pascal_program

#: Fewest rounds a run measures, even past ``--seconds``: with twenty-one
#: samples ``latency_tail_ms`` is a percentile with ten samples beyond it
#: rather than the single slowest round.
MIN_ROUNDS = 21


def run(ctx: Context) -> Outcome:
    outcome = Outcome()
    machines = ctx.nproc
    oracle = PascalOracle()
    payloads = setup_probes(ctx, oracle, outcome,
                            [["--substrate", "processes", "--machines", str(machines)]] * PROBES)
    stream = random.Random(ctx.seed)
    tracer = Tracer(ctx.trace)
    language = get_language("pascal")
    lexer, parser = language.frontend()
    parallel, ratios, reports, untraced = [], [], [], []
    first = None
    with RssSampler() as rss, Session(backend="processes") as session:
        compiler = session.compiler("pascal", machines=machines)
        engine = compiler.engine
        # Pool start and the first shipment of the grammar are set-up costs
        # (measured by the probes); one untimed compile gets them out of the way.
        compiler.compile(pascal_program(random.Random(~ctx.seed)))
        # Long-lived objects (grammar, tables, plans) leave the collector's
        # reach, so the collection between rounds costs milliseconds.
        gc.freeze()
        deadline = time.perf_counter() + ctx.seconds
        round_ = 0
        while time.perf_counter() < deadline or round_ < MIN_ROUNDS:
            source = pascal_program(random.Random(stream.getrandbits(64)))
            oracle.forget()
            with tracer.span("evaluation.sequential", request=f"r{round_}"):
                reference, sequential_s = oracle.reference(source)
            gc.collect()
            traced = ctx.trace and round_ % 2 == 0
            started = time.perf_counter()
            if traced:
                with tracer.span("op", request=f"r{round_}"):
                    with tracer.span("frontend.lex"):
                        tokens = lexer.tokenize(source)
                    with tracer.span("frontend.parse"):
                        tree = parser.parse(tokens)
                    with tracer.span("partition.decompose"):
                        plan = plan_decomposition(tree, machines)
                    with tracer.span("distributed.compile_tree"):
                        report = engine.compile_tree(tree, machines, substrate=session.substrate,
                                                     decomposition=plan)
                    code = language.result(report)
                if first is None:
                    first = (report, plan)
                reports.append(report)
            else:
                result = compiler.compile(source)
                code, report = result.value, result.report
            elapsed = time.perf_counter() - started
            outcome.attempted += 1
            if normalize_labels(code) != reference or language.errors(report):
                outcome.wrong += 1
            elif ctx.trace and not traced:
                untraced.append(elapsed)
            else:
                parallel.append(elapsed)
                ratios.append(sequential_s / elapsed)
            round_ += 1
    outcome.failed = outcome.wrong     # closed loops: every failure is a wrong output
    outcome.notes.append(f"{round_} rounds, {machines} machines")
    if ctx.trace:
        layers = outcome.layers
        setup_layers(outcome, payloads)
        n = max(1, len(parallel))
        selfs = tracer.self_times()
        for name in ("frontend.lex", "frontend.parse", "partition.decompose",
                     "distributed.compile_tree"):
            layers[name + "_ms"] = selfs.get(name, 0.0) / n
        layers["evaluation.sequential_ms"] = mean(tracer.durations("evaluation.sequential"))
        report, plan = first
        layers["frontend.nodes"] = report.tree_nodes
        layers["frontend.nodes_per_s"] = sum(r.tree_nodes for r in reports) / max(
            1e-9, (selfs.get("frontend.lex", 0.0) + selfs.get("frontend.parse", 0.0)) / 1e3)
        layers["partition.regions"] = plan.region_count
        layers["partition.balance"] = plan.balance()
        layers["distributed.ship_ms"] = mean([r.wall_ship_seconds * 1e3 for r in reports])
        layers["distributed.evaluate_ms"] = mean(
            [r.wall_evaluation_seconds * 1e3 for r in reports])
        layers["distributed.coordinator_ms"] = (layers["distributed.compile_tree_ms"]
                                                - layers["distributed.evaluate_ms"])
        layers["distributed.network_messages"] = report.network_messages
        layers["distributed.dynamic_fraction"] = report.dynamic_fraction
        layers["unaccounted_ms"] = selfs.get("op", 0.0) / n
        layers["trace.overhead_share"] = overhead_share(parallel, untraced)
        outcome.tracer = tracer
    else:
        value, percentile, count = tail(parallel)
        outcome.metrics.update({
            "latency_p50_ms": median(parallel) * 1e3,
            "latency_tail_ms": value * 1e3,
            "ops_per_s": len(parallel) / sum(parallel),
            "max_rate_rps": len(parallel) / sum(parallel),
            "speedup_vs_sequential": median(ratios),
        })
        outcome.notes.append(f"latency_tail_ms is p{percentile:.1f} of {count} samples")
    outcome.metrics["setup_s"] = median([p["setup_s"] for p in payloads])
    outcome.metrics["peak_rss_mb"] = rss.peak_mb
    return outcome
