"""Workload ``edit-recompile``: an editor on the loopback compile cluster.

A closed loop with one editor on the ``sockets`` substrate at the paper's
8-machine split, with a persistent store mounted in a fresh directory.  Each
step applies one seeded keystroke-sized edit and calls ``recompile()``; every
tenth step reopens the document on a fresh store-backed cache, as a restarted
editor would, so that build reads through the store.  The timed unit is the
edit plus the recompile (the reopen plus the recompile on every tenth step).
The traced run alternates traced and untraced steps, reopens included, and
compares the two for ``trace.overhead_share``.
"""

from __future__ import annotations

import gc
import os
import random
import time

from repro.api import Session
from repro.backends import SocketsSubstrate
from repro.store import StoreStats

from common import (PROBES, Context, Outcome, PascalOracle, RssSampler, TimedStore, Tracer,
                    mean, median, normalize_labels, overhead_share, setup_layers, setup_probes,
                    tail)
from inputs import PascalEditor, pascal_program

MACHINES = 8
REOPEN_EVERY = 10
#: The edited program is the same for every seed; the seed draws the edits.
#: Its region structure sets most of a step's cost, and a different program
#: per seed moved the median step by a fifth from seed to seed.
PROGRAM_SEED = 1987
#: Fewest steps a run measures, even past ``--seconds``: a floor for a slow
#: machine, not the usual count.
MIN_STEPS = 10


def program() -> str:
    """The edited program: 10 routines (~8k chars), seven regions at 8 machines."""
    return pascal_program(random.Random(PROGRAM_SEED), routines=10, nested=3, statements=8,
                          main_statements=20)


def run(ctx: Context) -> Outcome:
    outcome = Outcome()
    oracle = PascalOracle()
    payloads = setup_probes(ctx, oracle, outcome, [
        ["--substrate", "sockets", "--machines", str(MACHINES), "--workers", str(ctx.nproc),
         "--store", os.path.join(ctx.workdir, f"probe-store-{index}")]
        for index in range(PROBES)])
    tracer = Tracer(ctx.trace)
    store_dir = os.path.join(ctx.workdir, "store")
    text = program()
    editor = PascalEditor(text, random.Random(ctx.seed + 1))
    latencies, sequential, increments, reports, untraced = [], [], [], [], []
    stores = [TimedStore(store_dir, tracer)]
    substrate = SocketsSubstrate(workers=ctx.nproc, worker_store=store_dir)
    with RssSampler() as rss, Session(substrate=substrate) as session:
        try:
            # The document's first build and its store writes are set-up.
            tracer.enabled = False
            document = session.open("pascal", text, machines=MACHINES, store=stores[0])
            reference, _ = oracle.reference(text)
            cold = document.recompile()
            document.cache.flush()
            outcome.attempted += 1
            if normalize_labels(cold.value) != reference:
                outcome.wrong += 1
            gc.freeze()
            before = substrate.cluster_stats()
            deadline = time.perf_counter() + ctx.seconds
            step = 0
            while time.perf_counter() < deadline or step < MIN_STEPS:
                step += 1
                start, end, new_text = editor.next_edit()[1]
                reopen = step % REOPEN_EVERY == 0
                # Think time: the last step's write-behind store writes land
                # before the next keystroke, outside the timed region, and
                # before the sequential compile, whose time they would take
                # the interpreter lock from.
                if reopen:
                    document.cache.close()
                    stores.append(TimedStore(store_dir, tracer))
                else:
                    document.cache.flush()
                # A text seen before (a delete undoes its insert) is compiled
                # again too: the machine's speed drifts within seconds, so the
                # sequential time must be taken next to the step it divides.
                oracle.forget()
                reference, sequential_s = oracle.reference(editor.text)
                gc.collect()
                # Every other step is untraced; the offset by the reopen count
                # puts every other reopen on each side.
                traced = ctx.trace and (step + step // REOPEN_EVERY) % 2 == 0
                tracer.enabled = traced
                started = time.perf_counter()
                with tracer.span("op", request=f"s{step}"):
                    if reopen:
                        with tracer.span("incremental.reopen"):
                            document = session.open("pascal", editor.text, machines=MACHINES,
                                                    store=stores[-1])
                    else:
                        with tracer.span("incremental.edit"):
                            document.edit(start, end, new_text)
                    with tracer.span("incremental.recompile"):
                        result = document.recompile()
                elapsed = time.perf_counter() - started
                outcome.attempted += 1
                if normalize_labels(result.value) != reference or result.errors:
                    outcome.wrong += 1
                    continue
                if ctx.trace and not traced:
                    untraced.append(elapsed)
                    continue
                latencies.append(elapsed)
                sequential.append(sequential_s)
                increments.append(result.incremental)
                reports.append(result.report)
            document.cache.close()
            after = substrate.cluster_stats()
        finally:
            substrate.shutdown()
    outcome.failed = outcome.wrong
    outcome.notes.append(f"{step} steps ({step // REOPEN_EVERY} reopens), "
                         f"{MACHINES} machines, {len(text)} chars")
    if ctx.trace:
        layers = outcome.layers
        setup_layers(outcome, payloads)
        selfs = tracer.self_times()
        layers["incremental.edit_ms"] = mean(tracer.durations("incremental.edit"))
        layers["incremental.frontend_ms"] = mean([r.wall_parse_seconds * 1e3 for r in reports])
        layers["incremental.regions_evaluated"] = mean([i.regions_evaluated for i in increments])
        layers["incremental.reuse_fraction"] = mean([i.reuse_fraction for i in increments])
        layers["incremental.validation_rounds"] = mean([i.validation_rounds for i in increments])
        hits = sum(i.cache_hits for i in increments)
        layers["incremental.cache_hit_rate"] = hits / max(
            1, hits + sum(i.cache_misses for i in increments))
        # Writes run on the cache's write-behind thread, outside the step's span.
        layers["store.read_ms"] = selfs.get("store.read", 0.0) / len(latencies)
        layers["store.write_ms"] = selfs.get("store.write", 0.0) / len(latencies)
        totals = StoreStats()
        for store in stores:
            for key, value in vars(store.stats()).items():
                setattr(totals, key, getattr(totals, key) + value)
        layers["store.hit_rate"] = totals.hit_rate
        layers["store.bytes_read"] = totals.bytes_read
        layers["store.bytes_written"] = totals.bytes_written
        layers["store.corrupt"] = totals.corrupt
        steps = len(latencies) + len(untraced)
        layers["cluster.frames_sent"] = (after.frames_sent - before.frames_sent) / steps
        layers["cluster.frames_received"] = (after.frames_received - before.frames_received) / steps
        layers["cluster.bundles_shipped"] = after.bundles_shipped
        layers["cluster.bundles_from_store"] = after.bundles_from_store
        layers["cluster.reassignments"] = after.reassignments
        layers["partition.regions"] = increments[0].regions_total
        layers["frontend.nodes"] = reports[0].tree_nodes
        layers["distributed.compile_tree_ms"] = mean([r.wall_time_seconds * 1e3 for r in reports])
        layers["distributed.ship_ms"] = mean([r.wall_ship_seconds * 1e3 for r in reports])
        layers["distributed.evaluate_ms"] = mean(
            [r.wall_evaluation_seconds * 1e3 for r in reports])
        layers["evaluation.sequential_ms"] = median([seconds * 1e3 for seconds in sequential])
        layers["distributed.coordinator_ms"] = (layers["distributed.compile_tree_ms"]
                                                - layers["distributed.evaluate_ms"])
        layers["distributed.dynamic_fraction"] = reports[0].dynamic_fraction
        layers["unaccounted_ms"] = selfs.get("op", 0.0) / len(latencies)
        layers["trace.overhead_share"] = overhead_share(latencies, untraced)
        outcome.tracer = tracer
    else:
        value, percentile, count = tail(latencies)
        outcome.metrics.update({
            "latency_p50_ms": median(latencies) * 1e3,
            "latency_tail_ms": value * 1e3,
            "ops_per_s": len(latencies) / sum(latencies),
            "max_rate_rps": len(latencies) / sum(latencies),
            "speedup_vs_sequential": median([s / t for s, t in zip(sequential, latencies)]),
        })
        outcome.notes.append(f"latency_tail_ms is p{percentile:.1f} of {count} samples")
    outcome.metrics["setup_s"] = median([p["setup_s"] for p in payloads])
    outcome.metrics["peak_rss_mb"] = rss.peak_mb
    return outcome
