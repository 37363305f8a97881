"""Shared machinery: span recorder, statistics, process-tree memory, the oracle.

Nothing here reaches into the program's private state: the oracle runs the
public sequential compiler, the timed store is a subclass of the public
``ArtifactStore`` handed to the program through its ``store=`` parameters, and
memory is read from ``/proc``.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.store import ArtifactStore

from inputs import small_pascal

HERE = os.path.dirname(os.path.abspath(__file__))
#: Set-ups per run; ``setup_s`` is their median.
PROBES = 3

# ------------------------------------------------------------------- runs


@dataclass
class Context:
    """What one run was asked for."""

    seed: int
    seconds: float
    trace: bool
    workdir: str               #: scratch directory inside the checkout
    nproc: int


@dataclass
class Outcome:
    """What one workload measured: end-to-end figures, layer figures, checks."""

    attempted: int = 0
    wrong: int = 0             #: outputs that differ from the oracle
    failed: int = 0            #: wrong, refused, timed-out or erroring operations
    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    tracer: Optional["Tracer"] = None   #: the traced run's spans


def run_probes(probe_args: List[List[str]], source: str) -> List[Tuple[float, Dict[str, Any]]]:
    """Launch ``probe.py`` once per argument list, one after another.

    Each probe is timed from its launch to its first result (seconds).  A
    probe stays up until all have answered, then all tear down together: a
    sockets probe's substrate shutdown waits seconds for its worker hosts, and
    tear-down is not set-up.
    """
    children: List[subprocess.Popen] = []
    results = []
    try:
        for args in probe_args:
            started = time.perf_counter()
            child = subprocess.Popen([sys.executable, os.path.join(HERE, "probe.py")] + args,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            children.append(child)
            child.stdin.write(json.dumps({"source": source}) + "\n")
            child.stdin.flush()
            line = child.stdout.readline()
            elapsed = time.perf_counter() - started
            if not line:
                raise RuntimeError(f"set-up probe {args} exited with {child.wait(timeout=60)}")
            results.append((elapsed, json.loads(line)))
        for child in children:
            child.stdin.close()
        for child, args in zip(children, probe_args):
            child.stdout.read()
            if child.wait(timeout=60) != 0:
                raise RuntimeError(f"set-up probe {args} exited with {child.returncode}")
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
                child.wait()
    return results


def setup_probes(ctx: Context, oracle: PascalOracle, outcome: Outcome,
                 probe_args: List[List[str]]) -> list:
    """Run one set-up probe per argument list; returns payloads with ``setup_s``."""
    source = small_pascal(random.Random(ctx.seed))
    reference, _ = oracle.reference(source)   # outside every probe's clock
    payloads = []
    for elapsed, payload in run_probes(probe_args, source):
        outcome.attempted += 1
        if payload["errors"] or normalize_labels(payload["output"]) != reference:
            outcome.wrong += 1
        payload["setup_s"] = elapsed
        payloads.append(payload)
    return payloads


def setup_layers(outcome: Outcome, payloads: list) -> None:
    """The probes' phase timings as the ``api.*`` and ``backends.*`` metrics."""
    for key in ("import_ms", "engine_build_ms"):
        outcome.layers[f"api.{key}"] = median([p[key] for p in payloads])
    for key in ("session_start_ms", "first_compile_ms"):
        outcome.layers[f"backends.{key}"] = median([p[key] for p in payloads])


# --------------------------------------------------------------- statistics


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile, up to p90, with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``.  Up to 100 samples the value
    has exactly ten samples beyond it; from 100 on it is p90, a tenth of
    the samples beyond it.  Without the cap, more samples would push the
    figure further into the tail instead of making it steadier: an order
    statistic with ten samples beyond it is as noisy at 300 samples as at
    30.  Below twenty-one samples the percentile would fall under the
    median, so the maximum is returned instead, as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return (ordered[-1] if ordered else 0.0), 100.0, n
    beyond = max(10, n // 10)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, n


# ------------------------------------------------------------------- spans


@dataclass
class Span:
    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]
    request: Optional[str]

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class Tracer:
    """An in-memory span recorder; a no-op when disabled.

    Spans nest per thread: a span opened while another is open on the same
    thread is its child.  Spans of one unit operation share a request id.
    :meth:`record` adds a span timed by the caller (e.g. an HTTP round trip
    the client loop already timed) under an explicit parent.  ``enabled`` may
    be switched between operations, so that a traced run can interleave
    untraced operations and measure what tracing costs
    (:func:`overhead_share`).
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next = 0

    def _new_id(self) -> int:
        with self._lock:
            self._next += 1
            return self._next

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[str] = None) -> Iterator[Optional[int]]:
        if not self.enabled:
            yield None
            return
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        previous = getattr(self._local, "request", None)
        if request is None:
            request = previous
        span_id = self._new_id()
        stack.append(span_id)
        self._local.request = request
        start = time.perf_counter_ns()
        try:
            yield span_id
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self._local.request = previous
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent, request))

    def record(self, name: str, start_ns: int, end_ns: int,
               parent: Optional[int], request: Optional[str]) -> Optional[int]:
        if not self.enabled:
            return None
        span_id = self._new_id()
        with self._lock:
            self.spans.append(Span(span_id, name, start_ns, end_ns, parent, request))
        return span_id

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name, ms: duration minus child coverage."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        totals: Dict[str, float] = {}
        for span in self.spans:
            covered = _union_ns([(c.start_ns, c.end_ns) for c in children.get(span.span_id, [])],
                                span.start_ns, span.end_ns)
            totals[span.name] = totals.get(span.name, 0.0) + (
                span.end_ns - span.start_ns - covered) / 1e6
        return totals

    def durations(self, name: str) -> List[float]:
        return [span.ms for span in self.spans if span.name == name]

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump([vars(span) for span in self.spans], handle)


def overhead_share(traced: Sequence[float], untraced: Sequence[float]) -> float:
    """What tracing adds end to end: median traced over median untraced, minus 1.

    The two samples come from operations of one run that alternate between
    traced and untraced, so both see the same machine.
    """
    return median(traced) / median(untraced) - 1.0 if traced and untraced else 0.0


def _union_ns(intervals: List[Tuple[int, int]], lo: int, hi: int) -> int:
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


# ---------------------------------------------------------- memory (/proc)


class RssSampler:
    """Peak memory (summed proportional set sizes) of this process and its descendants.

    Sampling runs in a child process (``rss.py``), so it never holds this
    process's interpreter lock while an operation is being timed.  A sample
    walks ``/proc`` and costs a few milliseconds of CPU, so one every half
    second takes about 1% of a CPU from the measured processes.
    """

    def __init__(self, interval: float = 0.5):
        self.interval = interval
        self.peak = 0
        self._child: Optional[subprocess.Popen] = None

    def __enter__(self) -> "RssSampler":
        self._child = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "rss.py"), str(os.getpid()), str(self.interval)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc) -> None:
        output, _ = self._child.communicate(timeout=60)
        self.peak = int(output.strip() or 0)

    @property
    def peak_mb(self) -> float:
        return self.peak / (1024 * 1024)


# ------------------------------------------------------------------ oracle

_LABEL_DEF = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*):", re.M)
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def normalize_labels(code: str) -> str:
    """Rename every defined label to ``@Ln`` in first-definition order.

    The parallel compiler draws labels from per-region unique-id bases, so its
    code equals the sequential compiler's only up to a consistent renaming.
    """
    mapping: Dict[str, str] = {}
    for match in _LABEL_DEF.finditer(code):
        mapping.setdefault(match.group(1), f"@L{len(mapping)}")
    return _WORD.sub(lambda m: mapping.get(m.group(0), m.group(0)), code)


class PascalOracle:
    """Reference output of the seed sequential static evaluator, per source text.

    Results are memoised by text until :meth:`forget`, so a repeated text
    (an HTTP body sent again) costs nothing; ``seconds`` keeps each text's
    sequential time.
    """

    def __init__(self):
        from repro.pascal.compiler import PascalCompiler

        self._compiler = PascalCompiler()
        self._known: Dict[str, Tuple[str, float]] = {}

    def reference(self, source: str, timings: int = 1) -> Tuple[str, float]:
        """``(normalised code, sequential seconds)`` for ``source``.

        A new text is compiled ``timings`` times and the fastest compile is
        its sequential time.
        """
        if source not in self._known:
            times = []
            for _ in range(timings):
                started = time.perf_counter()
                result = self._compiler.compile(source, "static")
                times.append(time.perf_counter() - started)
            if result.errors:
                raise ValueError(f"generated program has errors: {result.errors[:3]}")
            self._known[source] = (normalize_labels(result.code), min(times))
        return self._known[source]

    def sequential_seconds(self) -> List[float]:
        return [seconds for _, seconds in self._known.values()]

    def forget(self) -> None:
        self._known.clear()


# ------------------------------------------------------------ timed store


class TimedStore(ArtifactStore):
    """An ``ArtifactStore`` that records a span around every read and write."""

    def __init__(self, root: str, tracer: Tracer):
        super().__init__(root)
        self._tracer = tracer

    def read(self, namespace, key):
        with self._tracer.span("store.read"):
            return super().read(namespace, key)

    def write(self, namespace, key, payload):
        with self._tracer.span("store.write"):
            return super().write(namespace, key, payload)
