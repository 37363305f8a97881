"""Workload ``http-mix``: an open loop against ``python -m repro.server``.

The server runs with its default configuration (threads substrate, two
machines) plus ``--store``.  One asyncio client sends a seeded mix of requests
over at most ``nproc`` keep-alive connections, on a seeded schedule of
evenly spaced, jittered arrivals that does not wait for replies:

* small one-shot Pascal compiles, a stated share of which repeat a recent
  body (so coalescing applies) while the rest are distinct;
* exprlang one-shots;
* document sessions: open, recompile, then edit + recompile twice, close;
* ``GET /stats`` reads.

First a fixed base rate runs long enough for steady latency figures; then
fresh Pascal one-shots go one at a time, to compare the server's compile path
with the sequential evaluator; then a ladder of rising rates finds the
highest rate whose tail latency stays within ``LIMIT_MS`` with no growing
backlog.  Latency is timed from when a request
was due, so a stall also delays the requests queued behind it.

The server is not instrumented.  In the traced run the client records spans
for every other base-rate request of each kind as it completes, from its own
timestamps: the wait for a connection, the server round trip, and the
client's check of the answer, which no layer span covers.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from common import (HERE, Context, Outcome, PascalOracle, RssSampler, Tracer, mean, median,
                    normalize_labels, overhead_share, run_probes, tail)
from inputs import ExprProgram, small_pascal

ROOT = os.path.dirname(HERE)

#: Requests per second of the base rung, where p50 and tail latency are taken.
#: It keeps the server at about a sixth of its capacity, so the figures are
#: service time more than queueing, and gives the tail (p90) about thirty
#: samples beyond it in a 20 s run.
BASE_RATE = 20.0
#: Rates of the ladder, 20% apart, tried in order until two in a row fail.  On
#: the 2-CPU box the benchmark was tuned on no rate below 90 req/s failed, so
#: starting at 75 lets a slower machine still pass a rate or two; lower rates
#: only took time that the rungs near the limit use better.
LADDER = (75.0, 90.0, 108.0, 130.0, 156.0, 187.0, 225.0, 270.0)
#: Tail latency a ladder rate must stay within, ms.
LIMIT_MS = 250.0
#: Shares of ``--seconds`` given to the base rung and to each ladder rung
#: (14 s and 1.7 s in a 20 s run).
BASE_SHARE = 0.7
RUNG_SHARE = 1 / 12
#: Requests of each kind in every block of ten: Pascal one-shot, exprlang
#: one-shot, document-session request, stats read.
MIX = (("pascal", 3), ("expr", 3), ("session", 3), ("stats", 1))
#: Largest arrival jitter, as a share of the gap between arrivals.
JITTER = 0.25
#: Share of Pascal one-shots that repeat one of the last few bodies.
REPEAT_SHARE = 0.3
RECENT_BODIES = 6
#: Fresh Pascal one-shots sent one at a time after the base rung, each right
#: after its in-process sequential compile, for ``speedup_vs_sequential``.
#: The machine's speed drifts by half within a minute: the same programs
#: compiled in-process in 5.0 ms one run and 8.5 ms the next, so the two
#: times of a pair must be taken together.  Pairs from the base rung, timed
#: seconds apart, moved that figure's median by a quarter from run to run.
SOLO_COMPILES = 80
#: In-process sequential compiles of each of them; the fastest is the
#: numerator of ``speedup_vs_sequential`` (a single timing of these
#: millisecond compiles added a quarter to that figure's sampling spread).
SEQUENTIAL_TIMINGS = 3
#: Concurrent editing sessions the schedule keeps open.
SESSION_SLOTS = 3
EDITS_PER_SESSION = 2
TENANTS = 16
REQUEST_TIMEOUT_S = 30.0


# ----------------------------------------------------------------- client


class Connection:
    """One HTTP/1.1 keep-alive connection speaking JSON."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def request(self, method: str, path: str,
                      body: Optional[dict] = None) -> Tuple[int, Dict[str, str], Any]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(self.host, self.port)
        data = json.dumps(body).encode() if body is not None else b""
        head = (f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n\r\n")
        self.writer.write(head.encode() + data)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        headers: Dict[str, str] = {}
        while True:
            line = (await self.reader.readline()).decode().strip()
            if not line:
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        payload = await self.reader.readexactly(int(headers.get("content-length", "0")))
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return status, headers, json.loads(payload) if payload else None

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
        self.reader = self.writer = None


# ---------------------------------------------------------------- server


class Server:
    """A ``python -m repro.server`` child process on a free port."""

    def __init__(self, workdir: str, name: str):
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.log = open(os.path.join(workdir, f"{name}.log"), "w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--port", "0",
             "--store", os.path.join(workdir, f"{name}-store")],
            stdout=subprocess.PIPE, stderr=self.log, text=True, env=env, cwd=ROOT)
        line = self.process.stdout.readline()
        match = re.search(r"listening on http://([^:]+):(\d+)", line)
        if not match:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def stop(self) -> int:
        """SIGTERM, wait for the drain; returns the exit code."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait()
        self.process.stdout.close()
        self.log.close()
        return code


# -------------------------------------------------------------- schedule


@dataclass
class Request:
    kind: str                      # pascal | solo | expr | open | recompile | edit | close | stats
    offset: float                  # seconds after rung start when it is due
    tenant: str
    expect: Any = None             # normalised code, integer value, or None
    body: Optional[dict] = None
    session: Optional["Session"] = None
    after: Optional["Request"] = None   # the session step that must finish first
    sequential_s: float = 0.0      # Pascal one-shots: the oracle's sequential time
    done: Optional[asyncio.Event] = None
    traced: str = ""               # request id of a traced request
    # Filled in by the client:
    due: float = 0.0
    sent: float = 0.0
    finished: float = 0.0
    checked: float = 0.0
    lag: float = 0.0
    status: int = 0
    ok: bool = False
    wrong: bool = False
    coalesced: str = ""
    service_ms: float = 0.0
    incremental: Optional[dict] = None


@dataclass
class Session:
    program: ExprProgram
    tenant: str
    steps: List[Request] = field(default_factory=list)
    sid: str = ""
    last: Optional[Request] = None


class Mix:
    """The seeded request stream, carried over from one rung to the next."""

    def __init__(self, seed: int, oracle: PascalOracle):
        self.rng = random.Random(seed)
        self.oracle = oracle
        self.recent: List[str] = []
        self.counter = 0
        self.sessions: List[Session] = []

    def _tenant(self) -> str:
        self.counter += 1
        return f"t{self.counter % TENANTS}"

    def _session_step(self, offset: float, may_open: bool) -> Request:
        if may_open and len(self.sessions) < SESSION_SLOTS:
            program = ExprProgram(self.rng, depth=5)
            session = Session(program, self._tenant())
            session.steps.append(Request("open", 0.0, session.tenant, session=session, body={
                "language": "exprlang", "source": program.text, "tenant": session.tenant}))
            session.steps.append(Request("recompile", 0.0, session.tenant, program.value,
                                         session=session))
            for _ in range(EDITS_PER_SESSION):
                start, end, text = program.edit_literal()
                session.steps.append(Request("edit", 0.0, session.tenant, session=session,
                                             body={"edits": [[start, end, text]]}))
                session.steps.append(Request("recompile", 0.0, session.tenant, program.value,
                                             session=session))
            session.steps.append(Request("close", 0.0, session.tenant, session=session))
            self.sessions.append(session)
        session = self.sessions[self.rng.randrange(len(self.sessions))]
        step = session.steps.pop(0)
        if not session.steps:
            self.sessions.remove(session)
        step.offset = offset
        step.after, session.last = session.last, step
        return step

    def _pascal(self, offset: float) -> Request:
        if self.recent and self.rng.random() < REPEAT_SHARE:
            source = self.rng.choice(self.recent)
        else:
            source = small_pascal(random.Random(self.rng.getrandbits(64)))
            self.recent = (self.recent + [source])[-RECENT_BODIES:]
        return self._one_shot("pascal", source, offset, 1)

    def _one_shot(self, kind: str, source: str, offset: float, timings: int) -> Request:
        reference, seconds = self.oracle.reference(source, timings)
        tenant = self._tenant()
        return Request(kind, offset, tenant, reference, sequential_s=seconds, body={
            "language": "pascal", "source": source, "tenant": tenant})

    def fresh_one_shot(self) -> Request:
        """A Pascal one-shot with a new body, its sequential time taken now."""
        return self._one_shot("solo", small_pascal(random.Random(self.rng.getrandbits(64))),
                              0.0, SEQUENTIAL_TIMINGS)

    def rung(self, rate: float, duration: float) -> List[Request]:
        """Requests due in one rung, plus what open sessions still need.

        Arrivals are evenly spaced with seeded jitter of up to
        ``JITTER`` of the gap, and kinds come in shuffled blocks of ten
        with exactly the ``MIX`` proportions: Poisson arrivals and a drawn
        mix made the tail swing by a third from seed to seed.
        """
        requests: List[Request] = []
        block: List[str] = []
        index = 0
        while index < rate * duration or self.sessions:
            offset = (index + 0.5 + self.rng.uniform(-JITTER, JITTER)) / rate
            if not block:
                block = [kind for kind, tenths in MIX for _ in range(tenths)]
                self.rng.shuffle(block)
            kind = block.pop() if offset < duration else "session"
            if kind == "pascal":
                requests.append(self._pascal(offset))
            elif kind == "expr":
                program = ExprProgram(self.rng, depth=5)
                tenant = self._tenant()
                requests.append(Request("expr", offset, tenant, program.value, body={
                    "language": "exprlang", "source": program.text, "tenant": tenant}))
            elif kind == "session":
                requests.append(self._session_step(offset, offset < duration))
            else:
                requests.append(Request("stats", offset, self._tenant()))
            index += 1
        return requests


# ---------------------------------------------------------------- driving


def _route(request: Request) -> Tuple[str, str, Optional[dict]]:
    sid = request.session.sid if request.session else ""
    return {
        "pascal": ("POST", "/compile", request.body),
        "solo": ("POST", "/compile", request.body),
        "expr": ("POST", "/compile", request.body),
        "open": ("POST", "/documents", request.body),
        "edit": ("POST", f"/documents/{sid}/edit", request.body),
        "recompile": ("POST", f"/documents/{sid}/recompile", {}),
        "close": ("DELETE", f"/documents/{sid}", None),
        "stats": ("GET", "/stats", None),
    }[request.kind]


def _check(request: Request, payload: Any) -> bool:
    """Is a 2xx response the right answer?"""
    kind = request.kind
    if kind in ("pascal", "solo"):
        return payload.get("ok") and normalize_labels(payload["value"]) == request.expect
    if kind in ("expr", "recompile"):
        return payload.get("value") == request.expect
    if kind == "open":
        request.session.sid = payload.get("document", "")
        return bool(request.session.sid)
    if kind == "edit":
        return payload.get("edits_applied") == 1
    if kind == "close":
        return payload.get("closed") is True
    return "service" in payload


def drive(host: str, port: int, connections: int, requests: List[Request],
          tracer: Optional[Tracer] = None) -> int:
    """Send ``requests`` on schedule; returns the backlog when the last one fell due.

    The client's own garbage collector is paused while the requests run, so
    its pauses never show up as server latency.  Requests marked ``traced``
    get their spans recorded in ``tracer`` as they complete.
    """
    gc.collect()
    gc.disable()
    try:
        return asyncio.run(_drive(host, port, connections, requests, tracer))
    finally:
        gc.enable()


def solo(host: str, port: int, mix: Mix) -> List[Request]:
    """``SOLO_COMPILES`` fresh one-shots, each sent once its sequential time is taken.

    The collector stays on: with it paused, the garbage of eighty in-process
    compiles nearly doubled the run's peak memory.
    """
    return asyncio.run(_solo(host, port, mix))


def _record(tracer: Tracer, request: Request) -> None:
    """The spans of one completed request, from the client's timestamps."""
    due, sent, finished, checked = (int(t * 1e9) for t in (
        request.due, request.sent, request.finished, request.checked))
    op = tracer.record("op", due, checked, None, request.traced)
    tracer.record("client.queue", due, sent, op, request.traced)
    route = "compile" if request.kind in ("pascal", "expr") else request.kind
    tracer.record(f"server.{route}", sent, finished, op, request.traced)


async def _drive(host: str, port: int, connections: int, requests: List[Request],
                 tracer: Optional[Tracer]) -> int:
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue()
    start = loop.time() + 0.05
    backlog = [0]

    for request in requests:
        request.done = asyncio.Event()

    async def generator() -> None:
        for request in requests:
            request.due = start + request.offset
            delay = request.due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            request.lag = loop.time() - request.due
            queue.put_nowait(request)
        backlog[0] = queue.qsize()
        for _ in range(connections):
            queue.put_nowait(None)

    async def sender(connection: Connection) -> None:
        while True:
            request = await queue.get()
            if request is None:
                break
            if request.after is not None:
                await request.after.done.wait()
                if not request.after.ok:          # its session broke: not sent
                    request.finished = loop.time()
                    request.done.set()
                    continue
            await _exchange(connection, request)
            if request.traced and request.ok and tracer is not None:
                _record(tracer, request)
            request.done.set()

    connection_pool = [Connection(host, port) for _ in range(connections)]
    try:
        await asyncio.gather(generator(), *(sender(c) for c in connection_pool))
    finally:
        for connection in connection_pool:
            await connection.close()
    return backlog[0]


async def _exchange(connection: Connection, request: Request) -> None:
    """Send one request and settle its outcome from the answer."""
    loop = asyncio.get_running_loop()
    method, path, body = _route(request)
    request.sent = loop.time()
    try:
        status, headers, payload = await asyncio.wait_for(
            connection.request(method, path, body), REQUEST_TIMEOUT_S)
    except (asyncio.TimeoutError, ConnectionError, OSError, ValueError):
        await connection.close()
        status, headers, payload = 0, {}, None
    request.finished = loop.time()
    request.status = status
    if 200 <= status < 300:
        request.ok = bool(_check(request, payload))
        request.wrong = not request.ok
        request.coalesced = headers.get("x-repro-coalesced", "")
        if isinstance(payload, dict) and "wall_compile_ms" in payload:
            request.service_ms = payload["wall_parse_ms"] + payload["wall_compile_ms"]
            request.incremental = payload.get("incremental")
    elif status not in (0, 429) and status < 500:
        request.wrong = True      # a 4xx other than 429 is a wrong answer
    request.checked = loop.time()


async def _solo(host: str, port: int, mix: Mix) -> List[Request]:
    loop = asyncio.get_running_loop()
    connection = Connection(host, port)
    requests: List[Request] = []
    try:
        for _ in range(SOLO_COMPILES):
            request = mix.fresh_one_shot()
            request.due = loop.time()
            await _exchange(connection, request)
            requests.append(request)
    finally:
        await connection.close()
    return requests


def max_rate(ladder: List[Tuple[float, bool, float, int]]) -> float:
    """The highest rate meeting ``LIMIT_MS``, interpolated between ladder rates.

    ``ladder`` holds ``(rate, passed, tail_ms, backlog)`` in rising order.
    The answer starts from the last rate that passed.  When the rate after it
    failed on its tail latency, the answer is where the tail crosses the
    limit, interpolated linearly in log-latency between the two rates; a
    discrete rung would flip between neighbours from run to run.  When it
    failed for another reason (backlog, errors), the answer is the last
    rate that passed.
    """
    last = max(index for index, entry in enumerate(ladder) if entry[1])
    low_rate, _, low_tail, _ = ladder[last]
    if last + 1 == len(ladder):
        return low_rate
    high_rate, _, high_tail, _ = ladder[last + 1]
    if high_tail <= LIMIT_MS or high_tail == float("inf") or low_tail <= 0:
        return low_rate
    share = (math.log(LIMIT_MS) - math.log(low_tail)) / (math.log(high_tail) - math.log(low_tail))
    return low_rate + (high_rate - low_rate) * min(1.0, max(0.0, share))


def _latencies(requests: List[Request]) -> List[float]:
    return [r.finished - r.due for r in requests if r.ok]


def _alternate(requests: List[Request]) -> None:
    """Mark every other request of each kind as traced."""
    seen: Dict[str, int] = {}
    for index, request in enumerate(requests):
        seen[request.kind] = seen.get(request.kind, 0) + 1
        if seen[request.kind] % 2:
            request.traced = f"q{index}"


async def _one(host: str, port: int, method: str, path: str, body=None):
    connection = Connection(host, port)
    try:
        return await connection.request(method, path, body)
    finally:
        await connection.close()


# ------------------------------------------------------------------ the run


def run(ctx: Context) -> Outcome:
    outcome = Outcome()
    oracle = PascalOracle()
    tracer = Tracer(ctx.trace)
    setup_source = small_pascal(random.Random(ctx.seed))
    setup_reference, _ = oracle.reference(setup_source)
    setups: List[Dict[str, float]] = []
    drained: List[int] = []
    mix = Mix(ctx.seed, oracle)
    rung_seconds = ctx.seconds * RUNG_SHARE
    everything: List[Request] = []
    ladder: List[Tuple[float, bool, float, int]] = []
    server: Optional[Server] = None
    with RssSampler() as rss:
        try:
            # Set-up: three fresh servers, each timed from launch to its first
            # checked compile; the third stays up and serves the workload.
            for index in range(3):
                if server is not None:
                    drained.append(server.stop())
                started = time.perf_counter()
                server = Server(ctx.workdir, f"server{index}")
                listening = time.perf_counter()
                status, _, payload = asyncio.run(_one(server.host, server.port, "POST", "/compile", {
                    "language": "pascal", "source": setup_source, "tenant": "setup"}))
                done = time.perf_counter()
                outcome.attempted += 1
                if status != 200 or normalize_labels(payload["value"]) != setup_reference:
                    outcome.wrong += 1
                    outcome.failed += 1
                setups.append({"setup_s": done - started,
                               "session_start_ms": (listening - started) * 1e3,
                               "first_compile_ms": (done - listening) * 1e3})
            # Warm-up: the server's first exprlang compile, first document and
            # first stats read build lazily; that is set-up, not load.
            warmup = Mix(~ctx.seed, oracle).rung(BASE_RATE, 1.0)
            drive(server.host, server.port, ctx.nproc, warmup)
            outcome.attempted += len(warmup)
            outcome.wrong += sum(r.wrong for r in warmup)
            outcome.failed += sum(not r.ok for r in warmup)
            base = mix.rung(BASE_RATE, ctx.seconds * BASE_SHARE)
            if ctx.trace:
                _alternate(base)
            drive(server.host, server.port, ctx.nproc, base, tracer)
            base_seconds = max(r.finished for r in base) - min(r.due for r in base)
            # Fresh one-shots one at a time, for the compile path's speedup.
            compiled = solo(server.host, server.port, mix)
            everything += base + compiled
            for rate in LADDER:
                requests = mix.rung(rate, rung_seconds)
                backlog = drive(server.host, server.port, ctx.nproc, requests)
                everything += requests
                latencies = _latencies(requests)
                value = tail(latencies)[0] * 1e3 if latencies else float("inf")
                # A backlog that alone takes longer than the limit to drain
                # at the offered rate is a growing one.
                passed = (value <= LIMIT_MS and backlog <= rate * LIMIT_MS / 1e3
                          and all(r.ok for r in requests))
                ladder.append((rate, passed, value, backlog))
                # The ladder ends at two failed rates in a row: one failure
                # followed by a pass was a stall, not the server's limit.
                if not passed and len(ladder) > 1 and not ladder[-2][1]:
                    break
            stats = asyncio.run(_one(server.host, server.port, "GET", "/stats"))[2]
        finally:
            if server is not None:
                drained.append(server.stop())
    outcome.attempted += len(everything)
    outcome.wrong += sum(r.wrong for r in everything)
    outcome.failed += sum(not r.ok for r in everything)
    if any(code != 0 for code in drained):
        outcome.wrong += 1
        outcome.failed += 1
        outcome.notes.append(f"server drain exit codes {drained}: expected all 0")
    outcome.notes.append("ladder (rate, passed, tail ms, backlog): " + ", ".join(
        f"({rate:.0f}, {passed}, {value:.0f}, {backlog})"
        for rate, passed, value, backlog in ladder))
    base_tail = tail(_latencies(base))[0] * 1e3
    if ctx.trace:
        _layers(ctx, outcome, tracer, base, everything, stats, setups, oracle)
    else:
        latencies = _latencies(base)
        value, percentile, count = tail(latencies)
        pairs = [r for r in compiled if r.ok and r.coalesced == "leader" and r.service_ms]
        outcome.metrics.update({
            "latency_p50_ms": median(latencies) * 1e3,
            "latency_tail_ms": value * 1e3,
            "ops_per_s": sum(r.ok for r in base) / base_seconds,
            "max_rate_rps": max_rate([(BASE_RATE, True, base_tail, 0)] + ladder),
            "speedup_vs_sequential": median(
                [r.sequential_s * 1e3 / r.service_ms for r in pairs]),
        })
        outcome.notes.append(f"latency_tail_ms is p{percentile:.1f} of {count} samples "
                             f"at {BASE_RATE:.0f} req/s; speedup_vs_sequential is the median "
                             f"of {len(pairs)} one-shots sent alone")
    outcome.metrics["setup_s"] = median([s["setup_s"] for s in setups])
    outcome.metrics["peak_rss_mb"] = rss.peak_mb
    return outcome


def _layers(ctx: Context, outcome: Outcome, tracer: Tracer, base: List[Request],
            everything: List[Request], stats: dict, setups: List[dict],
            oracle: PascalOracle) -> None:
    layers = outcome.layers
    # api.* come from a threads probe: the server's own start is one opaque step.
    [(_, probe)] = run_probes([["--substrate", "threads", "--machines", "2"]],
                              small_pascal(random.Random(ctx.seed)))
    layers["api.import_ms"] = probe["import_ms"]
    layers["api.engine_build_ms"] = probe["engine_build_ms"]
    layers["backends.session_start_ms"] = median([s["session_start_ms"] for s in setups])
    layers["backends.first_compile_ms"] = median([s["first_compile_ms"] for s in setups])
    selfs = tracer.self_times()
    for route in ("compile", "open", "edit", "recompile", "close", "stats"):
        layers[f"server.{route}_ms"] = mean(tracer.durations(f"server.{route}"))
    served = [r for r in base if r.ok and r.service_ms
              and (r.kind == "recompile" or r.coalesced == "leader")]
    layers["server.front_door_ms"] = mean(
        [(r.finished - r.sent) * 1e3 - r.service_ms for r in served])
    pascal = [r for r in everything if r.kind == "pascal" and r.ok]
    layers["server.coalesced_share"] = mean([r.coalesced != "leader" for r in pascal])
    layers["server.generator_lag_ms"] = mean([r.lag * 1e3 for r in everything])
    service = stats["service"]
    layers["service.latency_p50_ms"] = service["latency_p50"] * 1e3
    layers["service.compile_p50_ms"] = service["compile_p50"] * 1e3
    for key in ("jobs_coalesced", "jobs_queued", "jobs_rejected"):
        layers[f"service.{key}"] = service[key]
    hits, misses = service["store_hits"], service["store_misses"]
    layers["store.hit_rate"] = hits / max(1, hits + misses)
    layers["store.bytes_read"] = service["store_bytes_read"]
    layers["store.bytes_written"] = service["store_bytes_written"]
    layers["store.corrupt"] = service["store_corrupt"]
    increments = [r.incremental for r in everything if r.incremental]
    layers["incremental.regions_evaluated"] = mean([i["regions_evaluated"] for i in increments])
    layers["incremental.reuse_fraction"] = mean(
        [i["regions_reused"] / max(1, i["regions_total"]) for i in increments])
    layers["incremental.validation_rounds"] = mean([i["validation_rounds"] for i in increments])
    layers["incremental.cache_hit_rate"] = sum(i["regions_reused"] for i in increments) / max(
        1, sum(i["regions_total"] for i in increments))
    layers["evaluation.sequential_ms"] = median(
        [seconds * 1e3 for seconds in oracle.sequential_seconds()])
    layers["unaccounted_ms"] = selfs.get("op", 0.0) / max(1, len(tracer.durations("op")))
    layers["trace.overhead_share"] = overhead_share(
        _latencies([r for r in base if r.traced]), _latencies([r for r in base if not r.traced]))
    outcome.tracer = tracer
