"""Set-up probe: one fresh interpreter, from ``import`` to its first result.

Run by ``run.py`` as a child process.  It reads ``{"source": ...}`` as one JSON
line on stdin, then imports ``repro.api``, builds the Pascal engine, starts a
substrate and compiles the source once, printing one JSON line with the
phase timings and the output.  The parent checks the output and times the
whole probe from process launch.  The probe then waits for stdin to close
before it shuts its substrate down, so tear-down is never part of set-up.

    python3 perfbench/probe.py --substrate processes --machines 2
    python3 perfbench/probe.py --substrate sockets --machines 8 --workers 2 --store DIR
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--substrate", required=True,
                        choices=("threads", "processes", "sockets"))
    parser.add_argument("--machines", type=int, required=True)
    parser.add_argument("--workers", type=int,
                        help="worker hosts of a sockets substrate (required with it)")
    parser.add_argument("--store", default=None,
                        help="store directory; sockets probes open a store-backed document")
    args = parser.parse_args()
    if args.substrate == "sockets" and args.workers is None:
        parser.error("--substrate sockets needs --workers")
    source = json.loads(sys.stdin.readline())["source"]

    started = time.perf_counter()
    import repro.api as api
    imported = time.perf_counter()
    api.engine_for("pascal")
    built = time.perf_counter()
    if args.substrate == "sockets":
        from repro.backends import SocketsSubstrate

        substrate = SocketsSubstrate(workers=args.workers, worker_store=args.store)
        session = api.Session(substrate=substrate).start()
    else:
        substrate = None
        session = api.Session(backend=args.substrate).start()
    ready = time.perf_counter()
    try:
        if args.store is not None:
            document = session.open("pascal", source, machines=args.machines, store=args.store)
            result = document.recompile()
        else:
            result = session.compiler("pascal", machines=args.machines).compile(source)
        done = time.perf_counter()
        print(json.dumps({
            "import_ms": (imported - started) * 1e3,
            "engine_build_ms": (built - imported) * 1e3,
            "session_start_ms": (ready - built) * 1e3,
            "first_compile_ms": (done - ready) * 1e3,
            "errors": list(result.errors),
            "output": result.value,
        }), flush=True)
        sys.stdin.read()
        if args.store is not None:
            document.cache.close()
    finally:
        session.close()
        if substrate is not None:
            substrate.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
