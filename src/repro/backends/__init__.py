"""Execution backends: interchangeable substrates for the parallel compiler.

Four implementations of the same :class:`~repro.backends.base.Substrate` interface:

* ``"simulated"`` — the paper's modelled network multiprocessor (deterministic
  discrete-event simulation, simulated seconds);
* ``"threads"`` — OS threads with ``queue.Queue`` mailboxes;
* ``"processes"`` — forked OS processes with picklable protocol messages over
  ``multiprocessing.Queue``;
* ``"sockets"`` — separate worker host processes over TCP (loopback by default,
  any reachable machine in general), backed by the :mod:`repro.cluster`
  coordinator: consistent-hash sharding, heartbeats, and region reassignment
  that survives killing a worker mid-compile.

There is one lifecycle: :func:`create_substrate` builds a :class:`Substrate` whose
worker pool and mailbox registry survive across compilations, and each compilation
runs as one :class:`Backend` session opened on it.  Pass a started substrate with
``compile_tree(..., substrate=pool)`` (or let :mod:`repro.api`'s ``Session`` or the
:mod:`repro.service` layer own it).  The ``backend="threads"`` string knob of the
compiler is the short form: the compile creates the named substrate, runs its one
session and shuts the substrate down again.
"""

from __future__ import annotations

from typing import List, Optional

from repro.backends.base import (
    Backend,
    BackendError,
    BackendTelemetry,
    Compute,
    Mailbox,
    Receive,
    SharedBundle,
    Substrate,
    WorkerJob,
)
from repro.backends.processes import ProcessesSubstrate
from repro.backends.simulated import SimulatedBackend, SimulatedSubstrate
from repro.backends.sockets import SocketsSubstrate
from repro.backends.threads import ThreadsSubstrate
from repro.runtime.cost import CostModel
from repro.runtime.network import NetworkParameters

#: Names accepted by :func:`create_substrate` and the compiler's ``backend=`` knob.
BACKEND_NAMES = ("simulated", "threads", "processes", "sockets")


def create_substrate(
    name: str,
    workers: int = 0,
    network: Optional[NetworkParameters] = None,
    cost_model: Optional[CostModel] = None,
    machine_speeds: Optional[List[float]] = None,
    receive_timeout: Optional[float] = None,
) -> Substrate:
    """Instantiate the persistent (pooled) substrate called ``name``.

    ``workers`` is the initial pool size for the real substrates (both grow on demand
    so a compilation's whole worker batch always runs concurrently); the simulated
    substrate pools nothing and simply hands out fresh deterministic clusters.
    Remember to ``start()`` it (or use a ``with`` block) and ``shutdown()`` when done.
    """
    if name == "simulated":
        return SimulatedSubstrate(
            network=network, cost_model=cost_model, machine_speeds=machine_speeds
        )
    if name == "threads":
        return ThreadsSubstrate(workers=workers, receive_timeout=receive_timeout)
    if name == "processes":
        return ProcessesSubstrate(workers=workers, receive_timeout=receive_timeout)
    if name == "sockets":
        return SocketsSubstrate(workers=workers, receive_timeout=receive_timeout)
    raise ValueError(f"unknown substrate {name!r}; choose from {BACKEND_NAMES}")


__all__ = [
    "Backend",
    "BackendError",
    "BackendTelemetry",
    "BACKEND_NAMES",
    "Compute",
    "Mailbox",
    "ProcessesSubstrate",
    "Receive",
    "SharedBundle",
    "SimulatedBackend",
    "SimulatedSubstrate",
    "SocketsSubstrate",
    "Substrate",
    "ThreadsSubstrate",
    "WorkerJob",
    "create_substrate",
]
