"""Peak memory of a whole process tree, sampled from ``/proc``.

Runs as a child process so that sampling never holds the measured
process's interpreter lock:

    python3 perfbench/rss.py <pid> <interval-seconds>

It samples ``<pid>`` and all its descendants (itself excluded) until its
stdin closes, then prints the peak in bytes.  A sample is the sum of the
processes' proportional set sizes, so pages they share count once.
"""

from __future__ import annotations

import os
import sys
import threading
from typing import Dict, List


def children_by_parent() -> Dict[int, List[int]]:
    """Every running process's pid, grouped by its parent's pid."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        parent = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(parent, []).append(int(entry))
    return children


def tree_rss_bytes(root: int, skip: int = -1) -> int:
    """Memory of ``root`` and all its descendants except ``skip``, in bytes."""
    children = children_by_parent()
    members, frontier = [root], [root]
    while frontier:
        kids = children.get(frontier.pop(), [])
        members.extend(kids)
        frontier.extend(kids)
    return sum(_pss_bytes(pid) for pid in members if pid != skip)


def _pss_bytes(pid: int) -> int:
    """Proportional set size of ``pid``: each shared page split among its users.

    Forked pool workers share copy-on-write pages with their parent; plain
    resident size would count those once per worker.  Falls back to resident
    size (``statm``) where ``smaps_rollup`` is missing.
    """
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    try:
        with open(f"/proc/{pid}/statm") as handle:
            return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        return 0


def main() -> int:
    root, interval = int(sys.argv[1]), float(sys.argv[2])
    stop = threading.Event()
    threading.Thread(target=lambda: (sys.stdin.read(), stop.set()), daemon=True).start()
    peak = 0
    while True:
        peak = max(peak, tree_rss_bytes(root, skip=os.getpid()))
        if stop.wait(interval):
            break
    print(peak, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
