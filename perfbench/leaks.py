"""Operating-system resources a run leaves behind, as the OS reports them.

A snapshot lists this process's child processes (from ``/proc``), its open
sockets (from ``/proc/self/fd``) and the ``/dev/shm/repro_*`` segments.
Whatever a later snapshot holds that an earlier one did not has leaked.
"""

from __future__ import annotations

import os
from typing import Dict, FrozenSet


def _children() -> FrozenSet[str]:
    me = os.getpid()
    found = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesized command name.
        fields = stat[stat.rfind(")") + 2 :].split()
        if len(fields) > 1 and int(fields[1]) == me:
            found.add(entry)
    return frozenset(found)


def _sockets() -> FrozenSet[str]:
    found = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith("socket:"):
            found.add(target)
    return frozenset(found)


def _segments() -> FrozenSet[str]:
    try:
        return frozenset(n for n in os.listdir("/dev/shm") if n.startswith("repro_"))
    except FileNotFoundError:
        return frozenset()


def snapshot() -> Dict[str, FrozenSet[str]]:
    return {
        "child_processes": _children(),
        "sockets": _sockets(),
        "shm_segments": _segments(),
    }


def leaked(before: Dict, after: Dict) -> Dict[str, FrozenSet[str]]:
    """Resources present in *after* but not in *before*, by kind."""
    return {kind: after[kind] - before[kind] for kind in after}


def peak_rss_mib(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0
