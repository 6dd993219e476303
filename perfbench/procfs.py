"""Process accounting for the daemon tree from ``/proc`` (no psutil).

A snapshot holds, per live process of the tree (the daemon plus the
pool workers it forked), its CPU time in milliseconds (``utime +
stime`` from ``/proc/<pid>/stat``) and its peak resident set
(``VmHWM`` from ``/proc/<pid>/status``).
"""

from __future__ import annotations

import os
from pathlib import Path

_TICK_MS = 1000.0 / os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name is parenthesised and may hold spaces.
    return text[text.rindex(")") + 2 :].split()


def children(pid: int) -> list[int]:
    """Direct children of ``pid``, by scanning ``/proc/*/stat``."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        fields = _stat_fields(int(entry.name))
        if fields is not None and int(fields[1]) == pid:
            found.append(int(entry.name))
    return sorted(found)


def alive(pid: int) -> bool:
    """Whether ``pid`` exists and has not exited (zombies have)."""
    fields = _stat_fields(pid)
    return fields is not None and fields[0] not in ("Z", "X")


def cpu_ms(pid: int) -> float | None:
    fields = _stat_fields(pid)
    if fields is None:
        return None
    # Fields 14 and 15 of stat (utime, stime); fields[0] is field 3.
    return (int(fields[11]) + int(fields[12])) * _TICK_MS


def peak_rss_kb(pid: int) -> int | None:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        return None
    return None


def snapshot(daemon_pid: int) -> dict[int, dict]:
    """``{pid: {"role", "cpu_ms", "hwm_kb"}}`` for the daemon tree."""
    tree = {daemon_pid: "daemon"}
    tree.update({pid: "worker" for pid in children(daemon_pid)})
    out = {}
    for pid, role in tree.items():
        cpu = cpu_ms(pid)
        if cpu is not None:
            out[pid] = {"role": role, "cpu_ms": cpu, "hwm_kb": peak_rss_kb(pid) or 0}
    return out


def cpu_split(before: dict[int, dict], after: dict[int, dict]) -> dict[str, float]:
    """CPU milliseconds spent between two snapshots, per role.  A
    process that appeared in between counts from zero."""
    spent = {"daemon": 0.0, "worker": 0.0}
    for pid, now in after.items():
        start = before.get(pid, {}).get("cpu_ms", 0.0)
        spent[now["role"]] += max(0.0, now["cpu_ms"] - start)
    return spent


def cpu_times() -> list[int]:
    """The machine-wide ``cpu`` line of ``/proc/stat`` (clock ticks:
    user, nice, system, idle, iowait, irq, softirq, steal, ...)."""
    with open("/proc/stat") as stat:
        return [int(value) for value in stat.readline().split()[1:]]


def steal_fraction(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests between
    two :func:`cpu_times` readings."""
    deltas = [b - a for a, b in zip(before, after)]
    total = sum(deltas[:8])
    return deltas[7] / total if total > 0 and len(deltas) > 7 else 0.0


def peak_rss_mb(after: dict[int, dict]) -> float:
    """Summed ``VmHWM`` of the tree, in MiB."""
    return sum(entry["hwm_kb"] for entry in after.values()) / 1024.0
