"""Peak resident memory of a process tree, read from ``/proc``."""

from __future__ import annotations

import os


def _status(pid: int) -> dict:
    fields = {}
    try:
        with open(f"/proc/{pid}/status", encoding="ascii", errors="replace") as handle:
            for line in handle:
                key, _, value = line.partition(":")
                fields[key] = value.strip()
    except OSError:
        pass
    return fields


def descendants(pid: int) -> list[int]:
    """Every live descendant of ``pid``."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            parent = _status(int(entry)).get("PPid")
            if parent is not None:
                children.setdefault(int(parent), []).append(int(entry))
    found, stack = [], [pid]
    while stack:
        for child in children.get(stack.pop(), ()):
            found.append(child)
            stack.append(child)
    return found


def tree_peak_rss_kib(pid: int) -> int:
    """Sum of ``VmHWM`` over ``pid`` and its live descendants, in KiB."""
    total = 0
    for member in [pid, *descendants(pid)]:
        value = _status(member).get("VmHWM", "0 kB").split()[0]
        total += int(value)
    return total
