"""Take the host's CPU steal out of a wall-clock interval.

On a shared virtual machine the hypervisor sometimes runs other guests on
this guest's CPUs, and the kernel counts that time as "steal" in
/proc/stat.  On the 2-vCPU guest this benchmark was written on, steal moved
one pass of the same requests from 6.5 s to 12 s within minutes while the
CPU time it used stayed put.

``without_steal`` scales an interval by the share of wanted CPU time that
was not stolen, busy / (busy + steal), summed over all CPUs.  With one busy
CPU this subtracts the steal; with several it does not count one stolen
second per CPU twice.
"""
from __future__ import annotations


def cpu_ticks() -> tuple[int, int]:
    """(busy, steal) ticks of all CPUs since boot."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:9]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal


def without_steal(seconds: float, before: tuple[int, int], after: tuple[int, int]) -> float:
    busy, steal = after[0] - before[0], after[1] - before[1]
    return seconds * busy / (busy + steal) if busy + steal else seconds
