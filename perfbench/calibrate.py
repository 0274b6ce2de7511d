"""The speed of the CPU the benchmark runs on, sampled alongside the work.

The benchmark runs on a shared virtual machine whose CPU speed changes
often and by a lot: the same fixed loop runs at two speeds about 1.7 times
apart, switching within seconds, and the mix of the two drifts over
minutes.  A long operation averages over that mix, so its time follows the
mix, not the program alone.  The benchmark therefore pins itself and its
children to one CPU and, while it waits for a child, times a short fixed
slice of work twice a second on that CPU.  The operations' times are
reported scaled to ``REFERENCE_S``: a time that reads ``t`` while the
slices take ``c`` on average is reported as ``t * REFERENCE_S / c``.

The slice belongs to the benchmark, not to the program under test, so no
change to the program moves it.  It does the kind of work the program does:
dictionary look-ups of tuples of small integers, over all of S_7.
"""

from __future__ import annotations

import itertools
import statistics
import time

# The mean slice time on the machine the benchmark was written on (an Intel
# Xeon at 2.0 GHz, two vCPUs of a shared Firecracker VM), so that scaled
# times there read close to wall times.
REFERENCE_S = 0.006
# Seconds between two slices while the benchmark waits for a child.
EVERY_S = 0.5

_PERMS = list(itertools.permutations(range(7)))
_INDEX = {w: i for i, w in enumerate(_PERMS)}
# Swapping two letters permutes S_7, so each of the two swaps below sums
# the indices 0 + ... + 7! - 1 once.
CHECKSUM = 2 * sum(range(len(_PERMS)))


def one_slice() -> float:
    """CPU seconds that the fixed slice of work takes now.  CPU time, not
    wall time, because a child sharing the CPU may run in the middle of it."""
    start = time.thread_time()
    total = 0
    for w in _PERMS:
        total += _INDEX[(w[1], w[0], *w[2:])] + _INDEX[(*w[:5], w[6], w[5])]
    elapsed = time.thread_time() - start
    if total != CHECKSUM:
        raise AssertionError(f"calibration slice summed to {total}, not {CHECKSUM}")
    return elapsed


class Sampler:
    """Slices taken about every ``EVERY_S`` seconds over a run."""

    def __init__(self) -> None:
        self.slices = [one_slice()]
        self.last = time.monotonic()

    def due_in(self) -> float:
        return self.last + EVERY_S - time.monotonic()

    def sample(self) -> None:
        self.slices.append(one_slice())
        self.last = time.monotonic()

    def scale(self) -> float:
        """The factor that turns times measured during the run into
        reference seconds: the mean slice, trimmed of its slowest and
        fastest tenth, against ``REFERENCE_S``."""
        ordered = sorted(self.slices)
        cut = len(ordered) // 10
        return REFERENCE_S / statistics.fmean(ordered[cut : len(ordered) - cut])
