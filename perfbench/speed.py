"""CPU time of a round at a fixed reference speed of the machine.

The shared, virtualised host this benchmark runs on changes speed by ±20%
within seconds, and by up to 2.6x between quiet and busy periods, with
little steal time to show for it: CPU time slows down with the wall clock.
So a round times the program in CPU seconds of its one thread (which leaves
out steal and waiting for a core), and every PROBE_GAP_S of CPU time it runs
a fixed probe of the benchmark's own, a pure-Python loop, and times it.
Each stretch of program time between two probes is scaled by PROBE_REF_S
over the mean of the probes at its ends, so a figure reads as the CPU
seconds the program would take at the speed where a probe takes
PROBE_REF_S.  The probe is benchmark code, the same on every commit, and
its own time is left out of every figure.

Of the probes tried (the loop, random gathers from an 8 MiB table, cold and
warm, a binary search over 256 Ki keys, and sums of these), the loop tracked
qrmix's speed best: over 14 rounds of `recurrence-sampled` and 28 of
`exact-dense`, taken in turn while the machine was busy, the rounds' CPU
times spread by 16% and 12% (coefficient of variation), and by 3.6% on both
once scaled by the loop.

The thread's CPU clock is used because the process clock, while a process
CPU-time interval timer runs, reads in whole scheduler ticks (4 ms on the machine this was built on).
The program runs single-threaded (one BLAS thread), so the two agree.
"""

from __future__ import annotations

import signal
import statistics
import time

# the reference speed: the one at which a probe takes this much CPU time
PROBE_REF_S = 0.0015
# CPU time between two probes: about 3% of a round goes to probing
PROBE_GAP_S = 0.1


def probe():
    """CPU seconds of a fixed pure-Python loop."""
    start = time.thread_time()
    total = 0
    for i in range(30_000):
        total ^= i * 7
    return time.thread_time() - start


class SpeedClock:
    """Program CPU time of this thread, probed every PROBE_GAP_S of CPU time.

    Mark 0, with a probe, is made with the clock.  Between `start` and
    `stop` a CPU-time interval timer (SIGPROF) adds a probed mark every
    PROBE_GAP_S, so the probes sample the round evenly in time however long
    the program's calls are.  Python runs the handler between bytecodes, so
    it never interrupts the program inside a numpy call.  With probing off
    the clock only records unscaled CPU time.
    """

    def __init__(self, probing=True):
        self.probing = probing
        self.marks = []  # [program CPU s, probe CPU s or None]
        self._offset = time.thread_time()
        self._busy = False
        self.mark()

    def program_cpu(self):
        return time.thread_time() - self._offset

    def start(self):
        if self.probing:
            signal.signal(signal.SIGPROF, self._on_timer)
            signal.setitimer(signal.ITIMER_PROF, PROBE_GAP_S, PROBE_GAP_S)

    def stop(self):
        if self.probing:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def _on_timer(self, signum, frame):
        if not self._busy:  # the timer also runs during a probe
            self.mark()

    def mark(self):
        """Record the program CPU time so far and probe; returns the mark's index."""
        self._busy = True
        now = self.program_cpu()
        probe_s = None
        if self.probing:
            before = time.thread_time()
            probe_s = probe()
            self._offset += time.thread_time() - before
        self.marks.append([now, probe_s])
        self._busy = False
        return len(self.marks) - 1

    def raw(self, a, b):
        """Program CPU seconds between marks a and b."""
        return self.marks[b][0] - self.marks[a][0]

    def scaled(self, a, b):
        """Program CPU seconds between marks a and b at the reference speed."""
        total = 0.0
        for i in range(a, b):
            ends = statistics.fmean((self.marks[i][1], self.marks[i + 1][1]))
            total += (self.marks[i + 1][0] - self.marks[i][0]) * PROBE_REF_S / ends
        return total

    def probes(self):
        return [m[1] for m in self.marks if m[1] is not None]
