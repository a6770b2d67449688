"""Machine speed, sampled inside a campaign process while it runs.

On a shared host the speed of a small virtual machine drifts by ±25%
over minutes as other tenants load the host, and a campaign slows with
it.  :func:`start` arms a timer that every ``INTERVAL_S`` of the
process's CPU time interrupts the campaign and times one of two fixed
probes, in turn: a pure-Python integer loop, which slows when the CPU
is shared, and a loop of scattered reads from an 8 MiB buffer, which
slows when the cache and memory are.  Neither allocates a container,
so they never trigger the program's garbage collector, and neither
uses repository code, so no change to the program can move them.
Sampled on the same CPU at the same moments as the campaign, the
probes slow with it.

:class:`Probes` splits the samples at :meth:`Probes.mark` into phases.
A phase's time, less the probes taken inside it, is scaled to the speed
at which each probe takes its reference time.

The buffer is allocated when this module is imported, so that a
process can import it before its set-up clock starts.
"""

from __future__ import annotations

import signal
import statistics
import time

# loop lengths, and each probe's time at the reference speed: about its
# time on an unloaded 2-vCPU x86 container
ALU_STEPS = 4000
ALU_REFERENCE_S = 0.00034
READ_STEPS = 1500
READ_REFERENCE_S = 0.00045
# process CPU seconds between probes; about 4% of a campaign is probes
INTERVAL_S = 0.01

BUFFER_MB = 8
_BUFFER = bytearray(b"\x01") * (BUFFER_MB << 20)
_MASK = len(_BUFFER) - 1


def _alu():
    x = 0
    for i in range(ALU_STEPS):
        x = (x * 31 + i) & 0xFFFF


def _read():
    x = 0
    buffer, mask = _BUFFER, _MASK
    for i in range(READ_STEPS):
        # a multiplicative hash scatters the reads over the whole buffer
        x += buffer[(i * 2654435761) & mask]


class Probes:
    """Probe timings of one process, in phases."""

    def __init__(self):
        self.samples = ([], [])  # (alu, read) timings
        self._turn = 0
        self._phases = [(0, 0)]

    def _probe(self, signum, frame):
        turn = self._turn
        self._turn = 1 - turn
        clock = time.perf_counter
        started = clock()
        (_alu, _read)[turn]()
        self.samples[turn].append(clock() - started)

    def mark(self):
        """End the current phase; later probes belong to the next."""
        self._phases.append(tuple(len(s) for s in self.samples))

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)
        self.mark()

    def phase(self, index):
        """(probe seconds, scale to the reference speed) of a phase."""
        start, end = self._phases[index], self._phases[index + 1]
        alu = self.samples[0][start[0]:end[0]]
        read = self.samples[1][start[1]:end[1]]
        slowdown = (
            statistics.mean(alu) / ALU_REFERENCE_S
            + statistics.mean(read) / READ_REFERENCE_S
        ) / 2.0
        return sum(alu) + sum(read), 1.0 / slowdown


def start():
    """Arm the probe timer for this process; returns its :class:`Probes`."""
    probes = Probes()
    signal.signal(signal.SIGPROF, probes._probe)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
    return probes
