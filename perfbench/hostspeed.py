"""The speed of this thread on the host, sampled while the benchmark runs.

On a shared virtual machine one thread's speed is not constant.  A fixed
loop of pure Python takes either about 6 us or about 10 us, and the share of
the slow state drifts over seconds to minutes; at heavy load even the fast
state slows.  A pass timed in a slow stretch reads up to twice as long as
the same pass in a fast one, whatever the code does.

``Sampler`` measures the host's speed during the timed calls themselves.
While it is active, SIGALRM fires every ``INTERVAL`` seconds, and its handler
times a fixed loop of ``SPIN`` iterations, after ``WARM`` untimed ones that
bring the loop back into cache.  The handler runs in the main thread between
bytecodes, so it samples the moments at which the timed Python code runs.
It patches nothing, and its own time is taken out of each operation's time.

An operation's slowness is the mean of its samples over ``REFERENCE_NS``,
and its time at reference speed is its measured time over its slowness:
the time it would take on a host where the loop takes ``REFERENCE_NS``.
A sample counts at most ``CAP`` times the reference: one that took longer
was interrupted (the thread was descheduled), and the samples cover well
under 1% of the time, so a single interruption would otherwise weigh a
hundred times more in the mean than in the operation's own time.
"""
from __future__ import annotations

import signal
from contextlib import contextmanager
from time import perf_counter_ns

INTERVAL = 0.002  # seconds between samples
WARM = 100  # untimed iterations before each sample
SPIN = 150  # timed iterations
# The loop's time in the fast state on the 2-core Xeon virtual machine the
# benchmark's bounds were set on.  It only fixes the unit: any constant
# gives times that compare across runs.
REFERENCE_NS = 6000.0
CAP = 3.0


def _spin(n: int) -> int:
    s = 0
    for i in range(n):
        s += i * i % 7
    return s


class Sampler:
    def __init__(self):
        self.samples: list[int] = []  # ns per timed loop
        self.handler_ns = 0  # time spent in the handler, samples included

    def _handler(self, signum, frame) -> None:
        t0 = perf_counter_ns()
        _spin(WARM)
        t1 = perf_counter_ns()
        _spin(SPIN)
        t2 = perf_counter_ns()
        self.samples.append(t2 - t1)
        self.handler_ns += perf_counter_ns() - t0

    @contextmanager
    def sampling(self):
        """Sample while the block runs; the previous SIGALRM handler and an
        idle interval timer are restored on exit."""
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> tuple[int, int]:
        return len(self.samples), self.handler_ns

    def since(self, mark: tuple[int, int]) -> tuple[list[int], float]:
        """Samples taken since ``mark``, and the seconds the handler used."""
        count, handler_ns = mark
        return self.samples[count:], (self.handler_ns - handler_ns) / 1e9


def slowness(samples: list[int]) -> float:
    cap = CAP * REFERENCE_NS
    return sum(min(x, cap) for x in samples) / len(samples) / REFERENCE_NS


def at_reference_speed(seconds: float, samples: list[int]) -> float:
    """``seconds`` measured while ``samples`` were taken, scaled to the
    reference speed; unchanged when no sample was taken."""
    return seconds / slowness(samples) if samples else seconds
