"""Speed calibration: wall time corrected for what other tenants take from the CPU.

On a shared host the same code runs up to 1.8 times slower while another
tenant loads the machine, in stretches of seconds to minutes.  A
``Speedometer`` measures that from inside the process: every ``PERIOD_S`` of
wall time a SIGALRM handler times two fixed reference loops, one in pure
Python (small tuples, lists and dicts, scalar float arithmetic) and, once
the worker has imported numpy, one over small numpy arrays, the way
interpreter-bound numerical code runs.  A tick's slowdown is the mean of each
loop's duration over its nominal duration.  Over a window of the program's
own time (the handler's time is taken out), the calibrated time is

    sum over the segments between ticks of  segment / slowdown

where ``slowdown`` is that of the tick that ends the segment.  It reads in
seconds at the speed at which the loops take their nominal durations, about
the unloaded speed of the 2-core Xeon the benchmark was defined on.  A
change to the program moves the segments but not the loops, so it moves the
calibrated time in proportion.

The module imports nothing outside the standard library, so that a worker
can start it before it imports numpy, scipy and effham, and time that too.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.025
NOMINAL_PYTHON_S = 200e-6
NOMINAL_NUMPY_S = 250e-6


def python_loop(n: int = 400) -> float:
    total = 0.0
    for i in range(n):
        row = (i, 0.5 * i, 2.0)
        cell = [row[0] * 0.25, row[1], row[2]]
        total += sum({"cell": cell}["cell"])
    return total


def numpy_loop(np, n: int = 100) -> float:
    total = 0.0
    for i in range(n):
        row = np.array([i, 0.5, 2.0])
        total += float((row * row).sum())
    return total


class Speedometer:
    """Ticks of the reference loops on SIGALRM; see the module docstring."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.ticks = []   # (start, end, slowdown, handler CPU seconds)
        self._np = None
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def use_numpy(self, np) -> None:
        """Add the numpy loop; call it once numpy is fully imported."""
        self._np = np

    def _tick(self, signum, frame) -> None:
        cpu0 = time.process_time()
        start = time.perf_counter()
        python_loop()
        end = time.perf_counter()
        slowdown = (end - start) / NOMINAL_PYTHON_S
        if self._np is not None:
            numpy_loop(self._np)
            mid, end = end, time.perf_counter()
            slowdown = (slowdown + (end - mid) / NOMINAL_NUMPY_S) / 2.0
        self.ticks.append((start, end, slowdown, time.process_time() - cpu0))

    def window(self, start: float, end: float) -> dict:
        """Program time, handler CPU time and calibrated time in [start, end].

        ``start`` and ``end`` are perf_counter readings of the main thread, so
        no tick straddles them.  The tail after the last tick in the window
        takes the slowdown of the first tick after it, or of the last before.
        """
        program = calibrated = handler_cpu = 0.0
        cursor, slowdown = start, None
        for t0, t1, slow, cpu in self.ticks:
            slowdown = slow
            if t1 <= start:
                continue
            if t0 >= end:
                break
            program += t0 - cursor
            calibrated += (t0 - cursor) / slow
            handler_cpu += cpu
            cursor = t1
        if slowdown is None:
            raise RuntimeError("no reference tick recorded; window too short")
        program += end - cursor
        calibrated += (end - cursor) / slowdown
        return {"program_s": program, "calibrated_s": calibrated,
                "handler_cpu_s": handler_cpu}
