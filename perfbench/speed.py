"""Machine-speed probe: rescales measured times to a reference machine speed.

The benchmark runs on shared virtual machines whose speed drifts by tens of
percent within minutes (a fixed pure-Python loop took 0.15-0.25 s within one
minute, with process CPU time tracking wall time). The drift between runs,
not the work in a run, then decides how far the throughput of one run is
from the next, and no length of run averages it away.

The probe measures the drift where it happens: a SIGALRM timer interrupts
the measured process every INTERVAL_S and runs a fixed pure-Python kernel
that touches nothing of wl2link. The kernel's mean duration over an
interval, divided by NOMINAL_S, is the machine's slowdown over that
interval. A time divided by its interval's slowdown is in reference
seconds: what it would have been on a machine that runs the kernel in
NOMINAL_S. ``clock()`` leaves out the time spent in the probe itself.

Only the main thread may use the probe (signal handlers run there), and
nothing else in the process may use SIGALRM while it runs.
"""

import signal
import statistics
import time

INTERVAL_S = 0.05
# the kernel's shortest duration, alone, on the 2-core x86-64 VM of
# perfbench/README.md: a reference second is a second of a machine that runs
# the kernel in this time
NOMINAL_S = 0.00125

# The kernel allocates one list and nothing else the garbage collector
# tracks: a kernel that did would pay for collections of the workload's
# objects, and measure the workload's heap along with the machine.
_KEYS = [(i % 61, (i * 7) % 67) for i in range(3000)]
_TABLE = {key: i for i, key in enumerate(_KEYS)}


def kernel():
    """Tuple hashing, dict lookups and a sort of tuples: the mix wl2link's
    refinement runs on, in pure Python."""
    table, total = _TABLE, 0
    for key in _KEYS:
        total += table[key] & 7
    for key in _KEYS:
        if key in table:
            total += 1
    return total + len(sorted(_KEYS))


class SpeedProbe:
    def __init__(self):
        self.samples = []  # kernel durations, in the order taken
        self.spent = 0.0  # seconds spent in the probe
        self._previous = None

    def sample(self, *_):
        t = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t)
        self.spent += time.perf_counter() - t

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self):
        """time.perf_counter() without the time spent in the probe."""
        return time.perf_counter() - self.spent

    def mark(self):
        """Position for slowdown(): samples taken from here on."""
        return len(self.samples)

    def slowdown(self, since=0, until=None):
        """Mean slowdown over the samples taken between two marks. An
        interval without a sample takes one now."""
        if len(self.samples[since:until]) == 0:
            self.sample()
            since, until = len(self.samples) - 1, None
        return statistics.fmean(self.samples[since:until]) / NOMINAL_S
