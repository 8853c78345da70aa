"""A clock that counts seconds at a fixed reference speed of the machine.

On a shared virtual machine the same pure-Python computation runs up to 1.7x
slower for seconds to tens of seconds at a time, because of load outside the
machine. ``ScaledClock`` samples that speed every ``INTERVAL`` seconds (on
SIGALRM) by timing a fixed kernel, and advances by ``elapsed * REFERENCE_S /
kernel_seconds``, with the median of the last ``WINDOW`` kernel timings. Like jwcat, the kernel is interpreted Python doing
small-integer arithmetic, object creation and dict updates, so a speed change
of the machine slows both alike, while a change to jwcat moves only jwcat.
The kernel's own time is left out of the scaled time.

Imports only builtin modules, so a fresh interpreter can start the clock
before it loads anything jwcat needs.
"""

import _signal
import time

# Kernel seconds that count as one reference second's worth of speed: the
# kernel's typical time on the machine the baseline was measured on.
REFERENCE_S = 0.0005
INTERVAL = 0.02
# Kernel samples per speed estimate (their median): the speed drifts over
# seconds, a single 0.5 ms sample is noisy.
WINDOW = 5


class _Q:
    __slots__ = ("n", "d")

    def __init__(self, n, d):
        self.n = n
        self.d = d

    def add(self, other):
        n = self.n * other.d + other.n * self.d
        d = self.d * other.d
        a, b = n, d
        while b:
            a, b = b, a % b
        return _Q(n // a, d // a)


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    acc = _Q(0, 1)
    counts = {}
    for i in range(1, 300):
        acc = acc.add(_Q(1, i % 13 + 1))
        counts[i % 31] = counts.get(i % 31, 0) + acc.d % 7
    return time.perf_counter() - t0


class ScaledClock:
    """Context manager; ``now()`` reads scaled seconds while it is active.

    Owns SIGALRM and the real-time interval timer while active.
    """

    def __enter__(self):
        self.total = 0.0
        self.ticks = 0
        self._samples = sorted(kernel_seconds() for _ in range(WINDOW))
        self._speed = REFERENCE_S / self._samples[WINDOW // 2]
        self._last = time.perf_counter()
        self._old_handler = _signal.signal(_signal.SIGALRM, self._tick)
        _signal.setitimer(_signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        _signal.setitimer(_signal.ITIMER_REAL, 0, 0)
        _signal.signal(_signal.SIGALRM, self._old_handler)

    def _tick(self, signum, frame):
        if self.ticks < 0:
            return      # a tick arriving while the last one still runs
        t = time.perf_counter()
        ticks, self.ticks = self.ticks, -1
        self._samples.pop(0)
        self._samples.append(kernel_seconds())
        self._speed = REFERENCE_S / sorted(self._samples)[WINDOW // 2]
        self.total += (t - self._last) * self._speed
        self._last = time.perf_counter()
        self.ticks = ticks + 1

    def now(self) -> float:
        while True:     # retry if a tick landed while reading
            ticks = self.ticks
            value = self.total + (time.perf_counter() - self._last) * self._speed
            if ticks == self.ticks:
                return value
