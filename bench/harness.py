"""Op runner shared by every workload: per-op deadline, failure kinds, percentiles.

An op is one call into the program.  Ops run one at a time (a closed loop with
a single caller); each is interrupted by SIGALRM once it exceeds the per-op
deadline, and a timed-out op counts as failed with its latency set to the
deadline.  Correctness checks run after a pass, outside the timed region.
"""

from __future__ import annotations

import bisect
import json
import math
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

# The slowest healthy op (identification of C_140(1,3)) takes about 3 s on a
# 2-core machine with mpmath's pure-Python backend; the deadline leaves a
# margin of more than two times that.
DEADLINE_S = 8.0

# Failure kinds.  Raised exceptions are reported as "raised:<ExceptionType>".
DEADLINE = "deadline"
WRONG_ANSWER = "wrong-answer"
INVALID_JSON = "invalid-json"

# Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


class DeadlineExceeded(BaseException):
    """Raised by the SIGALRM handler inside an op that ran past its deadline.

    A BaseException so that `except Exception` blocks in the program cannot
    swallow it.
    """


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@contextmanager
def deadline_handler():
    """Install the SIGALRM handler for op deadlines; restore the previous one on exit."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Outcome:
    """One executed op: latency in seconds, failure kind at call time (or None), result."""

    latency: float
    kind: str | None
    result: Any = None


def run_op(call: Callable[[], Any], deadline: float, mp, on_leak=None) -> Outcome:
    """Run one op under the deadline and restore mpmath's working precision afterwards.

    `mp` is mpmath's global context.  If the op leaves a different working
    precision behind, it is reset and `on_leak` (when given) is called.
    """
    prec = mp.prec
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline)
            result = call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        outcome = Outcome(deadline, DEADLINE)
    except Exception as exc:  # any program error is a counted failure, not a crash
        outcome = Outcome(time.perf_counter() - start, f"raised:{type(exc).__name__}")
    else:
        outcome = Outcome(time.perf_counter() - start, None, result)
    if mp.prec != prec:
        mp.prec = prec
        if on_leak is not None:
            on_leak()
    return outcome


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str) -> Any:
    """Parse JSON as RFC 8259 defines it: NaN, Infinity and bare `inf` are rejected."""
    return json.loads(text, parse_constant=_reject_constant)


def _rank(p: float, count: int) -> int:
    """1-based nearest rank of percentile p among count samples, in exact arithmetic."""
    return max(1, math.ceil(Fraction(str(p)) * count / 100))


def tail_percentile(count: int) -> float | None:
    """Highest ladder percentile with at least TAIL_MIN_BEYOND samples beyond its nearest rank."""
    for p in TAIL_LADDER:
        if count - _rank(p, count) >= TAIL_MIN_BEYOND:
            return p
    return None


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    return sorted(values)[_rank(p, len(values)) - 1]


# ---------------------------------------------------------------- host speed

# The benchmark's host is a share of a machine whose speed drifts by up to
# 1.8x within a minute (other tenants, frequency changes), and the drift slows
# CPU time as much as wall time.  A fixed pure-Python task, the probe, is timed
# between ops; each op's latency is divided by the probe's median time around
# it and multiplied by PROBE_REF_S, giving the latency at a reference speed.
# PROBE_REF_S is a constant that only sets the scale: the probe's typical time
# on a 2-vCPU Xeon host, so reference seconds read close to seconds there.
PROBE_REF_S = 0.005
PROBE_EVERY_S = 0.1  # probe before an op when the last probe is older than this
PROBE_WINDOW_S = 0.5  # probes this close to an op set its speed


def probe_task() -> int:
    """Fixed work shaped like the program's: big-integer arithmetic and an interpreter loop."""
    x = 1
    for i in range(2400):
        x = (x * 1234567891011 + i) % (1 << 3000)
    counts: dict[int, int] = {}
    total = 0
    for i in range(16000):
        counts[i & 255] = counts.get(i & 255, 0) + i
        total += i * i
    return x + total + len(counts)


class SpeedProbe:
    """Timed runs of probe_task, and op latencies rescaled to the reference speed."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.wall = 0.0  # time spent probing, to leave out of pass times
        self.cpu = 0.0

    def run(self, times: int = 1) -> None:
        for _ in range(times):
            cpu0 = time.process_time()
            start = time.perf_counter()
            probe_task()
            duration = time.perf_counter() - start
            self.starts.append(start)
            self.durations.append(duration)
            self.wall += duration
            self.cpu += time.process_time() - cpu0

    def due(self) -> None:
        """Probe when the last probe is older than PROBE_EVERY_S."""
        if not self.starts or time.perf_counter() - self.starts[-1] >= PROBE_EVERY_S:
            self.run()

    def speed(self, start: float, end: float) -> float:
        """Median probe time within PROBE_WINDOW_S of [start, end]; the nearest probes if none."""
        lo = bisect.bisect_left(self.starts, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + PROBE_WINDOW_S)
        if lo == hi:
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        return statistics.median(self.durations[lo:hi])

    def to_reference(self, latency: float, start: float) -> float:
        """An op's latency at the reference speed."""
        return latency * PROBE_REF_S / self.speed(start, start + latency)
