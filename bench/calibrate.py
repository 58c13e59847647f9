"""A fixed reference loop, timed between operations, that takes the
machine's changing speed out of the reported times.

On a shared machine the speed of one core can change by a factor of two
within seconds, as other tenants load the host.  The reference loop does
the same kind of work as the program (exact rational arithmetic, tuple
keys, dict lookups) but never calls it, so its time follows the machine
alone.  A calibrated time is a wall time multiplied by NOMINAL_S over the
reference loop's time measured around it: the time the work would take on
a machine that runs the loop in NOMINAL_S seconds.
"""

import time
from fractions import Fraction

NOMINAL_S = 0.02

_VALUES = [Fraction(n, d) for n in range(-9, 10) for d in (1, 2, 3, 5)]


def reference_s():
    """Wall seconds of one run of the reference loop."""
    t0 = time.monotonic()
    table = {}
    acc = Fraction(0)
    for i, v in enumerate(_VALUES * 20):
        key = (i % 7, i % 11)
        prev = table.get(key)
        table[key] = v if prev is None else prev * v + v
        acc += table[key] * _VALUES[(i * 5) % len(_VALUES)]
    return time.monotonic() - t0
