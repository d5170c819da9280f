"""The fixed reference loop that ``norm_cost`` and ``setup_s`` divide by.

It uses only the standard library and mixes the operations fimlab spends
its time on: ``Fraction`` arithmetic, tuples of fractions, integer gcds and
dict lookups keyed by tuples.  Timing it next to an operation samples the
machine's current speed, so the ratio of the two times cancels most of the
drift of a shared host.

The loop is ``SLICES`` runs of one fixed slice.  Slices are also sampled
during long operations, because a shared host's speed can change several
times a second.  A variant that also read scattered slots of a 9 MB table tracked
the large-matrix operations no better, and added 10 MB to every process's
peak RSS.

Changing this file changes the unit of ``norm_cost`` and ``setup_s``: a
comparison across a change to it is not valid.
"""

from fractions import Fraction
from math import gcd

SLICE_ITERATIONS = 10
SLICES = 150
# Seconds per loop by definition: ``setup_s`` is set-up cost in loops
# times this.  It is about the loop's time on the 2-vCPU Xeon VM described
# in README.md; changing it rescales ``setup_s``.
LOOP_S = 0.030


def reference_slice() -> int:
    """Run one fixed slice and return a checksum of its work."""
    acc = Fraction(0)
    seen = {}
    for i in range(1, SLICE_ITERATIONS + 1):
        a = Fraction(i % 7 - 3, i % 5 + 1)
        acc += a * a - a / (i % 3 + 1)
        row = tuple(Fraction(j * (i % 4) - 1, j + 1) for j in range(4))
        seen[row] = gcd(i, 360)
    return acc.numerator % 1000003 + len(seen)


def reference_loop() -> int:
    """Run the whole fixed loop once."""
    return sum(reference_slice() for _ in range(SLICES))
