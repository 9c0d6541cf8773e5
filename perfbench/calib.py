"""The calibration kernel: a fixed piece of pure-Python work that measures how
fast the machine is running at the moment.

On a shared host the same `verify` takes 11 ms in one minute and 21 ms in
the next, while the time of this kernel, run next to it, moves with it: their
ratio stays within a few per cent (see README.md). The gated times are
therefore given in calibration units: the program's mean wall time divided
by the mean time of one kernel call, the kernel run right after each piece
of measured work, in the same process.

The kernel imports nothing from `twistcong` and must never change: a change
to it changes every calibrated figure.
"""
from __future__ import annotations

import time
from fractions import Fraction

# share of the measured time spent again on the kernel right after it,
# unless the caller asks for another
SHARE = 0.1
# one kernel call on the reference host: a time in calibration units times
# this is the time in seconds the work would take there (setup_s)
REFERENCE_KERNEL_S = 0.001


def kernel() -> int:
    """Under a millisecond of the kinds of work the program does: Fraction
    sums of products with growing big-integer numerators and denominators,
    modular integer arithmetic, dict and list traffic, small calls."""
    acc = Fraction(0)
    for i in range(1, 40):
        acc += Fraction(i, i * i + 7) * Fraction(3, 5 + i % 7)
    table: dict[int, int] = {}
    s = 0
    for i in range(1200):
        s = (s * 31 + i) % 1000000007
        table[i % 37] = table.get(i % 37, 0) + s
    rows = sorted(table.values())
    return acc.numerator % 97 + acc.denominator % 89 + rows[-1] % 83


class Calibration:
    """Runs the kernel after each timed piece of work and keeps the tally."""

    def __init__(self):
        self.seconds = 0.0
        self.calls = 0

    def after(self, work_s: float, share: float = SHARE) -> None:
        """Run the kernel for about `share` of `work_s`, at least once."""
        start = time.perf_counter()
        deadline = start + share * work_s
        while True:
            kernel()
            self.calls += 1
            now = time.perf_counter()
            if now >= deadline:
                break
        self.seconds += now - start

    def unit_s(self) -> float:
        """Mean seconds of one kernel call so far (one call is made if none
        was, as after a round whose every operation failed)."""
        if not self.calls:
            self.after(0.0)
        return self.seconds / self.calls
