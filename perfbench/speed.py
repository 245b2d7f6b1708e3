"""How fast the machine runs right now, from a fixed exact-arithmetic loop.

On a shared virtual machine the same work can take up to twice as long from
one minute to the next (measured on a 2-vCPU VM: this loop took 16 to 32 ms,
and a selftest pass 1.2 to 2.3 s). The benchmark therefore times this loop
in the same process as the program's calls, before and after each
in-process pass, and reports the calls' timings scaled to the reference
speed:

    scaled = measured * REFERENCE_S / loop time measured next to it

The loop is benchmark code only, so a change to the program cannot move it.
It does the program's kind of work: Python bytecode and Fraction arithmetic.
"""

import time
from fractions import Fraction

REFERENCE_S = 0.025  # the loop's time at the reference speed
# cli operations each start a process, which the loop does not follow; a cli
# pass is scaled by the start time of a bare interpreter (python -c pass),
# measured around the pass, against this reference.
INTERPRETER_REFERENCE_S = 0.060
_VALUES = [Fraction(1 + 7 * i % 9, 1 + 5 * i % 8) for i in range(600)]


def _loop() -> float:
    started = time.perf_counter()
    e = [Fraction(1)] + [Fraction(0)] * 8  # elementary symmetric sums e_0..e_8
    for count, v in enumerate(_VALUES, start=1):
        for k in range(min(count, 8), 0, -1):
            e[k] += v * e[k - 1]
    return time.perf_counter() - started


def loop_seconds(repeats: int = 3) -> float:
    """Median time of the loop over a few repeats."""
    return sorted(_loop() for _ in range(repeats))[repeats // 2]
