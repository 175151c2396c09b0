"""The calibration kernel: a fixed yardstick of interpreter speed.

The benchmark times this kernel between timed windows and scales each
window's times by ``NOMINAL_REF_MS / measured_ref_ms``, so a reported
time reads "at nominal machine speed" however fast the host happened to
run during that window (CPU steal, frequency changes, noisy neighbours).

The kernel does the dict, tuple and str work of an executor inner loop:
build rows, hash them into a dict, probe it, filter and format.  It must
never import the package under test — a change to the program must not
be able to move the yardstick.  The self-test enforces this.
"""

from __future__ import annotations

import time

#: Kernel time, in ms, that defines "nominal machine speed".  A window
#: in which the kernel takes exactly this long is reported unscaled.
NOMINAL_REF_MS = 2.0

#: Kernel runs per calibration point; the point is their mean.
REPETITIONS = 5

_ROWS = 1500


def kernel() -> int:
    """One fixed unit of interpreter work; returns a checksum."""
    rows = [(i, "name-" + str(i), i * 7 % 101, (i * 13) % 17)
            for i in range(_ROWS)]
    by_key = {}
    for row in rows:
        by_key[(row[2], row[3])] = row
    total = 0
    for row in rows:
        match = by_key.get((row[3] * 5 % 101, row[2] % 17))
        if match is not None and match[0] != row[0]:
            total += match[0]
        if row[2] > 50:
            label = row[1].upper()
            total += len(label) + label.count("1")
    groups: dict[int, list] = {}
    for row in rows:
        groups.setdefault(row[3], []).append(row[1])
    for key in sorted(groups):
        total += len(",".join(groups[key])) % 97
    return total


def measure(repetitions: int = REPETITIONS) -> float:
    """Mean kernel time, in ms, over ``repetitions`` runs.

    A mean, not a median: when the host flips between a fast and a slow
    state, the mean follows the share of time spent in each.
    """
    start = time.perf_counter()
    for _ in range(repetitions):
        kernel()
    return (time.perf_counter() - start) * 1000.0 / repetitions


if __name__ == "__main__":
    print(f"{measure(25):.4f} ms (nominal {NOMINAL_REF_MS} ms)")
