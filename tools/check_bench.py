#!/usr/bin/env python3
"""Fail when a benchmark's recorded ratio misses its recorded bound.

Wall-clock ratios move with machine load, so the benchmark tests record
them (``REPRO_BENCH_WRITE=1`` writes ``BENCH_*.json``) and the CI
benchmark jobs enforce them with this script.

Usage:  python tools/check_bench.py FILE ENTRY RATIO BOUND [--at-most]

Reads ``FILE[ENTRY][RATIO]`` and ``FILE[ENTRY][BOUND]``; the ratio must
be at least the bound (a floor), or at most it with ``--at-most`` (a
ceiling).  Exit status 0 when it holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

USAGE = "usage: python tools/check_bench.py FILE ENTRY RATIO BOUND [--at-most]"


def main(argv: list[str]) -> int:
    at_most = "--at-most" in argv
    args = [arg for arg in argv if arg != "--at-most"]
    if len(args) != 4:
        print(USAGE, file=sys.stderr)
        return 2
    path, entry, ratio_key, bound_key = args
    with open(path) as handle:
        result = json.load(handle)[entry]
    ratio, bound = result[ratio_key], result[bound_key]
    holds = ratio <= bound if at_most else ratio >= bound
    print(f"{path} {entry}: {ratio_key} {ratio:.3f} "
          f"({'ceiling' if at_most else 'floor'} {bound}): "
          f"{'ok' if holds else 'MISSED'}")
    return 0 if holds else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
