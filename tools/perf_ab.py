#!/usr/bin/env python3
"""A/B two revisions with perfbench in alternating pairs.

Usage (from anywhere inside a git checkout)::

    python3 tools/perf_ab.py --base HEAD~1 --change HEAD --workload co_read \\
        --pairs 10 --seeds 1,23 [--seconds 20] [--smoke]

Both revisions are checked out with ``git worktree add --detach`` into a
temporary directory and removed afterwards.  For each seed the tool runs
``perfbench/run.py --trace 0`` once per revision per pair; the order
flips every pair (base first, then change first), so a drift in machine
load does not favour one side.  A run that is not ``correct`` or has
failed operations stops the comparison.

For every end-to-end metric of ``BENCHMARK.json`` it prints, per seed
and pooled over the seeds: the base and change medians with their
quartiles, the pairs the change won (better in the metric's direction),
the relative change of the medians, whether the gap between the
medians is larger than the base's interquartile range, and a verdict
under the metric's ``bound``:

``win``     the change won at least 9 of 10 pairs and its median is
            better than the base's by more than the base's IQR;
``loss``    the change's median is worse than the base's by more than
            ``bound`` (relative to the base median);
``within``  neither.

The last line of standard output is one JSON object holding the same
figures.  Exit status 0 unless a run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


def git(*args: str, cwd: str) -> str:
    return subprocess.run(("git",) + args, cwd=cwd, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def run_once(checkout: str, workload: str, seed: int, seconds: float,
             smoke: bool) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    if smoke:
        command.append("--smoke")
    completed = subprocess.run(command, cwd=checkout, text=True,
                               stdout=subprocess.PIPE, check=False)
    if completed.returncode != 0:
        raise RuntimeError(f"perfbench exited {completed.returncode} in "
                           f"{checkout}:\n{completed.stdout}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"perfbench run in {checkout} was not clean: "
                           f"correct={result['correct']} "
                           f"failed={result['failed']}")
    return {name: metric["value"]
            for name, metric in result["metrics"].items()}


#: The share of pairs a change must win for a "win" verdict.
WIN_SHARE = 0.9


def verdict(won: int, pairs: int, relative: float, gap_over_iqr: bool,
            lower: bool, bound: float) -> str:
    """'win', 'loss' or 'within' (see the module docstring);
    ``relative`` is the change of the medians over the base median."""
    worse = relative if lower else -relative
    if worse > bound:
        return "loss"
    if worse < 0 and gap_over_iqr and won >= WIN_SHARE * pairs:
        return "win"
    return "within"


def compare(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> dict:
    """Per metric: medians, quartiles, pairs won, the IQR test and the
    verdict under the metric's bound."""
    summary = {}
    for metric in metrics:
        name = metric["name"]
        if any(name not in side for pair in pairs for side in pair):
            continue
        base = [b[name] for b, _c in pairs]
        change = [c[name] for _b, c in pairs]
        lower = metric["better"] == "lower"
        won = sum((c < b) if lower else (c > b)
                  for b, c in zip(base, change))
        b_q1, b_median, b_q3 = quartiles(base)
        c_q1, c_median, c_q3 = quartiles(change)
        relative = (c_median - b_median) / b_median if b_median else 0.0
        gap = abs(c_median - b_median) > b_q3 - b_q1
        summary[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "base": [b_q1, b_median, b_q3],
            "change": [c_q1, c_median, c_q3],
            "won": won, "pairs": len(pairs), "relative": relative,
            "gap_over_base_iqr": gap, "bound": metric["bound"],
            "verdict": verdict(won, len(pairs), relative, gap, lower,
                               metric["bound"]),
        }
    return summary


def print_table(title: str, summary: dict) -> None:
    def spread(q1, median, q3) -> str:
        return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"

    print(f"== {title}")
    print(f"{'metric':18} {'base median [q1, q3]':36} "
          f"{'change median [q1, q3]':36} {'won':>6} {'rel':>8} gap>IQR "
          f"verdict")
    for name, row in summary.items():
        print(f"{name:18} {spread(*row['base']):36} "
              f"{spread(*row['change']):36} "
              f"{row['won']:>2}/{row['pairs']:<3} "
              f"{row['relative'] * 100:+7.1f}% "
              f"{'yes' if row['gap_over_base_iqr'] else 'no':7} "
              f"{row['verdict']}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="base revision")
    parser.add_argument("--change", required=True, help="changed revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10,
                        help="alternating pairs per seed")
    parser.add_argument("--seeds", default="1",
                        help="comma-separated perfbench seeds")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny data sizes (checks the tool only)")
    return parser.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",") if seed]
    root = git("rev-parse", "--show-toplevel", cwd=os.getcwd())
    revisions = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}",
                           cwd=root)
                 for side, rev in (("base", args.base),
                                   ("change", args.change))}
    scratch = tempfile.mkdtemp(prefix="perf_ab-")
    checkouts: dict[str, str] = {}
    try:
        for side, commit in revisions.items():
            path = os.path.join(scratch, side)
            git("worktree", "add", "--detach", "--quiet", path, commit,
                cwd=root)
            checkouts[side] = path
        with open(os.path.join(checkouts["base"], "BENCHMARK.json")) as f:
            metrics = json.load(f)["end_to_end"]
        by_seed: dict[int, list] = {}
        for seed in seeds:
            for pair in range(args.pairs):
                order = ("base", "change") if pair % 2 == 0 \
                    else ("change", "base")
                runs = {}
                for side in order:
                    runs[side] = run_once(checkouts[side], args.workload,
                                          seed, args.seconds, args.smoke)
                by_seed.setdefault(seed, []).append(
                    (runs["base"], runs["change"]))
                print(f"seed {seed} pair {pair + 1}/{args.pairs} done "
                      f"({order[0]} first)", file=sys.stderr)
    finally:
        for path in checkouts.values():
            subprocess.run(["git", "worktree", "remove", "--force", path],
                           cwd=root, check=False)
        shutil.rmtree(scratch, ignore_errors=True)

    report = {"workload": args.workload, "revisions": revisions,
              "seconds": args.seconds, "seeds": {}}
    print(f"perf_ab {args.workload}: base {revisions['base'][:12]} vs "
          f"change {revisions['change'][:12]}, {args.pairs} pairs per "
          f"seed, --seconds {args.seconds}")
    for seed, pairs in by_seed.items():
        summary = compare(pairs, metrics)
        report["seeds"][str(seed)] = summary
        print_table(f"seed {seed}", summary)
    if len(by_seed) > 1:
        pooled = compare([pair for pairs in by_seed.values()
                          for pair in pairs], metrics)
        report["pooled"] = pooled
        print_table("all seeds", pooled)
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"perf_ab: {exc}", file=sys.stderr)
        sys.exit(1)
