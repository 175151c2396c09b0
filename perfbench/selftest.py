"""Smoke-scale self-test of the benchmark itself.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Checks that

* every metric named in ``BENCHMARK.json`` is printed, with its unit,
  by every workload in both the end-to-end and the traced run;
* the oracle catches an acknowledged write that is deliberately
  dropped behind its back;
* the calibration kernel does not import the package under test;
* a run leaves ``git status`` unchanged;
* without the program's sources the benchmark exits non-zero and
  prints no result.

Exits 1 if any check fails.  Takes about a minute.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def git_status():
    """``git status --porcelain`` of the checkout, or None outside git."""
    if not os.path.isdir(os.path.join(ROOT, ".git")) \
            or shutil.which("git") is None:
        return None
    return subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          check=True).stdout


def smoke_run(workload: str, trace: int) -> tuple[int, str]:
    completed = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    return completed.returncode, completed.stdout


def check_metrics(spec: dict) -> list[str]:
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, out = smoke_run(workload, trace)
            if code != 0:
                problems.append(f"{workload} --trace {trace} exited {code}")
                continue
            lines = out.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed",
                               "metrics"}:
                problems.append(f"{workload}: result keys {sorted(result)}")
            if not result["correct"]:
                problems.append(f"{workload} --trace {trace}: incorrect")
            metrics = result["metrics"]
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            if set(metrics) != set(wanted):
                problems.append(
                    f"{workload} --trace {trace}: metrics differ from "
                    f"BENCHMARK.json: {sorted(set(metrics) ^ set(wanted))}")
            table = "\n".join(lines[:-2])
            for name, unit in wanted.items():
                got = metrics.get(name, {})
                if got.get("unit") != unit:
                    problems.append(f"{workload}: {name} unit "
                                    f"{got.get('unit')!r}, want {unit!r}")
                if not any(line.split()[:1] == [name]
                           and unit in line.split() for line in
                           table.splitlines()):
                    problems.append(f"{workload}: {name} [{unit}] missing "
                                    "from the printed table")
    return problems


def check_dropped_write() -> list[str]:
    """A write acknowledged to the oracle but undone behind its back
    must show up as exactly one more failed operation."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import run

    def drop(workload) -> None:
        eno = next(eno for eno, count in workload.acks.items() if count)
        workload.session.execute(
            f"UPDATE EMP SET sal = sal - 1 WHERE eno = {eno}")

    clean = run.run_workload("oltp", 7, 0.5, False, smoke=True)
    dropped = run.run_workload("oltp", 7, 0.5, False, smoke=True,
                               fault=drop)
    if dropped["failed"] != clean["failed"] + 1:
        return [f"dropped write not caught: failed {clean['failed']} -> "
                f"{dropped['failed']}"]
    return []


def check_kernel_isolation() -> list[str]:
    problems = []
    with open(os.path.join(HERE, "calibrate.py")) as handle:
        tree = ast.parse(handle.read())
    for node in ast.walk(tree):
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        for name in names:
            if name.split(".")[0] not in ("time", "__future__"):
                problems.append(f"calibrate.py imports {name}")
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "import calibrate; calibrate.measure(1); "
             "print(any(m.split('.')[0] == 'repro' for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe, HERE],
                         stdout=subprocess.PIPE, text=True, check=True)
    if out.stdout.strip() != "False":
        problems.append("importing calibrate loads repro")
    return problems


def check_fails_without_program() -> list[str]:
    """A directory holding only BENCHMARK.json and the benchmark."""
    bare = os.path.join(ROOT, ".perfbench", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "oltp",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=180, check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    problems = []
    if completed.returncode == 0:
        problems.append("exit code 0 without the program")
    if '"correct"' in completed.stdout:
        problems.append("printed a result without the program")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    before = git_status()
    checks = [
        ("metrics printed with units", lambda: check_metrics(spec)),
        ("dropped write caught", check_dropped_write),
        ("kernel does not import repro", check_kernel_isolation),
        ("fails without the program", check_fails_without_program),
    ]
    failed = False
    for label, check in checks:
        problems = check()
        failed = failed or bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {label}")
        for problem in problems:
            print(f"     {problem}")
    after = git_status()
    if before is None:
        print("skip git status unchanged (not a git checkout)")
    else:
        same = before == after
        failed = failed or not same
        print(f"{'ok  ' if same else 'FAIL'} git status unchanged")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
