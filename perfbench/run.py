"""perfbench: end-to-end and per-layer benchmark of the repro engine.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload oltp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload
    python3 perfbench/selftest.py                    # smoke-scale checks

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs the
span recorder (:mod:`tracing`) and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it are a readable table (scaled value, raw value, sample count) and a
JSON line of run metadata.  Times are reported at nominal machine speed
(see :mod:`harness`); ``peak_rss_mb`` and counts are not scaled.

Each workload runs in a fresh process with ``PYTHONHASHSEED=0``; the
engine's files live under ``.perfbench/`` in the checkout and are
removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DATA_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("oltp", "co_read", "co_cache")

#: Complete set-ups per end-to-end run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Reopens of the probe's directory; ``recovery_s`` is their median.
REOPENS = 9
#: The traced run records in alternate blocks of this many windows;
#: the blocks between are its untraced baseline.
TRACE_BLOCK = 8

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "write_p50_ms": "ms",
    "write_p99_ms": "ms",
    "tuples_per_s": "tuples/s",
    "recovery_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sql.parse_ms_per_op": "ms",
    "api.parse_cache_hit_ratio": "ratio",
    "api.shipped_bytes_per_co": "bytes",
    "compiler.plan_cache_hit_ratio": "ratio",
    "compiler.plan_cache_evictions": "count",
    "compiler.plan_cache_invalidations": "count",
    "qgm.build_ms_per_op": "ms",
    "rewrite.rewrite_ms_per_op": "ms",
    "optimizer.plan_ms_per_op": "ms",
    "xnf.translate_ms_per_op": "ms",
    "xnf.run_ms_per_op": "ms",
    "xnf.tuples_per_co": "tuples",
    "executor.execute_ms_per_op": "ms",
    "executor.rows_scanned_per_row": "rows",
    "executor.index_lookups_per_op": "count",
    "executor.dml_ms_per_op": "ms",
    "viewupdate.put_ms_per_write": "ms",
    "viewupdate.write_through_ms_per_write": "ms",
    "viewupdate.reread_rows_per_write": "rows",
    "cache.evaluate_ms": "ms",
    "cache.traverse_us_per_tuple": "us",
    "cache.matview_maintain_ms_per_write": "ms",
    "cache.matview_delta_rows_per_write": "rows",
    "cache.matview_full_refreshes": "count",
    "storage.commit_ms_per_write": "ms",
    "storage.wal_append_ms_per_commit": "ms",
    "storage.wal_sync_ms_per_commit": "ms",
    "storage.wal_bytes_per_commit": "bytes",
    "storage.checkpoint_ms": "ms",
    "storage.checkpoints": "count",
    "storage.recovery_replayed_txns": "count",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny data sizes (self-test only)")
    return parser.parse_args(argv)


def commit_id() -> str:
    """The checkout's commit, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def engine_counters(engine) -> dict:
    stats = engine.pipeline.plan_cache.stats
    counters = {"plan_hits": stats.hits, "plan_misses": stats.misses,
                "plan_evictions": stats.evictions,
                "plan_invalidations": stats.invalidations,
                "mv_delta_rows": 0, "mv_full_refreshes": 0}
    for view in engine.matviews.views():
        counters["mv_delta_rows"] += view.stats["delta_rows_applied"]
        counters["mv_full_refreshes"] += view.stats["full_refreshes"]
    return counters


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, fault=None) -> dict:
    """One complete run: set-up, timed phase, probe, reopen, checks.

    ``fault(workload)``, if given, runs after the probe and before the
    reopen (the self-test uses it to drop an acknowledged write).
    """
    import calibrate
    import harness
    import workloads

    workload = workloads.WORKLOADS[name](seed, smoke=smoke)
    data = os.path.join(DATA_DIR, f"{name}-{os.getpid()}")
    shutil.rmtree(data, ignore_errors=True)
    os.makedirs(data)
    recorder = None
    traced_counters: dict = {}
    try:
        if trace:
            import tracing
            recorder = tracing.Recorder()
            recorder.install()
            workload.recorder = recorder
        workload.prepare()

        setup_paths = (os.path.join(data, f"setup-{index}")
                       for index in range(SETUP_REPEATS))

        def set_up() -> None:
            workload.setup(next(setup_paths))

        def tear_down(_result) -> None:
            workload.close()
            shutil.rmtree(workload.path)

        if recorder is not None:
            recorder.on = True
        _, setup_raw, setup_factor = harness.repeat_timed(
            set_up, 1 if trace else SETUP_REPEATS, tear_down)
        if recorder is not None:
            recorder.on = False
            # Set-up keeps its spans (cache.evaluate_ms); the counters
            # restart with the timed phase.
            recorder.counts.clear()

        def traced(window: int) -> bool:
            return recorder is not None and window // TRACE_BLOCK % 2 == 1

        def on_window(window: int) -> None:
            if traced(window):
                traced_counters["_start"] = engine_counters(workload.engine)
                recorder.window = window
                recorder.on = True

        def after_window(window: int) -> None:
            if traced(window):
                recorder.on = False
                start = traced_counters.pop("_start")
                for key, value in engine_counters(workload.engine).items():
                    traced_counters[key] = traced_counters.get(key, 0) \
                        + value - start[key]

        rounds = max(2, round(seconds * workload.rounds_per_second))
        phase = harness.run_phase(
            workload, rounds, wall_cap=3 * seconds + 30, on_window=on_window,
            after_window=after_window, recorder=recorder)

        workload.probe()
        workload.finish()
        if fault is not None:
            fault(workload)
        workload.close()
        engine, recovery_raw, recovery_factor = harness.repeat_timed(
            lambda: workload.open_engine(workload.path), REOPENS,
            lambda engine: engine.close())
        replayed = engine.recovery.replayed_transactions
        try:
            workload.verify(engine)
        finally:
            engine.close()
    finally:
        workload.close()
        if recorder is not None:
            recorder.uninstall()
        shutil.rmtree(data, ignore_errors=True)

    summary = harness.summarize(phase)
    failed = workload.failed + len(phase.failures)
    attempted = workload.attempted + phase.attempted
    refs = phase.refs
    quartiles = statistics.quantiles(refs, n=4) if len(refs) > 1 \
        else [refs[0]] * 3
    meta = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "smoke": smoke,
        "facts": workload.facts, "flush_policy": workloads.FLUSH_POLICY,
        "checkpoint_interval": workloads.CHECKPOINT_INTERVAL,
        "data_path": os.path.relpath(data, ROOT),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "commit": commit_id(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "nominal_ref_ms": calibrate.NOMINAL_REF_MS,
        "ref_ms": statistics.median(refs),
        "ref_ms_iqr_over_median": (quartiles[2] - quartiles[0])
        / statistics.median(refs),
        "calibration_points": len(refs),
        "gc_s": summary["gc_s"],
        "tail_percentile": summary["tail_percentile"],
        "rounds": rounds, "windows": phase.windows,
        "timed_ops": len(phase.samples),
        "reads_checked": workload.reads_checked,
        "lost_writes": workload.lost_writes,
        "problems": workload.problems,
        "errors": (workload.errors + phase.failures)[:10],
    }
    values = {
        "setup_s": statistics.median(setup_raw) * setup_factor,
        "recovery_s": statistics.median(recovery_raw) * recovery_factor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    raw = {
        "setup_s": statistics.median(setup_raw),
        "recovery_s": statistics.median(recovery_raw),
    }
    samples = {"setup_s": len(setup_raw), "recovery_s": len(recovery_raw),
               "peak_rss_mb": 1}
    for key in END_TO_END:
        if key in summary:
            values[key] = summary[key]
            raw[key] = summary["raw"][key]
            samples[key] = summary["samples"][key]
    report = {"meta": meta, "correct": not workload.problems,
              "attempted": attempted, "failed": failed}
    if trace:
        report["metrics"] = per_layer(recorder, phase, traced_counters,
                                      setup_factor, replayed)
        report["units"] = PER_LAYER
        report["raw"] = {}
        report["samples"] = {}
        meta["untraced_targets"] = recorder.missing
        meta["spans"] = len(recorder.spans)
        trace_path = os.path.join(DATA_DIR, f"trace-{name}.json")
        recorder.dump(trace_path)
        meta["trace_file"] = os.path.relpath(trace_path, ROOT)
    else:
        report["metrics"] = {key: values[key] for key in END_TO_END}
        report["units"] = END_TO_END
        report["raw"] = raw
        report["samples"] = samples
    return report


def per_layer(recorder, phase, counters: dict, setup_factor: float,
              replayed: int) -> dict:
    """Per-layer metrics over the traced blocks of windows."""
    factors = dict(enumerate(phase.factors()))
    factors[-1] = setup_factor
    traced = [s for s in phase.samples if s.window // TRACE_BLOCK % 2]
    untraced = [s for s in phase.samples
                if not s.window // TRACE_BLOCK % 2]
    ops = len(traced)
    writes = sum(1 for s in traced if s.kind == "write")
    seconds, calls = recorder.layer_times(factors, timed=True)
    setup_seconds, setup_calls = recorder.layer_times(factors, timed=False)
    counts = recorder.counts

    def ms(name: str, per: float) -> float:
        return 1000.0 * seconds.get(name, 0.0) / per if per else 0.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def throughput(samples) -> float:
        busy = sum(s.seconds * factors[s.window] for s in samples)
        return ratio(len(samples), busy)

    parse_calls, parse_hits = recorder.parse_cache_hits()
    plan_lookups = counters.get("plan_hits", 0) \
        + counters.get("plan_misses", 0)
    commits = calls.get("storage.commit", 0)
    appends = calls.get("storage.wal_append", 0)
    return {
        "sql.parse_ms_per_op": ms("sql.parse", ops),
        "api.parse_cache_hit_ratio": ratio(parse_hits, parse_calls),
        "api.shipped_bytes_per_co": ratio(counts["api.shipped_bytes"],
                                          counts["xnf.cos"]),
        "compiler.plan_cache_hit_ratio": ratio(counters.get("plan_hits", 0),
                                               plan_lookups),
        "compiler.plan_cache_evictions": counters.get("plan_evictions", 0),
        "compiler.plan_cache_invalidations":
            counters.get("plan_invalidations", 0),
        "qgm.build_ms_per_op": ms("qgm.build", ops),
        "rewrite.rewrite_ms_per_op": ms("rewrite", ops),
        "optimizer.plan_ms_per_op": ms("optimizer.plan", ops),
        "xnf.translate_ms_per_op": ms("xnf.translate", ops),
        "xnf.run_ms_per_op": ms("xnf.run", ops),
        "xnf.tuples_per_co": ratio(counts["xnf.tuples"], counts["xnf.cos"]),
        "executor.execute_ms_per_op": ms("executor.cursor", ops),
        "executor.rows_scanned_per_row": ratio(
            counts["executor.rows_scanned"],
            counts["executor.rows_returned"]),
        "executor.index_lookups_per_op": ratio(
            counts["executor.index_lookups"], counts["executor.queries"]),
        "executor.dml_ms_per_op": ms("executor.dml", ops),
        "viewupdate.put_ms_per_write": ms("viewupdate.put", writes),
        "viewupdate.write_through_ms_per_write":
            ms("viewupdate.write_through", writes),
        "viewupdate.reread_rows_per_write": ratio(
            counts["viewupdate.reread_rows"], writes),
        "cache.evaluate_ms": ratio(
            1000.0 * setup_seconds.get("cache.evaluate", 0.0),
            setup_calls.get("cache.evaluate", 0)),
        "cache.traverse_us_per_tuple": ratio(
            1e6 * seconds.get("cache.traverse", 0.0),
            counts["cache.touched"]),
        "cache.matview_maintain_ms_per_write":
            ms("cache.matview_maintain", writes),
        "cache.matview_delta_rows_per_write": ratio(
            counters.get("mv_delta_rows", 0), writes),
        "cache.matview_full_refreshes": counters.get("mv_full_refreshes", 0),
        "storage.commit_ms_per_write": ms("storage.commit", writes),
        "storage.wal_append_ms_per_commit": ms("storage.wal_append",
                                               commits),
        "storage.wal_sync_ms_per_commit": ms("storage.wal_sync", commits),
        "storage.wal_bytes_per_commit": ratio(counts["storage.wal_bytes"],
                                              appends),
        "storage.checkpoint_ms": ms("storage.checkpoint",
                                    calls.get("storage.checkpoint", 0)),
        "storage.checkpoints": calls.get("storage.checkpoint", 0),
        "storage.recovery_replayed_txns": replayed,
        "trace.overhead_ratio": ratio(throughput(traced),
                                      throughput(untraced)),
    }


def print_report(report: dict) -> None:
    meta = report["meta"]
    print(f"perfbench {meta['workload']}  seed={meta['seed']}  "
          f"seconds={meta['seconds']}  trace={meta['trace']}  "
          f"flush={meta['flush_policy']}  clients=1 closed loop  "
          f"ref_ms={meta['ref_ms']:.4f} (nominal {meta['nominal_ref_ms']})")
    print(f"{'metric':40} {'value':>14} {'unit':9} {'raw':>14} "
          f"{'samples':>8}")
    for key, value in report["metrics"].items():
        raw = report["raw"].get(key)
        raw_text = f"{raw:14.6g}" if raw is not None else f"{'-':>14}"
        count = report["samples"].get(key, "")
        print(f"{key:40} {value:14.6g} {report['units'][key]:9} "
              f"{raw_text} {count:>8}")
    tails = meta.get("tail_percentile")
    if tails:
        print("tail percentile behind *_p99_ms: " + ", ".join(
            f"{kind} p{q:.4g}" for kind, q in tails.items()))
    for problem in meta["problems"]:
        print(f"problem: {problem}")
    for error in meta["errors"]:
        print(f"error: {error.strip().splitlines()[-1]}")
    print(f"attempted={report['attempted']} failed={report['failed']} "
          f"(lost acknowledged writes: {meta['lost_writes']}) "
          f"correct={report['correct']}")
    print(json.dumps({"meta": meta,
                      "raw": {f"raw.{k}": v
                              for k, v in report["raw"].items()},
                      "samples": report["samples"]}, sort_keys=True))
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {key: {"value": value, "unit": report["units"][key]}
                    for key, value in report["metrics"].items()},
    }))


def run_all(args) -> int:
    """Every workload, each in its own fresh process, one after another."""
    results = {}
    for name in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.smoke:
            command.append("--smoke")
        completed = subprocess.run(command, stdout=subprocess.PIPE,
                                   text=True, check=False)
        sys.stdout.write(completed.stdout)
        if completed.returncode != 0:
            return completed.returncode
        results[name] = json.loads(completed.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{key}": metric
                    for name, result in results.items()
                    for key, metric in result["metrics"].items()},
    }))
    return 0


def main(argv) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__)] + argv, env)
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"perfbench: no program to measure: {source}/repro is "
              "missing", file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    report = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), smoke=args.smoke)
    print_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
