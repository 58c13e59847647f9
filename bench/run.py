"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S]

Run it from the root of a checkout: the program is imported from ./src.
With ``--trace 0`` a run starts two fresh processes one after the other
(``child.py``), no threads; each sets up (imports, inputs, one cold pass
that fills the memo caches) and then runs warm passes while they fit in
half of ``--seconds``, at least one.  A warm pass takes 5 to 9 s on a
2-core x86-64 host, so at the default 16 s each process runs one.  The
first process also checks the cold pass's outputs; every later pass and
process must reproduce the same output digests.  The metrics are the
end-to-end ones of BENCHMARK.json.

With ``--trace 1`` one fresh process runs, traced and checked, and the
metrics are the per-layer ones.  The tracing overhead is the median, over
the paired warm passes of that process (each operation run untraced and
traced back to back), of the difference in wall time between the traced
and the untraced half; it is marked unresolved when these differences
spread more than their median.  The spans go to bench/out/WORKLOAD.trace.json.

Every metric is printed as a ``workload metric value unit`` line, and the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs every workload in turn and exits 1
when any operation failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
# the traced process runs two paired warm passes (four passes' work) and a
# profiled one
CHILD_TIMEOUT_S = {"plain": 80, "check": 80, "trace": 160}


class BenchError(Exception):
    pass


def _env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("NC_CUMULANTS_MAX_N", None)
    return env


def _child(root, workload, seed, slice_s, mode):
    ref = calibrate.reference_s()
    spawn = time.monotonic()
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), workload, str(seed),
           str(slice_s), repr(spawn), repr(ref), mode, str(OUT_DIR)]
    try:
        proc = subprocess.run(cmd, env=_env(root), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S[mode])
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: workload process timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload}: workload process failed\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _unit(name, group):
    return next(m["unit"] for m in SPEC[group] if m["name"] == name)


def run_workload(root, workload, seed, seconds, trace, words_per_pass):
    modes = ("trace",) if trace else ("check", "plain")
    children = [_child(root, workload, seed, seconds / 2, mode) for mode in modes]
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    reference = children[0]["digests"]
    for c in children[1:]:
        failed += sum(
            1 for op, d in c["digests"].items()
            if d is not None and reference[op] is not None and d != reference[op]
        )
    errors = {op: msg for c in children for op, msg in c["errors"].items()}
    for op, msg in errors.items():
        print(f"{workload} error {op}: {msg}", file=sys.stderr)
    for c in children:
        if c["failed_ops"]:
            print(f"{workload} failed operations: {', '.join(c['failed_ops'])}", file=sys.stderr)

    if trace:
        traced = children[0]
        untraced = statistics.median(traced["untraced_wall_s"])
        diffs = [t - u for t, u in zip(traced["traced_wall_s"], traced["untraced_wall_s"])]
        overhead = statistics.median(diffs)
        resolved = max(diffs) - min(diffs) <= abs(overhead)
        values = dict(traced["layers"])
        values["trace.pass_s"] = statistics.median(traced["traced_wall_s"])
        values["trace.untraced_pass_s"] = untraced
        values["trace.overhead_s"] = overhead
        values["calibration.ref_s"] = traced["ref_s"]
        values["calibration.wall_pass_s"] = untraced
        group = "per_layer"
        print(f"{workload} tracing overhead {'resolved' if resolved else 'unresolved'}: "
              f"paired differences {', '.join(f'{d:.4g}' for d in diffs)} s")
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"{workload}.trace.json").write_text(json.dumps({
            "workload": workload,
            "seed": seed,
            "per_layer": values,
            "overhead": {"paired_differences_s": diffs, "resolved": resolved},
            "spans": traced["spans"],
        }), encoding="utf-8")
    else:
        pass_s = statistics.median(p for c in children for p in c["pass_s"])
        values = {
            "setup_s": statistics.median(c["setup_s"] for c in children),
            "pass_s": pass_s,
            "words_per_s": words_per_pass / pass_s,
            "peak_rss_mb": max(c["peak_rss_mb"] for c in children),
        }
        group = "end_to_end"
        wall = statistics.median(p for c in children for p in c["pass_wall_s"])
        setup_wall = statistics.median(c["setup_wall_s"] for c in children)
        print(f"{workload} uncalibrated pass {wall:.6g} s, set-up {setup_wall:.6g} s")
    declared = [m["name"] for m in SPEC[group]]
    metrics = {
        name: {"value": values[name], "unit": _unit(name, group)}
        for name in declared if name in values
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _print_lines(workload, result, rate):
    for name, m in result["metrics"].items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{workload} error_rate {rate:.6g} ratio ({result['failed']}/{result['attempted']})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "nccumulants" / "__init__.py").is_file():
        print("error: run from the root of a checkout; ./src/nccumulants is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in workloads.WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    # one core for every process of the run, so that the reference loop
    # calibrates the core the work ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    results = {}
    try:
        for name in names:
            results[name] = run_workload(root, name, seed, args.seconds, args.trace,
                                         workloads.WORKLOADS[name].words_per_pass)
            _print_lines(name, results[name], workloads.error_rate(
                results[name]["failed"], results[name]["attempted"]))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps(results))
    return 0 if all(r["failed"] == 0 for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
