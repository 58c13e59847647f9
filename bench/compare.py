"""Record result sets of the benchmark and compare two of them.

    python3 bench/compare.py record --out FILE [--workloads A,B] [--seeds 1-10] [--trace 0|1]
    python3 bench/compare.py pairs BASE_DIR HEAD_DIR --out-base FILE --out-head FILE
                                   [--workloads A,B] [--seeds 1-10]
    python3 bench/compare.py spread FILE
    python3 bench/compare.py diff BASE_FILE HEAD_FILE

``record`` runs ``run.py`` in the current checkout once per seed and
workload.  ``pairs`` runs the same benchmark code in two checkouts, one
pair per seed, alternating which side runs first.  Every run lasts
BENCHMARK.json's ``run_seconds``.  ``spread`` prints each
end-to-end metric's median and quartiles and its spread (interquartile
range over median) against the metric's bound.  ``diff`` applies the
comparison rule to runs paired by workload and seed, one row per workload:

* ``better``: the head wins at least 9 of every 10 pairs (ties count for
  neither side) and the medians differ by more than the base's
  interquartile range;
* ``unresolved``: otherwise, when either side's spread is wider than the
  bound, unless every head run is better than every base run;
* ``worse``: the head median is worse than the base median by more than the
  bound;
* ``same``: none of these.

``diff`` exits 1 when a metric is worse, the head failed more operations,
more head runs than base runs ended without a result (a crash or a
timeout), or a base seed with a result has no head run with a result.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN_TIMEOUT_S = 240


def _seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _workloads(text):
    return text.split(",") if text else [w["name"] for w in SPEC["workloads"]]


def machine(checkout):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                             text=True, timeout=30).stdout.strip() or None
    except OSError:
        sha = None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_sha": sha,
    }


def run_once(checkout, workload, seed, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    started = time.time()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    record = {"workload": workload, "seed": seed, "trace": trace, "started": started,
              "wall_s": time.time() - started, "exit": proc.returncode}
    lines = proc.stdout.splitlines()
    if proc.returncode == 0 and lines:
        record["result"] = json.loads(lines[-1])
        record["output"] = lines[:-1]
    else:
        record["stderr"] = proc.stderr[-2000:]
    print(f"{Path(checkout).name} {workload} seed={seed} trace={trace} "
          f"exit={proc.returncode} {record['wall_s']:.1f}s", file=sys.stderr)
    return record


def _save(path, checkout, runs):
    Path(path).write_text(json.dumps({"machine": machine(checkout), "runs": runs}, indent=1)
                          + "\n", encoding="utf-8")


def cmd_record(args):
    runs = [run_once(Path.cwd(), w, seed, args.trace)
            for seed in _seeds(args.seeds) for w in _workloads(args.workloads)]
    _save(args.out, Path.cwd(), runs)
    return 0


def cmd_pairs(args):
    sides = {"base": (Path(args.base_dir), []), "head": (Path(args.head_dir), [])}
    for i, seed in enumerate(_seeds(args.seeds)):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for w in _workloads(args.workloads):
            for side in order:
                checkout, runs = sides[side]
                record = run_once(checkout, w, seed, 0)
                record["order"] = order.index(side)
                runs.append(record)
    _save(args.out_base, *sides["base"])
    _save(args.out_head, *sides["head"])
    return 0


def _load(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _values(runs, workload, name):
    return {
        r["seed"]: r["result"]["metrics"][name]["value"]
        for r in runs
        if r["workload"] == workload and r["trace"] == 0 and "result" in r
        and name in r["result"]["metrics"]
    }


def _seeds_with_result(runs, workload):
    return {r["seed"] for r in runs
            if r["workload"] == workload and r["trace"] == 0 and "result" in r}


def _quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = _quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def cmd_spread(args):
    runs = _load(args.file)["runs"]
    for w in dict.fromkeys(r["workload"] for r in runs):
        for m in SPEC["end_to_end"]:
            values = list(_values(runs, w, m["name"]).values())
            if not values:
                continue
            q1, med, q3 = _quartiles(values)
            share = spread(values)
            steady = share < m["bound"] / 3
            print(f"{w:14s} {m['name']:12s} n={len(values):2d} median={med:.6g} "
                  f"q1={q1:.6g} q3={q3:.6g} spread={share:.3f} bound={m['bound']} "
                  f"{'steady' if steady else 'NOT STEADY'}")
    failed = sum(r["result"]["failed"] for r in runs if "result" in r)
    crashed = sum(1 for r in runs if "result" not in r)
    print(f"failed operations: {failed}; runs without a result: {crashed}")
    return 0 if failed == 0 and crashed == 0 else 1


def _better(a, b, lower):
    return a < b if lower else a > b


def verdict(base, head, metric):
    """Compare paired values {seed: value} of one metric."""
    lower = metric["better"] == "lower"
    seeds = sorted(set(base) & set(head))
    b = [base[s] for s in seeds]
    h = [head[s] for s in seeds]
    wins = sum(1 for x, y in zip(b, h) if _better(y, x, lower))
    q1, med_b, q3 = _quartiles(b)
    med_h = _quartiles(h)[1]
    gap = abs(med_h - med_b)
    if wins >= 0.9 * len(seeds) and _better(med_h, med_b, lower) and gap > q3 - q1:
        word = "better"
    elif max(spread(b), spread(h)) > metric["bound"] and not all(
            _better(y, x, lower) for x in b for y in h):
        word = "unresolved"
    elif _better(med_b, med_h, lower) and gap > metric["bound"] * abs(med_b):
        word = "worse"
    else:
        word = "same"
    return {"verdict": word, "pairs": len(seeds), "wins": wins,
            "base_median": med_b, "head_median": med_h}


def cmd_diff(args):
    base, head = _load(args.base)["runs"], _load(args.head)["runs"]
    worse = False
    for w in dict.fromkeys(r["workload"] for r in base):
        cells = []
        for m in SPEC["end_to_end"]:
            b, h = _values(base, w, m["name"]), _values(head, w, m["name"])
            if not set(b) & set(h):
                continue
            v = verdict(b, h, m)
            worse |= v["verdict"] == "worse"
            cells.append(f"{m['name']}: {v['verdict']} ({v['wins']}/{v['pairs']} wins, "
                         f"{v['base_median']:.4g} -> {v['head_median']:.4g} {m['unit']})")
        failed = [sum(r["result"]["failed"] for r in runs if r["workload"] == w and "result" in r)
                  for runs in (base, head)]
        if failed[1] > failed[0]:
            worse = True
            cells.append(f"failed operations {failed[0]} -> {failed[1]}")
        crashed = [sum(1 for r in runs if r["workload"] == w and r["trace"] == 0
                       and "result" not in r) for runs in (base, head)]
        if crashed[1] > crashed[0]:
            worse = True
            cells.append(f"runs without a result {crashed[0]} -> {crashed[1]}")
        unpaired = sorted(_seeds_with_result(base, w) - _seeds_with_result(head, w))
        if unpaired:
            worse = True
            cells.append(f"base seeds without a head result: {unpaired}")
        print(f"{w} | " + " | ".join(cells))
    return 1 if worse else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("--out", required=True)
    rec.add_argument("--trace", type=int, choices=(0, 1), default=0)
    pairs = sub.add_parser("pairs")
    pairs.add_argument("base_dir")
    pairs.add_argument("head_dir")
    pairs.add_argument("--out-base", required=True)
    pairs.add_argument("--out-head", required=True)
    for p in (rec, pairs):
        p.add_argument("--workloads", default="")
        p.add_argument("--seeds", default="1-10")
    sp = sub.add_parser("spread")
    sp.add_argument("file")
    diff = sub.add_parser("diff")
    diff.add_argument("base")
    diff.add_argument("head")
    args = parser.parse_args(argv)
    return {"record": cmd_record, "pairs": cmd_pairs, "spread": cmd_spread,
            "diff": cmd_diff}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
