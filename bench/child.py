"""One workload process: set-up, then warm passes.

    python3 child.py WORKLOAD SEED SLICE_SECONDS SPAWN_TIME SPAWN_REF MODE OUT_DIR

``run.py`` starts this in a fresh interpreter for every set-up it measures,
because the program's memo caches live as long as the process.  SPAWN_TIME
is the parent's ``time.monotonic()`` just before the start, so ``setup_s``
runs from process start to the end of the first (cold) pass: interpreter
start, imports, input generation and the pass that fills every cache.

Every time is reported twice: as wall seconds and calibrated (see
``calibrate.py``).  The reference loop runs before the first operation of a
pass and after each operation; an operation is calibrated by the mean of
the two runs around it, and the part of the set-up before the first pass by
SPAWN_REF, the parent's run just before the start, and the first run here.

MODE is ``plain`` (digests only) or ``check`` (also the full output check of
the cold pass, outside the timed region); both then run warm passes while
they fit in SLICE_SECONDS, at least one.  In ``trace`` mode the cold pass is
traced, gives the per-layer metrics and is checked; then come TRACE_PAIRS
paired warm passes, which run every operation twice in a row, untraced and
traced, the order alternating from one operation and one pass to the next,
so that the tracing overhead is measured within this one process; then one
untraced warm pass under cProfile.  The result is one JSON line on stdout.
"""

import copy
import cProfile
import json
import pstats
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import calibrate
import tracing
import workloads

TRACE_PAIRS = 2


def _peak_rss_mb(of_children):
    who = resource.RUSAGE_CHILDREN if of_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


class _Run:
    """Timed passes of one workload, counting the operations attempted and
    the ones whose output differs from the reference digests.  A tracer
    records only while the operations run."""

    def __init__(self, workload, inputs, tracer):
        self.workload = workload
        self.inputs = inputs
        self.tracer = tracer
        self.reference = None
        self.attempted = 0
        self.failed_ops = set()
        self.failures = 0
        self.errors = {}
        self.refs = []

    def timed_pass(self, workload=None):
        """One pass of ``workload``, by default the run's own: (calibrated
        seconds of each operation, wall seconds of each, outputs)."""
        workload = workload or self.workload
        refs = [calibrate.reference_s()]
        if self.tracer is not None:
            self.tracer.active = True
        outputs, errors, seconds = workload.run_pass(
            self.inputs, lambda: refs.append(calibrate.reference_s()))
        if self.tracer is not None:
            self.tracer.active = False
        self.refs.extend(refs)
        calibrated = [
            s * calibrate.NOMINAL_S * 2 / (refs[i] + refs[i + 1]) for i, s in enumerate(seconds)
        ]
        self.attempted += len(outputs)
        self.errors.update(errors)
        digests = workload.digests(outputs)
        if self.reference is None:
            self.reference = digests
            bad = {name for name, d in digests.items() if d is None}
        else:
            bad = {name for name, d in digests.items() if d is None or d != self.reference[name]}
        self.fail(bad)
        return calibrated, seconds, outputs

    def fail(self, names):
        self.failures += len(names)
        self.failed_ops |= names


def _trace_record(tracer, runner):
    if tracer is not None:
        return tracer.record()
    return tracing.merge_records(
        json.loads(Path(record).read_text(encoding="utf-8"))
        for _, record in runner.invocations
    )


def _layers(raw, runner):
    layers = tracing.layer_metrics(raw)
    if "cli.main_s" in layers:
        # 0 on a workload that starts no nccum process
        wall = sum(seconds for seconds, _ in runner.invocations) if runner else 0.0
        layers["cli.startup_s"] = wall - layers["cli.main_s"]
    return layers


def _set_traced(tracer, runner, on):
    if runner is not None:
        runner.launcher = ["--trace"] if on else None
    elif on:
        tracer.install()
    else:
        tracer.uninstall()


def _toggled(run, tracer, runner, on):
    def toggled(inputs, outputs):
        _set_traced(tracer, runner, on)
        return run(inputs, outputs)

    return toggled


def _paired_workload(workload, tracer, runner, traced_first):
    """The workload with every operation run twice in a row, untraced and
    traced, the order alternating from one operation to the next; and which
    of its operations are traced."""
    paired = copy.copy(workload)
    paired.ops, flags = [], []
    for i, op in enumerate(workload.ops):
        first = traced_first == (i % 2 == 0)
        for on in (first, not first):
            paired.ops.append(workloads.Op(op.name, _toggled(op.run, tracer, runner, on),
                                           op.check))
            flags.append(on)
    return paired, flags


def _paired_passes(run, tracer, runner):
    """Wall seconds of the untraced and of the traced half of each paired
    pass.  The two runs of an operation are back to back, so their wall
    times compare directly; the reference loop, 20 ms long, adds more noise
    at that distance than it takes out."""
    untraced, traced = [], []
    for i in range(TRACE_PAIRS):
        if tracer is not None:
            tracer.reset()  # spans of warm passes are not kept
        paired, flags = _paired_workload(run.workload, tracer, runner, i % 2 == 1)
        wall = run.timed_pass(paired)[1]
        untraced.append(sum(s for s, on in zip(wall, flags) if not on))
        traced.append(sum(s for s, on in zip(wall, flags) if on))
    _set_traced(tracer, runner, False)
    return untraced, traced


def _profile(workload, inputs, tracer, runner):
    """Share of self time in fractions.py over one untraced warm pass,
    without the reference loop."""
    if tracer is not None:
        profile = cProfile.Profile()
        profile.runcall(workload.run_pass, inputs, lambda: None)
        return tracing.fractions_share(pstats.Stats(profile))
    runner.launcher = ["--profile"]
    start = len(runner.invocations)
    workload.run_pass(inputs, lambda: None)
    return tracing.fractions_share(
        pstats.Stats(*(str(record) for _, record in runner.invocations[start:]))
    )


def main(argv):
    name, seed, slice_s, spawn, spawn_ref, mode, out_dir = argv
    seed, slice_s, spawn, spawn_ref = int(seed), float(slice_s), float(spawn), float(spawn_ref)
    workload = workloads.WORKLOADS[name]
    workdir = Path(out_dir) / f"work-{name}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    try:
        result = _measure(workload, seed, slice_s, spawn, spawn_ref, mode, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _measure(workload, seed, slice_s, spawn, spawn_ref, mode, workdir):
    inputs = workload.make_inputs(seed, workdir)
    before_pass = time.monotonic() - spawn
    runner = inputs.get("runner")
    tracer = None
    if mode == "trace":
        if runner is None:
            tracer = tracing.Tracer()
            tracer.install()
        else:
            runner.launcher = ["--trace"]
    run = _Run(workload, inputs, tracer)
    cold_s, cold_wall_s, outputs = run.timed_pass()
    factor = calibrate.NOMINAL_S * 2 / (spawn_ref + run.refs[0])
    result = {
        "setup_s": before_pass * factor + sum(cold_s),
        "setup_wall_s": before_pass + sum(cold_wall_s),
    }
    if mode == "trace":
        raw = _trace_record(tracer, runner)
        result["layers"] = _layers(raw, runner)
        result["spans"] = raw
    if mode in ("check", "trace"):
        pinned = workloads.pinned_digests(workload.name, seed)
        run.fail(workload.check(inputs, outputs, pinned) - run.failed_ops)
    del outputs

    if mode == "trace":
        result["untraced_wall_s"], result["traced_wall_s"] = _paired_passes(run, tracer, runner)
    else:
        warm, wall = [], []
        while not wall or sum(wall) + statistics.median(wall) <= slice_s:
            calibrated, seconds = run.timed_pass()[:2]
            warm.append(sum(calibrated))
            wall.append(sum(seconds))
        result["pass_s"] = warm
        result["pass_wall_s"] = wall
    result["ref_s"] = statistics.median(run.refs)
    result["peak_rss_mb"] = _peak_rss_mb(workload.rss_of_children)
    if mode == "trace":
        result["layers"]["fractions.share"] = _profile(workload, inputs, tracer, runner)
    result.update(
        digests=run.reference,
        attempted=run.attempted,
        failed=run.failures,
        failed_ops=sorted(run.failed_ops),
        errors=run.errors,
    )
    return result


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
