"""The traced benchmark wraps private names of the library at run time and
reports a metric whose wrapped name is gone as absent.  This test keeps a
rename from silently dropping a per-layer metric that BENCHMARK.json
declares."""

import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

# measured by the benchmark's driver and child process, not by a wrapper
NOT_WRAPPED = ("cli.startup_s", "fractions.share", "trace.", "calibration.")


def test_every_declared_layer_has_a_live_target(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        metrics = tracing.layer_metrics(tracer.record())
    finally:
        tracer.uninstall()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = [m["name"] for m in spec["per_layer"]]
    wrapped = [name for name in declared if not name.startswith(NOT_WRAPPED)]
    assert len(declared) - len(wrapped) == 7
    assert [name for name in wrapped if name not in metrics] == []
