"""The output check behind ``error_rate``: a wrong output is a failed operation.

    python3 -m pytest bench/test_gate.py

Run it from the root of a checkout.  A wrong output is made by changing a
single value of a copy of one output by 1/1000.  Where the program makes
the wrong output, a later operation of the pass consumes it, so the round
trips must notice it on any seed; a copy changed after the pass must differ
from the pinned digests of the default seed.
"""

import random
from fractions import Fraction

import pytest

import workloads
from nccumulants import cumulants, prelie
from nccumulants.cumulants import CumulantFamily
from nccumulants.prelie import Functional


def _perturbed(f):
    """A copy of a functional or family with one value changed by 1/1000."""
    if isinstance(f, CumulantFamily):
        return CumulantFamily(f.kind, _perturbed(f.data))
    values = {w: f.value(w) for w in f.words()}
    last = max(values, key=len)
    values[last] += Fraction(1, 1000)
    return Functional(f.alphabet, f.max_order, values)


def _failed(workload, inputs, pinned=None):
    outputs, _, _ = workload.run_pass(inputs, lambda: None)
    return workload.check(inputs, outputs, pinned)


def _small_inputs(name, seed):
    # the same operations on a small alphabet and order, so each pass is fast
    rng = random.Random(seed)
    if name == "mv-dense":
        return {k: workloads.random_functional(rng, ("a", "b"), 4)
                for k in ("moment", "free", "boolean")}
    return {"kappa": workloads.random_functional(rng, ("a", "b"), 5)}


def _perturb_calls(monkeypatch, module, attr, which):
    """Make the ``which``-th call of ``module.attr`` in a pass return a
    perturbed copy of its result."""
    original = getattr(module, attr)
    calls = []

    def wrong(*args):
        result = original(*args)
        calls.append(None)
        return _perturbed(result) if len(calls) == which else result

    monkeypatch.setattr(module, attr, wrong)


@pytest.mark.parametrize("which", range(1, 13))
def test_wrong_conversion_fails_its_round_trip(monkeypatch, which):
    workload = workloads.WORKLOADS["mv-dense"]
    inputs = _small_inputs("mv-dense", 7)
    assert _failed(workload, inputs) == set()
    _perturb_calls(monkeypatch, cumulants, "convert", which)
    failed = _failed(workload, inputs)
    assert workload.ops[which - 1].name in failed
    assert workloads.error_rate(len(failed), len(workload.ops)) > 0


@pytest.mark.parametrize(
    "attr, which, op",
    [
        ("magnus", 1, "magnus"),
        ("magnus_inverse", 1, "magnus_inverse"),
        ("exp_left", 1, "exp_left+"),
        ("exp_left", 2, "exp_left-"),
        ("prelie_product", 1, "prelie_product"),
    ],
)
def test_wrong_series_fails_its_check(monkeypatch, attr, which, op):
    workload = workloads.WORKLOADS["prelie-series"]
    inputs = _small_inputs("prelie-series", 7)
    assert _failed(workload, inputs) == set()
    # prelie_product calls inside magnus_inverse and exp_left are not
    # the operation's own call, so perturb only the top-level one
    if attr == "prelie_product":
        original = prelie.prelie_product
        monkeypatch.setattr(
            workload.ops[-1], "run",
            lambda i, o: _perturbed(original(i["kappa"], o["magnus"])))
    else:
        _perturb_calls(monkeypatch, prelie, attr, which)
    failed = _failed(workload, inputs)
    assert op in failed
    assert workloads.error_rate(len(failed), len(workload.ops)) > 0


def test_changed_copy_differs_from_pinned_digests():
    workload = workloads.WORKLOADS["prelie-series"]
    seed = workloads.DEFAULT_SEED
    inputs = workload.make_inputs(seed, None)
    outputs, _, _ = workload.run_pass(inputs, lambda: None)
    pinned = workloads.pinned_digests(workload.name, seed)
    assert workload.check(inputs, outputs, pinned) == set()
    for op in workload.ops:
        changed = dict(outputs)
        changed[op.name] = _perturbed(outputs[op.name])
        failed = workload.check(inputs, changed, pinned)
        assert op.name in failed
        assert workloads.error_rate(len(failed), len(workload.ops)) > 0
