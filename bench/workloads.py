"""The benchmark's workloads: seeded inputs, the timed pass and the output check.

A workload is a fixed list of operations that run in order as one pass.  The
program is driven only through public entry points: ``cumulants.convert``,
the public ``prelie`` functions and the ``nccum`` command line.  Functions
are looked up on their modules at call time, so the traced run's wrappers
see every call.

Inputs come from ``random.Random(seed)`` with numerators in [-9, 9] and
denominators in {1, 2, 3, 5}, generated here rather than by the library, so
a change to the library's own generators cannot change what is measured.
"""

import hashlib
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from math import comb
from pathlib import Path

from nccumulants import cumulants, prelie
from nccumulants.cumulants import CumulantFamily
from nccumulants.prelie import Functional

DEFAULT_SEED = 1
BENCH_DIR = Path(__file__).resolve().parent
PINNED_FILE = BENCH_DIR / "digests.json"
LAUNCHER = BENCH_DIR / "launcher.py"

# the 12 conversion directions as 6 round trips: x -> y, then back y -> x
PAIRS = (
    ("moment", "free"),
    ("moment", "boolean"),
    ("moment", "monotone"),
    ("free", "boolean"),
    ("free", "monotone"),
    ("boolean", "monotone"),
)


def words(alphabet, order):
    for m in range(1, order + 1):
        yield from product(alphabet, repeat=m)


def domain_size(alphabet, order):
    return sum(len(alphabet) ** m for m in range(1, order + 1))


def random_functional(rng, alphabet, order):
    values = {
        w: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5)))
        for w in words(alphabet, order)
    }
    return Functional(alphabet, order, values)


def canonical_digest(obj):
    """SHA-256 of the canonical JSON text of a JSON-ready object."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _to_json_digest(result):
    return canonical_digest(result.to_json())


class Op:
    """One operation of a pass.

    ``run(inputs, outputs)`` returns the result; ``check(inputs, outputs)``
    returns True when the result is right.  An operation that raises, or
    whose check is False or raises, counts as failed.
    """

    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


class Workload:
    def __init__(self, name, make_inputs, ops, words_per_pass, digest,
                 rss_of_children=False):
        self.name = name
        self.make_inputs = make_inputs
        self.ops = ops
        self.words_per_pass = words_per_pass
        self.digest = digest
        self.rss_of_children = rss_of_children

    def run_pass(self, inputs, after_each):
        """Run every operation once, calling ``after_each()`` after each one
        outside its timing.  Returns the outputs, the error text of each
        failed operation (its output is ``None``; the pass goes on) and the
        wall seconds of each operation."""
        outputs, errors, seconds = {}, {}, []
        for op in self.ops:
            t0 = time.monotonic()
            try:
                outputs[op.name] = op.run(inputs, outputs)
            except Exception as exc:  # counted as a failed operation
                outputs[op.name] = None
                errors[op.name] = f"{type(exc).__name__}: {exc}"
            seconds.append(time.monotonic() - t0)
            after_each()
        return outputs, errors, seconds

    def digests(self, outputs):
        return {
            name: None if result is None else self.digest(result)
            for name, result in outputs.items()
        }

    def check(self, inputs, outputs, pinned=None):
        """Names of the operations whose output is wrong: it is missing,
        its check fails, or it differs from the pinned digest."""
        failed = set()
        digests = self.digests(outputs)
        for op in self.ops:
            if outputs[op.name] is None:
                failed.add(op.name)
                continue
            try:
                ok = op.check(inputs, outputs)
            except Exception:
                ok = False
            if not ok or (pinned is not None and digests[op.name] != pinned.get(op.name)):
                failed.add(op.name)
        return failed


def pinned_digests(workload, seed):
    """The digests pinned for ``workload`` when ``seed`` is the default."""
    if seed != DEFAULT_SEED:
        return None
    with open(PINNED_FILE, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def error_rate(failed, attempted):
    return failed / attempted


# ---------------------------------------------------------------------------
# mv-dense: all 12 directions of convert on dense {a,b} inputs of order 7


def _mv_inputs(seed, workdir):
    rng = random.Random(seed)
    return {kind: random_functional(rng, ("a", "b"), 7) for kind in ("moment", "free", "boolean")}


def _convert_op(x, y):
    return lambda inputs, outputs: cumulants.convert(CumulantFamily(x, inputs[x]), y)


def _back_op(x, y):
    return lambda inputs, outputs: cumulants.convert(outputs[f"{x}-{y}"], x)


def _round_trip_check(x, y, to_magnus):
    # both directions of a pair fail together when the round trip does not
    # give the input back; free -> monotone must also equal prelie.magnus
    def check(inputs, outputs):
        forward, back = outputs[f"{x}-{y}"], outputs[f"{x}-{y}-{x}"]
        ok = forward.kind == y and back.kind == x and back.data == inputs[x]
        if ok and to_magnus:
            ok = forward.data == prelie.magnus(inputs["free"])
        return ok

    return check


def _mv_ops():
    ops = []
    for x, y in PAIRS:
        check = _round_trip_check(x, y, (x, y) == ("free", "monotone"))
        ops.append(Op(f"{x}-{y}", _convert_op(x, y), check))
        ops.append(Op(f"{x}-{y}-{x}", _back_op(x, y), check))
    return ops


# ---------------------------------------------------------------------------
# uni-deep: {a} at order 11; sparse semicircle reads and dense inverse solves

UNI_ORDER = 11


def _uni_inputs(seed, workdir):
    rng = random.Random(seed)
    return {
        "free": Functional(("a",), UNI_ORDER, {("a", "a"): 1}),
        "moment": random_functional(rng, ("a",), UNI_ORDER),
    }


def _semicircle_moments_ok(out):
    # the moments of the standard semicircle law are the Catalan numbers
    return all(
        out.data.value(("a",) * m) == (comb(m, m // 2) // (m // 2 + 1) if m % 2 == 0 else 0)
        for m in range(1, UNI_ORDER + 1)
    )


def _converted_back_check(x, y):
    def check(inputs, outputs):
        out = outputs[f"{x}-{y}"]
        ok = out.kind == y and cumulants.convert(out, x).data == inputs[x]
        if ok and (x, y) == ("free", "moment"):
            ok = _semicircle_moments_ok(out)
        if ok and (x, y) == ("free", "monotone"):
            ok = out.data == prelie.magnus(inputs["free"])
        return ok

    return check


def _uni_ops():
    return [
        Op(f"{x}-{y}", _convert_op(x, y), _converted_back_check(x, y))
        for x in ("free", "moment")
        for y in cumulants.KINDS
        if y != x
    ]


# ---------------------------------------------------------------------------
# prelie-series: the pre-Lie calculus on dense {a,b,c} input of order 7


def _prelie_inputs(seed, workdir):
    return {"kappa": random_functional(random.Random(seed), ("a", "b", "c"), 7)}


def _naive_product(alpha, beta, w):
    # (alpha |> beta)(w) = - sum over w = w1 w2 w3, all non-empty,
    # of beta(w1 w3) alpha(w2), written out from the definition
    m = len(w)
    return -sum(
        (
            beta.value(w[:i] + w[j:]) * alpha.value(w[i:j])
            for i in range(1, m - 1)
            for j in range(i + 1, m)
        ),
        Fraction(0),
    )


def _product_check(inputs, outputs):
    alpha, beta, out = inputs["kappa"], outputs["magnus"], outputs["prelie_product"]
    return all(out.value(w) == _naive_product(alpha, beta, w) for w in alpha.words())


def _prelie_ops():
    def magnus_pair(inputs, outputs):
        return outputs["magnus_inverse"] == inputs["kappa"]

    def exp_pair(inputs, outputs):
        return outputs["exp_left-"] == inputs["kappa"]

    return [
        Op("magnus", lambda i, o: prelie.magnus(i["kappa"]), magnus_pair),
        Op("magnus_inverse", lambda i, o: prelie.magnus_inverse(o["magnus"]), magnus_pair),
        Op("exp_left+", lambda i, o: prelie.exp_left(o["magnus"], i["kappa"], 1), exp_pair),
        Op("exp_left-", lambda i, o: prelie.exp_left(o["magnus"], o["exp_left+"], -1), exp_pair),
        Op("prelie_product", lambda i, o: prelie.prelie_product(i["kappa"], o["magnus"]),
           _product_check),
    ]


# ---------------------------------------------------------------------------
# cli-verify: the nccum command line, one fresh process per invocation

CLI_ORDER = 6


class CliRunner:
    """Runs ``nccum`` invocations as subprocesses and times each one.

    With ``launcher`` None an invocation is ``python3 -m nccumulants.cli``.
    Set to ``["--trace"]`` or ``["--profile"]``, it runs through
    ``launcher.py``, which writes the invocation's record file into the
    work directory.
    """

    def __init__(self, workdir):
        self.workdir = workdir
        self.launcher = None
        self.invocations = []  # (wall seconds, record file or None)

    def __call__(self, args):
        record = None
        if self.launcher is None:
            cmd = [sys.executable, "-m", "nccumulants.cli", *args]
        else:
            record = self.workdir / f"invocation-{len(self.invocations)}.json"
            cmd = [sys.executable, str(LAUNCHER), *self.launcher, str(record), "--", *args]
        t0 = time.monotonic()
        proc = subprocess.run(
            cmd, cwd=self.workdir, capture_output=True, text=True, timeout=120
        )
        self.invocations.append((time.monotonic() - t0, record))
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return proc.stdout


def _cli_inputs(seed, workdir):
    rng = random.Random(seed)
    inputs = {"runner": CliRunner(workdir)}
    for kind in ("moment", "free", "boolean"):
        data = random_functional(rng, ("a", "b"), CLI_ORDER)
        path = workdir / f"{kind}.json"
        path.write_text(json.dumps(CumulantFamily(kind, data).to_json()), encoding="utf-8")
        inputs[kind] = data
        inputs[f"{kind}.json"] = path
    return inputs


def _cli_convert_op(x, y, back):
    def run(inputs, outputs):
        runner = inputs["runner"]
        if back:
            src, frm, to, name = outputs[f"{x}-{y}"], y, x, f"{x}-{y}-{x}"
        else:
            src, frm, to, name = inputs[f"{x}.json"], x, y, f"{x}-{y}"
        dst = runner.workdir / f"{name}.json"
        runner(["convert", "--from", frm, "--to", to, "--input", str(src), "--output", str(dst)])
        return dst

    return run


def _load_family(path):
    with open(path, encoding="utf-8") as fh:
        return CumulantFamily.from_json(json.load(fh))


def _cli_round_trip_check(x, y):
    def check(inputs, outputs):
        forward = _load_family(outputs[f"{x}-{y}"])
        back = _load_family(outputs[f"{x}-{y}-{x}"])
        ok = forward.kind == y and back.kind == x and back.data == inputs[x]
        if ok and (x, y) == ("free", "monotone"):
            ok = forward.data == prelie.magnus(inputs["free"])
        return ok

    return check


def _verify_check(inputs, outputs):
    return json.loads(outputs["verify"])["status"] == "pass"


def _cli_ops():
    ops = [Op("verify", lambda i, o: i["runner"](["verify", "--suite", "all"]), _verify_check)]
    for x, y in PAIRS:
        check = _cli_round_trip_check(x, y)
        ops.append(Op(f"{x}-{y}", _cli_convert_op(x, y, False), check))
        ops.append(Op(f"{x}-{y}-{x}", _cli_convert_op(x, y, True), check))
    return ops


def _cli_digest(result):
    if isinstance(result, Path):
        text = result.read_text(encoding="utf-8")
    else:
        text = result
    return canonical_digest(json.loads(text))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mv-dense", _mv_inputs, _mv_ops(), 12 * domain_size("ab", 7), _to_json_digest),
        Workload("uni-deep", _uni_inputs, _uni_ops(), 6 * domain_size("a", UNI_ORDER),
                 _to_json_digest),
        Workload("prelie-series", _prelie_inputs, _prelie_ops(), 5 * domain_size("abc", 7),
                 _to_json_digest),
        Workload("cli-verify", _cli_inputs, _cli_ops(), 12 * domain_size("ab", CLI_ORDER),
                 _cli_digest, rss_of_children=True),
    )
}
