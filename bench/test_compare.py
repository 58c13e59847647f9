"""``compare.py diff`` marks a change worse when its runs crash or are missing.

    python3 -m pytest bench/test_compare.py
"""

import json

import compare


def _run(seed, value=None, failed=0):
    record = {"workload": "mv-dense", "seed": seed, "trace": 0}
    if value is not None:
        record["result"] = {"failed": failed,
                            "metrics": {"pass_s": {"value": value, "unit": "s"}}}
    return record


def _diff(tmp_path, base, head):
    paths = []
    for name, runs in (("base", base), ("head", head)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"runs": runs}), encoding="utf-8")
        paths.append(str(path))
    return compare.main(["diff", *paths])


BASE = [_run(seed, 1.0 + seed / 1000) for seed in range(1, 11)]


def test_same_runs_are_not_worse(tmp_path, capsys):
    assert _diff(tmp_path, BASE, BASE) == 0
    assert "pass_s: same" in capsys.readouterr().out


def test_slower_head_is_worse(tmp_path, capsys):
    head = [_run(seed, 2.0 + seed / 1000) for seed in range(1, 11)]
    assert _diff(tmp_path, BASE, head) == 1
    assert "pass_s: worse" in capsys.readouterr().out


def test_head_that_always_crashes_is_worse(tmp_path, capsys):
    head = [_run(seed) for seed in range(1, 11)]
    assert _diff(tmp_path, BASE, head) == 1
    assert "runs without a result 0 -> 10" in capsys.readouterr().out


def test_one_crashed_head_run_is_worse(tmp_path, capsys):
    head = BASE[:-1] + [_run(10)]
    assert _diff(tmp_path, BASE, head) == 1
    out = capsys.readouterr().out
    assert "runs without a result 0 -> 1" in out
    assert "base seeds without a head result: [10]" in out


def test_missing_head_seed_is_worse(tmp_path, capsys):
    assert _diff(tmp_path, BASE, BASE[1:]) == 1
    assert "base seeds without a head result: [1]" in capsys.readouterr().out


def test_more_failed_operations_is_worse(tmp_path, capsys):
    head = BASE[:-1] + [_run(10, BASE[-1]["result"]["metrics"]["pass_s"]["value"], failed=1)]
    assert _diff(tmp_path, BASE, head) == 1
    assert "failed operations 0 -> 1" in capsys.readouterr().out
