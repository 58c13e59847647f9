import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from nccumulants import trees
from nccumulants.cli import main

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_count(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "nc", "--n", "4", "--count")
        assert code == 0 and out.strip() == "14"

    def test_irr_lines(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "nc-irr", "--n", "3")
        assert code == 0
        assert sorted(out.splitlines()) == ["{{1,2,3}}", "{{1,3},{2}}"]

    def test_json_lines(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "nc", "--n", "2", "--json")
        rows = [json.loads(line) for line in out.splitlines()]
        assert code == 0
        assert sorted(map(str, rows)) == sorted(map(str, [[[1, 2]], [[1], [2]]]))

    def test_monotone(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "monotone-irr", "--n", "4", "--k", "2", "--count"
        )
        assert code == 0 and out.strip() == "3"

    def test_monotone_needs_k(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "monotone-irr", "--n", "4")
        assert code == 2 and "--k" in err

    def test_zero_rejected(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "nc", "--n", "0")
        assert code == 2 and "error:" in err

    def test_bound_rejected(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "nc", "--n", "13")
        assert code == 2 and "NC_CUMULANTS_MAX_N" in err

    def test_monotone_bound_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "enumerate", "monotone-irr", "--n", "13", "--k", "2", "--count"
        )
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "NC_CUMULANTS_MAX_N" in err

    def test_monotone_family_size_refused(self, capsys):
        # n = 12, k = 9 has 12,753,576 members: counted and refused before
        # any of them is built
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "enumerate", "monotone-irr", "--n", "12", "--k", "9")
        assert time.perf_counter() - started < 1.0
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "12753576" in err

    def test_monotone_listing(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "monotone-irr", "--n", "4", "--k", "2")
        assert code == 0
        assert out.splitlines() == ["{{1,3,4},{2}}", "{{1,4},{2,3}}", "{{1,2,4},{3}}"]

    def test_env_raises_bound(self, capsys, monkeypatch):
        monkeypatch.setenv("NC_CUMULANTS_MAX_N", "3")
        code, _, err = run_cli(capsys, "enumerate", "nc", "--n", "4")
        assert code == 2

    def test_bad_kind_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "bogus", "--n", "3"])
        assert exc.value.code == 2


class TestOmega:
    def test_tree_row(self, capsys):
        code, out, _ = run_cli(capsys, "omega", "--tree", "[[][]]")
        row = json.loads(out)
        assert code == 0
        assert row == {
            "tree": "[[][]]",
            "factorial": 3,
            "monotone_count": 2,
            "omega": "1/6",
        }

    def test_zero_omega(self, capsys):
        code, out, _ = run_cli(capsys, "omega", "--tree", "[[][][]]")
        assert json.loads(out)["omega"] == "0"

    def test_max_size(self, capsys):
        code, out, _ = run_cli(capsys, "omega", "--max-size", "3")
        rows = [json.loads(line) for line in out.splitlines()]
        assert code == 0 and len(rows) == 4
        assert {r["tree"] for r in rows} == {"[]", "[[]]", "[[[]]]", "[[][]]"}

    def test_partition_row(self, capsys):
        code, out, _ = run_cli(capsys, "omega", "--partition", "{{1,3},{2}}")
        row = json.loads(out)
        assert code == 0
        assert row["forest"] == "[[]]" and row["omega"] == "-1/2"

    def test_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "omega", "--tree", "[[")
        assert code == 2 and "error:" in err

    def test_malformed_partition(self, capsys):
        code, out, err = run_cli(capsys, "omega", "--partition", "{{1},{2}}}")
        assert code == 2 and out == "" and "malformed partition" in err


class TestTree:
    def test_tree_row(self, capsys):
        code, out, _ = run_cli(capsys, "tree", "--tree", "[[[]]]")
        row = json.loads(out)
        assert code == 0
        assert row == {
            "tree": "[[[]]]",
            "size": 3,
            "factorial": 6,
            "monotone_count": 1,
        }

    def test_partition_row(self, capsys):
        code, out, _ = run_cli(capsys, "tree", "--partition", "{{1,2},{3,4}}")
        row = json.loads(out)
        assert code == 0
        assert row["components"] == ["{{1,2}}", "{{3,4}}"]
        assert row["irreducible"] is False


DEEP_TREE = "[" * 3000 + "]" * 3000
DEEP_PARTITION = "{" + ",".join(f"{{{i},{3001 - i}}}" for i in range(1, 1501)) + "}"


@pytest.mark.parametrize(
    "args",
    [
        ("tree", "--tree", DEEP_TREE),
        ("omega", "--tree", DEEP_TREE),
        ("tree", "--partition", DEEP_PARTITION),
        ("omega", "--partition", DEEP_PARTITION),
    ],
    ids=["tree-tree", "omega-tree", "tree-partition", "omega-partition"],
)
def test_deep_nesting_refused(capsys, args):
    code, out, err = run_cli(capsys, *args)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


class TestConvert:
    @pytest.fixture
    def pair_envelope(self, tmp_path):
        path = tmp_path / "in.json"
        path.write_text(
            json.dumps(
                {
                    "kind": "free",
                    "functional": {
                        "alphabet": ["a"],
                        "max_order": 4,
                        "values": {"a,a": "1"},
                    },
                }
            )
        )
        return path

    def test_free_to_monotone(self, capsys, tmp_path, pair_envelope):
        out_path = tmp_path / "out.json"
        code, _, _ = run_cli(
            capsys,
            "convert",
            "--from",
            "free",
            "--to",
            "monotone",
            "--input",
            str(pair_envelope),
            "--output",
            str(out_path),
        )
        assert code == 0
        envelope = json.loads(out_path.read_text())
        assert envelope["kind"] == "monotone"
        values = envelope["functional"]["values"]
        assert values["a,a,a,a"] == "1/2"
        assert "a,a,a" not in values

    def test_free_to_moment(self, capsys, tmp_path, pair_envelope):
        out_path = tmp_path / "out.json"
        code, _, _ = run_cli(
            capsys,
            "convert",
            "--from",
            "free",
            "--to",
            "moment",
            "--input",
            str(pair_envelope),
            "--output",
            str(out_path),
        )
        assert code == 0
        envelope = json.loads(out_path.read_text())
        assert envelope["functional"]["values"]["a,a,a,a"] == "2"

    def test_identity(self, capsys, tmp_path, pair_envelope):
        out_path = tmp_path / "out.json"
        code, _, _ = run_cli(
            capsys,
            "convert",
            "--from",
            "free",
            "--to",
            "free",
            "--input",
            str(pair_envelope),
            "--output",
            str(out_path),
        )
        assert code == 0
        envelope = json.loads(out_path.read_text())
        assert envelope["kind"] == "free"
        assert envelope["functional"]["values"] == {"a,a": "1"}

    def test_show_order(self, capsys, tmp_path, pair_envelope):
        out_path = tmp_path / "out.json"
        code, out, _ = run_cli(
            capsys,
            "convert",
            "--from",
            "free",
            "--to",
            "monotone",
            "--input",
            str(pair_envelope),
            "--output",
            str(out_path),
            "--show-order",
            "3",
        )
        assert code == 0
        rows = {r["partition"]: r["coefficient"] for r in map(json.loads, out.splitlines())}
        assert rows == {"{{1,2,3}}": "1", "{{1,3},{2}}": "1/2"}

    def test_show_order_unsupported(self, capsys, tmp_path, pair_envelope):
        envelope = json.loads(pair_envelope.read_text())
        envelope["kind"] = "moment"
        pair_envelope.write_text(json.dumps(envelope))
        out_path = tmp_path / "out.json"
        code, _, err = run_cli(
            capsys,
            "convert",
            "--from",
            "moment",
            "--to",
            "free",
            "--input",
            str(pair_envelope),
            "--output",
            str(out_path),
            "--show-order",
            "3",
        )
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize(
        "from_kind, to_kind, order",
        [("moment", "free", "3"), ("free", "free", "3"), ("free", "monotone", "5")],
    )
    def test_show_order_refused_before_output(
        self, capsys, tmp_path, pair_envelope, from_kind, to_kind, order
    ):
        envelope = json.loads(pair_envelope.read_text())
        envelope["kind"] = from_kind
        pair_envelope.write_text(json.dumps(envelope))
        out_path = tmp_path / "out.json"
        code, _, err = run_cli(
            capsys,
            "convert",
            "--from",
            from_kind,
            "--to",
            to_kind,
            "--input",
            str(pair_envelope),
            "--output",
            str(out_path),
            "--show-order",
            order,
        )
        assert code == 2 and "error:" in err
        assert not out_path.exists()

    def test_kind_mismatch(self, capsys, tmp_path, pair_envelope):
        out_path = tmp_path / "out.json"
        code, _, err = run_cli(
            capsys,
            "convert",
            "--from",
            "boolean",
            "--to",
            "free",
            "--input",
            str(pair_envelope),
            "--output",
            str(out_path),
        )
        assert code == 2 and "tagged" in err

    def test_malformed_input(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(
            capsys,
            "convert",
            "--from",
            "free",
            "--to",
            "moment",
            "--input",
            str(bad),
            "--output",
            str(tmp_path / "out.json"),
        )
        assert code == 2

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "convert",
            "--from",
            "free",
            "--to",
            "moment",
            "--input",
            str(tmp_path / "nope.json"),
            "--output",
            str(tmp_path / "out.json"),
        )
        assert code == 2


class TestHostileEnvelope:
    # each envelope is refused by the real command with exit 2 and one line
    # on stderr, not with a traceback
    @pytest.mark.parametrize(
        "functional",
        [
            {"alphabet": ["a"], "max_order": 2, "values": {"a": "1/0"}},
            {"alphabet": ["a"], "max_order": 2, "values": {"a": [1]}},
            {"alphabet": ["a"], "max_order": 2, "values": [1]},
            {"alphabet": ["a"], "max_order": 2, "values": {"a": 0.1}},
            {"alphabet": ["a"], "max_order": 2, "values": {"a": True}},
            {"alphabet": ["a"], "max_order": True},
            {"alphabet": "ab", "max_order": 2},
            [1],
            {"alphabet": ["a", "b"], "max_order": 64},
        ],
        ids=[
            "zero-denominator",
            "list-value",
            "list-values",
            "float-value",
            "bool-value",
            "bool-max-order",
            "string-alphabet",
            "list-functional",
            "oversized-domain",
        ],
    )
    def test_refused(self, tmp_path, functional):
        in_path = tmp_path / "in.json"
        out_path = tmp_path / "out.json"
        in_path.write_text(json.dumps({"kind": "free", "functional": functional}))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "nccumulants.cli",
                "convert",
                "--from",
                "free",
                "--to",
                "moment",
                "--input",
                str(in_path),
                "--output",
                str(out_path),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert not out_path.exists()


class TestVerify:
    def test_tables_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "tables")
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "pass"
        assert report["checks"][0]["check"] == "omega-table"

    def test_kreimer_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "kreimer")
        assert code == 0
        assert json.loads(out)["status"] == "pass"

    def test_magnus_suite_with_options(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--suite",
            "magnus-closed",
            "--seed",
            "42",
            "--max-order",
            "5",
        )
        assert code == 0
        report = json.loads(out)
        assert report["seed"] == 42 and report["max_order"] == 5

    def test_failed_check_exits_1(self, capsys, monkeypatch):
        omega = trees.omega
        monkeypatch.setattr(trees, "omega", lambda t: omega(t) + 1)
        code, out, _ = run_cli(capsys, "verify", "--suite", "tables")
        assert code == 1
        report = json.loads(out)
        assert report["status"] == "fail"
        assert report["checks"][0]["status"] == "fail"

    def test_unknown_suite_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2
