import json
import subprocess
import sys
from pathlib import Path

import pytest

import gpstable
from gpstable.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
STAR = str(FIXTURES / "lambda_star.json")
A2 = str(FIXTURES / "a2.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAnalyze:
    def test_star_report(self, capsys):
        code, out, _ = run(capsys, "analyze", STAR)
        assert code == 0
        assert "Perfect paths (11)" in out
        assert "m_c=4" in out and "m_c=3" in out
        assert "Count identity" in out and "ok" in out

    def test_a2_cm_free(self, capsys):
        code, out, _ = run(capsys, "analyze", A2)
        assert code == 0
        assert "CM-free: no perfect paths" in out

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "analyze", STAR, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["basis_size"] == 104
        assert len(data["perfect_paths"]) == 11

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "analyze", STAR, "--json")
        _, second, _ = run(capsys, "analyze", STAR, "--json")
        assert first == second


class TestClassify:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "classify", STAR)
        assert code == 0
        assert "A4 x3" in out and "A3 x2" in out
        assert "Nakayama(2 vertices, rad^5)" in out
        assert "Nakayama(1 vertices, rad^4)" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "classify", STAR, "--json")
        data = json.loads(out)
        assert code == 0
        assert {"cycle": "a1.a2.a3", "typeA_size": 4, "multiplicity": 3} in data[
            "graded"
        ]
        assert {"vertices": 2, "radical_exponent": 5} in data["ungraded"]
        assert data["cm_free"] is False


class TestHom:
    def test_graded(self, capsys):
        code, out, _ = run(
            capsys,
            "hom",
            STAR,
            "--from=a1.a2.a3",
            "--to=a1.a2.a3.a1.a2",
            "--graded",
            "--shift=3",
        )
        assert code == 0
        assert "= 1" in out and "a1.a2.a3.a1.a2.a3" in out

    def test_ungraded(self, capsys):
        code, out, _ = run(
            capsys, "hom", STAR, "--from=a1.a2.a3", "--to=a1.a2.a3.a1.a2"
        )
        assert code == 0
        assert "= 1" in out and "shift 3" in out

    def test_not_perfect_is_input_error(self, capsys):
        code, _, err = run(capsys, "hom", STAR, "--from=b2", "--to=a4.a5")
        assert code == 1
        assert "not a perfect path" in err

    def test_shift_requires_graded(self, capsys):
        code, _, err = run(
            capsys, "hom", STAR, "--from=a3", "--to=a3", "--shift=1"
        )
        assert code == 1
        assert "--graded" in err


class TestHasse:
    def test_dot(self, capsys):
        code, out, _ = run(capsys, "hasse", STAR, "--order=prec")
        assert code == 0
        assert '"a1.a2.a3" -> "a1.a2"' in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "hasse", STAR, "--order=leq", "--json")
        data = json.loads(out)
        assert code == 0
        assert data["order"] == "leq"
        assert ["a1.a2", "a3.a1.a2"] in data["arrows"]


class TestArQuiver:
    def test_dot_counts(self, capsys):
        code, out, _ = run(capsys, "ar-quiver", STAR)
        assert code == 0
        assert out.count("label=") == 11 + 1  # node labels plus graph label

    def test_json(self, capsys):
        code, out, _ = run(capsys, "ar-quiver", STAR, "--json")
        data = json.loads(out)
        assert code == 0
        assert len(data["vertices"]) == 11

    def test_graded_window(self, capsys):
        code, out, _ = run(
            capsys, "ar-quiver", STAR, "--graded", "--window=2", "--json"
        )
        assert code == 0
        # one document for both classes: 11 perfect paths x shifts -2..2
        assert len(json.loads(out)["vertices"]) == 55

    def test_graded_window_zero(self, capsys):
        code, out, _ = run(capsys, "ar-quiver", STAR, "--graded", "--window=0", "--json")
        assert code == 0
        assert {v["shift"] for v in json.loads(out)["vertices"]} == {0}

    def test_window_requires_graded(self, capsys):
        code, out, err = run(capsys, "ar-quiver", STAR, "--window=3")
        assert (code, out) == (1, "")
        assert err == "error: --window requires --graded\n"

    @pytest.mark.parametrize("fixture", [A2, STAR])
    def test_negative_window_rejected(self, capsys, fixture):
        # a2 is CM-free, so the check must not wait for ar_quiver
        code, out, err = run(
            capsys, "ar-quiver", fixture, "--graded", "--window=-1", "--json"
        )
        assert (code, out) == (1, "")
        assert err == "error: --window must be non-negative, got -1\n"

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "quiver.dot"
        code, out, _ = run(capsys, "ar-quiver", STAR, "--output", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("digraph")


class TestVerify:
    def test_ok(self, capsys):
        code, out, _ = run(capsys, "verify", STAR)
        assert code == 0
        assert "all checks passed" in out

    def test_with_randoms_json(self, capsys):
        code, out, _ = run(
            capsys, "verify", STAR, "--random=2", "--seed=7", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert len(data) == 3
        assert all(c["ok"] for tbl in data for c in tbl["checks"])

    def test_negative_random_rejected(self, capsys):
        code, out, err = run(capsys, "verify", A2, "--random=-2")
        assert (code, out) == (1, "")
        assert err == "error: --random must be non-negative, got -2\n"

    def test_failure_exits_2(self, capsys, monkeypatch):
        import gpstable.oracle as oracle
        from gpstable.oracle import CheckResult

        monkeypatch.setattr(
            oracle,
            "verify_suite",
            lambda alg, random_count, seed: [
                ("input", [CheckResult("forced", False, "injected failure")])
            ],
        )
        code, out, _ = run(capsys, "verify", STAR)
        assert code == 2
        assert "FAIL" in out and "1 failure(s)" in out
        code, out, _ = run(capsys, "verify", STAR, "--json")
        assert code == 2 and json.loads(out)[0]["checks"][0]["ok"] is False


    def test_stage_error_is_a_fail_row(self, capsys, monkeypatch):
        import gpstable.analysis as analysis
        from gpstable.algebra import InternalConsistencyError

        def broken(*args, **kwargs):
            raise InternalConsistencyError("injected")

        # Every algebra with a cycle class now fails to decompose; the
        # suite must record that and still run the random tables.
        monkeypatch.setattr(analysis, "decompose_cycle", broken)
        code, out, err = run(
            capsys, "verify", STAR, "--random=3", "--seed=7", "--json"
        )
        assert code == 2 and err == ""
        data = json.loads(out)
        assert [t["algebra"] for t in data] == ["input"] + [
            f"random-{k}(seed=7)" for k in range(3)
        ]
        assert data[0]["checks"][-1] == {
            "name": "build-decompositions",
            "ok": False,
            "detail": "InternalConsistencyError: injected",
        }
        assert all(c["ok"] for c in data[0]["checks"][:-1])
        assert all(len(t["checks"]) >= 3 for t in data[1:])

    def test_other_commands_leave_the_oracle_unloaded(self):
        # A fresh interpreter: this one has long imported the oracle.
        src = str(Path(gpstable.__file__).resolve().parent.parent)
        child = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; sys.path.insert(0, sys.argv[1]); import gpstable.cli;"
                " print('gpstable.oracle' in sys.modules)",
                src,
            ],
            capture_output=True,
            text=True,
            check=True,
        )
        assert child.stdout == "False\n"


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "no-such-file.json")
        assert code == 1 and "cannot read" in err

    def test_non_utf8_file(self, capsys, tmp_path):
        f = tmp_path / "latin.json"
        f.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "analyze", str(f))
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot read {f}:")

    def test_deeply_nested_json(self, capsys, tmp_path):
        f = tmp_path / "deep.json"
        f.write_text("[" * 100000)
        code, _, err = run(capsys, "analyze", str(f))
        assert code == 1 and err.startswith("error: malformed JSON document:")

    def test_huge_integer_literal(self, capsys, tmp_path):
        # past the interpreter's 4300-digit int conversion limit json.loads
        # raises a plain ValueError, which used to escape as a traceback
        f = tmp_path / "bigint.json"
        f.write_text('{"vertices": ["1"], "arrows": [], "relations": [], "n": %s}' % ("9" * 5000))
        code, out, err = run(capsys, "analyze", str(f))
        assert code == 1 and out == ""
        assert err.startswith("error: malformed JSON document:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "literal, kind",
        [("null", "null"), ("true", "true"), ("1", "a number"), ("NaN", "a number")],
    )
    @pytest.mark.parametrize(
        "field, message",
        [
            ("vertex", "vertex #1 must be a string"),
            ("id", "arrow #0 'id' must be a string"),
            ("from", "arrow #0 'from' must be a string"),
            ("to", "arrow #0 'to' must be a string"),
            ("relation", "relation #0 entry #1 must be a string"),
        ],
    )
    def test_non_string_id_exits_1(self, capsys, tmp_path, literal, kind, field, message):
        # str() used to read null, true, 1 and NaN as the ids "None",
        # "True", "1" and "nan"
        vertex = literal if field == "vertex" else '"2"'
        ends = {key: literal if field == key else f'"{v}"' for key, v in (("from", 1), ("to", 2))}
        arrow = literal if field == "id" else '"a"'
        entry = literal if field == "relation" else '"b"'
        f = tmp_path / "ids.json"
        f.write_text(
            f'{{"vertices": ["1", {vertex}], "arrows": [{{"id": {arrow}, '
            f'"from": {ends["from"]}, "to": {ends["to"]}}}, '
            f'{{"id": "b", "from": "2", "to": "1"}}], "relations": [["a", {entry}]]}}'
        )
        code, out, err = run(capsys, "analyze", str(f))
        assert (code, out) == (1, "")
        assert err == f"error: {message}, got {kind}\n"

    @pytest.mark.parametrize("target", ["missing/out.txt", "."])
    def test_unwritable_output(self, capsys, tmp_path, target):
        out_path = tmp_path / target
        code, out, err = run(capsys, "analyze", A2, "-o", str(out_path))
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot write {out_path}:")

    def test_bad_document(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text('{"vertices": []}')
        code, _, err = run(capsys, "analyze", str(f))
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1, 2]", "input document must be a JSON object"),
            (
                '{"vertices": ["1", "2"], "arrows": [["a", "1", "2"]], "relations": []}',
                "arrow #0 must be an object with 'id', 'from' and 'to'",
            ),
            (
                '{"vertices": ["1"], "arrows": [{"id": "a", "from": "1"}], '
                '"relations": []}',
                "arrow #0 must be an object with 'id', 'from' and 'to'",
            ),
        ],
        ids=["document", "arrow-entry", "arrow-keys"],
    )
    def test_non_object_exits_1(self, capsys, tmp_path, text, message):
        f = tmp_path / "not_object.json"
        f.write_text(text)
        code, out, err = run(capsys, "analyze", str(f))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("arrow_id", ["a.b", "", " x", "x ", "x\\"])
    def test_arrow_id_outside_path_strings_exits_1(self, capsys, tmp_path, arrow_id):
        # with arrow a.b, `hom --from a.b` used to read the arrows a and b;
        # with arrow " x", `hom --from " x"` used to look up the arrow x;
        # with arrow x\, `hasse` used to print the DOT id "x\", which never
        # closes
        import gpstable.fixtures as fx

        doc = fx.loop_document(1)
        doc["arrows"][0]["id"] = arrow_id
        doc["relations"] = [[arrow_id, arrow_id]]
        f = tmp_path / "arrow_id.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, "hom", str(f), f"--from={arrow_id}", f"--to={arrow_id}")
        assert code == 1 and out == ""
        assert err.startswith(f"error: arrow id {arrow_id!r} must be non-empty")

    def test_line_break_in_arrow_id_exits_1_on_one_line(self, capsys, tmp_path):
        # a loop "a\nb" with no relation used to be reported on two stderr
        # lines, "... the cycle a" and "b indefinitely"
        doc = {"vertices": ["1"], "arrows": [{"id": "a\nb", "from": "1", "to": "1"}]}
        f = tmp_path / "line_break.json"
        f.write_text(json.dumps({**doc, "relations": []}))
        code, out, err = run(capsys, "analyze", str(f))
        assert code == 1 and out == "" and err.count("\n") == 1
        assert err.startswith("error: arrow id 'a\\nb' must be non-empty")

    @pytest.mark.parametrize("command", ["hasse", "ar-quiver"])
    def test_backslash_in_arrow_id_exits_1(self, capsys, tmp_path, command):
        # the arrow x\ used to be printed as the DOT id "x\", whose closing
        # quote DOT reads as escaped
        import gpstable.fixtures as fx

        doc = fx.loop_document(1)
        doc["arrows"][0]["id"] = "x\\"
        doc["relations"] = [["x\\", "x\\"]]
        f = tmp_path / "backslash.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, str(f))
        assert code == 1 and out == ""
        assert err.startswith("error: arrow id 'x\\\\' must be non-empty") and "'\\'" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", STAR, "--weighted"],
            ["hasse", STAR, "--format=dot"],
            ["ar-quiver", STAR, "--format=json"],
        ],
        ids=["classify--weighted", "hasse--format", "ar-quiver--format"],
    )
    def test_retired_option_is_a_usage_error(self, capsys, argv):
        # a retired flag must not be read as an abbreviation of another
        # option or be silently ignored: argparse exits 2 and prints nothing
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert f"unrecognized arguments: {argv[-1]}" in out.err

    def test_declared_degrees_exit_1(self, capsys, tmp_path):
        import gpstable.fixtures as fx

        doc = fx.a2_document()
        doc["arrow_degrees"] = {"a": 2}
        f = tmp_path / "degrees.json"
        f.write_text(json.dumps(doc))
        for cmd in ("analyze", "classify"):
            code, out, err = run(capsys, cmd, str(f))
            assert code == 1 and out == ""
            assert "arrow_degrees" in err and "shifts by arrow length" in err

    def test_internal_error_exits_3(self, capsys, monkeypatch):
        import gpstable.perfect as perfect

        # two overlapping successor cycles break a structural guarantee
        monkeypatch.setattr(
            perfect,
            "_cycles_of_partial_injection",
            lambda sigma, key: [[p] for p in sigma] * 2,
        )
        code, out, err = run(capsys, "analyze", STAR)
        assert code == 3 and out == ""
        assert err == "internal error: successor cycles are not disjoint\n"

    def test_non_admissible(self, capsys, tmp_path):
        f = tmp_path / "free_loop.json"
        f.write_text(
            json.dumps(
                {
                    "vertices": ["1"],
                    "arrows": [{"id": "x", "from": "1", "to": "1"}],
                    "relations": [],
                }
            )
        )
        code, _, err = run(capsys, "analyze", str(f))
        assert code == 1 and "cycle" in err
