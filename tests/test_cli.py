import json
from pathlib import Path

import pytest

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

    def test_weighted(self, capsys, tmp_path):
        import gpstable.fixtures as fx

        doc = fx.lambda_star_document()
        doc["arrow_degrees"] = {"a1": 2}
        f = tmp_path / "weighted.json"
        f.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "classify", str(f), "--weighted", "--json")
        assert code == 0
        data = json.loads(out)
        mults = {g["cycle"]: g["multiplicity"] for g in data["graded"]}
        assert mults == {"a1.a2.a3": 4, "a4.a5": 2}


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

    def test_json_flag_overrides_format(self, capsys):
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
        code, out, _ = run(capsys, "ar-quiver", STAR, "--format=json")
        data = json.loads(out)
        assert code == 0
        assert len(data["vertices"]) == 11

    def test_graded_window(self, capsys):
        code, out, _ = run(
            capsys, "ar-quiver", STAR, "--graded", "--window=2", "--format=json"
        )
        assert code == 0
        # one document for both classes: 11 perfect paths x shifts -2..2
        assert len(json.loads(out)["vertices"]) == 55

    def test_graded_window_zero(self, capsys):
        code, out, _ = run(capsys, "ar-quiver", STAR, "--graded", "--window=0", "--json")
        assert code == 0
        assert {v["shift"] for v in json.loads(out)["vertices"]} == {0}

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

    def test_failure_exits_2(self, capsys, monkeypatch):
        import gpstable.cli as cli
        from gpstable.oracle import CheckResult

        monkeypatch.setattr(
            cli,
            "verify_suite",
            lambda alg, random_count, seed: [
                ("input", [CheckResult("forced", False, "injected failure")])
            ],
        )
        code, out, _ = run(capsys, "verify", STAR)
        assert code == 2
        assert "FAIL" in out and "1 failure(s)" in out


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "no-such-file.json")
        assert code == 1 and "cannot read" in err

    def test_bad_document(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text('{"vertices": []}')
        code, _, err = run(capsys, "analyze", str(f))
        assert code == 1 and "error:" in err

    def test_boolean_degree_exits_1(self, capsys, tmp_path):
        import gpstable.fixtures as fx

        doc = fx.a2_document()
        doc["arrow_degrees"] = {"a": True}
        f = tmp_path / "bool_degree.json"
        f.write_text(json.dumps(doc))
        code, _, err = run(capsys, "analyze", str(f))
        assert code == 1 and "positive integer" in err

    def test_internal_error_exits_3(self, capsys, monkeypatch):
        import gpstable.perfect as perfect

        # two overlapping successor cycles break a structural guarantee
        monkeypatch.setattr(
            perfect, "_cycles_of_partial_injection", lambda sigma: [[p] for p in sigma] * 2
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
