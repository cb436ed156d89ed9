import hashlib
import json
import re
import subprocess
import sys

import pytest


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "isurf", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


class TestVerify:
    def test_builder_plus_verifier_passes(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "surfaces": [{"builder": "2", "options": {"d1": "se"}}],
                "checks": [{"check": "verify_i_surface", "surface": 0}],
            },
        )
        res = run_cli("verify", cfg)
        assert res.returncode == 0, res.stderr
        assert "FAIL" not in res.stdout

    def test_injected_mismatch_exits_1(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "surfaces": [{"builder": "1"}],
                "checks": [{"check": "l_square", "surface": 0, "expected": 2}],
            },
        )
        res = run_cli("verify", cfg)
        assert res.returncode == 1
        assert "expected=2" in res.stdout and "computed=1" in res.stdout

    def test_asymmetric_gram_exits_2(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "surfaces": [
                    {
                        "model": {
                            "lattice": {"basis": ["a", "b"], "gram": [[0, 1], [2, 0]]},
                            "K": [0, 0],
                            "chiO": 1,
                            "curves": [],
                            "divisors": [],
                            "germs": [],
                        }
                    }
                ],
                "checks": [],
            },
        )
        res = run_cli("verify", cfg)
        assert res.returncode == 2
        assert "symmetric" in res.stderr

    def test_malformed_json_exits_2_with_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"surfaces": [,]}', encoding="utf-8")
        res = run_cli("verify", str(path))
        assert res.returncode == 2
        assert re.search(r"line \d+ column \d+", res.stderr)

    def test_inline_model_checks(self, tmp_path):
        import isurf

        surf = isurf.build_stratum("2,1")
        cfg = write_config(
            tmp_path,
            {
                "surfaces": [{"model": surf.to_json()}],
                "checks": [
                    {"check": "pair", "surface": 0, "a": "M1", "b": "M2", "expected": 1},
                    {"check": "nef", "surface": 0, "divisor": "M2", "expected": True},
                    {"check": "riemann_roch", "surface": 0, "divisor": "L", "expected": 1},
                    {"check": "adjunction", "surface": 0, "divisor": "D1", "expected": 1},
                    {"check": "agree", "surface": 0, "a": "L", "b": "L", "expected": True},
                    {"check": "signature", "surface": 0,
                     "lattice": {"basis": ["x"], "gram": [[-2]]},
                     "expected": [0, 1, 0]},
                ],
                "output": "json",
            },
        )
        res = run_cli("verify", cfg)
        assert res.returncode == 0, res.stdout + res.stderr
        data = json.loads(res.stdout)
        assert data["summary"]["ok"] is True

    def test_json_report_deterministic(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "surfaces": [{"builder": "2,2"}],
                "checks": [
                    {"check": "verify_i_surface", "surface": 0},
                    {"check": "l_square", "surface": 0, "expected": 1},
                ],
                "output": "json",
                "dot_path": str(tmp_path / "strata.dot"),
            },
        )
        first = run_cli("verify", cfg)
        second = run_cli("verify", cfg)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert (tmp_path / "strata.dot").read_text().startswith("digraph strata {")

    def test_unknown_check_exits_2(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"surfaces": [], "checks": [{"check": "who-knows"}]},
        )
        res = run_cli("verify", cfg)
        assert res.returncode == 2

    def test_signature_expected_not_a_list_exits_2(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "surfaces": [{"builder": "1"}],
                "checks": [{"check": "signature", "expected": 5}],
            },
        )
        res = run_cli("verify", cfg)
        assert res.returncode == 2
        assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("entry", ["x", 1.5, True, None])
    def test_non_integer_vector_entry_exits_2(self, tmp_path, entry):
        import isurf

        rank = isurf.build_stratum("1").lattice.rank
        cfg = write_config(
            tmp_path,
            {
                "surfaces": [{"builder": "1"}],
                "checks": [{"check": "pair", "a": [1] + [0] * (rank - 2) + [entry], "b": "K"}],
            },
        )
        res = run_cli("verify", cfg)
        assert res.returncode == 2
        assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1
        assert "integers" in res.stderr

    def test_unwritable_dot_path_exits_2(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "surfaces": [{"builder": "1"}],
                "checks": [{"check": "l_square", "expected": 1}],
                "dot_path": str(tmp_path / "missing" / "strata.dot"),
            },
        )
        res = run_cli("verify", cfg)
        assert res.returncode == 2
        assert res.stderr.startswith("error: cannot write dot_path:")
        assert res.stderr.count("\n") == 1
        assert res.stdout == ""

    def test_non_string_dot_path_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"surfaces": [], "checks": [], "dot_path": 5})
        res = run_cli("verify", cfg)
        assert res.returncode == 2
        assert res.stderr == "error: dot_path must be a string\n"

    def test_bad_builder_option_exits_2(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "surfaces": [{"builder": "2,1,1", "options": {"mults": [2, 2, 1]}}],
                "checks": [],
            },
        )
        res = run_cli("verify", cfg)
        assert res.returncode == 2


class TestReplicate:
    def test_full_run_passes_with_enough_entries(self):
        res = run_cli("replicate-paper", "--json")
        assert res.returncode == 0, res.stdout[-2000:]
        data = json.loads(res.stdout)
        assert data["summary"]["fail"] == 0
        assert data["summary"]["pass"] >= 60
        # deterministic ordering by check id
        ids = [e["id"] for e in data["entries"]]
        assert ids == sorted(ids)
        # every entry carries a source label
        assert all(e["source"] for e in data["entries"])

    def test_only_filter(self):
        res = run_cli("replicate-paper", "--only", "thm4.3")
        assert res.returncode == 0
        lines = [l for l in res.stdout.splitlines() if l.startswith("PASS")]
        assert lines and all("thm4.3" in l for l in lines)

    def test_only_no_match_exits_2(self):
        res = run_cli("replicate-paper", "--only", "thm99.9")
        assert res.returncode == 2
        listed = run_cli("replicate-paper", "--list", "--only", "thm99.9")
        assert listed.returncode == 2
        assert listed.stdout == ""
        assert listed.stderr.startswith("error:")

    def test_list_does_not_execute(self):
        res = run_cli("replicate-paper", "--list")
        assert res.returncode == 0
        assert "thm4.3.pairing" in res.stdout
        assert "PASS" not in res.stdout

    @pytest.mark.parametrize(
        "args,digest",
        [
            (("replicate-paper", "--json"),
             "c93fc7e372854b9f157c6077f65a5818ab5298060f241de847d2e000345d625b"),
            (("replicate-paper", "--list"),
             "e35c0668be44687594d398784de6c44ae1290399e0bb929766b01a381926d307"),
            (("strata-graph",),
             "b2b3deb5309a572bc7bdba5eba4a3c51152b55b196f3974998354b0aceb62217"),
        ],
    )
    def test_output_is_byte_identical_to_golden(self, args, digest):
        # the published catalog report, entry list and strata graph: any
        # change to a computed value, a source label or the layout shows here
        res = run_cli(*args)
        assert res.returncode == 0
        assert hashlib.sha256(res.stdout.encode("utf-8")).hexdigest() == digest

    def test_vanishing_bound_crash_fails_only_its_entries(self, monkeypatch, capsys):
        from isurf import builders, cli
        from isurf.catalog import run_catalog

        def broken(*args, **kwargs):
            raise RuntimeError("double cover unavailable")

        monkeypatch.setattr(builders, "build_double_cover", broken)
        assert cli.main(["replicate-paper", "--list"]) == 0
        assert "thm4.3.pairing  [Thm 4.3: B0.(sigma0+3f-e)]" in capsys.readouterr().out
        report = run_catalog()
        failed = {e.check_id for e in report.entries if not e.passed}
        assert failed == {row[0] for row in builders.VANISHING_BOUNDS}
        assert len(report.entries) - len(failed) == 111
        assert cli.main(["replicate-paper"]) == 1
        out = capsys.readouterr().out
        assert "RuntimeError: double cover unavailable" in out


class TestGermCommands:
    def test_enumerate(self):
        res = run_cli("enumerate", "--max-mult", "1", "--max-length", "4")
        assert res.returncode == 0
        assert res.stdout.splitlines() == [
            "se:1", "c:1", "c:2,3", "c:2,2,3", "c:2,2,2,3"
        ]

    def test_enumerate_bad_mult(self):
        res = run_cli("enumerate", "--max-mult", "5", "--max-length", "4")
        assert res.returncode == 2

    def test_adjacent_true(self):
        res = run_cli("adjacent", "c:4,2", "se:1")
        assert res.returncode == 0
        assert res.stdout.strip() == "true"

    def test_adjacent_false(self):
        res = run_cli("adjacent", "se:1", "se:2")
        assert res.returncode == 0
        assert res.stdout.strip() == "false"

    def test_adjacent_parse_error(self):
        res = run_cli("adjacent", "c:4,2", "nonsense:1")
        assert res.returncode == 2


class TestStrataGraphCommand:
    def test_writes_dot(self, tmp_path):
        out = tmp_path / "strata.dot"
        res = run_cli("strata-graph", "--out", str(out))
        assert res.returncode == 0
        text = out.read_text(encoding="utf-8")
        assert text.count("[label=") == 9
        assert "->" in text

    def test_stdout_mode(self):
        res = run_cli("strata-graph")
        assert res.returncode == 0
        assert res.stdout.startswith("digraph strata {")
