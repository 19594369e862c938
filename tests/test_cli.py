import json
import subprocess
import sys

import pytest

from blowring.blowup import BlowupError
from blowring.centralizer import CentralizerError
from blowring.cli import EXIT_ERROR, EXIT_FAIL, EXIT_OK, main
from blowring.fusion import FusionRangeError
from blowring.kring import KRingError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_kernel_model_s_prime(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "kernel", "--model", "S-prime")
        assert code == EXIT_OK
        assert out.strip() == "xi^2 - delta*eta^2 - 1"

    def test_kernel_model_s(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "kernel", "--model", "S")
        assert code == EXIT_OK
        assert out.strip() == "a*b*c - b^2 - c^2 - 1"

    def test_kernel_affine_plane(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "kernel", "--model", "A2-gg")
        assert code == EXIT_OK
        assert out.strip() == "0"

    def test_multiply_abstract(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "multiply", "--presentation", "abstract", "c", "a*b-c"
        )
        assert code == EXIT_OK
        assert out.strip() == "b^2 + 1"

    def test_table_tri(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "table", "--kind", "tri", "--a", "1", "--b", "1", "--l", "2")
        assert code == EXIT_OK
        assert out.strip() == "q^-2 * v(5)_2"

    def test_table_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "table", "--kind", "odin", "--n", "2", "--l", "3", "--output", "csv"
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "kind,params,coeff_q_power,n,m"
        assert lines[1] == "odin,n=2;l=3,-6,8,2"
        assert lines[2] == "odin,n=2;l=3,2,0,0"

    def test_membership_true(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "membership", "--flavor", "GG", "(y^2-1)/(z^2-1)")
        assert code == EXIT_OK
        assert "member=True" in out and "certificate=T" in out

    def test_membership_certificate_in_laurent_notation(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "membership", "--flavor", "GG", "(y-y^-1)/(z-z^-1)", "--output", "json"
        )
        assert code == EXIT_OK
        cert = json.loads(out)["certificate"]
        assert cert == "y^-1*z*T"

    def test_multiply_blowup_outside_convolution_subring_exit_one(self, capsys):
        code, _, _ = run_cli(capsys, "compute", "multiply", "--presentation", "blowup", "T", "z+z^-1")
        assert code == EXIT_FAIL

    def test_membership_false_exit_one(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "membership", "--flavor", "GG", "1/(z^2-1)")
        assert code == EXIT_FAIL
        assert "member=False" in out

    @pytest.mark.parametrize("flavor, fraction", [("gg", "u/x^2"), ("gG", "(y-y^-1)/x^3")])
    def test_membership_over_a_wall_that_is_no_unit(self, capsys, flavor, fraction):
        # the gg and gG wall is x, which no cancellation may divide out of u or y - y^-1
        code, out, err = run_cli(capsys, "compute", "membership", "--flavor", flavor, fraction, "--output", "json")
        assert code == EXIT_FAIL and not err
        assert out == f'{{\n  "flavor": "{flavor}",\n  "member": false,\n  "certificate": null\n}}\n'

    def test_bracket(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "bracket", "--flavor", "GG", "y + y^-1", "z + z^-1"
        )
        assert code == EXIT_OK
        assert "member=True" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("bracket", "--flavor", "GG", "y", "1/(x-1)"),  # x is not a GG variable
            ("bracket", "--flavor", "GG", "y", "T"),  # T is not a chart coordinate
            ("membership", "--flavor", "GG", "x"),
            ("multiply", "--presentation", "abstract", "q", "a"),
            ("multiply", "--presentation", "localized", "q", "z+z^-1"),
            ("multiply", "--presentation", "blowup", "q", "z+z^-1"),
        ],
    )
    def test_foreign_variable_exit_two(self, capsys, argv):
        code, out, err = run_cli(capsys, "compute", *argv)
        assert code == EXIT_ERROR
        assert not out
        assert "are not in the" in err

    def test_invariants(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "invariants", "--model", "S", "--which", "jmath", "--degree-bound", "2"
        )
        assert code == EXIT_OK
        assert set(out.strip().split(", ")) == {"b", "a*c", "a^2", "c^2"}

    def test_invariants_default_is_noether_bound(self, capsys):
        code, out, err = run_cli(capsys, "compute", "invariants", "--model", "S", "--which", "iota,jmath")
        assert code == EXIT_OK
        assert out.strip() == "a^2, b^2, c^2, a*b*c"
        assert not err

    def test_invariants_under_the_group_order_notes_incompleteness(self, capsys):
        code, out, err = run_cli(
            capsys, "compute", "invariants", "--model", "S", "--which", "iota,jmath", "--degree-bound", "2"
        )
        assert code == EXIT_OK
        assert out.strip() == "a^2, b^2, c^2"
        assert err.startswith("note: ") and "may be incomplete" in err

    @pytest.mark.parametrize("task", ["kernel", "invariants"])
    def test_alias_prints_the_canonical_model_name(self, capsys, task):
        code, out, _ = run_cli(capsys, "compute", task, "--model", "S'", "--output", "json")
        assert code == EXIT_OK
        assert json.loads(out)["model"] == "S-prime"

    @pytest.mark.parametrize(
        "argv",
        [
            ("invariants", "--model", "S", "--degree-bound", "0"),
            ("kernel", "--model", "S", "--degree-bound", "3"),
            ("kernel", "--model", "S", "--seed", "1"),
            ("kernel", "--model", "S", "--timing"),
            ("kernel", "--model", "S", "--unknown-flag"),
            ("kernel", "--model", "S", "a"),
            ("multiply", "--presentation", "abstract", "a^-1", "a"),
            ("multiply", "--presentation", "blowup", "T^-1", "z"),
            ("multiply", "c"),
        ],
    )
    def test_ignored_or_malformed_input_exit_two(self, capsys, argv):
        code, out, err = run_cli(capsys, "compute", *argv)
        assert code == EXIT_ERROR
        assert not out
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ("kernel", "--model", "S"),
            ("invariants", "--model", "S", "--which", "iota,jmath"),
            ("multiply", "c", "a*b-c"),
            ("bracket", "--flavor", "GG", "y", "z"),
            ("membership", "--flavor", "GG", "(y^2-1)/(z^2-1)"),
            ("closure", "--flavor", "GG"),
        ],
    )
    def test_csv_output_outside_table_exit_two(self, capsys, tmp_path, argv):
        # only `table` writes CSV; the others would print their text form
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output": "csv"}))
        for given in (("--output", "csv"), ("--config", str(cfg))):
            code, out, err = run_cli(capsys, "compute", *argv, *given)
            assert code == EXIT_ERROR
            assert not out
            assert err.startswith("error: ") and "--output csv" in err

    @pytest.mark.parametrize("key, value", [("seed", 3), ("timing", True), ("timing", False)])
    def test_unread_config_key_exit_two(self, capsys, tmp_path, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code, out, err = run_cli(capsys, "--config", str(cfg), "compute", "kernel", "--model", "S")
        assert code == EXIT_ERROR
        assert not out
        assert f"--{key}" in err

    def test_read_config_keys_pass_on_compute(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output": "json", "term_cap": 200000}))
        code, out, _ = run_cli(capsys, "--config", str(cfg), "compute", "kernel", "--model", "S")
        assert code == EXIT_OK
        assert json.loads(out)["kernel"] == ["a*b*c - b^2 - c^2 - 1"]

    def test_seed_before_compute_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "--seed", "1", "compute", "kernel", "--model", "S")
        assert code == EXIT_ERROR
        assert "--seed" in err

    def test_closure_report_schema(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "closure", "--flavor", "GG", "--output", "json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["flavor"] == "GG"
        assert data["passed"] is True
        assert {"f", "g", "bracket", "member", "certificate"} <= set(data["pairs"][0])

    def test_bracket_prints_as_closure_does(self, capsys):
        _, out, _ = run_cli(capsys, "compute", "closure", "--flavor", "GG", "--output", "json")
        for pair in json.loads(out)["pairs"]:
            code, out, _ = run_cli(
                capsys, "compute", "bracket", "--flavor", "GG", pair["f"], pair["g"], "--output", "json"
            )
            assert code == EXIT_OK
            data = json.loads(out)
            assert (data["bracket"], data["certificate"]) == (pair["bracket"], pair["certificate"])

    def test_parse_error_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "compute", "multiply", "c", "b++")
        assert code == EXIT_ERROR
        assert "error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("membership", "--flavor", "GG", "1/0"),
            ("multiply", "--presentation", "localized", "z^2", "1/(z-z)"),
        ],
    )
    def test_zero_denominator_exit_two(self, capsys, argv):
        code, out, err = run_cli(capsys, "compute", *argv)
        assert code == EXIT_ERROR
        assert not out
        assert err.startswith("error: ") and "zero denominator" in err

    def test_missing_required_option(self, capsys):
        code, _, err = run_cli(capsys, "compute", "kernel")
        assert code == EXIT_ERROR

    def test_semantic_failure_exit_one(self, capsys):
        # a valid polynomial that is not in the convolution subring
        code, _, err = run_cli(
            capsys, "compute", "multiply", "--presentation", "localized", "y", "y"
        )
        assert code == EXIT_FAIL

    @pytest.mark.parametrize(
        "error", [BlowupError, CentralizerError, KRingError, FusionRangeError, ValueError], ids=lambda e: e.__name__
    )
    def test_semantic_errors_exit_one(self, capsys, monkeypatch, error):
        def fail(*args):
            raise error("no such thing")

        monkeypatch.setattr("blowring.cli.cmd_compute", fail)
        code, _, err = run_cli(capsys, "compute", "kernel", "--model", "S")
        assert code == EXIT_FAIL and err == "error: no such thing\n"


class TestVerify:
    def test_homology_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "homology")
        assert code == EXIT_OK
        assert "0 failed" in out

    def test_corrupted_relation_fails(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "homology", "--corrupt", "homology")
        assert code == EXIT_FAIL
        assert "FAIL" in out

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "steinberg", "--output", "json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["suite"] == "steinberg"
        for check in data["checks"]:
            assert set(check) == {"name", "status", "witness", "ms"}
            assert check["status"] in ("pass", "fail", "skipped-ambiguous")
            assert check["ms"] == 0

    def test_timing_charges_no_closure_record_with_the_closure(self, capsys):
        # the bracket closure is set-up shared by the pair records, charged to none of them
        code, out, _ = run_cli(capsys, "verify", "blowup", "--timing", "--output", "json")
        assert code == EXIT_OK
        closure = [c for c in json.loads(out)["checks"] if "bracket closure" in c["name"]]
        assert closure
        assert all(c["ms"] < 50 for c in closure), [(c["name"], c["ms"]) for c in closure if c["ms"] >= 50]

    def test_skipped_ambiguous_reported(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "kring", "--output", "json")
        assert code == EXIT_OK
        data = json.loads(out)
        statuses = {c["status"] for c in data["checks"]}
        assert "skipped-ambiguous" in statuses

    def test_determinism_identical_bytes(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "heisenberg", "--seed", "5", "--output", "json")
        _, out2, _ = run_cli(capsys, "verify", "heisenberg", "--seed", "5", "--output", "json")
        assert out1 == out2

    @pytest.mark.parametrize(
        "argv",
        [("verify", "centralizer", "--degree-bound", "4"), ("--degree-bound", "4", "verify", "blowup")],
    )
    def test_degree_bound_exit_two(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_ERROR
        assert not out

    def test_unknown_suite_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "everything")
        assert code == EXIT_ERROR

    @pytest.mark.parametrize(
        "suite, target",
        [("kring", "typo"), ("homology", "blowup:GG"), ("centralizer", "centralizer:A2-gg")],
    )
    def test_corruption_target_outside_suite_rejected(self, capsys, suite, target):
        code, out, err = run_cli(capsys, "verify", suite, "--corrupt", target)
        assert code == EXIT_ERROR
        assert not out
        assert repr(target) in err


class TestTermBudget:
    @pytest.mark.parametrize(
        "argv",
        [
            ("--term-cap", "3", "verify", "homology"),
            ("--term-cap", "3", "verify", "steinberg"),
            ("--term-cap", "5", "verify", "kring"),
            ("--term-cap", "5", "verify", "centralizer"),
            ("--term-cap", "3", "compute", "multiply", "c", "a*b-c"),
            ("--term-cap", "5", "compute", "kernel", "--model", "S"),
            ("--term-cap", "5", "compute", "invariants", "--model", "S", "--which", "iota,jmath"),
        ],
    )
    def test_cap_bounds_every_groebner_path(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_ERROR
        assert "resource limit" in err

    def test_full_run_fits_a_small_cap(self, capsys):
        # with sugar selection and memoized rewrites no normal form or basis
        # of `verify all` reaches 200 terms (the floor is 122)
        code, _, err = run_cli(capsys, "--term-cap", "200", "verify", "all")
        assert code == EXIT_OK, err


class TestConfig:
    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3, "output": "json"}))
        code, out, _ = run_cli(capsys, "--config", str(cfg), "verify", "steinberg")
        assert code == EXIT_OK
        json.loads(out)

    def test_malformed_config_exit_two(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus_key": 1}))
        code, _, err = run_cli(capsys, "--config", str(cfg), "verify", "steinberg")
        assert code == EXIT_ERROR

    def test_removed_random_checks_key_exit_two(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"random_checks": 0}))
        code, _, err = run_cli(capsys, "--config", str(cfg), "verify", "steinberg")
        assert code == EXIT_ERROR
        assert "random_checks" in err

    def test_invalid_bound_exit_two(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"term_cap": 0}))
        code, _, _ = run_cli(capsys, "--config", str(cfg), "verify", "steinberg")
        assert code == EXIT_ERROR

    def test_removed_degree_bound_key_exit_two(self, capsys, tmp_path):
        # verify derives no bound from the config: the key would be ignored
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"degree_bound": 4}))
        code, out, err = run_cli(capsys, "--config", str(cfg), "verify", "steinberg")
        assert code == EXIT_ERROR
        assert not out
        assert "degree_bound" in err

    @pytest.mark.parametrize(
        "data",
        [{"term_cap": "5"}, {"term_cap": True}, {"timing": "yes"}, {"seed": "x"}, {"output": 1}, [1]],
    )
    def test_mistyped_value_exit_two(self, capsys, tmp_path, data):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "--config", str(cfg), "verify", "steinberg")
        assert code == EXIT_ERROR
        assert not out
        assert err.startswith("error: ")

    def test_keys_are_the_config_fields(self):
        from dataclasses import fields

        from blowring.reports import Config

        assert [f.name for f in fields(Config)] == ["term_cap", "seed", "output", "timing"]


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "blowring.cli", "compute", "kernel", "--model", "S-prime"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "xi^2 - delta*eta^2 - 1"
