import json
import subprocess
import sys

import pytest

from cstarfix import cli
from cstarfix.cli import main
from cstarfix.demos import DEMOS, STAGES, run_demo
from cstarfix.registry import UnknownNameError, get_space


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestDemoCommand:
    def test_known_demo_exits_zero(self, capsys):
        assert main(["demo", "ex3.8", "--samples", "200"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"]
        stages = {s["stage"]: s for s in payload["stages"]}
        assert stages["metric-axioms-self-distance"]["observed"] == "fail"
        assert stages["contraction-verify"]["observed"] == "pass"

    def test_unknown_demo_exits_two(self, capsys):
        assert main(["demo", "bogus"]) == 2
        assert "registered demos" in capsys.readouterr().err

    def test_structured_output_is_deterministic(self, capsys):
        main(["demo", "cor4.4", "--seed", "5", "--samples", "300"])
        first = capsys.readouterr().out
        main(["demo", "cor4.4", "--seed", "5", "--samples", "300"])
        second = capsys.readouterr().out
        assert first == second

    def test_all_registered_demos_pass(self):
        for demo_id in ("ex2.3", "ex2.4", "ex3.13", "cor4.1", "cor4.5", "cor4.6"):
            assert main(["demo", demo_id, "--samples", "200"]) == 0

    def test_every_row_stage_has_one_stage_function(self):
        used = {name for demo in DEMOS.values() for name, _ in demo.stages}
        assert used <= set(STAGES)  # every stage a row names is in the stage table
        assert set(STAGES) <= used  # every stage kind is used by some row

    def test_module_entry_point(self):
        def run(*args):
            cmd = [sys.executable, "-m", "cstarfix.cli", "demo", *args]
            return subprocess.run(cmd, capture_output=True, text=True, timeout=120)

        ok = run("ex2.4", "--samples", "20")
        assert ok.returncode == 0, ok.stderr
        assert json.loads(ok.stdout)["demo"] == "ex2.4"
        assert run("bogus").returncode == 2

    def test_repeated_main_calls_match_single_calls(self, tmp_path, capsys):
        # main keeps one parser per process; each call must still behave as a fresh run
        cfg = write(tmp_path, "a.json", {"space": "sum_premetric"})
        runs = [["demo", "ex2.4", "--samples", "20"],
                ["axioms", "--config", cfg, "--samples", "50", "--format", "human"],
                ["demo", "bogus"]]
        for argv in runs:
            code = main(argv)
            out, err = capsys.readouterr()
            cmd = [sys.executable, "-m", "cstarfix.cli", *argv]
            single = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
            assert (code, out, err) == (single.returncode, single.stdout, single.stderr)

    def test_human_format(self, capsys):
        assert main(["demo", "ex2.4", "--samples", "100", "--format", "human"]) == 0
        out = capsys.readouterr().out
        assert "stage" in out and "{" not in out


class TestAxiomsCommand:
    def test_premetric_failure_is_reported_not_fatal(self, tmp_path, capsys):
        cfg = write(tmp_path, "a.json", {"space": "sum_premetric"})
        assert main(["axioms", "--config", cfg, "--samples", "300"]) == 0
        payload = json.loads(capsys.readouterr().out)
        verdicts = {c["axiom"]: c["verdict"] for c in payload["checks"]}
        assert verdicts["self-distance-zero"] == "fail"

    def test_partial_space_all_pass(self, tmp_path, capsys):
        cfg = write(tmp_path, "a.json", {"space": "absdiff_pair"})
        assert main(["axioms", "--config", cfg, "--samples", "300"]) == 0
        assert json.loads(capsys.readouterr().out)["all_pass"]

    @pytest.mark.parametrize(
        "space,check",
        [("shifted_max_matrix", "metric"), ("diag_absdiff_matrix", "partial")],
    )
    def test_check_of_the_wrong_flavor_exits_two(self, tmp_path, capsys, space, check):
        cfg = write(tmp_path, "a.json", {"space": space, "check": check})
        assert main(["axioms", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_unknown_space_exits_two(self, tmp_path):
        cfg = write(tmp_path, "a.json", {"space": "nope"})
        assert main(["axioms", "--config", cfg]) == 2

    def test_internal_key_error_is_not_a_config_error(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("internal")

        monkeypatch.setattr(cli, "verify_contraction", broken)
        cfg = write(
            tmp_path, "v.json",
            {"family": "plain", "k": 0.5, "space": "sum_premetric",
             "operator": "halving", "phi": "coordinate_pair"},
        )
        with pytest.raises(KeyError, match="internal"):
            main(["verify", "--config", cfg])

    def test_unknown_name_error_is_a_key_error(self):
        with pytest.raises(UnknownNameError, match="unknown space 'nope'"):
            get_space("nope")
        with pytest.raises(UnknownNameError, match="unknown demo 'bogus'"):
            run_demo("bogus")
        assert issubclass(UnknownNameError, KeyError)

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["axioms", "--config", str(path)]) == 2
        assert "line" in capsys.readouterr().err


class TestVerifyCommand:
    def test_out_of_range_constant_exits_two(self, tmp_path):
        cfg = write(
            tmp_path, "v.json",
            {"family": "kannan", "k": 0.6, "space": "max_unit_interval",
             "operator": "quartering", "mode": "partial"},
        )
        assert main(["verify", "--config", cfg]) == 2

    def test_certified_verify_exits_zero(self, tmp_path, capsys):
        cfg = write(
            tmp_path, "v.json",
            {"family": "banach", "k": 0.5, "space": "max_unit_interval",
             "operator": "halving", "mode": "partial"},
        )
        assert main(["verify", "--config", cfg, "--samples", "500"]) == 0
        assert json.loads(capsys.readouterr().out)["certified"]

    def test_counterexample_exits_one(self, tmp_path, capsys):
        cfg = write(
            tmp_path, "v.json",
            {"family": "banach", "k": 0.25, "space": "max_unit_interval",
             "operator": "halving", "mode": "partial"},
        )
        assert main(["verify", "--config", cfg, "--samples", "500"]) == 1
        assert "counterexample" in json.loads(capsys.readouterr().out)

    def test_non_finite_unread_constant_exits_two(self, tmp_path, capsys):
        cfg = write(
            tmp_path, "v.json",
            {"space": "max_unit_interval", "mode": "partial", "operator": "halving",
             "family": "plain", "k": 0.5, "alpha": float("nan"), "gamma": float("inf")},
        )
        assert main(["verify", "--config", cfg]) == 2
        assert capsys.readouterr().err == "config error: plain requires a finite alpha, got nan\n"

    def test_metric_mode_with_phi(self, tmp_path, capsys):
        cfg = write(
            tmp_path, "v.json",
            {"family": "plain", "k": 0.5, "space": "sum_premetric",
             "operator": "halving", "phi": "coordinate_pair", "combiner": "sum"},
        )
        assert main(["verify", "--config", cfg, "--samples", "500"]) == 0


class TestSolveCommand:
    def test_solve_writes_csv_trace(self, tmp_path):
        cfg = write(
            tmp_path, "s.json",
            {"family": "plain", "k": 0.5, "space": "sum_premetric",
             "operator": "halving", "phi": "coordinate_pair", "x0": 1.0},
        )
        out = tmp_path / "trace.csv"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,step_norm,apriori_bound,phi_residual"
        steps = [float(line.split(",")[1]) for line in lines[1:]]
        # halving orbit: consecutive step norms halve
        for a, b in zip(steps, steps[1:]):
            assert b == pytest.approx(0.5 * a, rel=1e-9)

    def test_partial_solve_structured(self, tmp_path, capsys):
        cfg = write(
            tmp_path, "s.json",
            {"family": "banach", "k": 0.5, "space": "max_unit_interval",
             "operator": "halving", "mode": "partial", "x0": 1.0},
        )
        assert main(["solve", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["certified"]
        assert payload["self_distance_norm"] <= 1e-10

    @pytest.mark.parametrize(
        "setting",
        [{"x0": "abc"}, {"x0": None}, {"x0": 1.0, "max_iter": 0},
         {"x0": 1.0, "max_iter": "ten"},
         # no coercion: a fraction, a bool or a string is not an iteration count,
         # and a string or a bool is not a point
         {"x0": 1.0, "max_iter": 2.9}, {"x0": 1.0, "max_iter": True},
         {"x0": 1.0, "max_iter": "64"}, {"x0": 1.0, "max_iter": float("inf")},
         {"x0": "1.0"}, {"x0": True}, {"x0": [1.0, "2"]}, {"x0": [1.0, False]},
         # the point's shape must fit the domain: a number for an interval,
         # a list of dim numbers for a box
         {"x0": [0.5]}, {"x0": [1.0, 2.0]}, {"x0": []},
         {"space": "diag_absdiff_matrix", "phi": "spread_matrix", "x0": 1.0},
         {"space": "diag_absdiff_matrix", "phi": "spread_matrix", "x0": [0.5]},
         {"space": "diag_absdiff_matrix", "phi": "spread_matrix", "x0": [0.5, 0.5, 0.5]}],
    )
    def test_malformed_x0_or_max_iter_exits_two(self, tmp_path, capsys, setting):
        cfg = write(
            tmp_path, "s.json",
            {"family": "plain", "k": 0.5, "space": "sum_premetric",
             "operator": "halving", "phi": "coordinate_pair", **setting},
        )
        assert main(["solve", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_float_max_iter_is_accepted(self, tmp_path):
        cfg = write(
            tmp_path, "s.json",
            {"family": "plain", "k": 0.5, "space": "sum_premetric",
             "operator": "halving", "phi": "coordinate_pair", "x0": 1.0,
             "max_iter": 64.0},
        )
        assert main(["solve", "--config", cfg]) == 0

    def test_non_contractive_solve_exits_one(self, tmp_path):
        cfg = write(
            tmp_path, "s.json",
            {"family": "plain", "k": 0.5, "space": "sum_premetric",
             "operator": "identity", "phi": "coordinate_pair", "x0": 0.3,
             "max_iter": 40},
        )
        assert main(["solve", "--config", cfg]) == 1

    @pytest.mark.parametrize(
        "setting",
        [{"space": "sum_premetric", "phi": "coordinate_pair", "x0": 5.0},
         {"space": "diag_absdiff_matrix", "phi": "spread_matrix", "x0": [5.0, 0.0]}],
    )
    def test_well_shaped_x0_outside_the_domain_exits_one(self, tmp_path, capsys, setting):
        cfg = write(tmp_path, "s.json",
                    {"family": "plain", "k": 0.5, "operator": "halving", **setting})
        assert main(["solve", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert json.loads(err) == {"error": "orbit left the domain at iteration 0"}


_VERIFY = {"family": "plain", "k": 0.5, "space": "sum_premetric", "operator": "halving",
           "phi": "coordinate_pair"}


class TestFlagValidation:
    @pytest.mark.parametrize(
        "argv,config",
        [
            # only solve writes CSV
            (["demo", "ex2.4", "--format", "csv"], None),
            (["axioms", "--format", "csv"], {"space": "sum_premetric"}),
            (["verify", "--format", "csv"], _VERIFY),
            (["demo", "ex2.4", "--seed", "-1"], None),
            (["verify"], {**_VERIFY, "mode": "partail"}),
            (["solve"], {**_VERIFY, "mode": "partail", "x0": 1.0}),
        ],
        ids=["demo-csv", "axioms-csv", "verify-csv", "negative-seed", "verify-mode", "solve-mode"],
    )
    def test_usage_error_exits_two(self, tmp_path, capsys, argv, config):
        if config is not None:
            argv = [*argv, "--config", write(tmp_path, "c.json", config)]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert capsys.readouterr().out == ""

    def test_bad_samples_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["demo", "ex2.4", "--samples", "0"])
        assert exc.value.code == 2

    def test_bad_tol_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["demo", "ex2.4", "--tol", "-1"])
        assert exc.value.code == 2
