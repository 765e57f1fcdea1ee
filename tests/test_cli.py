import json
import subprocess
import sys

import pytest

from cstarfix import demos
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
        assert capsys.readouterr().err == (
            "config error: unknown demo 'bogus'; known: cor4.1, cor4.2, cor4.3, cor4.4, "
            "cor4.5, cor4.6, ex2.3, ex2.4, ex3.13, ex3.8\n"
        )

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
        used = {name for _, stages in DEMOS.values() for name, _ in stages}
        assert used <= set(STAGES)  # every stage a row names is in the stage table
        assert set(STAGES) <= used  # every stage kind is used by some row

    @pytest.mark.parametrize("demo_id", [d for d, (cfg, _) in DEMOS.items() if "operator" in cfg])
    def test_row_config_replays_through_the_cli(self, tmp_path, capsys, demo_id):
        # a row's config is a verify/solve config: the CLI on it writes the stage details
        cfg, _ = DEMOS[demo_id]
        details = {s["stage"]: s["detail"] for s in run_demo(demo_id, seed=3, samples=200).stages}
        path = write(tmp_path, "row.json", cfg)
        assert main(["verify", "--config", path, "--seed", "3", "--samples", "200"]) == 0
        verify_detail = details.get("contraction-verify", details.get("hypothesis-verify"))
        assert capsys.readouterr().out == json.dumps(verify_detail, sort_keys=True, indent=2) + "\n"
        assert main(["solve", "--config", path]) == 0
        out = capsys.readouterr().out
        if cfg.get("mode") == "partial":
            solved = json.loads(out)
            assert details["solve"] == {"z": solved["certificate"]["z"],
                                        "self_distance_norm": solved["self_distance_norm"]}
        else:
            assert out == json.dumps(details["solve"], sort_keys=True, indent=2) + "\n"

    def test_bad_tol_of_a_library_call_is_not_a_config_error(self):
        # the CLI rejects it first; a library caller gets SolveConfig's ValueError
        with pytest.raises(ValueError, match="^tol must be positive and finite$"):
            run_demo("cor4.1", samples=20, tol=0.0)

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

    @pytest.mark.parametrize("command,config,line", [
        ("axioms", {"space": "nope"},
         "unknown space 'nope'; known: absdiff_pair, diag_absdiff_matrix, max_unit_interval, "
         "shifted_max_matrix, sum_premetric"),
        ("verify", {"family": "plain", "k": 0.5, "space": "sum_premetric", "operator": "nope",
                    "phi": "coordinate_pair"},
         "unknown operator 'nope'; known: halving, identity, quartering"),
    ])
    def test_unknown_name_is_printed_unquoted(self, tmp_path, capsys, command, config, line):
        assert main([command, "--config", write(tmp_path, "c.json", config)]) == 2
        assert capsys.readouterr().err == f"config error: {line}\n"

    def test_internal_key_error_is_not_a_config_error(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("internal")

        monkeypatch.setattr(demos, "verify_contraction", broken)
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

    def test_unreadable_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        assert main(["axioms", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {path}: ") and err.count("\n") == 1


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

    @pytest.mark.parametrize("family,constants,message", [
        ("weak", {"k": 0.5, "alpha": True}, "weak requires a numeric alpha, got True"),
        ("plain", {"k": 0.5, "alpha": "x"}, "plain requires a numeric alpha, got 'x'"),
    ], ids=["bool", "string"])
    def test_non_numeric_constant_exits_two(self, tmp_path, capsys, family, constants, message):
        cfg = write(
            tmp_path, "v.json",
            {"space": "max_unit_interval", "mode": "partial", "operator": "halving",
             "family": family, **constants},
        )
        assert main(["verify", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("command", ["verify", "solve"])
    @pytest.mark.parametrize("key,value", [("phi", "nope"), ("combiner", [1]),
                                           ("phi", "coordinate_pair"), ("combiner", "sum")])
    def test_partial_mode_rejects_phi_and_combiner(self, tmp_path, capsys, command, key, value):
        # partial mode derives phi and F from p, so even a valid name is not read
        cfg = write(
            tmp_path, "v.json",
            {"family": "plain", "k": 0.5, "space": "max_unit_interval", "operator": "halving",
             "mode": "partial", "x0": 1.0, key: value},
        )
        assert main([command, "--config", cfg]) == 2
        assert capsys.readouterr() == (
            "", f"config error: partial mode takes no {key!r}: it derives phi and F from p\n")

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

    def test_csv_trace_to_stdout_matches_the_file(self, tmp_path, capsys):
        cfg = write(tmp_path, "s.json", {**_VERIFY, "x0": 1.0})
        out = tmp_path / "trace.csv"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert main(["solve", "--config", cfg, "--format", "csv"]) == 0
        assert capsys.readouterr().out == out.read_text()

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
            # a spec that fails before its own validation, a check of no
            # flavor, a missing required key
            (["verify"], {**_VERIFY, "family": [1]}),
            (["axioms"], {"space": "sum_premetric", "check": "both"}),
            (["solve"], _VERIFY),
        ],
        ids=["demo-csv", "axioms-csv", "verify-csv", "negative-seed", "verify-mode", "solve-mode",
             "verify-family", "axioms-check", "solve-no-x0"],
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

    @pytest.mark.parametrize("command", ["axioms", "verify", "solve"])
    @pytest.mark.parametrize("text", ['"space"', "3", "[1, 2]"], ids=["string", "number", "list"])
    def test_config_that_is_not_an_object_exits_two(self, tmp_path, capsys, command, text):
        path = tmp_path / "c.json"
        path.write_text(text)
        assert main([command, "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: config {path} must be a JSON object\n"

    @pytest.mark.parametrize("command", ["verify", "solve"])
    @pytest.mark.parametrize("key", ["space", "operator", "phi", "combiner"])
    @pytest.mark.parametrize("name", [["max_unit_interval"], {"a": 1}], ids=["list", "object"])
    def test_registry_name_that_is_not_a_string_exits_two(self, tmp_path, capsys, command, key,
                                                         name):
        cfg = write(tmp_path, "c.json", {**_VERIFY, "x0": 0.5, key: name})
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"unknown {key} {name!r};" in err

    def test_bad_samples_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["demo", "ex2.4", "--samples", "0"])
        assert exc.value.code == 2

    def test_bad_tol_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["demo", "ex2.4", "--tol", "-1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_non_finite_tol_rejected(self, tmp_path, capsys, tol):
        # --tol inf certified this orbit after one step; --tol nan ran to max_iter
        cfg = write(tmp_path, "s.json", {**_VERIFY, "x0": 0.5})
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", cfg, f"--tol={tol}"])  # "-inf" alone reads as a flag
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tol must be positive and finite" in captured.err
