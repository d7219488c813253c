import json

import pytest

from lcmdiv import fileio
from lcmdiv.cli import EXIT_COMPUTE, EXIT_INPUT, EXIT_OK, EXIT_USAGE, main, parse_args
from lcmdiv.divergence import power
from lcmdiv.inference import gof_statistic

from conftest import make_design


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_happy_path_gof(self, tmp_path, coleman_design, coleman_counts):
        design_path = tmp_path / "design.json"
        counts_path = tmp_path / "counts.csv"
        fileio.write_design(coleman_design, design_path)
        fileio.write_counts(coleman_counts, counts_path)
        cfg = parse_args([
            "gof", "--design", str(design_path), "--counts", str(counts_path),
            "--phi1", "power:a=0", "--phi2", "power:a=0.66667",
        ])
        assert cfg.subcommand == "gof"
        assert cfg.phi1.a == 0.0
        assert cfg.phi2.a == pytest.approx(0.66667)
        assert cfg.counts.N == 3398
        assert "sha256" in cfg.inputs["design"]

    def test_malformed_phi_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["gof", "--design", "x", "--counts", "y", "--phi1", "power:a=abc"])
        assert exc.value.code == 2
        assert "phi1" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["gof", "--design", "x", "--counts", "y", "--frobnicate"])
        assert exc.value.code == 2

    def test_missing_file_is_input_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "gof", "--design", str(tmp_path / "no.json"), "--counts", "bundled:coleman"
        )
        assert code == EXIT_INPUT
        assert "no.json" in err

    def test_bundled_scheme(self):
        cfg = parse_args(["fit", "--design", "bundled:coleman_m1", "--counts", "bundled:coleman"])
        assert cfg.design.k == 4 and cfg.counts.N == 3398

    def test_unknown_bundled_name(self, capsys):
        code, _, err = run_cli(capsys, "fit", "--design", "bundled:nonesuch", "--counts", "bundled:coleman")
        assert code == EXIT_INPUT and "nonesuch" in err

    def test_item_count_mismatch(self, capsys, tmp_path):
        design = make_design(seed=420, k=3, m=2, t=2, u=1)
        path = tmp_path / "d3.json"
        fileio.write_design(design, path)
        code, _, err = run_cli(capsys, "gof", "--design", str(path), "--counts", "bundled:coleman")
        assert code == EXIT_INPUT and "k = 4" in err

    def test_h_grammar(self):
        cfg = parse_args([
            "gof", "--design", "bundled:coleman_m1", "--counts", "bundled:coleman",
            "--h", "sharma-mittal:a=2,b=3",
        ])
        assert cfg.h.tag == "sharma_mittal" and cfg.h.a == 2.0 and cfg.h.b == 3.0

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (("fit", "--design", "bundled:coleman_m1", "--counts", "bundled:coleman",
              "--starts", "0"), EXIT_USAGE),
            (("simulate", "--plan", "bundled:sim", "--replications", "0",
              "--out-dir", "{tmp}/d"), EXIT_USAGE),
            (("simulate", "--plan", "bundled:sim", "--sizes", "200,abc",
              "--out-dir", "{tmp}/d"), EXIT_USAGE),
            (("simulate", "--plan", "bundled:sim", "--lambda8", "0,",
              "--out-dir", "{tmp}/d"), EXIT_USAGE),
            (("fit", "--design", "bundled:coleman_m1", "--counts", "{tmp}/negative.csv"), EXIT_INPUT),
            (("fit", "--design", "bundled:coleman_m1", "--counts", "{tmp}/empty.csv"), EXIT_INPUT),
            (("select", "--chain", "{tmp}/chain.json", "--counts", "bundled:coleman"), EXIT_INPUT),
        ],
    )
    def test_bad_values_exit_without_traceback(self, capsys, tmp_path, argv, expected):
        from lcmdiv.datasets import coleman_chain

        (tmp_path / "negative.csv").write_text("1,2,-3,4\n")
        (tmp_path / "empty.csv").write_text("0,0,0,0\n")
        doc = fileio.chain_to_dict(coleman_chain())
        doc["steps"] = [{"zero_lambda": [7, 8]}, {"zero_lambda": [7, 8]}]
        (tmp_path / "chain.json").write_text(json.dumps(doc))
        try:
            code = main([arg.format(tmp=tmp_path) for arg in argv])
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
        err = capsys.readouterr().err
        assert code == expected
        assert err and "Traceback" not in err
        assert not (tmp_path / "d").exists()

    def test_list_bundled(self, capsys):
        code, out, _ = run_cli(capsys, "fit", "--list-bundled")
        assert code == EXIT_OK and "coleman_m1" in out and "sim" in out

    def test_list_bundled_honours_format_and_out(self, capsys, tmp_path):
        path = tmp_path / "bundled.json"
        code, out, _ = run_cli(
            capsys, "fit", "--list-bundled", "--format", "json", "--out", str(path)
        )
        assert code == EXIT_OK and out == ""
        doc = json.loads(path.read_text())
        assert "coleman_m1" in doc["designs"] and doc["plans"] == ["sim"]


class TestFitCommand:
    ARGV = ("fit", "--design", "bundled:coleman_m1", "--counts", "bundled:coleman",
            "--phi", "power:a=0", "--starts", "5", "--seed", "1", "--format", "json")

    def test_json_reports_each_start_status(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGV)
        assert code == EXIT_OK
        starts = json.loads(out)["fit"]["starts"]
        assert [s["status"] for s in starts] == ["converged"] * 5
        assert all(isinstance(s["restarts"], int) for s in starts)
        assert run_cli(capsys, *self.ARGV)[1] == out  # no timings: re-runs are identical

    def test_failed_fit_names_the_reasons(self, capsys):
        code, out, err = run_cli(capsys, *self.ARGV, "--max-iters", "1")
        assert code == EXIT_COMPUTE
        assert "no start converged: 5 max_iters" in err
        assert [s["status"] for s in json.loads(out)["fit"]["starts"]] == ["max_iters"] * 5


class TestGofCommand:
    @pytest.mark.parametrize("a,expected", [(0.0, 1.277), (2.0 / 3.0, 1.277), (1.0, 1.277)])
    def test_reproduces_worked_example_values(self, capsys, a, expected):
        code, out, _ = run_cli(
            capsys, "gof",
            "--design", "bundled:coleman_m1", "--counts", "bundled:coleman",
            "--phi1", "power:a=0.6666666666666666", "--phi2", f"power:a={a}",
            "--starts", "20", "--seed", "1", "--format", "json",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["test"]["statistic"] == pytest.approx(expected, abs=0.02)
        assert doc["test"]["dof"] == 4
        assert doc["decision"] == "no evidence against the model"

    def test_cli_matches_library(self, capsys, coleman_design, coleman_counts, coleman_fit_23):
        code, out, _ = run_cli(
            capsys, "gof",
            "--design", "bundled:coleman_m1", "--counts", "bundled:coleman",
            "--phi1", "power:a=1", "--phi2", "power:a=0.6666666666666666",
            "--starts", "30", "--seed", "1", "--format", "json",
        )
        doc = json.loads(out)
        library = gof_statistic(coleman_design, coleman_counts, power(1.0), coleman_fit_23)
        assert doc["test"]["statistic"] == pytest.approx(library.statistic, rel=1e-9)

    def test_h_transformed_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "gof",
            "--design", "bundled:coleman_m1", "--counts", "bundled:coleman",
            "--phi1", "power:a=0.6666666666666666", "--phi2", "power:a=0.6666666666666666",
            "--h", "bhattacharyya", "--starts", "20", "--seed", "1", "--format", "json",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["test"]["h"] == "bhattacharyya"
        assert doc["test"]["statistic"] == pytest.approx(1.277, abs=0.05)

    def test_text_and_json_agree_to_full_precision(self, capsys, tmp_path):
        args = [
            "gof", "--design", "bundled:coleman_m1", "--counts", "bundled:coleman",
            "--phi1", "power:a=0", "--phi2", "power:a=0.6666666666666666",
            "--starts", "20", "--seed", "1",
        ]
        code, text_out, _ = run_cli(capsys, *args, "--format", "text")
        code2, json_out, _ = run_cli(capsys, *args, "--format", "json")
        doc = json.loads(json_out)
        stat_line = next(ln for ln in text_out.splitlines() if ln.startswith("test.statistic:"))
        assert float(stat_line.split(":", 1)[1]) == doc["test"]["statistic"]
        p_line = next(ln for ln in text_out.splitlines() if ln.startswith("test.p_value:"))
        assert float(p_line.split(":", 1)[1]) == doc["test"]["p_value"]

    def test_report_written_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "gof", "--design", "bundled:coleman_m1", "--counts", "bundled:coleman",
            "--phi1", "power:a=0", "--phi2", "power:a=0", "--starts", "10", "--seed", "1",
            "--format", "json", "--out", str(out_path),
        )
        assert code == EXIT_OK and out == ""
        doc = json.loads(out_path.read_text())
        assert doc["command"] == "gof"
        assert doc["conventions"]["divergence_arguments"].startswith("second")
        assert doc["inputs"]["design"]["sha256"]


class TestNestedAndSelect:
    def test_nested_runs_both_statistics(self, capsys, tmp_path):
        chain_design = tmp_path / "chain_basis.json"
        from lcmdiv.datasets import coleman_design_chain_basis

        fileio.write_design(coleman_design_chain_basis(), chain_design)
        code, out, _ = run_cli(
            capsys, "nested", "--design", str(chain_design), "--counts", "bundled:coleman",
            "--zero-lambda", "7,8",
            "--phi1", "power:a=0.6666666666666666", "--phi2", "power:a=0.6666666666666666",
            "--starts", "20", "--seed", "5", "--format", "json",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["options"]["h1"] == 12 and doc["options"]["h2"] == 10
        assert doc["tests"]["S"]["dof"] == 2 and doc["tests"]["T"]["dof"] == 2
        assert doc["tests"]["S"]["statistic"] == pytest.approx(3.754, abs=0.05)

    def test_nested_with_transform(self, capsys, tmp_path):
        from lcmdiv.datasets import coleman_design_chain_basis

        chain_design = tmp_path / "chain_basis.json"
        fileio.write_design(coleman_design_chain_basis(), chain_design)
        code, out, _ = run_cli(
            capsys, "nested", "--design", str(chain_design), "--counts", "bundled:coleman",
            "--zero-lambda", "7,8", "--h", "renyi:a=2",
            "--phi1", "power:a=0.6666666666666666", "--phi2", "power:a=0.6666666666666666",
            "--statistic", "T", "--starts", "15", "--seed", "5", "--format", "json",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["tests"]["T"]["h"] == "renyi:a=2.0"
        assert doc["tests"]["T"]["statistic"] > 0

    @pytest.mark.parametrize("h", ["identity", "renyi:a=2"])
    def test_nested_both_fits_each_model_once(self, capsys, monkeypatch, h):
        import lcmdiv.inference

        calls = []
        real_fit = lcmdiv.inference.fit

        def counting_fit(*args, **kwargs):
            calls.append(args[0])
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(lcmdiv.inference, "fit", counting_fit)
        argv = (
            "nested", "--design", "bundled:coleman_m1_chain_basis", "--counts", "bundled:coleman",
            "--zero-lambda", "7,8", "--h", h,
            "--phi1", "power:a=0.6666666666666666", "--phi2", "power:a=0.6666666666666666",
            "--starts", "5", "--seed", "5", "--format", "json",
        )
        tests = {}
        for statistic in ("both", "S", "T"):
            calls.clear()
            code, out, _ = run_cli(capsys, *argv, "--statistic", statistic)
            assert code == EXIT_OK
            assert len(calls) == 2
            tests[statistic] = json.loads(out)["tests"]
        assert tests["both"] == {"S": tests["S"]["S"], "T": tests["T"]["T"]}

    def test_select_reports_second_model(self, capsys):
        code, out, _ = run_cli(
            capsys, "select", "--chain", "bundled:coleman_chain", "--counts", "bundled:coleman",
            "--phi1", "power:a=0.6666666666666666", "--phi2", "power:a=0.6666666666666666",
            "--statistic", "S", "--starts", "25", "--seed", "5", "--format", "json",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["selected_model"] == 2
        assert doc["trail"][0]["reject"] is False
        assert doc["trail"][1]["reject"] is True
        assert doc["models"]["M2"]["free_params"] == 10


class TestSimulateCommand:
    def test_smoke_run_writes_outputs(self, capsys, tmp_path):
        plan_path = tmp_path / "plan.json"
        from lcmdiv.datasets import simulation_plan

        fileio.write_plan(
            simulation_plan(sample_sizes=(200,), a_values=(2.0 / 3.0,),
                            lambda8_grid=(0.0,), replications=3, seed=3),
            plan_path,
        )
        out_dir = tmp_path / "results"
        code, out, _ = run_cli(
            capsys, "simulate", "--plan", str(plan_path), "--out-dir", str(out_dir),
            "--format", "json",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert (out_dir / "size_power.csv").exists()
        assert (out_dir / "power_N200.csv").exists()
        assert doc["cells"][0]["dof"] == 19

    def test_cell_without_converged_fit_reports_null_dof(self, capsys, tmp_path):
        from dataclasses import replace

        from lcmdiv.datasets import simulation_plan

        plan_path = tmp_path / "plan.json"
        plan = simulation_plan(sample_sizes=(200,), a_values=(2.0 / 3.0,),
                               lambda8_grid=(0.0,), replications=2, seed=3)
        fileio.write_plan(replace(plan, fit_max_iters=1), plan_path)
        out_dir = tmp_path / "results"
        code, out, _ = run_cli(
            capsys, "simulate", "--plan", str(plan_path), "--out-dir", str(out_dir),
            "--format", "json",
        )
        assert code == EXIT_OK
        cell = json.loads(out)["cells"][0]
        assert (cell["n_effective"], cell["fit_failures"], cell["dof"]) == (0, 2, None)
        header, row = (out_dir / "size_power.csv").read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["dof"] == ""

    def test_progress_goes_to_stderr_only(self, capsys, tmp_path):
        argv = (
            "simulate", "--plan", "bundled:sim", "--sizes", "200", "--lambda8", "0,2",
            "--a-values", "0.6666666666666666", "--replications", "2", "--seed", "11",
            "--out-dir", str(tmp_path / "results"),
        )
        code, quiet_out, quiet_err = run_cli(capsys, *argv)
        assert code == EXIT_OK and quiet_err == ""
        code, out, err = run_cli(capsys, *argv, "--progress")
        assert code == EXIT_OK
        assert out == quiet_out
        lines = err.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("cell N=200 lambda8=0.0: 0 fit failures, ")

    def test_plan_overrides(self, capsys, tmp_path):
        out_dir = tmp_path / "results"
        code, out, _ = run_cli(
            capsys, "simulate", "--plan", "bundled:sim",
            "--sizes", "200", "--lambda8", "0", "--a-values", "0.6666666666666666",
            "--replications", "2", "--seed", "11", "--out-dir", str(out_dir),
            "--format", "json",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["options"]["replications"] == 2
        assert doc["options"]["sample_sizes"] == [200]


class TestVerifyCommand:
    def test_full_rank_design_passes(self, capsys, tmp_path):
        design = make_design(seed=430, k=3, m=2, t=2, u=1)
        path = tmp_path / "small.json"
        fileio.write_design(design, path)
        code, out, _ = run_cli(
            capsys, "verify", "--design", str(path), "--zero-lambda", "2", "--format", "json"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["all_pass"] is True
        assert all(item["pass"] for item in doc["identities"])

    def test_rank_deficient_design_fails_without_reduction(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--design", "bundled:sim_null")
        assert code == EXIT_COMPUTE
        assert "rank" in err

    def test_reduction_restores_full_rank(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--design", "bundled:sim_null", "--drop-eta", "1",
            "--format", "json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["all_pass"] is True

    def test_pseudo_inverse_traces_follow_the_rank(self, capsys):
        # Rank 11 of 13 for the full model and 9 of 11 for the submodel.
        code, out, _ = run_cli(
            capsys, "verify", "--design", "bundled:coleman_m1_chain_basis",
            "--zero-lambda", "7,8", "--pseudo-inverse", "--format", "json",
        )
        doc = json.loads(out)
        assert code == EXIT_OK and doc["all_pass"] is True
        assert doc["options"]["rank"] == 11
        pm = doc["projection_measurements"]
        assert pm["rl_trace"] == pytest.approx(11.0) and pm["rm_trace"] == pytest.approx(9.0)

    @pytest.mark.parametrize("drop", ["0", "7"])
    @pytest.mark.parametrize("extra", [(), ("--pseudo-inverse",)])
    def test_drop_eta_out_of_range_is_refused(self, capsys, drop, extra):
        # The bundled null design has u = 6 eta coordinates.
        code, out, err = run_cli(
            capsys, "verify", "--design", "bundled:sim_null", "--drop-eta", drop, *extra
        )
        assert code == EXIT_COMPUTE
        assert out == ""
        assert "--drop-eta must be in [1, 6]" in err
