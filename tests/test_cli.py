import builtins
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import lcmdiv
from lcmdiv import datasets, fileio
from lcmdiv.cli import EXIT_COMPUTE, EXIT_INPUT, EXIT_OK, EXIT_USAGE, main, parse_args
from lcmdiv.divergence import power
from lcmdiv.estimation import FitOptions
from lcmdiv.inference import gof_statistic
from lcmdiv.model import NestedChain, Theta, jacobian_rank

from conftest import make_design


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_import_does_not_load_scipy_stats():
    # A fresh interpreter: other test modules import scipy.stats into this one.
    src = os.path.dirname(os.path.dirname(lcmdiv.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    probe = (
        "import sys, lcmdiv, lcmdiv.cli; "
        "print([m for m in ('scipy.stats', 'scipy.linalg') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


class TestParsing:
    def test_happy_path_gof(self, tmp_path, coleman_design, coleman_counts):
        design_path = tmp_path / "design.json"
        counts_path = tmp_path / "counts.csv"
        fileio.write("design", coleman_design, design_path)
        fileio.write("counts", coleman_counts, counts_path)
        cfg = parse_args([
            "gof", "--design", str(design_path), "--counts", str(counts_path),
            "--phi1", "power:a=0", "--phi2", "power:a=0.66667",
        ])
        assert cfg.subcommand == "gof"
        assert cfg.phi1.a == 0.0
        assert cfg.phi2.a == pytest.approx(0.66667)
        assert cfg.counts.N == 3398
        assert "sha256" in cfg.inputs["design"]

    def test_each_input_file_is_read_once_and_its_bytes_hashed(self, monkeypatch, tmp_path):
        chain_path = tmp_path / "chain.json"
        counts_path = tmp_path / "counts.csv"
        fileio.write("chain", datasets.coleman_chain(), chain_path)
        fileio.write("counts", datasets.coleman_counts(), counts_path)
        opened = []
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            opened.append(os.fspath(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(builtins, "open", counting_open)
        ns = parse_args(["select", "--chain", str(chain_path), "--counts", str(counts_path)])
        monkeypatch.undo()
        assert sorted(opened) == sorted([str(chain_path), str(counts_path)])
        for kind, path in (("chain", chain_path), ("counts", counts_path)):
            assert ns.inputs[kind]["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert ns.counts.N == 3398 and ns.chain.n_models == 4

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

    @pytest.mark.parametrize("argv, kind, digest", [
        (("fit", "--design", "bundled:coleman_m1", "--counts", "bundled:coleman"), "design",
         "fc6357055f156da295fd11fb038c5571435ef7b7ac6ef5ba6ead3e4a18eebb58"),
        (("fit", "--design", "bundled:coleman_m1", "--counts", "bundled:coleman"), "counts",
         "dddefebe10587a7fdfa6ebf2a929f9ae1a38ac702f0276a99232f370a5f56846"),
        (("select", "--chain", "bundled:coleman_chain", "--counts", "bundled:coleman"), "chain",
         "e0a01af3c53615053cd2317876153eae4a81947a391e35c7c34dfd9c4db8c735"),
        (("simulate", "--plan", "bundled:sim", "--out-dir", "{tmp}"), "plan",
         "ed47002537cc849006afc75f8e3af479d8e8fadac950d247a04d4caf7a832281"),
    ])
    def test_bundled_digests_are_pinned(self, tmp_path, argv, kind, digest):
        # Reports of earlier versions name these digests; they must not move.
        ns = parse_args([arg.format(tmp=tmp_path) for arg in argv])
        assert ns.inputs[kind]["sha256"] == digest

    def test_unknown_bundled_name(self, capsys):
        code, _, err = run_cli(capsys, "fit", "--design", "bundled:nonesuch", "--counts", "bundled:coleman")
        assert code == EXIT_INPUT and "nonesuch" in err

    def test_item_count_mismatch(self, capsys, tmp_path):
        design = make_design(seed=420, k=3, m=2, t=2, u=1)
        path = tmp_path / "d3.json"
        fileio.write("design", design, path)
        code, _, err = run_cli(capsys, "gof", "--design", str(path), "--counts", "bundled:coleman")
        assert code == EXIT_INPUT and "k = 4" in err

    def test_h_grammar(self):
        cfg = parse_args([
            "gof", "--design", "bundled:coleman_m1", "--counts", "bundled:coleman",
            "--h", "sharma-mittal:a=2,b=3",
        ])
        assert cfg.h.tag == "sharma_mittal" and cfg.h.a == 2.0 and cfg.h.b == 3.0

    @pytest.mark.parametrize(
        "text", ["identity", "bhattacharyya", "renyi:a=2.0", "sharma-mittal:a=2.0,b=3.0"]
    )
    def test_h_spec_reads_back_its_report_form(self, text):
        from lcmdiv.cli import _h_spec, _h_str

        assert _h_str(_h_spec(text)) == text

    @pytest.mark.parametrize(
        "text",
        ["bhattacharyya:a=3", "identity:b=1", "renyi:a=2,b=7", "renyi:c=2", "renyi", "sharma-mittal:a=2",
         "renyi:a=nan", "sharma-mittal:a=inf,b=0.5"],
    )
    def test_h_spec_refuses_indices_its_transform_does_not_take(self, text):
        import argparse

        from lcmdiv.cli import _h_spec

        with pytest.raises(argparse.ArgumentTypeError):
            _h_spec(text)

    @pytest.mark.parametrize(
        "argv,option",
        [
            (("simulate", "--plan", "bundled:sim", "--out-dir", "{tmp}/file.txt/d"), "--out-dir"),
            (("simulate", "--plan", "bundled:sim", "--out-dir", "{tmp}/d",
              "--out", "{tmp}/x/r.json"), "--out"),
            (("gof", "--design", "bundled:coleman_m1", "--counts", "bundled:coleman",
              "--out", "{tmp}/missing/r.json"), "--out"),
            (("fit", "--design", "bundled:coleman_m1", "--counts", "bundled:coleman",
              "--out", "{tmp}"), "--out"),
            (("fit", "--list-bundled", "--out", "{tmp}/missing/names.json"), "--out"),
        ],
    )
    def test_unwritable_output_path_exits_2_before_any_work(
        self, capsys, monkeypatch, tmp_path, argv, option
    ):
        from lcmdiv import cli

        (tmp_path / "file.txt").write_text("")
        monkeypatch.setattr(cli, "run", lambda ns: pytest.fail("the run started"))
        code, out, err = run_cli(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith(f"usage error: {option} {tmp_path}")
        assert not (tmp_path / "d").exists()  # no output directory left behind

    def test_out_dir_is_made_once_the_options_pass(self, tmp_path):
        from lcmdiv.errors import DomainError

        out_dir = tmp_path / "a" / "b"
        with pytest.raises(DomainError, match="replications"):
            parse_args(["simulate", "--plan", "bundled:sim", "--replications", "0",
                        "--out-dir", str(out_dir)])
        assert not out_dir.exists()
        parse_args(["simulate", "--plan", "bundled:sim", "--out-dir", str(out_dir)])
        assert out_dir.is_dir()

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
            (("simulate", "--plan", "bundled:sim", "--sizes", "0",
              "--out-dir", "{tmp}/d"), EXIT_USAGE),
            (("simulate", "--plan", "bundled:sim", "--jobs", "0",
              "--out-dir", "{tmp}/d"), EXIT_USAGE),
            (("simulate", "--plan", "bundled:sim", "--jobs", "-1",
              "--out-dir", "{tmp}/d"), EXIT_USAGE),
            (("gof", "--design", "bundled:coleman_m1", "--counts", "bundled:coleman",
              "--alpha", "0"), EXIT_USAGE),
            (("nested", "--design", "bundled:coleman_m1_chain_basis", "--counts", "bundled:coleman",
              "--zero-lambda", "7,8", "--alpha", "1"), EXIT_USAGE),
            (("select", "--chain", "bundled:coleman_chain", "--counts", "bundled:coleman",
              "--alpha", "1.5"), EXIT_USAGE),
            (("gof", "--design", "bundled:coleman_m1", "--counts", "bundled:coleman",
              "--dof-override", "0"), EXIT_USAGE),
            (("nested", "--design", "bundled:coleman_m1", "--counts", "bundled:coleman",
              "--zero-lambda", "99"), EXIT_USAGE),
            (("verify", "--design", "bundled:sim_null", "--drop-eta", "1",
              "--theta-scale", "-1"), EXIT_USAGE),
            (("verify", "--design", "bundled:sim_null", "--drop-eta", "1",
              "--theta-scale", "0"), EXIT_USAGE),
            (("fit", "--design", "{tmp}", "--counts", "bundled:coleman"), EXIT_INPUT),
            (("fit", "--design", "{tmp}/latin1.json", "--counts", "bundled:coleman"), EXIT_INPUT),
            (("fit", "--design", "bundled:coleman_m1", "--counts", "{tmp}"), EXIT_INPUT),
            (("fit", "--design", "bundled:coleman_m1", "--counts", "{tmp}/latin1.csv"), EXIT_INPUT),
            (("select", "--chain", "{tmp}/latin1.json", "--counts", "bundled:coleman"), EXIT_INPUT),
            (("simulate", "--plan", "{tmp}", "--out-dir", "{tmp}/d"), EXIT_INPUT),
            # Non-finite statistic indices and coefficients are refused before any work.
            (("simulate", "--plan", "bundled:sim", "--a-values", "nan",
              "--out-dir", "{tmp}/d"), EXIT_USAGE),
            (("simulate", "--plan", "bundled:sim", "--lambda8", "0,inf",
              "--out-dir", "{tmp}/d"), EXIT_USAGE),
            # Non-finite fit tolerances and scales, refused before any fit.
            (("fit", "--design", "bundled:coleman_m1", "--counts", "bundled:coleman",
              "--grad-tol", "inf"), EXIT_USAGE),
            (("fit", "--design", "bundled:coleman_m1", "--counts", "bundled:coleman",
              "--grad-tol", "nan"), EXIT_USAGE),
            (("gof", "--design", "bundled:coleman_m1", "--counts", "bundled:coleman",
              "--init-scale", "inf"), EXIT_USAGE),
            (("verify", "--design", "bundled:sim_null", "--drop-eta", "1",
              "--theta-scale", "inf"), EXIT_USAGE),
            # 1 - alpha rounds to 1: there is no critical value at that level.
            (("gof", "--design", "bundled:coleman_m1", "--counts", "bundled:coleman",
              "--alpha", "1e-17"), EXIT_USAGE),
            (("nested", "--design", "bundled:coleman_m1_chain_basis", "--counts", "bundled:coleman",
              "--zero-lambda", "7,8", "--alpha", "1e-17"), EXIT_USAGE),
            (("select", "--chain", "bundled:coleman_chain", "--counts", "bundled:coleman",
              "--alpha", "1e-17"), EXIT_USAGE),
            (("simulate", "--plan", "bundled:sim", "--alpha", "1e-17",
              "--out-dir", "{tmp}/d"), EXIT_USAGE),
            # Each sample size names one power_N{N}.csv.
            (("simulate", "--plan", "bundled:sim", "--sizes", "50,50",
              "--out-dir", "{tmp}/d"), EXIT_USAGE),
            # A negative seed is refused before any work, not by numpy inside a fit or a chunk.
            (("fit", "--design", "bundled:coleman_m1", "--counts", "bundled:coleman",
              "--starts", "2", "--seed", "-1"), EXIT_USAGE),
            (("verify", "--design", "bundled:sim_null", "--drop-eta", "1",
              "--theta-seed", "-1"), EXIT_USAGE),
            (("simulate", "--plan", "bundled:sim", "--sizes", "50", "--lambda8", "0",
              "--replications", "2", "--seed", "-1", "--out-dir", "{tmp}/d"), EXIT_USAGE),
            # A nested test needs a model B that fixes a coordinate.
            (("nested", "--design", "bundled:coleman_m1_chain_basis", "--counts", "bundled:coleman",
              "--starts", "1"), EXIT_USAGE),
            # A design the model refuses: C with 2 of 4 rows, a NaN in d.
            (("fit", "--design", "{tmp}/short_c.json", "--counts", "bundled:coleman"), EXIT_INPUT),
            (("fit", "--design", "{tmp}/nan_d.json", "--counts", "bundled:coleman"), EXIT_INPUT),
            # A chain over the five-item simulation design against the four-item Coleman counts.
            (("select", "--chain", "{tmp}/sim_chain.json", "--counts", "bundled:coleman"), EXIT_INPUT),
            # Divergence and transform specs outside the grammar or the index domain.
            (("gof", "--design", "bundled:coleman_m1", "--counts", "bundled:coleman",
              "--phi1", "renyi:a=2"), EXIT_USAGE),
            (("gof", "--design", "bundled:coleman_m1", "--counts", "bundled:coleman",
              "--phi1", "power:b=1"), EXIT_USAGE),
            (("gof", "--design", "bundled:coleman_m1", "--counts", "bundled:coleman",
              "--phi1", "power:a=nan"), EXIT_USAGE),
            (("gof", "--design", "bundled:coleman_m1", "--counts", "bundled:coleman",
              "--h", "sharma-mittal:a=1,b=2"), EXIT_USAGE),
            (("nested", "--design", "bundled:coleman_m1_chain_basis", "--counts", "bundled:coleman",
              "--zero-lambda", "0"), EXIT_USAGE),
        ],
    )
    def test_bad_values_exit_without_traceback(self, capsys, tmp_path, argv, expected):
        from lcmdiv.datasets import coleman_chain

        design = fileio.design_to_dict(datasets.coleman_design_m1())
        (tmp_path / "short_c.json").write_text(json.dumps(dict(design, C=design["C"][:2])))
        (tmp_path / "nan_d.json").write_text(json.dumps(dict(design, d=[math.nan, *design["d"][1:]])))
        sim_chain = NestedChain(datasets.simulation_null_design(), (((0,), ()),))
        (tmp_path / "sim_chain.json").write_text(json.dumps(fileio.chain_to_dict(sim_chain)))
        (tmp_path / "negative.csv").write_text("1,2,-3,4\n")
        (tmp_path / "empty.csv").write_text("0,0,0,0\n")
        (tmp_path / "latin1.csv").write_bytes("# café\n1,2,3,4\n".encode("latin-1"))
        (tmp_path / "latin1.json").write_bytes('{"comment": "café"}'.encode("latin-1"))
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

    @pytest.mark.parametrize("argv, message", [
        (("simulate", "--plan", "bundled:sim", "--jobs", "0", "--out-dir", "{tmp}/d"),
         "--jobs must be >= 1, got 0"),
        (("simulate", "--plan", "bundled:sim", "--replications", "0", "--out-dir", "{tmp}/d"),
         "replications must be >= 1, got 0"),
        (("simulate", "--plan", "bundled:sim", "--sizes", "0", "--out-dir", "{tmp}/d"),
         "each of sample_sizes must be >= 1, got 0"),
        (("gof", "--design", "bundled:coleman_m1", "--counts", "bundled:coleman", "--dof-override", "0"),
         "--dof-override must be >= 1, got 0"),
        (("verify", "--design", "bundled:sim_null", "--drop-eta", "1", "--theta-seed", "-1"),
         "--theta-seed must be >= 0, got -1"),
    ])
    def test_range_refusals_name_their_flag(self, capsys, tmp_path, argv, message):
        code = main([arg.format(tmp=tmp_path) for arg in argv])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: {message}\n"
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


@pytest.mark.parametrize("argv", [
    ("fit", "--design", "bundled:coleman_m1", "--counts", "bundled:coleman"),
    ("gof", "--design", "bundled:coleman_m1", "--counts", "bundled:coleman"),
    ("nested", "--design", "bundled:coleman_m1_chain_basis", "--counts", "bundled:coleman",
     "--zero-lambda", "7,8"),
    ("select", "--chain", "bundled:coleman_chain", "--counts", "bundled:coleman"),
])
def test_report_records_every_fit_option(capsys, argv):
    options = FitOptions(starts=4, init_scale=0.5, grad_tol=1e-7, max_iters=300, seed=3)
    code, out, _ = run_cli(
        capsys, *argv, "--starts", "4", "--init-scale", "0.5", "--grad-tol", "1e-7",
        "--max-iters", "300", "--seed", "3", "--format", "json",
    )
    assert code == EXIT_OK
    recorded = json.loads(out)["options"]
    names = [f.name for f in fields(FitOptions) if f.name != "init_theta"]
    assert FitOptions(**{name: recorded[name] for name in names}) == options


_FIT_ARGS = ("--seed", "3", "--starts", "2", "--grad-tol", "1e-07", "--init-scale", "0.5",
             "--max-iters", "300")
_FIT_TYPED = {"seed": 3, "starts": 2, "grad_tol": 1e-07, "init_scale": 0.5, "max_iters": 300}


@pytest.mark.parametrize("argv, typed, results", [
    (("fit", "--design", "bundled:coleman_m1", "--counts", "bundled:coleman",
      "--phi", "power:a=1.0", *_FIT_ARGS),
     {"phi": "power:a=1.0", **_FIT_TYPED}, ()),
    (("gof", "--design", "bundled:coleman_m1", "--counts", "bundled:coleman",
      "--phi1", "power:a=0.5", "--phi2", "power:a=1.0", "--h", "renyi:a=2.0", "--alpha", "0.1",
      "--dof-policy", "nominal", "--dof-override", "7", *_FIT_ARGS),
     {"phi1": "power:a=0.5", "phi2": "power:a=1.0", "h": "renyi:a=2.0", "alpha": 0.1,
      "dof_policy": "nominal", "dof_override": 7, **_FIT_TYPED}, ()),
    (("nested", "--design", "bundled:coleman_m1_chain_basis", "--counts", "bundled:coleman",
      "--zero-lambda", "7,8", "--zero-eta", "4", "--phi1", "power:a=0.5", "--phi2", "power:a=1.0",
      "--h", "renyi:a=2.0", "--statistic", "T", "--alpha", "0.1", *_FIT_ARGS),
     {"zero_lambda": [7, 8], "zero_eta": [4], "phi1": "power:a=0.5", "phi2": "power:a=1.0",
      "h": "renyi:a=2.0", "statistic": "T", "alpha": 0.1, **_FIT_TYPED}, ("h1", "h2")),
    (("select", "--chain", "bundled:coleman_chain", "--counts", "bundled:coleman",
      "--phi1", "power:a=0.5", "--phi2", "power:a=1.0", "--h", "renyi:a=2.0", "--alpha", "0.1",
      "--statistic", "T", *_FIT_ARGS),
     {"phi1": "power:a=0.5", "phi2": "power:a=1.0", "h": "renyi:a=2.0", "alpha": 0.1,
      "statistic": "T", **_FIT_TYPED}, ()),
    (("verify", "--design", "bundled:coleman_m1_chain_basis", "--theta-seed", "4",
      "--theta-scale", "0.25", "--pseudo-inverse", "--drop-eta", "1", "--zero-lambda", "7,8",
      "--zero-eta", "3"),
     {"theta_seed": 4, "theta_scale": 0.25, "pseudo_inverse": True, "drop_eta": 1,
      "zero_lambda": [7, 8], "zero_eta": [3]}, ("rank", "gram_condition")),
])
def test_report_records_every_option_as_typed(capsys, argv, typed, results):
    _, out, err = run_cli(capsys, *argv, "--format", "json")
    assert out, err
    recorded = json.loads(out)["options"]
    assert list(recorded) == [*typed, *results]
    assert {name: recorded[name] for name in typed} == typed


def test_simulate_report_records_every_option_as_typed(capsys, tmp_path):
    # --progress is left out: it only routes the log, and the report reads the same without it.
    out_dir = str(tmp_path / "results")
    code, out, _ = run_cli(
        capsys, "simulate", "--plan", "bundled:sim", "--sizes", "200", "--lambda8", "0",
        "--a-values", "0.5", "--replications", "2", "--seed", "11", "--alpha", "0.1",
        "--jobs", "1", "--progress", "--out-dir", out_dir, "--format", "json",
    )
    assert code == EXIT_OK
    assert json.loads(out)["options"] == {
        "sample_sizes": [200], "lambda8_grid": [0.0], "a_values": [0.5], "replications": 2,
        "seed": 11, "alpha": 0.1, "jobs": 1, "out_dir": out_dir,
    }


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

    def test_failed_fit_reports_its_best_start(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGV, "--max-iters", "1")
        assert code == EXIT_COMPUTE
        doc = json.loads(out)["fit"]
        assert not doc["converged"]
        assert doc["objective"] == min(s["objective"] for s in doc["starts"])
        assert math.isfinite(doc["objective"])
        # The report's rank is the one jacobian_rank gives at the reported point.
        theta = Theta(lam=doc["lambda"], eta=doc["eta"])
        assert doc["jacobian_rank"] == jacobian_rank(datasets.coleman_design_m1(), theta)


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

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                ("gof", "--design", "bundled:coleman_m1", "--max-iters", "1", "--starts", "5"),
                "goodness-of-fit statistic requires a converged fit: no start converged: 5 max_iters",
                id="gof",
            ),
            # The nested tests name the model whose fit failed.
            pytest.param(
                ("nested", "--design", "bundled:coleman_m1_chain_basis", "--zero-lambda", "7,8",
                 "--max-iters", "1", "--starts", "5"),
                "nested test requires a converged fit of model A: no start converged: 5 max_iters",
                id="nested-A",
            ),
            pytest.param(
                ("nested", "--design", "bundled:coleman_m1_chain_basis", "--zero-lambda", "7,8",
                 "--max-iters", "60", "--starts", "2", "--seed", "3"),
                "nested test requires a converged fit of model B: no start converged: 2 max_iters",
                id="nested-B",
            ),
            pytest.param(
                ("select", "--chain", "bundled:coleman_chain", "--max-iters", "1", "--starts", "5"),
                "nested test of M2 within M1 requires a converged fit of M1: no start converged: 5 max_iters",
                id="select-M1",
            ),
            pytest.param(
                ("select", "--chain", "bundled:coleman_chain", "--max-iters", "60", "--starts", "3",
                 "--seed", "3"),
                "nested test of M3 within M2 requires a converged fit of M3: no start converged: 3 max_iters",
                id="select-M3",
            ),
        ],
    )
    def test_unconverged_fit_exits_without_a_report(self, capsys, argv, message):
        phi = ("--phi1", "power:a=0.6666666666666666", "--phi2", "power:a=0.6666666666666666")
        code, out, err = run_cli(capsys, *argv, "--counts", "bundled:coleman", *phi, "--format", "json")
        assert code == EXIT_COMPUTE
        assert err.strip() == f"computation failed: {message}"
        assert out == ""

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

        fileio.write("design", coleman_design_chain_basis(), chain_design)
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
        fileio.write("design", coleman_design_chain_basis(), chain_design)
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
        import lcmdiv.cli

        # One fit_chain call fits both models, whichever statistics are asked for.
        calls = []
        real_fit_chain = lcmdiv.cli.fit_chain

        def counting_fit_chain(chain, *args, **kwargs):
            calls.append(chain.n_models)
            return real_fit_chain(chain, *args, **kwargs)

        monkeypatch.setattr(lcmdiv.cli, "fit_chain", counting_fit_chain)
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
            assert calls == [2]
            tests[statistic] = json.loads(out)["tests"]
        assert tests["both"] == {"S": tests["S"]["S"], "T": tests["T"]["T"]}

    def test_nested_and_select_reach_the_nested_tests(self, capsys, monkeypatch):
        # nested_S and nested_T are the one nested-test entry point: the CLI
        # and sequential_selection call them, once per statistic and step.
        import lcmdiv.cli
        import lcmdiv.inference

        calls = []
        for name in ("nested_S", "nested_T"):
            real = getattr(lcmdiv.inference, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            for module in (lcmdiv.inference, lcmdiv.cli):
                monkeypatch.setattr(module, name, counting)
        phi = ("--phi1", "power:a=0.6666666666666666", "--phi2", "power:a=0.6666666666666666")
        code, _, _ = run_cli(
            capsys, "nested", "--design", "bundled:coleman_m1_chain_basis",
            "--counts", "bundled:coleman", "--zero-lambda", "7,8", *phi,
            "--statistic", "both", "--starts", "5", "--seed", "5",
        )
        assert code == EXIT_OK and sorted(calls) == ["nested_S", "nested_T"]
        for statistic in ("S", "T"):
            calls.clear()
            code, out, _ = run_cli(
                capsys, "select", "--chain", "bundled:coleman_chain", "--counts", "bundled:coleman",
                *phi, "--statistic", statistic, "--starts", "5", "--seed", "5", "--format", "json",
            )
            assert code == EXIT_OK
            assert calls == [f"nested_{statistic}"] * len(json.loads(out)["trail"])

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

        fileio.write(
            "plan",
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
        fileio.write("plan", replace(plan, fit_max_iters=1), plan_path)
        out_dir = tmp_path / "results"
        code, out, _ = run_cli(
            capsys, "simulate", "--plan", str(plan_path), "--out-dir", str(out_dir),
            "--format", "json",
        )
        assert code == EXIT_OK
        cell = json.loads(out)["cells"][0]
        # The plan's dof, 32 - 12 - 1, although no replication was tested.
        assert (cell["n_effective"], cell["fit_failures"], cell["dof"]) == (0, 2, 19)
        header, row = (out_dir / "size_power.csv").read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["dof"] == "19"

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

    @pytest.mark.parametrize(
        "section,key,value",
        [("fit", "starts", 0), (None, "sample_sizes", [0]), ("fit", "grad_tol", 0),
         (None, "a_values", [])],
    )
    def test_bad_plan_file_is_an_input_error(self, capsys, tmp_path, section, key, value):
        # The plan refuses the value when it is built, before any cell runs.
        from lcmdiv.datasets import simulation_plan

        doc = fileio.plan_to_dict(simulation_plan(sample_sizes=(200,), replications=2))
        (doc[section] if section else doc)[key] = value
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, "simulate", "--plan", str(plan_path), "--out-dir", str(tmp_path / "d")
        )
        assert code == EXIT_INPUT and out == "" and "Traceback" not in err
        assert not (tmp_path / "d").exists()

    def test_report_plan_and_cells_are_the_plan_file_and_the_table(self, capsys, tmp_path):
        from dataclasses import replace

        from lcmdiv.montecarlo import run_simulation

        code, out, _ = run_cli(
            capsys, "simulate", "--plan", "bundled:sim", "--sizes", "200", "--lambda8", "0,2",
            "--a-values", "0,0.6666666666666666", "--replications", "3", "--seed", "5",
            "--out-dir", str(tmp_path / "results"), "--format", "json",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        plan = replace(
            datasets.simulation_plan(), sample_sizes=(200,), lambda8_grid=(0.0, 2.0),
            a_values=(0.0, 2.0 / 3.0), replications=3, seed=5,
        )
        expected = fileio.plan_to_dict(plan)
        del expected["null_design"], expected["alt_design"]
        assert doc["plan"] == expected
        header, *rows = run_simulation(plan).rows()
        assert doc["cells"] == [dict(zip(header, row)) for row in rows]

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
        fileio.write("design", design, path)
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

    def test_ill_conditioned_reduction_passes(self, capsys):
        # L'L has condition 2.9e11 here.  The sqrt-p annihilation measures the
        # Jacobian's own rounding over L's smallest singular value, so it keeps
        # its tolerance.
        code, out, _ = run_cli(
            capsys, "verify", "--design", "bundled:coleman_m1_chain_basis", "--drop-eta", "1",
            "--zero-lambda", "7,8", "--format", "json",
        )
        doc = json.loads(out)
        assert code == EXIT_OK and doc["all_pass"] is True
        assert doc["options"]["gram_condition"] > 1e11
        for item in doc["identities"]:
            if "annihilat" not in item["name"]:
                assert item["deviation"] < 1e-12, item["name"]

    @pytest.mark.parametrize("zero, removed", [("6", [0, 5]), ("2", [0, 1])])
    def test_zero_eta_counts_the_loaded_design(self, capsys, zero, removed):
        # --drop-eta 1 --zero-eta 6 leaves the loaded design's eta 2..5, and
        # --zero-eta 2 its eta 3..6: both number the loaded coordinates.
        argv = ("verify", "--design", "bundled:sim_null", "--drop-eta", "1", "--zero-eta", zero)
        ns = parse_args(list(argv))
        loaded = datasets.simulation_null_design()
        np.testing.assert_array_equal(ns.chain.model_design(2).V, np.delete(loaded.V, removed, axis=1))
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == EXIT_OK and json.loads(out)["all_pass"] is True

    @pytest.mark.parametrize("zero, message", [
        ("1", "--zero-eta 1 is the coordinate --drop-eta removes"),
        ("7", "zeroed eta index out of range"),
    ])
    def test_zero_eta_of_the_dropped_or_a_missing_coordinate_is_refused(self, capsys, zero, message):
        code, out, err = run_cli(
            capsys, "verify", "--design", "bundled:sim_null", "--drop-eta", "1", "--zero-eta", zero
        )
        assert code == EXIT_USAGE and out == ""
        assert message in err

    @pytest.mark.parametrize("drop", ["0", "7"])
    @pytest.mark.parametrize("extra", [(), ("--pseudo-inverse",)])
    def test_drop_eta_out_of_range_is_refused(self, capsys, drop, extra):
        # The bundled null design has u = 6 eta coordinates.
        code, out, err = run_cli(
            capsys, "verify", "--design", "bundled:sim_null", "--drop-eta", drop, *extra
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "--drop-eta must be in [1, 6]" in err
