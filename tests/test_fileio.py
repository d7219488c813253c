import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from lcmdiv import fileio
from lcmdiv.errors import InputFormatError
from lcmdiv.model import NestedChain
from lcmdiv.montecarlo import SimulationPlan

from conftest import make_design


class TestDesignFiles:
    def test_round_trip(self, tmp_path):
        design = make_design(seed=401, k=3, m=2, t=3, u=2)
        path = tmp_path / "design.json"
        fileio.write("design", design, path, comment="round trip")
        loaded = fileio.read_design(path)
        np.testing.assert_array_equal(loaded.Q, design.Q)
        np.testing.assert_array_equal(loaded.C, design.C)
        np.testing.assert_array_equal(loaded.V, design.V)
        np.testing.assert_array_equal(loaded.d, design.d)

    def test_dimension_mismatch_rejected(self, tmp_path):
        design = make_design(seed=402)
        doc = fileio.design_to_dict(design)
        doc["t"] = 99
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputFormatError):
            fileio.read_design(path)

    @pytest.mark.parametrize(
        "key,edit",
        [
            ("k", lambda doc: doc.update(k=float(doc["k"]))),
            ("C", lambda doc: doc["C"][1].__setitem__(0, "0.5")),
            ("d", lambda doc: doc["d"].__setitem__(0, True)),
            ("Q", lambda doc: doc["Q"][0][0].__setitem__(1, None)),
            ("V", lambda doc: doc.update(V=[[1.0], 2.0])),
        ],
    )
    def test_number_of_the_wrong_json_type_is_refused(self, tmp_path, key, edit):
        doc = fileio.design_to_dict(make_design(seed=406, k=4))
        edit(doc)
        path = tmp_path / "design.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputFormatError, match=f"design.json: bad design key '{key}'"):
            fileio.read_design(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InputFormatError):
            fileio.read_design(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputFormatError):
            fileio.read_design(tmp_path / "absent.json")

    @pytest.mark.parametrize("reader", [fileio.read_design, fileio.read_counts])
    def test_unreadable_file_is_an_input_error(self, tmp_path, reader):
        # A directory, and a file that is not UTF-8.
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes("# café\n1,2,3,4\n".encode("latin-1"))
        for path in (tmp_path, latin1):
            with pytest.raises(InputFormatError, match="cannot read"):
                reader(path)


class TestCountsFiles:
    def test_pattern_rows_round_trip(self, tmp_path, coleman_counts):
        path = tmp_path / "counts.csv"
        fileio.write("counts", coleman_counts, path)
        loaded = fileio.read_counts(path)
        np.testing.assert_array_equal(loaded.n, coleman_counts.n)

    def test_missing_patterns_count_zero(self, tmp_path):
        path = tmp_path / "sparse.csv"
        path.write_text("y_1,y_2,count\n0,0,7\n1,1,3\n")
        loaded = fileio.read_counts(path)
        np.testing.assert_array_equal(loaded.n, [7, 0, 0, 3])

    def test_dense_vector_one_per_line(self, tmp_path):
        path = tmp_path / "dense.txt"
        path.write_text("5\n1\n2\n2\n")
        loaded = fileio.read_counts(path)
        np.testing.assert_array_equal(loaded.n, [5, 1, 2, 2])

    def test_dense_vector_single_row(self, tmp_path):
        path = tmp_path / "dense.csv"
        path.write_text("5,1,2,2\n")
        loaded = fileio.read_counts(path)
        np.testing.assert_array_equal(loaded.n, [5, 1, 2, 2])

    @pytest.mark.parametrize(
        "content",
        [
            "y_1,y_2,count\n0,2,5\n",        # non-binary response
            "y_1,y_2,count\n0,0,-1\n",       # negative count
            "y_1,y_2,count\n0,0,5\n0,0,3\n", # duplicate pattern
            "y_1,y_2,total\n0,0,5\n",        # bad header
            "5,1,2\n",                        # dense length not a power of two
            "y_1,y_2,count\n0,0,1.5\n",      # non-integer count
            "1,2,-3,4\n",                     # negative dense count
            "0,0,0,0\n",                      # zero total
            "y_1,y_2,count\n0,0,0\n",        # zero total, pattern rows
            # Counts beyond int64: one entry, and a total whose int64 sum wraps.
            "99999999999999999999\n" + "5\n" * 15,
            "y_1,y_2,y_3,y_4,count\n0,0,0,0,99999999999999999999\n0,0,0,1,5\n",
            "9223372036854775807\n" + "5\n" * 15,
            "# nothing\n\n",                 # no data line
            "y_1,y_2,y_3,y_4,count\n0,0,0,0\n",  # short pattern row
            "1,2,3.5,4\n",                   # non-integer dense count
        ],
    )
    def test_malformed_inputs_rejected(self, tmp_path, content):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        with pytest.raises(InputFormatError):
            fileio.read_counts(path)


class TestChainFiles:
    def test_round_trip_with_one_based_indices(self, tmp_path):
        design = make_design(seed=403, k=3, m=2, t=4, u=2)
        chain = NestedChain(design=design, steps=(((3,), ()), ((2, 3), (1,))))
        path = tmp_path / "chain.json"
        fileio.write("chain", chain, path, comment="reconstruction")
        doc = json.loads(path.read_text())
        assert doc["steps"][0]["zero_lambda"] == [4]  # 1-based on disk
        loaded = fileio.read_chain(path)
        assert loaded.steps == chain.steps

    def test_bad_chain_rejected(self, tmp_path):
        design = make_design(seed=404, k=3, m=2, t=3, u=1)
        doc = {"design": fileio.design_to_dict(design), "steps": [{"zero_lambda": [1]}, {"zero_lambda": [1]}]}
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputFormatError, match="chain.json"):
            fileio.read_chain(path)


    @pytest.mark.parametrize("indices", [[7.9, "8"], [True], 3, ["2"]])
    def test_index_of_the_wrong_json_type_is_refused(self, tmp_path, indices):
        design = make_design(seed=404, k=3, m=2, t=8, u=1)
        doc = {"design": fileio.design_to_dict(design), "steps": [{"zero_lambda": indices}]}
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputFormatError, match="chain.json: bad chain key 'zero_lambda'"):
            fileio.read_chain(path)

    def test_unknown_step_key_is_refused(self, tmp_path):
        # A misspelt zero_eta would otherwise load the step without its eta restriction.
        design = make_design(seed=404, k=3, m=2, t=3, u=2)
        doc = {"design": fileio.design_to_dict(design),
               "steps": [{"zero_lambda": [1], "zero_ata": [1]}]}
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputFormatError, match="chain.json: bad chain key 'steps' .*'zero_ata'"):
            fileio.read_chain(path)

    def test_repeated_index_exits_3(self, tmp_path, capsys):
        # Refused as `nested --zero-lambda 7,7,8` is, not loaded as (7, 8).
        from lcmdiv.cli import EXIT_INPUT, main
        from lcmdiv.datasets import coleman_chain

        doc = fileio.chain_to_dict(coleman_chain())
        doc["steps"][0]["zero_lambda"] = [7, 7, 8]
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        assert main(["select", "--chain", str(path), "--counts", "bundled:coleman"]) == EXIT_INPUT
        assert "chain.json: bad chain (zeroed coordinate indices must be unique)" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("design", 5), ("steps", [[1]])])
    def test_chain_structure_of_the_wrong_json_type_is_refused(self, tmp_path, key, value):
        design = make_design(seed=404, k=3, m=2, t=3, u=1)
        doc = {"design": fileio.design_to_dict(design), "steps": [{"zero_lambda": [1]}]}
        doc[key] = value
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputFormatError, match=f"chain.json: bad chain key '{key}'"):
            fileio.read_chain(path)


class TestPlanFiles:
    def test_round_trip(self, tmp_path):
        from lcmdiv.datasets import simulation_plan

        plan = simulation_plan(
            sample_sizes=(200, 300), a_values=(0.0, 2.0 / 3.0),
            lambda8_grid=(0.0, 1.0), replications=25, seed=7,
        )
        path = tmp_path / "plan.json"
        fileio.write("plan", plan, path)
        loaded = fileio.read_plan(path)
        assert loaded.sample_sizes == plan.sample_sizes
        assert loaded.a_values == plan.a_values
        assert loaded.lambda8_grid == plan.lambda8_grid
        assert loaded.replications == plan.replications
        assert loaded.seed == plan.seed
        np.testing.assert_array_equal(loaded.theta0.lam, plan.theta0.lam)
        np.testing.assert_array_equal(np.asarray(loaded.null_design.Q), np.asarray(plan.null_design.Q))

    def test_round_trip_keeps_every_field(self, tmp_path):
        from lcmdiv.datasets import simulation_plan

        plan = replace(
            simulation_plan(sample_sizes=(200,), a_values=(-0.5,), lambda8_grid=(0.0, 2.0),
                            replications=9, seed=5),
            alpha=0.1, estimator_a=1.0, dof_policy="nominal", fit_starts=3,
            start_at_truth=False, fit_grad_tol=1e-7, fit_max_iters=123,
        )
        path = tmp_path / "plan.json"
        fileio.write("plan", plan, path)
        assert fileio.plan_to_dict(fileio.read_plan(path)) == fileio.plan_to_dict(plan)

    def test_absent_optional_keys_take_plan_defaults(self):
        from lcmdiv.datasets import simulation_plan

        full = simulation_plan(sample_sizes=(200,), replications=9)
        required = ("null_design", "alt_design", "theta0", "lambda8_grid", "sample_sizes",
                    "a_values", "replications")
        doc = {key: value for key, value in fileio.plan_to_dict(full).items() if key in required}
        expected = SimulationPlan(**{name: getattr(full, name) for name in required})
        assert fileio.plan_to_dict(fileio.plan_from_dict(doc)) == fileio.plan_to_dict(expected)

    @pytest.mark.parametrize(
        "section,key,value",
        [
            # integer keys take JSON integers only
            (None, "replications", 12.9),
            (None, "seed", True),
            ("fit", "starts", 2.7),
            ("fit", "max_iters", "300"),
            # float keys take JSON numbers, not booleans or strings
            (None, "alpha", "0.05"),
            ("fit", "grad_tol", True),
            # start_at_truth takes a JSON boolean, dof_policy a string
            ("fit", "start_at_truth", "false"),
            ("fit", "start_at_truth", 0),
            (None, "dof_policy", ["rank"]),
            # list keys take lists of the matching type
            (None, "sample_sizes", [200.5, "300"]),
            (None, "sample_sizes", [200, True]),
            (None, "a_values", ["0.5"]),
            (None, "lambda8_grid", 2.0),
        ],
    )
    def test_value_of_the_wrong_json_type_is_refused(self, tmp_path, section, key, value):
        from lcmdiv.datasets import simulation_plan

        doc = fileio.plan_to_dict(simulation_plan(sample_sizes=(200,), replications=9))
        (doc[section] if section else doc)[key] = value
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputFormatError, match=f"plan.json: bad plan key '{key}'"):
            fileio.read_plan(path)

    @pytest.mark.parametrize(
        "part,entry", [("lambda", "-3"), ("eta", True), ("lambda", None), ("eta", [0.5])]
    )
    def test_theta0_number_of_the_wrong_json_type_is_refused(self, tmp_path, part, entry):
        from lcmdiv.datasets import simulation_plan

        doc = fileio.plan_to_dict(simulation_plan(sample_sizes=(200,), replications=9))
        doc["theta0"][part][0] = entry
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputFormatError, match="plan.json: bad plan key 'theta0'"):
            fileio.read_plan(path)

    @pytest.mark.parametrize("drop", ["eta", "item"])
    def test_alt_design_that_does_not_match_the_null_is_refused(self, drop):
        # An alternative with one weight column or one item fewer than the
        # null design is refused at load, not when a run reaches it.
        from lcmdiv.datasets import simulation_plan

        doc = fileio.plan_to_dict(simulation_plan(sample_sizes=(200,), replications=9))
        alt = doc["alt_design"]
        if drop == "eta":
            alt["u"], alt["V"] = alt["u"] - 1, [row[:-1] for row in alt["V"]]
        else:
            alt["k"] -= 1
            alt["Q"], alt["C"] = [q[:-1] for q in alt["Q"]], [c[:-1] for c in alt["C"]]
        with pytest.raises(InputFormatError, match="plan: bad plan .*alt design must extend"):
            fileio.plan_from_dict(doc)

    @pytest.mark.parametrize("section,key", [(None, "sed"), ("fit", "start")])
    def test_unknown_key_is_refused(self, tmp_path, section, key):
        # A misspelt key would otherwise leave its field at the plan default.
        from lcmdiv.datasets import simulation_plan

        doc = fileio.plan_to_dict(simulation_plan(sample_sizes=(200,), replications=9))
        (doc[section] if section else doc)[key] = 5
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputFormatError, match=f"plan.json: bad plan .*unknown key '{key}'"):
            fileio.read_plan(path)

    def test_plan_value_of_the_wrong_type_exits_3(self, tmp_path, capsys):
        from lcmdiv.cli import EXIT_INPUT, main
        from lcmdiv.datasets import simulation_plan

        doc = fileio.plan_to_dict(simulation_plan(sample_sizes=(200,), replications=9))
        doc["fit"]["start_at_truth"] = "false"
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--plan", str(path), "--out-dir", str(tmp_path)]) == EXIT_INPUT
        assert "'start_at_truth' (expected true or false, got \"false\")" in capsys.readouterr().err

    def test_plan_with_a_non_finite_entry_exits_3(self, tmp_path, capsys):
        # json.loads reads NaN; the plan refuses it at load, before any
        # replication is sampled.
        from lcmdiv.cli import EXIT_INPUT, main
        from lcmdiv.datasets import simulation_plan

        doc = fileio.plan_to_dict(simulation_plan(sample_sizes=(200,), replications=9))
        doc["a_values"] = [0.5, math.nan]
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--plan", str(path), "--out-dir", str(tmp_path / "d")]) == EXIT_INPUT
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("fit", "grad_tol", math.inf), (None, "alpha", 1e-17), (None, "sample_sizes", [200, 200]),
            (None, "seed", -1), (None, "sed", 5), ("fit", "start", 7),
        ],
    )
    def test_plan_value_the_plan_refuses_exits_3(self, tmp_path, capsys, section, key, value):
        # An infinite grad_tol would accept every launch point as converged;
        # 1 - 1e-17 rounds to 1, a level with no critical value.
        from lcmdiv.cli import EXIT_INPUT, main
        from lcmdiv.datasets import simulation_plan

        doc = fileio.plan_to_dict(simulation_plan(sample_sizes=(200,), replications=9))
        (doc[section] if section else doc)[key] = value
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--plan", str(path), "--out-dir", str(tmp_path / "d")]) == EXIT_INPUT
        assert "plan.json: bad plan" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_plan_that_is_not_an_object_is_an_input_error(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("[]")
        with pytest.raises(InputFormatError, match="plan.json"):
            fileio.read_plan(path)

    def test_digest_stability(self, tmp_path):
        design = make_design(seed=405)
        path = tmp_path / "d.json"
        fileio.write("design", design, path)
        assert fileio.InputFile(path).sha256 == fileio.InputFile(path).sha256


class TestLoadAndWrite:
    @pytest.mark.parametrize("kind", ["design", "counts", "chain", "plan"])
    def test_every_kind_round_trips_with_a_two_line_comment(self, tmp_path, kind):
        from lcmdiv import datasets

        name, (build, _) = next(iter(datasets.BUNDLED[kind].items()))
        obj = build()
        path = tmp_path / f"{name}.{kind}"
        fileio.write(kind, obj, path, comment="first line\nsecond line")
        loaded, digest = fileio.load(kind, str(path))
        to_dict = getattr(fileio, f"{kind}_to_dict")
        assert to_dict(loaded) == to_dict(obj)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        text = path.read_text()
        if kind == "counts":
            assert text.splitlines()[:3] == ["# first line", "# second line", "y_1,y_2,y_3,y_4,count"]
        else:
            doc = json.loads(text)
            assert list(doc)[-1] == "comment" and doc["comment"] == "first line\nsecond line"

    def test_unknown_bundled_name_lists_the_kind(self):
        with pytest.raises(InputFormatError, match="unknown bundled counts 'nope'; available: coleman"):
            fileio.load("counts", "bundled:nope")

    def test_readers_are_looked_up_when_load_is_called(self, monkeypatch, tmp_path):
        # A wrapper installed on the module sees every load of a file.
        path = tmp_path / "design.json"
        fileio.write("design", make_design(seed=407), path)
        calls = []
        real = fileio.read_design
        monkeypatch.setattr(fileio, "read_design", lambda source: calls.append(source) or real(source))
        fileio.load("design", str(path))
        assert [str(source) for source in calls] == [str(path)]


@pytest.mark.parametrize("kind", ["design", "chain", "plan"])
def test_mistyped_numbers_in_every_input_exit_3(tmp_path, capsys, kind):
    from lcmdiv import datasets
    from lcmdiv.cli import EXIT_INPUT, main

    if kind == "design":
        doc = fileio.design_to_dict(datasets.coleman_design_m1())
        doc["k"] = 4.0
        argv = ["fit", "--design", "{path}", "--counts", "bundled:coleman"]
    elif kind == "chain":
        doc = fileio.chain_to_dict(datasets.coleman_chain())
        doc["steps"][0]["zero_lambda"] = [7.9, "8"]
        argv = ["select", "--chain", "{path}", "--counts", "bundled:coleman"]
    else:
        doc = fileio.plan_to_dict(datasets.simulation_plan(sample_sizes=(200,), replications=9))
        doc["theta0"]["lambda"][0] = "-3"
        argv = ["simulate", "--plan", "{path}", "--out-dir", str(tmp_path)]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    assert main([arg.format(path=path) for arg in argv]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"{kind}.json: bad {kind} key" in err and "expected" in err


@pytest.mark.parametrize("kind, where, key", [
    ("design", None, "cmment"),
    ("design", None, "V2"),
    ("chain", None, "stepz"),
    ("chain", "design", "cmment"),
    ("plan", "theta0", "etta"),
])
def test_unknown_key_in_every_input_exits_3(tmp_path, capsys, kind, where, key):
    # A misspelt optional key would otherwise be dropped without a word.
    from lcmdiv import datasets
    from lcmdiv.cli import EXIT_INPUT, main

    argv = {
        "design": ["fit", "--design", "{path}", "--counts", "bundled:coleman"],
        "chain": ["select", "--chain", "{path}", "--counts", "bundled:coleman"],
        "plan": ["simulate", "--plan", "{path}", "--out-dir", str(tmp_path)],
    }[kind]
    doc = {
        "design": lambda: fileio.design_to_dict(datasets.coleman_design_m1()),
        "chain": lambda: fileio.chain_to_dict(datasets.coleman_chain()),
        "plan": lambda: fileio.plan_to_dict(datasets.simulation_plan(sample_sizes=(200,), replications=9)),
    }[kind]()
    (doc[where] if where else doc)[key] = [0.0]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    assert main([arg.format(path=path) for arg in argv]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"{kind}.json" in err and f"unknown key '{key}'" in err
