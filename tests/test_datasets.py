import numpy as np
import pytest

from lcmdiv import datasets
from lcmdiv.model import Theta, jacobian_rank, manifest_distribution, pattern_index

from conftest import COLEMAN_REF_ETA, COLEMAN_REF_LAMBDA


class TestColemanData:
    def test_total_and_cells(self, coleman_counts):
        assert coleman_counts.N == 3398
        assert coleman_counts.n[pattern_index([0, 0, 0, 0]) - 1] == 554
        assert coleman_counts.n[pattern_index([0, 1, 1, 0]) - 1] == 75
        assert coleman_counts.n[pattern_index([1, 1, 1, 1]) - 1] == 458

    def test_design_shape(self, coleman_design):
        assert (coleman_design.m, coleman_design.k) == (4, 4)
        assert (coleman_design.t, coleman_design.u) == (8, 4)
        # Each class/item loads exactly one parameter.
        Q = np.asarray(coleman_design.Q)
        assert np.all(Q.sum(axis=2) == 1.0)

    def test_reference_parameters_reproduce_reference_probabilities(self, coleman_design):
        from conftest import COLEMAN_REF_P, COLEMAN_REF_W, table_latent

        latent = table_latent(coleman_design, Theta(lam=COLEMAN_REF_LAMBDA, eta=COLEMAN_REF_ETA))
        np.testing.assert_allclose(latent.P, COLEMAN_REF_P, atol=5e-9)
        np.testing.assert_allclose(latent.w, COLEMAN_REF_W, atol=5e-9)


class TestChainBasis:
    def test_same_manifold_as_original(self, coleman_design):
        # The chain basis is an affine reparametrization: mapping
        # (l1..l4, c0, cH, f1, f2) to the original coordinates must give the
        # same manifest distribution.
        chain_design = datasets.coleman_design_chain_basis()
        rng = np.random.default_rng(5)
        for _ in range(5):
            l1, l2, l3, l4, c0, cH, f1, f2 = rng.normal(size=8)
            eta = rng.normal(size=4)
            chain_theta = Theta(lam=[l1, l2, l3, l4, c0, cH, f1, f2], eta=eta)
            orig_theta = Theta(
                lam=[l1, l2, l3, l4, l1 + c0, l2 + c0 + cH, l3 + c0 + f1, l4 + c0 + cH + f2],
                eta=eta,
            )
            np.testing.assert_allclose(
                manifest_distribution(chain_design, chain_theta).p,
                manifest_distribution(coleman_design, orig_theta).p,
                rtol=1e-12,
            )

    def test_chain_parameter_counts(self, coleman_chain):
        assert [coleman_chain.free_params(l) for l in (1, 2, 3, 4)] == [12, 10, 9, 8]
        assert [coleman_chain.model_design(l).t for l in (1, 2, 3, 4)] == [8, 6, 5, 4]

    def test_reduced_design_accessors(self):
        assert [datasets.coleman_chain().model_design(level).t for level in (2, 3, 4)] == [6, 5, 4]


class TestSimulationPreset:
    def test_design_shapes(self):
        null = datasets.simulation_null_design()
        alt = datasets.simulation_alt_design()
        assert (null.m, null.k, null.t, null.u) == (10, 5, 7, 6)
        assert alt.t == 8
        np.testing.assert_array_equal(np.asarray(alt.Q)[:, :, :7], np.asarray(null.Q))
        extra = np.asarray(alt.Q)[:, :, 7]
        np.testing.assert_array_equal(extra[:5], 1.0)
        np.testing.assert_array_equal(extra[5:], 0.0)

    def test_each_loading_column_hits_expected_rows(self):
        # Spot checks of the transcribed loading matrices.
        Q = np.asarray(datasets.simulation_null_design().Q)
        # First parameter: class 1 item 1, class 4 item 5, class 8 item 1, ...
        assert Q[0, 0, 0] == 1 and Q[3, 4, 0] == 1 and Q[7, 0, 0] == 1 and Q[9, 4, 0] == 1
        assert Q[0, :, 0].sum() == 1 and Q[1, :, 0].sum() == 0
        # Seventh parameter: rows 1, 2, 9, 10 unloaded on nothing / zeros rows.
        assert Q[0, :, 6].sum() == 0 and Q[1, :, 6].sum() == 0
        assert Q[6, 0, 6] == 1 and Q[7, 3, 6] == 1

    def test_weight_loadings(self):
        V = np.asarray(datasets.simulation_null_design().V)
        np.testing.assert_array_equal(V[:, :5].sum(axis=1), np.ones(10))
        np.testing.assert_array_equal(V[:, 5], [1, 0, 1, 0, 1, 0, 1, 0, 1, 0])

    def test_true_parameters(self):
        theta0 = datasets.simulation_theta0()
        np.testing.assert_array_equal(theta0.lam, [-3, -2, -1, 0, 1, 2, 3])
        np.testing.assert_array_equal(theta0.eta, [0.5, 1, 1.5, 2, 2.5, 3])

    def test_softmax_redundancy_gives_rank_twelve(self):
        null = datasets.simulation_null_design()
        assert jacobian_rank(null, datasets.simulation_theta0()) == 12

    def test_plan_defaults(self):
        plan = datasets.simulation_plan()
        assert plan.replications == 10_000
        assert plan.sample_sizes == (200, 300, 400, 500, 1000)
        assert len(plan.lambda8_grid) == 12 and 0.0 in plan.lambda8_grid
        assert plan.estimator_a == pytest.approx(2.0 / 3.0)


class TestExportedFiles:
    def test_repo_data_directory_matches_constructors(self, tmp_path):
        # Guards against drift between the committed files and the code.
        import importlib.util
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[1]
        spec = importlib.util.spec_from_file_location(
            "export_bundled_data", root / "scripts" / "export_bundled_data.py"
        )
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        written = script.export(tmp_path)
        data_dir = root / "data"
        assert data_dir.is_dir(), "run scripts/export_bundled_data.py to create data/"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in data_dir.iterdir())
        for path in tmp_path.iterdir():
            assert path.read_bytes() == (data_dir / path.name).read_bytes(), path.name
        assert written == [
            tmp_path / script.LAYOUT[kind].format(name)
            for kind, bundled in datasets.BUNDLED.items()
            for name in bundled
        ]
