import numpy as np
import pytest

from lcmdiv.asymptotics import build_bundle, build_nested_projections
from lcmdiv.datasets import simulation_null_design
from lcmdiv.errors import DomainError, RankDeficiencyError
from lcmdiv.model import ModelDesign, NestedChain, Theta, manifest_distribution

from conftest import make_design, random_theta

# Three small full-rank designs of different shapes.
DESIGNS = [
    make_design(seed=301, k=3, m=2, t=2, u=1),
    make_design(seed=302, k=4, m=3, t=4, u=2),
    make_design(seed=303, k=4, m=2, t=3, u=1),
]


@pytest.mark.parametrize("idx", range(len(DESIGNS)))
@pytest.mark.parametrize("theta_seed", (0, 1, 2))
class TestBundleIdentities:
    def test_all(self, idx, theta_seed):
        design = DESIGNS[idx]
        theta0 = random_theta(design, seed=310 + theta_seed, scale=0.8)
        checks = build_bundle(design, theta0)
        assert checks["rank"] == design.n_params
        assert checks["q_symmetry"] < 1e-10
        assert checks["q_idempotency"] < 1e-8
        assert checks["q_trace_deviation"] < 1e-6
        assert checks["q_trace_target"] == design.n_patterns - design.n_params - 1
        # The square-root-probability direction is annihilated on both sides.
        assert checks["sqrtp_annihilation"] < 1e-8


class TestNestedProjections:
    @pytest.mark.parametrize("idx, zero_lam", [(1, (1, 3)), (2, (2,)), (0, (1,))])
    def test_identities(self, idx, zero_lam):
        design = DESIGNS[idx]
        pair = NestedChain(design, ((zero_lam, ()),))
        theta0 = Theta(lam=random_theta(design, seed=320 + idx).lam,
                       eta=random_theta(design, seed=330 + idx).eta)
        checks = build_nested_projections(pair, theta0)
        assert checks["rl_trace_deviation"] < 1e-6
        assert checks["rm_trace_deviation"] < 1e-6
        assert checks["product_rl_rm"] < 1e-8
        assert checks["product_rm_rl"] < 1e-8
        assert checks["difference_idempotency"] < 1e-8
        assert checks["difference_trace_deviation"] < 1e-6
        assert checks["sqrtp_annihilation"] < 1e-8
        assert checks["rl_idempotency"] < 1e-8 and checks["rm_idempotency"] < 1e-8

    def test_measured_at_the_restriction_to_model_2(self):
        # The coordinates model 2 fixes are set to zero by the builder, whatever theta0 holds there.
        design = DESIGNS[1]
        pair = NestedChain(design, (((1, 3), (0,)),))
        theta0 = random_theta(design, seed=350)
        free = pair.free_columns(2)
        x0 = np.zeros(design.n_params)
        x0[free] = theta0.vector()[free]
        assert np.all(theta0.vector()[x0 == 0.0] != 0.0)
        at_theta0 = build_nested_projections(pair, theta0)
        at_restriction = build_nested_projections(pair, Theta.from_vector(design, x0))
        assert list(at_theta0) == list(at_restriction)
        assert [v.hex() for v in at_theta0.values()] == [v.hex() for v in at_restriction.values()]


class TestRankDeficiency:
    def softmax_redundant_design(self):
        # Identity weight loadings carry the all-ones redundancy direction.
        rng = np.random.default_rng(340)
        return ModelDesign(
            Q=rng.normal(size=(3, 3, 2)), C=np.zeros((3, 3)), V=np.eye(3), d=np.zeros(3)
        )

    def test_refusal_names_rank(self):
        design = self.softmax_redundant_design()
        theta0 = random_theta(design, seed=341)
        with pytest.raises(RankDeficiencyError) as err:
            build_bundle(design, theta0)
        assert err.value.rank == design.n_params - 1

    def test_pseudo_inverse_uses_identifiable_count(self):
        design = self.softmax_redundant_design()
        theta0 = random_theta(design, seed=342)
        checks = build_bundle(design, theta0, pseudo_inverse=True)
        assert checks["rank"] == design.n_params - 1
        assert checks["q_symmetry"] < 1e-8
        assert checks["q_idempotency"] < 1e-8
        # Trace target uses the identifiable rank, not the nominal count.
        assert checks["q_trace_deviation"] < 1e-6

    def test_reduced_parametrization_restores_full_rank(self):
        # Dropping one weight coordinate removes the softmax redundancy.
        design = self.softmax_redundant_design()
        reduced = ModelDesign(
            Q=design.Q, C=design.C, V=np.asarray(design.V)[:, :2], d=design.d
        )
        theta0 = random_theta(reduced, seed=343)
        checks = build_bundle(reduced, theta0)
        assert checks["rank"] == reduced.n_params
        assert checks["q_trace_deviation"] < 1e-6

    def test_coleman_reduced_design(self, coleman_design):
        reduced = ModelDesign(
            Q=coleman_design.Q,
            C=coleman_design.C,
            V=np.asarray(coleman_design.V)[:, :3],
            d=coleman_design.d,
        )
        theta0 = random_theta(reduced, seed=344, scale=0.6)
        checks = build_bundle(reduced, theta0)
        assert checks["rank"] == 11
        assert checks["q_trace_deviation"] < 1e-6
        assert checks["q_idempotency"] < 1e-8


class TestUnderflowedCells:
    """Both builders scale the Jacobian by ``p**-0.5`` and refuse a zero cell."""

    @pytest.fixture(scope="class")
    def underflowed(self):
        # At scale 800 the logits saturate and several pattern probabilities underflow to 0.
        design = simulation_null_design()
        rng = np.random.Generator(np.random.Philox(0))
        theta = Theta(lam=rng.normal(0.0, 800.0, design.t), eta=rng.normal(0.0, 800.0, design.u))
        assert np.any(manifest_distribution(design, theta).p == 0.0)
        return design, theta

    def test_bundle_refuses(self, underflowed):
        design, theta = underflowed
        with pytest.raises(DomainError, match="strictly positive"):
            build_bundle(design, theta, pseudo_inverse=True)

    def test_nested_projections_refuse(self, underflowed):
        design, theta = underflowed
        with pytest.raises(DomainError, match="strictly positive"):
            build_nested_projections(NestedChain(design, (((0,), ()),)), theta, pseudo_inverse=True)
