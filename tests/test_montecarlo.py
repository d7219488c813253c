import logging
import math
import pickle
import warnings
from collections import Counter

import numpy as np
import pytest

from lcmdiv import montecarlo
from lcmdiv.datasets import simulation_plan
from lcmdiv.divergence import power
from lcmdiv.errors import DomainError
from lcmdiv.estimation import FitOptions, fit
from lcmdiv.inference import gof_statistic
from lcmdiv.model import ModelDesign, sample_counts
from lcmdiv.montecarlo import (
    SimulationPlan,
    _replicate_chunk,
    _run_cell,
    dale_band,
    emit_power_curves,
    run_simulation,
)

from conftest import make_design, random_theta


class TestDaleBand:
    def test_reference_endpoints(self):
        lo, hi = dale_band(0.05)
        assert lo == pytest.approx(0.035746, abs=1e-4)
        assert hi == pytest.approx(0.069479, abs=1e-4)

    def test_closed_form(self):
        # lo = 1 / (1 + odds * e^0.35), hi with e^-0.35, odds = (1-a)/a.
        for alpha in (0.01, 0.05, 0.1):
            odds = (1 - alpha) / alpha
            lo, hi = dale_band(alpha)
            assert lo == pytest.approx(1.0 / (1.0 + odds * math.exp(0.35)), rel=1e-12)
            assert hi == pytest.approx(1.0 / (1.0 + odds * math.exp(-0.35)), rel=1e-12)

    def test_nominal_level_inside_own_band(self):
        for alpha in (0.01, 0.05, 0.2, 0.5):
            lo, hi = dale_band(alpha)
            assert lo < alpha < hi

    def test_domain(self):
        with pytest.raises(DomainError):
            dale_band(0.0)
        with pytest.raises(DomainError):
            dale_band(1.0)


@pytest.fixture(scope="module")
def smoke_table():
    plan = simulation_plan(
        sample_sizes=(200,),
        a_values=(0.0, 2.0 / 3.0),
        lambda8_grid=(0.0, 2.0),
        replications=8,
        seed=77,
    )
    return run_simulation(plan)


class TestRunSimulation:
    def test_single_replication_deterministic(self):
        plan = simulation_plan(
            sample_sizes=(200,), a_values=(2.0 / 3.0,), lambda8_grid=(0.0,),
            replications=1, seed=5,
        )
        t1 = run_simulation(plan)
        t2 = run_simulation(plan)
        c1, c2 = t1.cells[0], t2.cells[0]
        assert c1.rate in (0.0, 1.0)
        assert (c1.rate, c1.rejections, c1.dof) == (c2.rate, c2.rejections, c2.dof)

    def test_cells_cover_grid(self, smoke_table):
        plan = smoke_table.plan
        assert len(smoke_table.cells) == len(plan.sample_sizes) * len(plan.a_values) * len(
            plan.lambda8_grid
        )
        for cell in smoke_table.cells:
            assert cell.n_effective + cell.fit_failures == plan.replications
            assert 0.0 <= cell.rate <= 1.0
            lo, hi = cell.binomial_ci
            assert 0.0 <= lo <= cell.rate <= hi <= 1.0

    def test_alternative_rejects_more_than_null(self, smoke_table):
        null_cell = smoke_table.cell(200, 2.0 / 3.0, 0.0)
        alt_cell = smoke_table.cell(200, 2.0 / 3.0, 2.0)
        assert alt_cell.rate >= null_cell.rate

    def test_rank_policy_dof(self, smoke_table):
        for cell in smoke_table.cells:
            assert cell.dof == 32 - 12 - 1

    def test_nominal_policy_dof(self):
        from dataclasses import replace

        plan = replace(
            simulation_plan(
                sample_sizes=(200,), a_values=(2.0 / 3.0,), lambda8_grid=(0.0,),
                replications=3, seed=5,
            ),
            dof_policy="nominal",
        )
        table = run_simulation(plan)
        assert table.cells[0].dof == 32 - 13 - 1

    def test_parallel_matches_serial(self, monkeypatch):
        pools = []

        class CountingPool(montecarlo.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountingPool)
        for grid in ((0.0,), (0.0, 2.0)):
            plan = simulation_plan(
                sample_sizes=(200,), a_values=(2.0 / 3.0,), lambda8_grid=grid,
                replications=6, seed=9,
            )
            serial = run_simulation(plan, n_jobs=1)
            pools.clear()
            parallel = run_simulation(plan, n_jobs=2)
            assert len(pools) == 1  # one pool per run, not per cell
            for cs, cp in zip(serial.cells, parallel.cells):
                assert (cs.rate, cs.rejections, cs.fit_failures) == (cp.rate, cp.rejections, cp.fit_failures)
            assert serial.rows() == parallel.rows()

    def test_chunking_matches_serial_records(self):
        # Replications regrouped into chunks of any size, each sent through a
        # pickle as the pool does, give the serial records exactly; running
        # them leaves nothing behind in the pickled plan.
        plan = simulation_plan(
            sample_sizes=(200,), a_values=(0.0, 2.0 / 3.0), lambda8_grid=(0.0, 2.0),
            replications=7, seed=21,
        )
        fresh = pickle.dumps(plan)
        for coef_idx in (0, 1):
            serial = _run_cell(plan, 0, coef_idx, 1)
            for size in (1, 3, 7):
                records = []
                for lo in range(0, plan.replications, size):
                    task = (plan, 0, coef_idx, list(range(lo, min(lo + size, plan.replications))))
                    records.extend(_replicate_chunk(pickle.loads(pickle.dumps(task))))
                assert records == serial
        assert pickle.dumps(plan) == fresh

    def test_logs_one_record_per_cell(self, caplog):
        plan = simulation_plan(
            sample_sizes=(200,), a_values=(2.0 / 3.0,), lambda8_grid=(0.0, 2.0),
            replications=2, seed=5,
        )
        with caplog.at_level(logging.INFO, logger="lcmdiv.montecarlo"):
            table = run_simulation(plan)
        records = [r for r in caplog.records if r.name == "lcmdiv.montecarlo"]
        assert len(records) == 2
        for record, cell in zip(records, table.cells):
            assert record.levelno == logging.INFO
            N, lambda8, failures, wall = record.args
            assert (N, lambda8, failures) == (cell.N, cell.lambda8, cell.fit_failures)
            assert wall > 0.0
            assert record.getMessage().startswith(f"cell N=200 lambda8={lambda8!r}:")

    def test_cells_recount_gof_statistic_decisions(self):
        # Every replication rebuilt by hand and tested with gof_statistic; the
        # table must tally exactly these decisions.  Index -1 has an infinite
        # statistic whenever the sample leaves a cell empty.
        plan = simulation_plan(
            sample_sizes=(200,), a_values=(-1.0, -0.5, 2.0 / 3.0), lambda8_grid=(0.0, 2.0),
            replications=40, seed=3,
        )
        table = run_simulation(plan)
        for coef_idx, lambda8 in enumerate(plan.lambda8_grid):
            design, theta = plan.true_model(lambda8)
            tests, failures = [], 0
            for rep in range(plan.replications):
                seq = np.random.SeedSequence(plan.seed, spawn_key=(0, coef_idx, rep))
                sample_seq, fit_seq = seq.spawn(2)
                counts = sample_counts(design, theta, 200, sample_seq)
                options = FitOptions(
                    starts=1, grad_tol=plan.fit_grad_tol, max_iters=plan.fit_max_iters,
                    seed=int(fit_seq.generate_state(1)[0]), init_theta=plan.theta0,
                )
                result = fit(plan.null_design, counts, power(plan.estimator_a), options)
                if not result.converged:
                    failures += 1
                    continue
                tests.append([
                    gof_statistic(
                        plan.null_design, counts, power(a), result, plan.alpha, plan.dof_policy
                    )
                    for a in plan.a_values
                ])
            for i, a in enumerate(plan.a_values):
                column = [row[i] for row in tests]
                cell = table.cell(200, a, lambda8)
                assert (
                    cell.rejections, cell.infinite_statistics, cell.dof,
                    cell.n_effective, cell.fit_failures,
                ) == (
                    sum(t.reject for t in column),
                    sum("infinite_statistic" in t.warnings for t in column),
                    Counter(t.dof for t in column).most_common(1)[0][0],
                    len(tests),
                    failures,
                )
        assert sum(c.infinite_statistics for c in table.cells) > 0

    def test_degenerate_null_follows_decision_rule(self):
        # Eight parameters on eight cells: nominal dof is -1, which the
        # goodness-of-fit decision treats as a point mass at zero.
        null = make_design(seed=11, k=3, m=2, t=7, u=1)
        alt = ModelDesign(
            Q=np.concatenate([null.Q, np.full((2, 3, 1), 0.5)], axis=2), C=null.C, V=null.V, d=null.d
        )
        plan = SimulationPlan(
            null_design=null, alt_design=alt, theta0=random_theta(null, seed=2),
            replications=3, dof_policy="nominal",
        )
        cell = run_simulation(plan).cells[0]
        assert cell.dof == 8 - 8 - 1
        assert cell.n_effective + cell.fit_failures == 3
        assert cell.fit_failures == 0  # -1 is the plan's dof, not a marker of failed fits

    def test_wide_starts_on_the_power_cell_warn_nothing(self, infinite_rows):
        # Random starts underflow cells and overflow p_hat / p; the objective
        # flags those points as infinite without a RuntimeWarning.
        from dataclasses import replace

        plan = replace(
            simulation_plan(
                sample_sizes=(200,), a_values=(2.0 / 3.0,), lambda8_grid=(2.0,),
                replications=10, seed=20140915,
            ),
            fit_starts=6,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cell = run_simulation(plan).cells[0]
        assert sum(infinite_rows) > 0
        assert cell.n_effective == 10

    def test_plan_validation(self):
        plan = simulation_plan()
        from dataclasses import replace

        with pytest.raises(DomainError):
            replace(plan, replications=0)
        with pytest.raises(DomainError):
            replace(plan, alpha=1.5)
        with pytest.raises(DomainError):
            replace(plan, dof_policy="taped")


class TestPowerCurveFiles:
    def test_row_count_matches_grid(self, smoke_table, tmp_path):
        paths = emit_power_curves(smoke_table, tmp_path)
        assert len(paths) == 1
        lines = open(paths[0]).read().strip().splitlines()
        assert len(lines) == 1 + len(smoke_table.plan.lambda8_grid)
        assert lines[0].startswith("lambda8,")

    def test_empty_a_list_gives_header_only(self, tmp_path):
        plan = simulation_plan(
            sample_sizes=(200,), a_values=(), lambda8_grid=(0.0,), replications=1, seed=4
        )
        table = run_simulation(plan)
        paths = emit_power_curves(table, tmp_path)
        lines = open(paths[0]).read().strip().splitlines()
        assert lines[0] == "lambda8"
        assert len(lines) == 1 + 1  # header plus one coefficient row (no rate columns)

    def test_table_rows_shape(self, smoke_table):
        rows = smoke_table.rows()
        assert rows[0][0] == "N"
        assert len(rows) == 1 + len(smoke_table.cells)

    def test_write_csv_prints_rows(self, smoke_table, tmp_path):
        path = tmp_path / "size_power.csv"
        smoke_table.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(smoke_table.rows()[0])
        first = smoke_table.cells[0]
        assert lines[1].split(",")[:5] == [
            "200", repr(first.a), repr(first.lambda8), repr(first.rate), str(first.rejections)
        ]
        assert len(lines) == 1 + len(smoke_table.cells)


@pytest.mark.extended
class TestExtendedCalibration:
    def test_null_size_in_band(self):
        plan = simulation_plan(
            sample_sizes=(1000,), a_values=(2.0 / 3.0,), lambda8_grid=(0.0,),
            replications=1000, seed=20140915,
        )
        cell = run_simulation(plan).cells[0]
        lo, hi = dale_band(plan.alpha)
        assert lo <= cell.rate <= hi

    def test_power_ordering_across_family(self):
        # Rejection rates fall as the index grows, up to twice the binomial
        # standard error.
        plan = simulation_plan(
            sample_sizes=(200,), a_values=(-0.5, 0.0, 2.0 / 3.0, 1.0),
            lambda8_grid=(1.0,), replications=400, seed=31,
        )
        table = run_simulation(plan)
        rates = [table.cell(200, a, 1.0).rate for a in plan.a_values]
        n_eff = table.cells[0].n_effective
        for lo_rate, hi_rate in zip(rates[1:], rates[:-1]):
            se = math.sqrt(max(hi_rate * (1 - hi_rate), 1e-6) / n_eff)
            assert hi_rate >= lo_rate - 2 * se

    def test_power_monotone_in_coefficient_at_large_n(self):
        plan = simulation_plan(
            sample_sizes=(1000,), a_values=(2.0 / 3.0,),
            lambda8_grid=(0.7, 0.9, 1.0, 1.3), replications=300, seed=13,
        )
        table = run_simulation(plan)
        rates = [table.cell(1000, 2.0 / 3.0, l8).rate for l8 in plan.lambda8_grid]
        n_eff = table.cells[0].n_effective
        for lo_rate, hi_rate in zip(rates[:-1], rates[1:]):
            se = math.sqrt(max(lo_rate * (1 - lo_rate), 1e-6) / n_eff)
            assert hi_rate >= lo_rate - 2 * se
