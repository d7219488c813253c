import hashlib
import itertools
import logging
import math
import pickle
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from lcmdiv import montecarlo
from lcmdiv.datasets import simulation_null_design, simulation_plan, simulation_theta0
from lcmdiv.divergence import power
from lcmdiv.errors import DomainError
from lcmdiv.estimation import FitOptions, fit
from lcmdiv.inference import gof_statistic
from lcmdiv.model import ModelDesign, sample_counts
from lcmdiv.montecarlo import (
    SimulationPlan,
    _clopper_pearson,
    _replicate_chunk,
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


def test_clopper_pearson_matches_beta_quantiles_bit_for_bit():
    # scipy.stats.beta is the reference only; lcmdiv computes the same
    # quantiles with scipy.special.betaincinv and never imports scipy.stats.
    from scipy.stats import beta

    tail = (1.0 - 0.95) / 2.0
    grid = [(s, n) for n in range(1, 61) for s in range(n + 1)]
    grid += [(s, n) for n in (200, 1000, 10000) for s in (0, 1, 2, n // 20, n // 2, n - 1, n)]
    for s, n in grid:
        lo = 0.0 if s == 0 else float(beta.ppf(tail, s, n - s + 1))
        hi = 1.0 if s == n else float(beta.ppf(1.0 - tail, s + 1, n - s))
        assert _clopper_pearson(s, n) == (lo, hi), (s, n)
    assert _clopper_pearson(0, 0) == (0.0, 1.0)


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


@pytest.fixture
def chunk_sizes(monkeypatch):
    """Sizes of the chunks ``run_simulation`` maps, its pool's map run in this process."""
    sizes = []
    real_chunk = montecarlo._replicate_chunk

    def counting_chunk(task):
        _, _, lo, hi = task
        sizes.append(hi - lo)
        return real_chunk(task)

    class InlinePool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(montecarlo, "_replicate_chunk", counting_chunk)
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", InlinePool)
    return sizes


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
            assert 0.0 <= cell.ci95_lo <= cell.rate <= cell.ci95_hi <= 1.0

    def test_alternative_rejects_more_than_null(self, smoke_table):
        # Index 2/3 is the second of two indices, at the first and second coefficient.
        null_cell, alt_cell = smoke_table.cells[1], smoke_table.cells[3]
        assert alt_cell.rate >= null_cell.rate

    def test_rank_policy_dof(self, smoke_table):
        for cell in smoke_table.cells:
            assert cell.dof == 32 - 12 - 1

    def test_nominal_policy_dof(self):
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
        plans = [
            simulation_plan(
                sample_sizes=(200,), a_values=(2.0 / 3.0,), lambda8_grid=grid,
                replications=6, seed=9,
            )
            for grid in ((0.0,), (0.0, 2.0))
        ]
        # Random starts draw from each replication's fit seed.
        plans += [replace(plans[1], fit_starts=3, start_at_truth=truth) for truth in (True, False)]
        for plan in plans:
            serial = run_simulation(plan, n_jobs=1)
            pools.clear()
            parallel = run_simulation(plan, n_jobs=2)
            assert len(pools) == 1  # one pool per run, not per cell
            for cs, cp in zip(serial.cells, parallel.cells):
                assert (cs.rate, cs.rejections, cs.fit_failures) == (cp.rate, cp.rejections, cp.fit_failures)
            assert serial.rows() == parallel.rows()

    def test_chunking_matches_serial_records(self):
        # The grid's stream of 2 x 2 x 5 replications regrouped into flat
        # chunks of any size, each sent through a pickle as the pool does,
        # gives the serial records byte for byte, also where chunks of 3 and
        # 7 span cells and sizes.  Sixty iterations leave about half the
        # one-start fits unconverged, so NaN rows are regrouped too, and index
        # -1 has infinite statistics.  The three-start plans draw random
        # starts from each replication's fit seed.  Running them leaves
        # nothing behind in the pickled plan.
        one_start = replace(
            simulation_plan(
                sample_sizes=(200, 300), a_values=(-1.0, 0.0, 2.0 / 3.0), lambda8_grid=(0.0, 2.0),
                replications=5, seed=21,
            ),
            fit_max_iters=60,
        )
        total = 4 * one_start.replications
        dof = 32 - 12 - 1
        three_starts = [replace(one_start, fit_starts=3, start_at_truth=t) for t in (True, False)]
        for plan in [one_start, *three_starts]:
            fresh = pickle.dumps(plan)
            _, serial = _replicate_chunk((plan, dof, 0, total))
            if plan is one_start:
                assert serial.converged.shape == (total,) and serial.statistic.shape == (3, total)
                assert 0 < np.count_nonzero(serial.converged) < total
                assert np.isnan(serial.statistic[:, ~serial.converged]).all()
                assert np.count_nonzero(serial.warnings[0] & 2) > 0  # infinite_statistic
            for size in (1, 3, 7):
                parts = []
                for lo in range(0, total, size):
                    task = (plan, dof, lo, min(lo + size, total))
                    parts.append(_replicate_chunk(pickle.loads(pickle.dumps(task)))[1])
                for name, field in zip(serial._fields, zip(*parts)):
                    regrouped = np.concatenate(field, axis=-1)
                    assert regrouped.dtype == getattr(serial, name).dtype
                    assert regrouped.tobytes() == getattr(serial, name).tobytes(), name
            assert pickle.dumps(plan) == fresh

    def test_replication_seeds_spawn_from_the_grid_position(self):
        # Both seeds of a replication spawn from SeedSequence(seed,
        # spawn_key=(size_idx, coef_idx, rep)); every position of a small
        # grid gets its own sample stream and fit seed.
        positions = list(itertools.product(range(2), range(2), range(3)))
        fit_seeds, sample_states = set(), set()
        for position in positions:
            sample_seq, fit_seed = montecarlo.replication_seeds(21, *position)
            expected = np.random.SeedSequence(21, spawn_key=position).spawn(2)
            assert sample_seq.entropy == 21 and sample_seq.spawn_key == (*position, 0)
            assert sample_seq.generate_state(4).tolist() == expected[0].generate_state(4).tolist()
            assert fit_seed == int(expected[1].generate_state(1)[0])
            assert isinstance(fit_seed, int)
            fit_seeds.add(fit_seed)
            sample_states.add(tuple(sample_seq.generate_state(4).tolist()))
        assert len(fit_seeds) == len(sample_states) == len(positions)
        assert montecarlo.replication_seeds(22, 0, 0, 0)[1] != montecarlo.replication_seeds(21, 0, 0, 0)[1]

    def test_memory_budget_splits_a_cell_into_equal_chunks(self, chunk_sizes, monkeypatch):
        # Two 30-replication cells are one stream of 60.  A budget of twelve
        # rows cuts it into five chunks of twelve, the third spanning both
        # cells; at two workers the chunk count is rounded up to a multiple
        # of two, six chunks of ten.  Every cut gives the uncut table.
        plan = simulation_plan(
            sample_sizes=(200,), a_values=(0.0, 2.0 / 3.0), lambda8_grid=(0.0, 2.0),
            replications=30, seed=23,
        )
        design = plan.null_design
        row_bytes = 8 * design.n_patterns * design.m
        uncut = run_simulation(plan)
        assert chunk_sizes == [60]
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 12 * row_bytes + row_bytes // 2)
        for n_jobs, expected in ((1, [12] * 5), (2, [10] * 6)):
            chunk_sizes.clear()
            assert run_simulation(plan, n_jobs=n_jobs).rows() == uncut.rows()
            assert chunk_sizes == expected

    def test_one_cell_still_makes_a_chunk_per_worker(self, chunk_sizes):
        plan = simulation_plan(
            sample_sizes=(200,), a_values=(2.0 / 3.0,), lambda8_grid=(0.0,),
            replications=30, seed=23,
        )
        serial = run_simulation(plan)
        chunk_sizes.clear()
        assert run_simulation(plan, n_jobs=2).rows() == serial.rows()
        assert chunk_sizes == [15, 15]

    def test_pooled_chunks_across_cells_match_serial(self, monkeypatch):
        # Two sizes by two coefficients of seven replications: a budget of
        # five rows cuts the 28-replication stream into six chunks, three of
        # them spanning two cells, and a pool of two gives the serial table.
        plan = simulation_plan(
            sample_sizes=(200, 300), a_values=(0.0, 2.0 / 3.0), lambda8_grid=(0.0, 2.0),
            replications=7, seed=29,
        )
        serial = run_simulation(plan)
        design = plan.null_design
        row_bytes = 8 * design.n_patterns * design.m
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 5 * row_bytes)
        assert run_simulation(plan, n_jobs=2).rows() == serial.rows()

    def test_logs_one_record_per_cell(self, caplog):
        # Both cells are in the run's one chunk, so each is logged with half
        # of that chunk's wall time, not the first with all of it.
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
        assert records[0].args[3] == records[1].args[3]

    def test_cell_time_is_its_share_of_its_chunks(self, caplog, monkeypatch):
        # Two cells of five replications cut into chunks of 4, 4 and 2, each
        # taking one second: the first cell ran in chunk one and a quarter of
        # chunk two, the second in the rest.
        real_chunk = montecarlo._replicate_chunk
        monkeypatch.setattr(montecarlo, "_replicate_chunk", lambda task: (1.0, real_chunk(task)[1]))
        plan = simulation_plan(
            sample_sizes=(200,), a_values=(2.0 / 3.0,), lambda8_grid=(0.0, 2.0),
            replications=5, seed=5,
        )
        design = plan.null_design
        row_bytes = 8 * design.n_patterns * design.m
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 4 * row_bytes + row_bytes // 2)
        with caplog.at_level(logging.INFO, logger="lcmdiv.montecarlo"):
            run_simulation(plan)
        walls = [r.args[3] for r in caplog.records if r.name == "lcmdiv.montecarlo"]
        assert walls == [1.25, 1.75]

    def test_cells_recount_gof_statistic_decisions(self):
        # Every replication of every (size, coefficient) cell rebuilt by hand
        # and tested with gof_statistic; the table must tally exactly these
        # decisions.  Two sizes by three coefficients, so a flat index decoded
        # with the lengths swapped does not go unseen.  Index -1 has an infinite
        # statistic whenever the sample leaves a cell empty.
        plan = simulation_plan(
            sample_sizes=(200, 300), a_values=(-1.0, -0.5, 2.0 / 3.0), lambda8_grid=(0.0, 1.0, 2.0),
            replications=40, seed=3,
        )
        table = run_simulation(plan)
        for (size_idx, N), (coef_idx, lambda8) in itertools.product(
            enumerate(plan.sample_sizes), enumerate(plan.lambda8_grid)
        ):
            design, theta = plan.true_model(lambda8)
            tests, failures = [], 0
            for rep in range(plan.replications):
                seq = np.random.SeedSequence(plan.seed, spawn_key=(size_idx, coef_idx, rep))
                sample_seq, fit_seq = seq.spawn(2)
                counts = sample_counts(design, theta, N, sample_seq)
                # One fit per replication, where the study fits a chunk's replications in one batch.
                result = fit(plan.null_design, counts, power(plan.estimator_a), FitOptions(
                    starts=1, grad_tol=plan.fit_grad_tol, max_iters=plan.fit_max_iters,
                    seed=int(fit_seq.generate_state(1)[0]), init_theta=plan.theta0,
                ))
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
                shape = (len(plan.sample_sizes), len(plan.lambda8_grid), len(plan.a_values))
                cell = table.cells[np.ravel_multi_index((size_idx, coef_idx, i), shape)]
                assert (
                    cell.rejections, cell.infinite_statistics, cell.n_effective, cell.fit_failures,
                ) == (
                    sum(t.reject for t in column),
                    sum("infinite_statistic" in t.warnings for t in column),
                    len(tests),
                    failures,
                )
                assert {t.dof for t in column} == {cell.dof} == {32 - 12 - 1}
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
        # Each range refusal names its own field and value; the fit fields by
        # the names FitOptions and the plan file's "fit" section give them.
        for bad, message in (
            ({"replications": 0}, "replications must be >= 1, got 0"),
            ({"seed": -1}, "seed must be >= 0, got -1"),
            ({"sample_sizes": (200, 0)}, "each of sample_sizes must be >= 1, got 0"),
            ({"sample_sizes": ()}, "at least one sample size is required"),
            ({"fit_starts": 0}, "starts must be >= 1, got 0"),
            ({"fit_max_iters": 0}, "max_iters must be >= 1, got 0"),
            ({"dof_policy": "taped"}, "dof policy must be 'rank' or 'nominal'"),
        ):
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                replace(plan, **bad)
        with pytest.raises(DomainError):
            replace(plan, alpha=1.5)
        # The alternative adds one lambda column and nothing else.
        alt = plan.alt_design
        for bad_alt in (
            plan.null_design,
            ModelDesign(Q=alt.Q, C=alt.C, V=alt.V[:, 1:], d=alt.d),
            ModelDesign(Q=alt.Q[:, 1:], C=alt.C[:, 1:], V=alt.V, d=alt.d),
            # Right shape, but at coefficient 0 a different model from the null.
            ModelDesign(Q=alt.Q * np.r_[-1.0, np.ones(alt.t - 1)], C=alt.C, V=alt.V, d=alt.d),
        ):
            with pytest.raises(DomainError, match="alt design must extend"):
                replace(plan, alt_design=bad_alt)
        # Refused when the plan is built, not in the middle of a run.
        for bad in (
            {"lambda8_grid": ()},
            {"a_values": ()}, {"estimator_a": math.inf}, {"estimator_a": math.nan},
            {"fit_grad_tol": 0.0},
            {"a_values": (0.5, math.nan)}, {"a_values": (math.inf,)},
            {"lambda8_grid": (0.0, math.inf)}, {"lambda8_grid": (math.nan,)},
            {"fit_grad_tol": math.inf}, {"fit_grad_tol": math.nan},
            # 1 - alpha rounds to 1: no chi-square critical value at that level.
            {"alpha": 1e-17}, {"alpha": math.nan},
            # Each sample size names one power-curve file.
            {"sample_sizes": (200, 50, 200)},
            # Integer fields refuse floats and booleans.
            {"replications": 2.5}, {"replications": True}, {"sample_sizes": (200.5,)},
            {"seed": 1.5}, {"fit_starts": 1.5}, {"fit_max_iters": 2.5},
        ):
            with pytest.raises(DomainError):
                replace(plan, **bad)
        # A study samples its data, at most MAX_ITEMS_FOR_SAMPLING items; the
        # plan is refused before the run's dof takes a Jacobian over 2**21
        # patterns.  Only the plan is built.
        wide = make_design(seed=13, k=21, m=2, t=2, u=1)
        wide_alt = ModelDesign(
            Q=np.concatenate([wide.Q, np.full((2, 21, 1), 0.5)], axis=2), C=wide.C, V=wide.V, d=wide.d
        )
        with pytest.raises(DomainError, match="at most k = 20 items"):
            replace(plan, null_design=wide, alt_design=wide_alt, theta0=random_theta(wide, seed=14))

    @pytest.mark.parametrize("n_jobs", [0, -1, 2.0, True])
    def test_jobs_that_are_not_a_positive_integer_are_refused(self, n_jobs):
        plan = simulation_plan(sample_sizes=(200,), lambda8_grid=(0.0,), replications=1)
        rule = ">= 1" if type(n_jobs) is int else "an integer"
        with pytest.raises(DomainError, match=f"^{re.escape(f'n_jobs must be {rule}, got {n_jobs!r}')}$"):
            run_simulation(plan, n_jobs=n_jobs)


class TestPowerCurveFiles:
    def test_row_count_matches_grid(self, smoke_table, tmp_path):
        paths = emit_power_curves(smoke_table, tmp_path)
        assert len(paths) == 1
        lines = open(paths[0]).read().strip().splitlines()
        assert len(lines) == 1 + len(smoke_table.plan.lambda8_grid)
        assert lines[0].startswith("lambda8,")

    def test_repeated_coefficient_reads_each_cell(self, tmp_path):
        # Two cells at one coefficient: each line holds its own cells' rates,
        # in table order, not the first matching cell's twice.
        plan = simulation_plan(sample_sizes=(50,), a_values=(2.0 / 3.0, -0.5),
                               lambda8_grid=(2.0, 2.0), replications=30)
        template = montecarlo.SizePowerCell(
            N=50, a=0.0, lambda8=2.0, rate=0.0, rejections=0, n_effective=30, fit_failures=0,
            infinite_statistics=0, dof=19, ci95_lo=0.0, ci95_hi=1.0, dale_pass=False,
        )
        rates = [7 / 30, 26 / 30, 4 / 30, 25 / 30]
        cells = tuple(replace(template, a=a, rate=rate) for a, rate in zip(plan.a_values * 2, rates))
        (path,) = emit_power_curves(montecarlo.SizePowerTable(plan=plan, cells=cells), tmp_path)
        assert open(path).read().splitlines()[1:] == [
            f"2.0,{rates[0]!r},{rates[1]!r}", f"2.0,{rates[2]!r},{rates[3]!r}",
        ]

    def test_cells_out_of_plan_order_are_refused(self, smoke_table, tmp_path):
        # The table itself refuses them, so no reader gets one to write.
        cells = smoke_table.cells
        for bad in (cells[::-1], cells[:-1], cells + cells[-1:]):
            with pytest.raises(DomainError, match="plan's"):
                montecarlo.SizePowerTable(plan=smoke_table.plan, cells=bad)
        assert not list(tmp_path.iterdir())

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



class TestPinnedIntegers:
    """The study's integers against stored values, not against another run of the code.

    Every other determinism test compares two runs; a change that moves
    every draw the same way passes them all and fails here.  Only integers
    are pinned, so a last-bit change of a float cannot move them.
    """

    def test_sample_tallies(self):
        tallies = np.stack(
            [sample_counts(simulation_null_design(), simulation_theta0(), 200, seed).n for seed in range(10)]
        ).astype(np.int64)
        assert hashlib.sha256(tallies.tobytes()).hexdigest() == (
            "0d3057d8c461a639e3ac2e209e67c92c4246497b9da67275e50f3ea3f46f412c"
        )

    @pytest.mark.parametrize(
        "starts, truth, expected",
        [
            pytest.param(1, True, [20, 0, 20, 2, 18, 0, 20, 19], id="one-start"),
            pytest.param(3, True, [20, 0, 20, 2, 18, 0, 20, 19], id="three-starts"),
            pytest.param(3, False, [20, 0, 20, 5, 18, 3, 20, 19], id="three-random-starts"),
        ],
    )
    def test_study_columns(self, starts, truth, expected):
        # Index -1 rejects at every cell of N = 50, where empty cells make its
        # statistic infinite, and at N = 200 under the alternative.
        plan = replace(
            simulation_plan(
                sample_sizes=(50, 200), a_values=(-1.0, 2.0 / 3.0), lambda8_grid=(0.0, 2.0),
                replications=20, seed=77,
            ),
            fit_starts=starts,
            start_at_truth=truth,
        )
        cells = run_simulation(plan).cells
        assert [c.rejections for c in cells] == expected
        assert [(c.n_effective, c.fit_failures) for c in cells] == [(20, 0)] * 8
        assert [c.infinite_statistics for c in cells] == [20, 0, 20, 0, 18, 0, 18, 0]


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
        rates = [c.rate for c in table.cells]  # one size and coefficient: one cell per index
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
        rates = [c.rate for c in table.cells]  # one size and index: one cell per coefficient
        n_eff = table.cells[0].n_effective
        for lo_rate, hi_rate in zip(rates[:-1], rates[1:]):
            se = math.sqrt(max(lo_rate * (1 - lo_rate), 1e-6) / n_eff)
            assert hi_rate >= lo_rate - 2 * se
