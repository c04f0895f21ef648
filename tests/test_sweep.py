"""Uniqueness maps, the stochastic binary search, and boundary fits."""

import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import norm

import netuniq.sweep as sweep
from netuniq.models import ModelSpec, generate, rng_from, substream_seed
from netuniq.sweep import (
    BracketingError,
    SearchConfig,
    boundary_search,
    boundary_search_fn,
    fit_boundary_line,
    model_sampler,
    uniqueness_map,
    warm_config,
)
from netuniq.uniqueness import neighborhood_uniqueness


def step_sampler(threshold):
    def sample(k, count, offset):
        return [0.0 if k < threshold else 1.0] * count

    return sample


def logistic_sampler(midpoint, sigma, seed):
    rng = rng_from(seed, "mock-logistic")

    def sample(k, count, offset):
        base = 1.0 / (1.0 + math.exp(-(k - midpoint)))
        return list(base + rng.normal(0.0, sigma, count))

    return sample


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(target=0.0)
        with pytest.raises(ValueError):
            SearchConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            SearchConfig(batch_size=1)
        with pytest.raises(ValueError):
            SearchConfig(batch_size=5, max_sims=3)
        with pytest.raises(ValueError):
            SearchConfig(k_lo=5.0, k_hi=5.0)


def one_cell(family, n, k, reps, seed, beta=None, jobs=1):
    """Mean and standard error of a one-cell uniqueness map."""
    (cell,) = uniqueness_map(family, [n], [k], reps, seed, beta, jobs).cells
    return cell.mean, cell.sem


class TestUniquenessAt:
    def test_ring_lattice_is_exactly_zero(self):
        mean, sem = one_cell("ws", 50, 4.0, reps=3, seed=1, beta=0.0)
        assert (mean, sem) == (0.0, 0.0)

    def test_complete_spec_is_zero(self):
        mean, sem = one_cell("er", 30, 29.0, reps=3, seed=1)
        assert (mean, sem) == (0.0, 0.0)

    def test_er_midrange(self):
        mean, sem = one_cell("er", 1000, 10.0, reps=10, seed=2)
        assert 0.0 <= mean <= 1.0
        assert sem > 0.0

    def test_jobs_do_not_change_results(self):
        a = one_cell("er", 200, 6.0, reps=4, seed=3, jobs=1)
        b = one_cell("er", 200, 6.0, reps=4, seed=3, jobs=2)
        assert a == b
        # ws: the second probe lies in the first one's lattice step, so the
        # pool computes only the reps the first probe left missing
        serial, pooled = (model_sampler("ws", 200, 3, 0.5, jobs) for jobs in (1, 2))
        assert serial(9.0, 4, 0) == pooled(9.0, 4, 0)
        assert serial(10.5, 8, 0) == pooled(10.5, 8, 0)


@pytest.fixture
def generated(monkeypatch):
    """Seeds of the specs the sampler generates, in call order."""
    seeds = []

    def counting(spec):
        seeds.append(spec.seed)
        return generate(spec)

    monkeypatch.setattr(sweep, "generate", counting)
    return seeds


class TestModelSampler:
    def test_ws_probe_in_a_seen_step_generates_nothing(self, generated):
        sample = model_sampler("ws", 60, 9, 0.5)
        first = sample(9.0, 5, 0)
        assert len(generated) == 5
        assert sample(10.75, 5, 0) == first
        assert len(generated) == 5

    def test_only_missing_reps_are_generated(self, generated):
        sample = model_sampler("ws", 60, 9, 0.5)
        sample(9.0, 5, 0)
        del generated[:]
        sample(10.5, 10, 0)
        assert generated == [substream_seed(9, "ws", 0.5, 60, 10.0, rep) for rep in range(5, 10)]

    def test_ws_values_do_not_depend_on_probe_order(self):
        a = model_sampler("ws", 60, 9, 0.5)
        a(9.0, 5, 0)
        assert a(10.75, 5, 0) == model_sampler("ws", 60, 9, 0.5)(10.75, 5, 0)

    @pytest.mark.parametrize("family", ["er", "rgg"])
    def test_er_rgg_seed_hashes_the_asked_degree(self, family):
        n, k, seed = 80, 6.5, 11
        expected = [
            neighborhood_uniqueness(
                generate(
                    ModelSpec(family, n, k, seed=substream_seed(seed, family, None, n, float(k), rep))
                )
            )
            for rep in range(3)
        ]
        assert model_sampler(family, n, seed)(k, 3, 0) == expected

    def test_infeasible_degree_raises(self):
        # k=10.5 exceeds n - 1 although its lattice degree 10 would fit
        with pytest.raises(ValueError):
            model_sampler("ws", 11, 1, 0.5)(10.5, 2, 0)


class TestUniquenessMap:
    def test_ws_cells_of_one_step_share_replicates(self, generated):
        m = uniqueness_map("ws", [60], [11.0, 12.0], 3, 4, beta=0.5)
        assert len(generated) == 3
        assert m.cells[0].mean == m.cells[1].mean

    def test_edgeless_cell(self):
        m = uniqueness_map("er", [100], [0.0], reps=3, seed=4)
        assert m.cells[0].mean == 0.0

    def test_infeasible_cell_skipped(self):
        m = uniqueness_map("er", [10], [5.0, 50.0], reps=2, seed=4)
        assert not m.cells[0].skipped
        assert m.cells[1].skipped

    def test_ws_cell_with_lattice_degree_n_skipped(self):
        # k=9 builds the lattice of degree 10, which n=10 nodes cannot hold
        m = uniqueness_map("ws", [10], [3.0, 9.0], 2, 4, beta=0.5)
        assert not m.cells[0].skipped
        assert m.cells[1].skipped

    def test_reproducible(self):
        a = uniqueness_map("er", [50, 100], [2.0, 5.0], reps=3, seed=5)
        b = uniqueness_map("er", [50, 100], [2.0, 5.0], reps=3, seed=5)
        assert a == b

    def test_er_column_rises_then_collapses_near_complete(self):
        ks = [1.0, 10.0, 40.0, 70.0, 90.0, 96.0, 99.0]
        m = uniqueness_map("er", [100], ks, reps=3, seed=6)
        means = {c.avg_degree: c.mean for c in m.cells}
        assert means[1.0] < 0.2
        assert max(means[40.0], means[70.0]) > 0.95
        assert means[90.0] > 0.8
        assert means[99.0] == 0.0

    def test_statistical_monotonicity_in_sparse_regime(self):
        # means may jitter, but never drop by more than twice the joint sem
        for n in [100, 1000]:
            ks = [float(k) for k in range(1, 31, 2)]
            m = uniqueness_map("er", [n], ks, reps=5, seed=7)
            cells = m.cells
            for a, b in zip(cells, cells[1:]):
                slack = 2.0 * (a.sem + b.sem)
                assert b.mean >= a.mean - slack


class TestBoundarySearch:
    def test_step_function(self):
        res = boundary_search_fn(step_sampler(12.0), SearchConfig(k_lo=1.0, k_hi=100.0))
        assert res.status == "interval_floor"
        assert abs(res.k_star - 12.0) <= 0.05

    def test_logistic_mock_lands_near_crossing(self):
        hits = 0
        for trial in range(20):
            res = boundary_search_fn(
                logistic_sampler(10.0, 0.02, seed=trial),
                SearchConfig(k_lo=1.0, k_hi=30.0),
            )
            hits += abs(res.k_star - 10.0) <= 0.5
        assert hits >= 18

    def test_budget_respected(self):
        res = boundary_search_fn(
            logistic_sampler(10.0, 0.1, seed=1), SearchConfig(k_lo=1.0, k_hi=30.0)
        )
        assert all(pt.sims <= 30 for pt in res.evaluations)

    @staticmethod
    def _assert_bracketed(res, config):
        # every probe below k* reads under the target, every probe above it over
        below = [pt.mean for pt in res.evaluations if pt.avg_degree < res.k_star]
        above = [pt.mean for pt in res.evaluations if pt.avg_degree > res.k_star]
        assert config.k_lo < res.k_star < config.k_hi
        assert below and above
        assert max(below) < config.target < min(above)

    def test_endpoint_within_tolerance_below_the_target_goes_on(self):
        def sample(k, count, offset):
            return [min(1.0, 0.49 + (k - 1.0) / 10.0)] * count

        config = SearchConfig(k_lo=1.0, k_hi=10.0)
        res = boundary_search_fn(sample, config)
        assert res.evaluations[0].status == "hit_tolerance"
        assert res.status == "tolerance" and len(res.evaluations) > 2
        self._assert_bracketed(res, config)

    def test_undecided_endpoint_is_extended(self):
        # k_lo's first batch reads 0.42, whose interval contains the target;
        # its next batch reads 0.3 throughout and decides it
        def sample(k, count, offset):
            reps = range(offset, offset + count)
            return [1.0 if k > 1.0 else (0.6 if rep in (1, 3) else 0.3) for rep in reps]

        config = SearchConfig(k_lo=1.0, k_hi=10.0)
        res = boundary_search_fn(sample, config)
        lo = res.evaluations[0]
        assert (lo.avg_degree, lo.sims, lo.status) == (1.0, 2 * config.batch_size, "decided")
        assert lo.mean == pytest.approx(0.36)
        self._assert_bracketed(res, config)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        midpoint=st.floats(2.0, 40.0),
        sigma=st.floats(0.0, 0.3),
        k_lo=st.floats(0.5, 40.0),
        width=st.floats(0.1, 60.0),
        seed=st.integers(0, 2**32),
    )
    def test_k_star_lies_strictly_inside_the_bracket(self, midpoint, sigma, k_lo, width, seed):
        config = SearchConfig(k_lo=k_lo, k_hi=k_lo + width)
        try:
            res = boundary_search_fn(logistic_sampler(midpoint, sigma, seed), config)
        except BracketingError:
            assume(False)
        self._assert_bracketed(res, config)

    def test_non_bracketing_raises(self):
        # both above, both below, falling across the target, and an endpoint
        # within tolerance on the wrong side: k_lo just above, k_hi just below
        for lo, hi in [(0.9, 0.9), (0.1, 0.1), (0.9, 0.1), (0.51, 1.0), (0.0, 0.49)]:
            def sample(k, count, offset):
                return [lo if k == 1.0 else hi] * count

            with pytest.raises(BracketingError, match=f"{lo:.4f} at k_lo, {hi:.4f} at k_hi"):
                boundary_search_fn(sample, SearchConfig(k_lo=1.0, k_hi=10.0))

    def test_warm_config_brackets_the_previous_k_star(self):
        config = SearchConfig(k_lo=2.0, k_hi=30.0)
        warm = warm_config(config, 16.0)
        assert (warm.k_lo, warm.k_hi) == (pytest.approx(16.0 / 1.5), 24.0)
        assert warm.target == config.target and warm.min_width == config.min_width
        # clipped to the configured bracket
        assert (warm_config(config, 25.0).k_lo, warm_config(config, 25.0).k_hi) == (
            pytest.approx(25.0 / 1.5), 30.0)
        # nothing left of the bracket once clipped
        for k_star in (0.0, 1.0, 60.0):
            assert warm_config(config, k_star) is None

    def test_er_matches_dense_sweep(self):
        # independent oracle: locate the crossing on a fine fixed grid
        n, seed = 1000, 314
        cells = uniqueness_map("er", [n], list(np.arange(20.0, 27.5, 0.5)), 20, seed).cells
        grid = {c.avg_degree: c.mean for c in cells}
        ks = sorted(grid)
        crossing = None
        for a, b in zip(ks, ks[1:]):
            if grid[a] < 0.5 <= grid[b]:
                crossing = a + 0.5 * (0.5 - grid[a]) / (grid[b] - grid[a])
                break
        assert crossing is not None
        res = boundary_search("er", n, SearchConfig(k_lo=10.0, k_hi=35.0), seed=seed)
        assert abs(res.k_star - crossing) <= 1.0

    def test_rgg_boundary_nearly_size_independent(self):
        cfg = SearchConfig(k_lo=2.0, k_hi=25.0)
        k_small = boundary_search("rgg", 500, cfg, seed=21).k_star
        k_large = boundary_search("rgg", 2000, cfg, seed=21).k_star
        assert abs(k_small - k_large) <= 3.0


class TestBoundaryFit:
    def test_exact_power_law(self):
        points = [(n, 2.0 * n**0.5) for n in [100, 1000, 10000, 50000]]
        fit = fit_boundary_line(points)
        assert fit.slope == pytest.approx(0.5, abs=1e-9)
        assert fit.intercept == pytest.approx(math.log(2.0), abs=1e-9)
        assert fit.rmse <= 1e-12

    def test_permutation_invariance(self):
        points = [(100, 5.0), (1000, 9.0), (10000, 17.0), (300, 6.5)]
        a = fit_boundary_line(points)
        b = fit_boundary_line(list(reversed(points)))
        assert (a.slope, a.intercept, a.residuals) == (b.slope, b.intercept, b.residuals)

    def test_noisy_line_recovers_slope(self):
        rng = rng_from(8, "fit-noise")
        true_m, true_c = 0.35, math.log(1.7)
        ns = np.geomspace(100, 20000, 12)
        x = np.log(ns)
        y = true_m * x + true_c + rng.normal(0, 0.05, len(ns))
        fit = fit_boundary_line(list(zip(ns, np.exp(y))))
        # classic least-squares slope standard error as the oracle
        resid = np.array(fit.residuals)
        se = math.sqrt(
            (resid @ resid) / (len(ns) - 2) / ((x - x.mean()) @ (x - x.mean()))
        )
        assert abs(fit.slope - true_m) <= 3 * se

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_boundary_line([(100, 5.0), (1000, 9.0)])

    def test_nonpositive_points(self):
        with pytest.raises(ValueError):
            fit_boundary_line([(100, 5.0), (1000, 0.0), (10000, 17.0)])


@pytest.mark.parametrize("confidence", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 0.999999])
def test_ndtri_is_the_normal_quantile(confidence):
    # the search's z for a confidence must not move with the quantile function
    q = 0.5 + confidence / 2.0
    assert ndtri(q) == norm.ppf(q)


@pytest.mark.parametrize("confidence", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 0.999999])
def test_search_quantile_matches_ndtri(confidence):
    # the search takes z from the standard library; it may differ from ndtri
    # only in the last few bits
    q = 0.5 + confidence / 2.0
    assert abs(NormalDist().inv_cdf(q) - ndtri(q)) <= 5 * 2.0**-52 * abs(ndtri(q))
