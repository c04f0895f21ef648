"""Closed-form ER expectations against edge cases and simulation."""

import numpy as np
import pytest
from scipy.stats import binom

import netuniq.er_theory as er_theory
from netuniq.cli import main
from netuniq.er_theory import (
    argmax_degree_uniqueness,
    degree_pmf,
    er_curve,
    expected_degree_uniqueness,
    expected_nonempty_fraction,
    nonempty_probability_given_degree,
)
from netuniq.models import ModelSpec, gen_er, substream_seed
from netuniq.uniqueness import degree_uniqueness, nonempty_fraction


class TestDegreeUniquenessForm:
    def test_zero_degree(self):
        assert expected_degree_uniqueness(100, 0.0) == 0.0

    def test_full_degree(self):
        assert expected_degree_uniqueness(100, 99.0) == 0.0

    def test_symmetry_about_center(self):
        n = 60
        for k in [3.0, 10.5, 21.0]:
            assert expected_degree_uniqueness(n, k) == pytest.approx(
                expected_degree_uniqueness(n, (n - 1) - k), rel=1e-12
            )

    def test_argmax_at_half_max_degree(self):
        assert argmax_degree_uniqueness(100) == pytest.approx(49.5)

    @pytest.mark.parametrize("n", [20, 99, 100, 200, 1000])
    def test_argmax_equals_full_grid_argmax(self, n):
        # the function evaluates the grid up to the centre only
        grid = np.arange(0.0, n - 1 + 0.25, 0.5)
        full = [expected_degree_uniqueness(n, float(k)) for k in grid]
        assert argmax_degree_uniqueness(n) == grid[int(np.argmax(full))]

    def test_derivative_vanishes_at_center(self):
        n = 100
        center = (n - 1) / 2
        h = 1e-3
        diff = (
            expected_degree_uniqueness(n, center + h)
            - expected_degree_uniqueness(n, center - h)
        ) / (2 * h)
        scale = expected_degree_uniqueness(n, center)
        assert abs(diff) <= 1e-6 * scale

    def test_large_n_stays_finite(self):
        val = expected_degree_uniqueness(20000, 50.0)
        assert 0.0 <= val <= 1.0

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            expected_degree_uniqueness(1, 0.0)
        with pytest.raises(ValueError):
            expected_degree_uniqueness(100, 100.0)


class TestDegreePmf:
    @pytest.mark.parametrize("n,k", [(10, 3.0), (100, 49.5), (1000, 12.0), (20000, 80.0)])
    def test_sums_to_one(self, n, k):
        assert abs(degree_pmf(n, k).sum() - 1.0) <= 1e-9

    @pytest.mark.parametrize(
        "n,k",
        [(n, k) for n in (50, 1000, 10000, 50000) for k in (1, 10, 32, 64, n / 2) if k <= n - 1],
    )
    def test_matches_scipy_binomial(self, n, k):
        ref = binom.pmf(np.arange(n), n - 1, k / (n - 1))
        big = ref > 1e-200
        np.testing.assert_allclose(degree_pmf(n, float(k))[big], ref[big], rtol=1e-9, atol=0)

    def test_degenerate_endpoints(self):
        pmf = degree_pmf(50, 0.0)
        assert pmf[0] == 1.0 and pmf[1:].sum() == 0.0
        pmf = degree_pmf(50, 49.0)
        assert pmf[-1] == 1.0


class TestNonemptyGivenDegree:
    def test_small_degrees_are_zero(self):
        for p in [0.0, 0.3, 1.0]:
            assert nonempty_probability_given_degree(p, 0) == 0.0
            assert nonempty_probability_given_degree(p, 1) == 0.0

    def test_certain_edge(self):
        assert nonempty_probability_given_degree(1.0, 2) == 1.0

    def test_half_probability_three_neighbors(self):
        assert nonempty_probability_given_degree(0.5, 3) == pytest.approx(0.875)

    def test_monotone_in_p_and_k(self):
        ps = np.linspace(0.0, 1.0, 21)
        vals = [nonempty_probability_given_degree(float(p), 5) for p in ps]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        ks = range(0, 30)
        vals = [nonempty_probability_given_degree(0.1, k) for k in ks]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestNonemptyFractionForm:
    def test_zero_degree(self):
        assert expected_nonempty_fraction(100, 0.0) == 0.0

    def test_complete(self):
        assert expected_nonempty_fraction(10, 9.0) == 1.0
        assert expected_nonempty_fraction(2, 1.0) == 0.0

    @pytest.mark.parametrize("n,k", [(17, 15.0), (23, 20.0), (50, 36.0), (10000, 100.0)])
    def test_never_above_one(self, n, k):
        # the pmf's rounding carried these past 1
        assert expected_nonempty_fraction(n, k) <= 1.0

    def test_simulation_agreement(self):
        n, reps = 1000, 10
        for k in [5.0, 20.0]:
            vals = []
            for rep in range(reps):
                seed = substream_seed(3030, "er", None, n, k, rep)
                g = gen_er(ModelSpec("er", n, k, seed=seed))
                vals.append(nonempty_fraction(g)[0])
            vals = np.array(vals)
            sem = vals.std(ddof=1) / np.sqrt(reps)
            theory = expected_nonempty_fraction(n, k)
            assert abs(vals.mean() - theory) <= 3 * sem + 1e-6


class TestCurve:
    def test_default_grid(self):
        curve = er_curve(50)
        assert curve.avg_degrees == [float(k) for k in range(50)]
        assert all(0.0 <= v <= 1.0 for v in curve.degree_uniqueness)
        assert all(0.0 <= v <= 1.0 for v in curve.nonempty_fraction)

    @pytest.mark.parametrize("n", [2, 3, 50, 10000])
    def test_one_degree_law_per_grid_point(self, n, monkeypatch, capsys):
        calls = []

        def counting_pmf(*args):
            calls.append(args)
            return degree_pmf(*args)

        monkeypatch.setattr(er_theory, "degree_pmf", counting_pmf)
        curve = er_curve(n)
        assert len(calls) == len(curve.avg_degrees)
        monkeypatch.undo()
        ks = curve.avg_degrees
        # tobytes tells -0.0 from 0.0, which == does not
        for values, form in [
            (curve.degree_uniqueness, expected_degree_uniqueness),
            (curve.nonempty_fraction, expected_nonempty_fraction),
        ]:
            assert np.array(values).tobytes() == np.array([form(n, k) for k in ks]).tobytes()
        assert main(["er-curve", "--n", str(n)]) == 0
        row_at_zero = capsys.readouterr().out.splitlines()[1]
        assert row_at_zero == "0,0,0"

    def test_simulation_agreement_degree_uniqueness(self):
        n, reps = 100, 100
        for k in [20.0, 50.0]:
            vals = []
            for rep in range(reps):
                seed = substream_seed(4040, "er", None, n, k, rep)
                vals.append(degree_uniqueness(gen_er(ModelSpec("er", n, k, seed=seed))))
            vals = np.array(vals)
            sem = vals.std(ddof=1) / np.sqrt(reps)
            assert abs(vals.mean() - expected_degree_uniqueness(n, k)) <= 3 * sem
