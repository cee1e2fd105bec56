import numpy as np
import pytest

from conftest import sample_discrete_powerlaw
from comention import (
    DataError,
    DegreeDistribution,
    build_graph,
    fit_loglog,
    fit_mle,
)


def synthetic_dist(alpha, dmin, dmax, scale=1000.0):
    degrees = np.arange(dmin, dmax + 1)
    weights = scale * degrees.astype(np.float64) ** alpha
    return DegreeDistribution(
        degrees=degrees,
        counts=weights,
        fractions=weights / weights.sum(),
    )


class TestDegreeDistribution:
    def test_from_graph_fractions_sum_to_one(self):
        g = build_graph([("A", "B"), ("B", "C"), ("C", "A"), ("C", "D")])
        dist = DegreeDistribution.from_graph(g)
        assert dist.fractions.sum() == pytest.approx(1.0, abs=1e-12)
        assert (dist.fractions > 0).all()
        assert dist.counts.sum() == g.node_count

    def test_from_histogram_orders_degrees(self):
        dist = DegreeDistribution.from_histogram({5: 1, 1: 5})
        assert dist.degrees.tolist() == [1, 5]
        assert dist.counts.tolist() == [5, 1]


class TestLogLogFit:
    def test_exact_minus_two(self):
        fit = fit_loglog(synthetic_dist(-2.0, 3, 50), dmin=3)
        assert fit.alpha == pytest.approx(-2.0, abs=1e-9)
        assert fit.method == "loglog"
        assert fit.n_tail == 48

    def test_exact_shallow_exponent(self):
        fit = fit_loglog(synthetic_dist(-1.85, 3, 100), dmin=3)
        assert fit.alpha == pytest.approx(-1.85, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_two_point_tail_rejected(self):
        dist = DegreeDistribution(
            degrees=np.array([1, 3, 4]),
            counts=np.array([5.0, 3.0, 1.0]),
            fractions=np.array([5 / 9, 3 / 9, 1 / 9]),
        )
        with pytest.raises(DataError):
            fit_loglog(dist, dmin=3)

    def test_zero_fraction_inside_tail_skipped(self):
        degrees = np.arange(3, 9)
        weights = degrees.astype(np.float64) ** -2.0
        weights[1] = 0.0  # degree 4 absent; log undefined, must be skipped
        dist = DegreeDistribution(
            degrees=degrees,
            counts=weights,
            fractions=weights / weights.sum(),
        )
        fit = fit_loglog(dist, dmin=3)
        assert fit.n_tail == 5
        assert fit.alpha == pytest.approx(-2.0, abs=1e-9)

    def test_scaling_changes_intercept_not_slope(self):
        base = synthetic_dist(-1.7, 3, 40, scale=1.0)
        scaled = DegreeDistribution(
            degrees=base.degrees,
            counts=base.counts * 7.0,
            fractions=base.fractions * 7.0,
        )
        f1 = fit_loglog(base, dmin=3)
        f2 = fit_loglog(scaled, dmin=3)
        assert f1.alpha == pytest.approx(f2.alpha, abs=1e-12)
        assert abs(f1.intercept - f2.intercept) > 1e-6

    def test_dmin_restricts_tail(self):
        dist = DegreeDistribution(
            degrees=np.arange(1, 30),
            counts=np.ones(29),
            fractions=np.full(29, 1 / 29),
        )
        fit = fit_loglog(dist, dmin=10)
        assert fit.n_tail == 20
        assert fit.dmin == 10
        assert fit.alpha == pytest.approx(0.0, abs=1e-12)


class TestMleFit:
    def test_recovers_alpha(self):
        samples = sample_discrete_powerlaw(-2.5, 3, 100_000, seed=211)
        fit = fit_mle(samples, dmin=3)
        assert fit.method == "mle"
        assert fit.alpha == pytest.approx(-2.5, abs=0.05)

    def test_recovers_shallow_exponent(self):
        samples = sample_discrete_powerlaw(-1.85, 3, 100_000, seed=223)
        fit = fit_mle(samples, dmin=3)
        assert fit.alpha == pytest.approx(-1.85, abs=0.05)

    def test_all_equal_rejected(self):
        with pytest.raises(DataError):
            fit_mle([4] * 100, dmin=3)

    def test_short_tail_rejected(self):
        with pytest.raises(DataError):
            fit_mle([3, 4, 5, 2, 1, 2, 2, 1, 1], dmin=3)

    def test_error_shrinks_with_sample_size(self):
        sizes = (1000, 10_000, 100_000)
        mean_errors = []
        for size in sizes:
            errs = []
            for seed in range(20):
                samples = sample_discrete_powerlaw(
                    -2.2, 3, size, seed=1000 + seed
                )
                errs.append(abs(fit_mle(samples, dmin=3).alpha + 2.2))
            mean_errors.append(np.mean(errs))
        assert mean_errors[0] > mean_errors[1] > mean_errors[2]
