import math

import numpy as np
import pytest

from noisescramble import (
    FitError,
    ScalingFit,
    ScalingSample,
    alpha_by_qubits,
    error_rate_prefactor,
    fit_scaling,
    scaling_model,
)


def synthetic_samples(alpha, beta, epsilon, nus, noise=None, rng=None):
    samples = []
    for nu in nus:
        xi = epsilon * nu
        value = alpha * error_rate_prefactor(xi) / nu**beta
        if noise:
            value *= 1.0 + noise * rng.normal()
        samples.append(ScalingSample(nu=nu, circuit_error_rate=xi, value=value))
    return samples


class TestErrorRatePrefactor:
    def test_limit_at_zero(self):
        assert error_rate_prefactor(0.0) == 1.0
        assert abs(error_rate_prefactor(1e-12) - 1.0) < 1e-9

    def test_hand_values(self):
        assert abs(error_rate_prefactor(0.1) - 0.9508331945) < 1e-9
        g_half = 0.5 * math.exp(-0.5) / (1 - math.exp(-0.5))
        assert abs(error_rate_prefactor(0.5) - g_half) < 1e-14

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            error_rate_prefactor(-0.1)


class TestFitScaling:
    def test_noiseless_round_trip(self):
        samples = synthetic_samples(2.0, 0.5, 1e-2, (10, 100, 1000, 10_000))
        fit = fit_scaling(samples)
        assert abs(fit.alpha - 2.0) < 1e-9
        assert abs(fit.beta - 0.5) < 1e-9
        assert fit.residual < 1e-12

    def test_round_trip_other_parameters(self):
        samples = synthetic_samples(0.37, 1.25, 1e-4, (20, 60, 180, 540, 1620))
        fit = fit_scaling(samples)
        assert abs(fit.alpha - 0.37) < 1e-9
        assert abs(fit.beta - 1.25) < 1e-9

    def test_multiplicative_noise_beta_stability(self):
        # regression-variance oracle: sd(beta) = sigma / (sd(log nu) sqrt(n));
        # with 1% noise over 4 decades that is about 0.004, so 0.05 is > 10 sigma
        rng = np.random.default_rng(7)
        for _ in range(100):
            samples = synthetic_samples(
                2.0, 0.5, 1e-2, (10, 100, 1000, 10_000), noise=0.01, rng=rng
            )
            fit = fit_scaling(samples)
            assert abs(fit.beta - 0.5) <= 0.05

    def test_rescaling_invariance(self):
        samples = synthetic_samples(2.0, 0.5, 1e-3, (10, 100, 1000))
        scaled = [
            ScalingSample(s.nu, s.circuit_error_rate, 3.7 * s.value) for s in samples
        ]
        base, rescaled = fit_scaling(samples), fit_scaling(scaled)
        assert abs(rescaled.beta - base.beta) < 1e-12
        assert abs(rescaled.alpha - 3.7 * base.alpha) < 1e-9

    def test_too_few_distinct_sizes(self):
        samples = synthetic_samples(2.0, 0.5, 1e-3, (10, 100))
        with pytest.raises(FitError):
            fit_scaling(samples)
        duplicated = synthetic_samples(2.0, 0.5, 1e-3, (10, 10, 100))
        with pytest.raises(FitError):
            fit_scaling(duplicated)

    def test_nonpositive_values_rejected(self):
        samples = synthetic_samples(2.0, 0.5, 1e-3, (10, 100, 1000))
        bad = samples[:2] + [ScalingSample(nu=1000, circuit_error_rate=1.0, value=0.0)]
        with pytest.raises(FitError):
            fit_scaling(bad)

    def test_circuit_size_below_one_rejected(self):
        samples = [ScalingSample(nu, 1e-3 * nu, 0.5) for nu in (0, 10, 100)]
        with pytest.raises(FitError, match="at least 1"):
            fit_scaling(samples)

    def test_predict_matches_model(self):
        fit = ScalingFit(alpha=2.0, beta=0.5, residual=0.0, samples=())
        assert np.allclose(
            fit.predict([10, 100], [0.1, 1.0]),
            scaling_model([10, 100], 2.0, 0.5, [0.1, 1.0]),
        )


class TestSmallRateExpansion:
    """scaling_model against its small-error-rate leading term alpha / nu^beta."""

    @staticmethod
    def _exact_and_leading(alpha, beta, xi, nu=1.0):
        return float(scaling_model(nu, alpha, beta, xi)), alpha / nu**beta

    def test_ratio_approaches_one(self):
        exact, leading = self._exact_and_leading(2.0, 0.5, 1e-9, nu=100)
        assert abs(exact / leading - 1.0) < 1e-8

    def test_hand_value(self):
        exact, leading = self._exact_and_leading(1.0, 0.0, 0.1)
        assert abs(exact / leading - 0.9508) < 1e-4

    def test_half_rate_window(self):
        exact, leading = self._exact_and_leading(1.0, 0.0, 0.5)
        assert 0.7 <= exact / leading <= 1.0

    def test_linear_error_bound(self):
        # |exact - leading| <= 2 xi leading across the small-rate window
        for xi in np.linspace(1e-4, 0.5, 50):
            exact, leading = self._exact_and_leading(3.0, 0.7, float(xi), nu=50)
            assert abs(exact - leading) <= 2.0 * xi * leading


class TestAlphaByQubits:
    def _fit(self, alpha, beta=0.5):
        return ScalingFit(alpha=alpha, beta=beta, residual=0.0, samples=())

    def test_rows_sorted_by_qubits(self):
        table = alpha_by_qubits({6: self._fit(2.0), 4: self._fit(1.5)})
        assert [row[0] for row in table.rows] == [4, 6]
        assert len(table.rows) == 2

    def test_equal_alphas_flagged_saturated(self):
        table = alpha_by_qubits({4: self._fit(2.0), 6: self._fit(2.0), 8: self._fit(2.0)})
        assert table.saturated

    def test_growing_alphas_not_saturated(self):
        table = alpha_by_qubits({4: self._fit(1.0), 6: self._fit(2.0)})
        assert not table.saturated

    def test_five_percent_spread_is_saturated(self):
        assert alpha_by_qubits({4: self._fit(1.96), 6: self._fit(2.0)}).saturated
        assert not alpha_by_qubits({4: self._fit(1.88), 6: self._fit(2.0)}).saturated
