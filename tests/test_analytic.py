"""Quadrature paths: ring transform, two-point coupling weights, P_h curve."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from oamturb import (
    QuadratureConfig,
    RangeError,
    ToleranceError,
    TurbulenceParams,
    coupling_coefficients,
    ring_coefficients,
    success_probability,
)
from oamturb import analytic, parallel
from oamturb.analytic import (
    _SEPARATION_CUTOFF,
    _companion_eigenvalues,
    _cubic_rule,
    _legendre_rule,
    _separation_rule,
    _theta_values,
)

P0 = TurbulenceParams(w_over_r0=0.0)
P06 = TurbulenceParams(w_over_r0=0.6)
P10 = TurbulenceParams(w_over_r0=1.0)
P14 = TurbulenceParams(w_over_r0=1.4)

COARSE = QuadratureConfig(8, 8, 1e-10)


def literal_two_point_sum(l, strengths, radial_nodes=400, angular_nodes=1024):
    """(c0, c2l) per strength from the chunked (angle, r, r') sum over two
    radii and their angle, C_dl = (1/pi) sum p(r) p(r') cos(dl u) gamma(chord),
    which the separation integral replaced; kept as its reference."""
    x, w = leggauss(radial_nodes)
    r = 3.0 * (x + 1)  # radii on [0, 6]
    dens = 3.0 * w * r ** (2 * l + 1) * np.exp(-2 * r**2)
    dens /= dens.sum()
    x, w = leggauss(angular_nodes)
    t = 0.5 * (x + 1)
    u = np.pi * t**3  # flattens the chord cusp at u = 0
    weight = 1.5 * np.pi * t**2 * w
    w_cos = np.cos(2 * l * u) * weight
    sum_sq = r[:, None] ** 2 + r[None, :] ** 2
    cross = 2.0 * np.outer(r, r)
    acc = np.zeros((len(strengths), 2, radial_nodes, radial_nodes))
    step = max(1, (1 << 20) // radial_nodes**2)
    for k in range(0, u.size, step):
        cos_u = np.cos(u[k:k + step])[:, None, None]
        chord = np.maximum(sum_sq - cross * cos_u, 0.0) ** (5 / 6)
        for i, strength in enumerate(strengths):
            gam = np.exp(-3.44 * strength ** (5 / 3) * chord)
            acc[i, 0] += np.einsum("k,kij->ij", weight[k:k + step], gam)
            acc[i, 1] += np.einsum("k,kij->ij", w_cos[k:k + step], gam)
    return [(dens @ a0 @ dens / np.pi, dens @ a2 @ dens / np.pi) for a0, a2 in acc]


def gammaln_separation_rule(l, n_nodes):
    """analytic._separation_rule with the log factorials of its Poisson
    terms taken from scipy.special.gammaln."""
    from scipy.special import gammaln

    d, weight = _cubic_rule(n_nodes, _SEPARATION_CUTOFF * math.sqrt(l))
    s = d * d
    jac = weight * d
    i = np.arange(l + 1)
    moments = [math.comb(l, k) ** 2 / math.comb(2 * l, 2 * k) for k in range(l + 1)]
    poisson = np.exp(2 * i[:, None] * np.log(s) - s - gammaln(2 * i + 1)[:, None])
    k0 = jac * (moments @ poisson)
    half = np.exp(-s / 2)
    prev, laguerre = np.zeros_like(s), half
    for k in range(2 * l):
        prev, laguerre = laguerre, ((2 * k + 1 - s) * laguerre - k * prev) / (k + 1)
    k2 = jac * laguerre * half
    return d, k0 / k0.sum(), k2 / k0.sum()


class TestQuadratureConfig:
    def test_defaults(self):
        q = QuadratureConfig()
        assert (q.radial_nodes, q.angular_nodes, q.tolerance) == (200, 512, 1e-6)

    def test_guards(self):
        with pytest.raises(RangeError):
            QuadratureConfig(4, 512, 1e-6)
        with pytest.raises(RangeError):
            QuadratureConfig(200, 4, 1e-6)
        with pytest.raises(RangeError):
            QuadratureConfig(200, 512, 0.0)


def theta(delta_l, r, params, angular_nodes=512):
    """Theta_dl at one radius, through the rule ring_coefficients uses."""
    return float(_theta_values(np.array([r]), params.w_over_r0, angular_nodes,
                               delta_l)[0][0])


class TestThetaTransform:
    def test_zero_turbulence_values(self):
        assert theta(0, 0.5, P0) == pytest.approx((2 * np.pi) ** 2, rel=1e-12)
        assert abs(theta(2, 0.5, P0)) < 1e-10

    def test_even_in_the_index(self):
        assert theta(2, 0.5, P10) == theta(-2, 0.5, P10)

    def test_matches_midpoint_riemann_sum(self):
        # 1e6-node midpoint rule as an independent oracle
        r, n = 0.5, 1_000_000
        u = (np.arange(n) + 0.5) * (np.pi / n)
        decay = 6.88 * 2 ** (2 / 3) * (r * P10.w_over_r0) ** (5 / 3)
        gam = np.exp(-decay * np.abs(np.sin(u / 2)) ** (5 / 3))
        for dl in (0, 2):
            brute = 4 * np.pi * float(np.cos(dl * u) @ gam) * (np.pi / n)
            assert theta(dl, r, P10) == pytest.approx(brute, rel=1e-6)

    def test_coarse_rule_passes_without_validation(self):
        val = theta(2, 1.0, P14, COARSE.angular_nodes)
        assert math.isfinite(val)
        assert math.isfinite(ring_coefficients(1, P14, COARSE, validate=False).c0)


class TestCouplingCoefficients:
    def test_zero_turbulence_is_exact(self):
        cc = coupling_coefficients(1, P0)
        assert cc.c0 == 1.0
        assert cc.c2l == 0.0

    def test_frozen_reference_point(self):
        # converged values, from a 50-digit adaptive integration of the
        # separation integral
        cc = coupling_coefficients(1, P06)
        assert cc.c0 == pytest.approx(0.22987906077165518, abs=1e-9)
        assert cc.c2l == pytest.approx(0.06406879639207758, abs=1e-9)

    @pytest.mark.parametrize("l", [1, 2])
    def test_matches_literal_two_point_sum(self, l):
        strengths = (0.6, 1.4)
        for w, (c0, c2l) in zip(strengths, literal_two_point_sum(l, strengths)):
            cc = coupling_coefficients(l, TurbulenceParams(w_over_r0=w))
            assert cc.c0 == pytest.approx(c0, abs=1e-8), (l, w)
            assert cc.c2l == pytest.approx(c2l, abs=1e-8), (l, w)

    def test_residual_reported(self):
        assert coupling_coefficients(1, P14, validate=False).residual == 0.0
        residual = coupling_coefficients(1, P14).residual
        assert 0.0 <= residual <= QuadratureConfig().tolerance

    def test_high_index_stays_finite_and_converged(self):
        for l in (8, 100):
            cc = coupling_coefficients(l, P06)
            assert 0.0 <= cc.c2l < cc.c0 < 1.0, l

    def test_node_doubling_converged(self):
        quad = QuadratureConfig()
        fine = QuadratureConfig(2 * quad.radial_nodes, 2 * quad.angular_nodes, 1e-6)
        for params in (P06, P14):
            a = coupling_coefficients(1, params, quad, validate=False)
            b = coupling_coefficients(1, params, fine, validate=False)
            assert abs(a.c0 - b.c0) < 1e-6
            assert abs(a.c2l - b.c2l) < 1e-6

    def test_matches_direct_sampling(self):
        # crude two-point sampler over the LG_1 radial density as an oracle
        rng = np.random.default_rng(7)
        n = 2_000_000
        # intensity density r^3 e^{-2 r^2}: radii from the Gamma(2, 1/2) law
        r = np.sqrt(rng.gamma(2.0, 0.5, size=2 * n)).reshape(2, n)
        u = rng.uniform(0.0, 2 * np.pi, size=n)
        chord_sq = r[0] ** 2 + r[1] ** 2 - 2 * r[0] * r[1] * np.cos(u)
        gam = np.exp(-3.44 * (0.6 * np.sqrt(chord_sq)) ** (5 / 3))
        cc = coupling_coefficients(1, P06)
        for dl, target in ((0, cc.c0), (2, cc.c2l)):
            vals = np.cos(dl * u) * gam
            mean = float(vals.mean())
            stderr = float(vals.std(ddof=1) / math.sqrt(n))
            assert abs(mean - target) <= 4 * stderr

    def test_monotone_decay_and_bounds(self):
        values = [
            coupling_coefficients(1, TurbulenceParams(w_over_r0=w), validate=False)
            for w in (0.0, 0.4, 0.8, 1.2)
        ]
        c0s = [v.c0 for v in values]
        assert all(a > b for a, b in zip(c0s, c0s[1:]))
        for v in values:
            assert 0.0 <= v.c2l <= v.c0 <= 1.0

    def test_index_guards(self):
        with pytest.raises(RangeError):
            coupling_coefficients(0, P06)
        with pytest.raises(TypeError):
            coupling_coefficients(1.5, P06)

    def test_coarse_quadrature_fails_validation(self):
        with pytest.raises(ToleranceError):
            coupling_coefficients(1, P14, COARSE)

    def test_ensemble_agreement(self, coef_2000):
        cc = coupling_coefficients(1, P06)
        assert abs(coef_2000.c0.mean - cc.c0) <= 3 * coef_2000.c0.stderr
        assert abs(coef_2000.c2l.mean - cc.c2l) <= 3 * coef_2000.c2l.stderr

    @pytest.mark.parametrize("l", range(1, 41))
    def test_separation_rule_matches_gammaln_form(self, l):
        # The rule takes log (2k)! as math.log(math.factorial(2k)), correctly
        # rounded; it equals gammaln(2k + 1) bit for bit up to k = 6.  Above
        # that the two logs can differ by 1 ulp (5.7e-14 at 80!), which moves
        # a Poisson term by as much relative to itself, so the weights are
        # compared relative to the largest one (measured: 1.4e-14).
        got, ref = _separation_rule(l, 200), gammaln_separation_rule(l, 200)
        np.testing.assert_array_equal(got[0], ref[0])
        for a, b in zip(got[1:], ref[1:]):
            if l <= 6:
                np.testing.assert_array_equal(a, b)
            np.testing.assert_allclose(a, b, rtol=0, atol=5e-14 * np.abs(b).max())


class TestRingCoefficients:
    def test_zero_turbulence_is_exact(self):
        rc = ring_coefficients(1, P0)
        assert rc.c0 == pytest.approx(1.0, abs=1e-12)
        assert rc.c2l == pytest.approx(0.0, abs=1e-10)

    def test_upper_bounds_the_two_point_survival(self):
        for params in (P06, P10):
            assert (
                ring_coefficients(1, params).c0
                > coupling_coefficients(1, params).c0
            )

    def test_coarse_quadrature_fails_validation(self):
        with pytest.raises(ToleranceError):
            ring_coefficients(1, P14, COARSE)

    @pytest.mark.parametrize("l", [1, 100])
    def test_matches_widened_cutoff(self, l):
        # the LG_{0,100} ring sits near r = 7, past a fixed 6-waist cutoff
        x, w = leggauss(800)
        r = 16.0 * (x + 1)  # radii on [0, 32]
        log_dens = (2 * l + 1) * np.log(r) - 2 * r**2
        dens = w * np.exp(log_dens - log_dens.max())
        dens /= dens.sum()
        ref = [
            dens @ t / (2 * np.pi) ** 2
            for t in _theta_values(r, P06.w_over_r0, 1024, 0, 2 * l)
        ]
        rc = ring_coefficients(l, P06)
        assert rc.c0 == pytest.approx(ref[0], abs=1e-12)
        assert rc.c2l == pytest.approx(ref[1], abs=1e-12)


class TestPhCurve:
    def test_success_probability_is_survival_weight(self):
        assert success_probability(P06) == coupling_coefficients(1, P06).c0


has_dsterf = pytest.mark.skipif(
    getattr(parallel._openblas(), analytic._DSTERF, None) is None,
    reason="numpy's OpenBLAS exports no ILP64 dsterf, so the rule comes from "
           "leggauss's dense companion matrix")


class TestLegendreRule:
    def test_is_leggauss_bitwise(self):
        _legendre_rule.cache_clear()
        for n in [*range(2, 301), 400, 512, 800, 1024, 2048]:
            x, w = _legendre_rule(n)
            ref_x, ref_w = leggauss(n)
            assert x.tobytes() == ref_x.tobytes(), n
            assert w.tobytes() == ref_w.tobytes(), n
            assert not (x.flags.writeable or w.flags.writeable)

    def test_falls_back_to_leggauss_without_dsterf(self, monkeypatch):
        monkeypatch.setattr(analytic, "_DSTERF", "no_such_dsterf")
        _legendre_rule.cache_clear()
        try:
            assert _companion_eigenvalues(200) is None
            for n in (8, 200):
                x, w = _legendre_rule(n)
                ref_x, ref_w = leggauss(n)
                assert x.tobytes() == ref_x.tobytes()
                assert w.tobytes() == ref_w.tobytes()
        finally:
            _legendre_rule.cache_clear()

    @has_dsterf
    def test_validated_ring_call_holds_one_coherence_matrix(self):
        # the doubled pass's 400 x 1024 coherence matrix is the one large
        # array; leggauss(1024)'s companion matrix alone would be 8 MiB
        _legendre_rule.cache_clear()
        tracemalloc.start()
        try:
            ring_coefficients(1, P06)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 400 * 1024 * np.dtype(float).itemsize
