"""Beat-note coincidence model and the five-parameter scan fitter."""
import numpy as np
import pytest

from freqbin.errors import FitConvergenceError
from freqbin.hom import (HomParams, HomScan, fit_homi, homi_from_state,
                         homi_rate, synthesize_scan)

TRUE = HomParams(N=1.0, V=0.934, delta_omega=2 * np.pi * 11.5e12,
                 tau_c=2.40e-12, tau_offset=0.0)
DELAYS = np.linspace(-3e-12, 3e-12, 241)


def exact_scan(params=TRUE, delays=DELAYS, pairs=2000.0):
    """Noiseless scan whose counts are the exact model means."""
    counts = homi_rate(params, delays) / (0.5 * params.N) * pairs
    return HomScan(delays=delays, counts=counts,
                   uncertainties=np.sqrt(np.maximum(counts, 1.0)))


# --- forward model ----------------------------------------------------------

def test_rate_special_points():
    assert homi_rate(TRUE, 0.0) == pytest.approx((1 - 0.934) / 2, abs=1e-15)
    # outside (and exactly at the edge of) the envelope: N/2, exactly
    assert homi_rate(TRUE, 3.0e-12) == 0.5 * TRUE.N
    assert homi_rate(TRUE, -2.40e-12) == 0.5 * TRUE.N
    two = HomParams(N=2.0, V=0.934, delta_omega=TRUE.delta_omega,
                    tau_c=TRUE.tau_c)
    assert homi_rate(two, 0.0) == pytest.approx(2 * (1 - 0.934) / 2,
                                                abs=1e-14)


def test_rate_even_about_offset():
    p = HomParams(N=1.3, V=0.7, delta_omega=2 * np.pi * 9e12,
                  tau_c=1.7e-12, tau_offset=0.31e-12)
    u = np.array([0.1, 0.45, 0.9, 1.6, 2.5]) * 1e-12
    left = homi_rate(p, p.tau_offset - u)
    right = homi_rate(p, p.tau_offset + u)
    assert np.allclose(left, right, rtol=1e-12)


def test_rate_bounded():
    rng = np.random.default_rng(3)
    taus = np.linspace(-5e-12, 5e-12, 401)
    for _ in range(25):
        p = HomParams(N=rng.uniform(0.1, 10), V=rng.uniform(0, 1),
                      delta_omega=rng.uniform(1e12, 1e14),
                      tau_c=rng.uniform(0.1e-12, 5e-12),
                      tau_offset=rng.uniform(-1e-12, 1e-12))
        y = homi_rate(p, taus) / p.N
        assert np.all(y >= 0.5 * (1 - p.V) - 1e-12)
        assert np.all(y <= 0.5 * (1 + p.V) + 1e-12)


def test_rate_scalar_vs_vector():
    s = homi_rate(TRUE, 0.3e-12)
    v = homi_rate(TRUE, np.array([0.3e-12]))
    assert isinstance(s, float)
    assert v.shape == (1,)
    assert v[0] == s


def test_from_state_phase_conventions(default_state):
    flat = default_state
    zero_v = type(flat)(p=0.5, V=0.0, phi=0.0, delta_omega=flat.delta_omega,
                        tau_c=flat.tau_c, bin_centers=flat.bin_centers)
    taus = np.linspace(-2e-12, 2e-12, 101)
    assert np.allclose(homi_from_state(zero_v, taus), 0.5, atol=1e-15)

    bunch = type(flat)(p=0.5, V=0.9, phi=np.pi, delta_omega=flat.delta_omega,
                       tau_c=flat.tau_c, bin_centers=flat.bin_centers)
    assert homi_from_state(bunch, 0.0) == pytest.approx((1 + 0.9) / 2,
                                                        abs=1e-12)
    dip = type(flat)(p=0.5, V=0.9, phi=0.0, delta_omega=flat.delta_omega,
                     tau_c=flat.tau_c, bin_centers=flat.bin_centers)
    assert homi_from_state(dip, 0.0) == pytest.approx((1 - 0.9) / 2,
                                                      abs=1e-12)


def test_default_state_beat_period(default_state):
    # adjacent fringe minima are one beat period 2 pi / delta_omega apart
    def minimum_in(lo_fs, hi_fs):
        t = np.arange(lo_fs, hi_fs, 0.05) * 1e-15
        y = homi_from_state(default_state, t)
        return t[int(np.argmin(y))]

    t1 = minimum_in(-30.0, 30.0)
    t2 = minimum_in(55.0, 125.0)
    beat_fs = (t2 - t1) * 1e15
    assert 87.0 <= beat_fs <= 91.0
    assert beat_fs == pytest.approx(2 * np.pi / default_state.delta_omega
                                    * 1e15, abs=0.2)


# --- synthesis --------------------------------------------------------------

def test_synthesize_deterministic_per_seed():
    a = synthesize_scan(TRUE, DELAYS, 2000, rng_seed=11)
    b = synthesize_scan(TRUE, DELAYS, 2000, rng_seed=11)
    c = synthesize_scan(TRUE, DELAYS, 2000, rng_seed=12)
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)
    assert a.acquisition["rng_seed"] == 11
    assert np.array_equal(a.uncertainties,
                          np.sqrt(np.maximum(a.counts, 1.0)))


def test_synthesize_flat_mean_when_v_zero():
    flat = HomParams(N=1.0, V=0.0, delta_omega=TRUE.delta_omega,
                     tau_c=TRUE.tau_c)
    scan = synthesize_scan(flat, DELAYS, 5000, rng_seed=4)
    se = np.sqrt(5000.0 / len(DELAYS))
    assert abs(scan.counts.mean() - 5000.0) < 3 * se


def test_synthesize_rejects_nonpositive_pairs():
    with pytest.raises(ValueError):
        synthesize_scan(TRUE, DELAYS, 0.0, rng_seed=0)


# --- fitting ----------------------------------------------------------------

def test_fit_noiseless_closed_loop():
    fit = fit_homi(exact_scan())
    assert fit.converged
    assert fit.flags == ()
    assert fit.N == pytest.approx(2 * 2000.0, rel=1e-6)
    assert fit.V == pytest.approx(0.934, abs=1e-6)
    assert fit.delta_omega == pytest.approx(TRUE.delta_omega, rel=1e-6)
    assert fit.tau_c == pytest.approx(TRUE.tau_c, rel=1e-6)
    assert abs(fit.tau_offset) < 1e-18
    assert fit.residual_norm < 1e-3


def test_fit_noiseless_with_offset():
    p = HomParams(N=1.0, V=0.8, delta_omega=2 * np.pi * 10e12,
                  tau_c=2.0e-12, tau_offset=0.2e-12)
    fit = fit_homi(exact_scan(p))
    assert fit.tau_offset == pytest.approx(0.2e-12, rel=1e-6)
    assert fit.V == pytest.approx(0.8, abs=1e-6)


def test_fit_recovers_from_poisson_noise():
    scan = synthesize_scan(TRUE, DELAYS, 2000, rng_seed=7)
    fit = fit_homi(scan)
    assert fit.converged
    for name, truth in (("V", TRUE.V), ("delta_omega", TRUE.delta_omega),
                        ("tau_c", TRUE.tau_c)):
        err = abs(getattr(fit, name) - truth)
        assert err < 4 * fit.stderr[name], name


def test_fit_count_scale_equivariance():
    base = exact_scan()
    k = 3.7
    scaled = HomScan(delays=base.delays, counts=k * base.counts,
                     uncertainties=k * base.uncertainties)
    f0 = fit_homi(base)
    f1 = fit_homi(scaled)
    assert f1.N == pytest.approx(k * f0.N, rel=1e-6)
    assert f1.V == pytest.approx(f0.V, abs=1e-8)
    assert f1.delta_omega == pytest.approx(f0.delta_omega, rel=1e-8)
    assert f1.tau_c == pytest.approx(f0.tau_c, rel=1e-8)


def test_fit_flags_featureless_scan():
    flat = HomParams(N=1.0, V=0.0, delta_omega=TRUE.delta_omega,
                     tau_c=TRUE.tau_c)
    scan = synthesize_scan(flat, DELAYS, 2000, rng_seed=5)
    fit = fit_homi(scan)
    assert "delta_omega_unidentifiable" in fit.flags
    assert fit.V < 0.1


def test_fit_aliased_sampling_needs_init():
    # 60 points over +-3 ps: Nyquist ~4.9 THz, so the 11.5 THz beat folds
    # and the DFT initializer locks onto the alias. Supplying the two
    # externally known quantities (design beat, nominal scan zero) rescues.
    coarse = np.linspace(-3e-12, 3e-12, 60)
    scan = synthesize_scan(TRUE, coarse, 20000, rng_seed=9)
    blind = fit_homi(scan)
    assert abs(blind.delta_omega - TRUE.delta_omega) / TRUE.delta_omega > 0.05
    told = fit_homi(scan, init={"delta_omega": TRUE.delta_omega,
                                "tau_offset": 0.0})
    assert told.delta_omega == pytest.approx(TRUE.delta_omega, rel=1e-3)
    assert told.V == pytest.approx(TRUE.V, abs=0.02)
    assert told.residual_norm < blind.residual_norm


@pytest.mark.parametrize("points", [2, 5])
def test_fit_needs_more_points_than_parameters(points):
    scan = exact_scan(delays=np.linspace(-1e-12, 1e-12, points))
    with pytest.raises(FitConvergenceError, match="5 model parameters"):
        fit_homi(scan)
    with pytest.raises(FitConvergenceError, match="5 model parameters"):
        fit_homi(scan, init=TRUE)


def test_fit_convergence_error_carries_state():
    scan = exact_scan()
    bad_init = {"N": 900.0, "V": 0.3, "delta_omega": 2 * np.pi * 10.0e12,
                "tau_c": 1.0e-12, "tau_offset": 0.5e-12}
    with pytest.raises(FitConvergenceError) as exc:
        fit_homi(scan, init=bad_init, max_iter=1)
    last = exc.value.last_iterate
    assert set(last) == {"N", "V", "delta_omega", "tau_c", "tau_offset"}
    assert exc.value.residual > 0.0


def test_fit_init_variants():
    scan = exact_scan()
    with pytest.raises(ValueError, match="unknown init"):
        fit_homi(scan, init={"visibility": 0.9})
    via_params = fit_homi(scan, init=TRUE)
    assert via_params.V == pytest.approx(0.934, abs=1e-8)
    # partial dict overrides only the named entry
    part = fit_homi(scan, init={"V": 0.5})
    assert part.init["V"] == 0.5
    assert part.V == pytest.approx(0.934, abs=1e-6)


def test_fit_result_accessors():
    fit = fit_homi(exact_scan())
    se = fit.stderr
    assert set(se) == {"N", "V", "delta_omega", "tau_c", "tau_offset"}
    assert all(v >= 0.0 for v in se.values())
    p = fit.params()
    assert isinstance(p, HomParams)
    assert p.V == fit.V and p.N == fit.N
    assert fit.covariance.shape == (5, 5)


def test_fit_visibility_unbiased_small_ensemble():
    vs = []
    for seed in range(12):
        scan = synthesize_scan(TRUE, DELAYS, 2000, rng_seed=100 + seed)
        vs.append(fit_homi(scan).V)
    assert abs(np.mean(vs) - TRUE.V) < 0.005


# --- input validation -------------------------------------------------------

def test_scan_validation():
    with pytest.raises(ValueError):
        HomScan(delays=DELAYS, counts=np.ones(10), uncertainties=np.ones(10))
    d = np.array([0.0, 1.0, 1.0]) * 1e-12
    with pytest.raises(ValueError):
        HomScan(delays=d, counts=np.ones(3), uncertainties=np.ones(3))
    d = np.array([0.0, 1.0, 2.0]) * 1e-12
    with pytest.raises(ValueError):
        HomScan(delays=d, counts=np.array([1.0, -1.0, 1.0]),
                uncertainties=np.ones(3))
    with pytest.raises(ValueError):
        HomScan(delays=d, counts=np.ones(3),
                uncertainties=np.array([1.0, 0.0, 1.0]))


def test_params_validation():
    with pytest.raises(ValueError):
        HomParams(N=1.0, V=1.2, delta_omega=1e13, tau_c=1e-12)
    with pytest.raises(ValueError):
        HomParams(N=1.0, V=0.5, delta_omega=1e13, tau_c=0.0)
    arr = TRUE.as_array()
    assert arr.tolist() == [TRUE.N, TRUE.V, TRUE.delta_omega, TRUE.tau_c,
                            TRUE.tau_offset]
