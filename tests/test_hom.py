"""Beat-note coincidence model and the five-parameter scan fitter."""
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freqbin import hom
from freqbin.errors import FitConvergenceError
from freqbin.hom import (HomParams, HomScan, fit_homi, homi_curve, homi_jac,
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


def test_homi_jac_matches_finite_difference():
    tau = np.array([-1.7e-12, -0.4e-12, 0.3e-12, 1.1e-12, 2.9e-12])
    args = np.array([2000.0, 0.8, 2 * np.pi * 9e12, 2.1e-12, 0.11e-12])
    jac = homi_jac(tau, *args)
    rel_h = 1e-7
    for j in range(5):
        h = rel_h * max(abs(args[j]), 1e-13)
        up, dn = args.copy(), args.copy()
        up[j] += h
        dn[j] -= h
        fd = (homi_curve(tau, *up) - homi_curve(tau, *dn)) / (2 * h)
        scale = max(np.max(np.abs(fd)), 1e-30)
        assert np.max(np.abs(jac[:, j] - fd)) / scale < 1e-6, f"column {j}"


def test_homi_curve_outside_envelope_is_flat_half():
    tau = np.array([-5e-12, 4e-12, 9e-12])
    out = homi_curve(tau, 3.0, 0.9, 2 * np.pi * 11.5e12, 2.4e-12, 0.0)
    assert np.all(out == 1.5)
    jac = homi_jac(tau, 3.0, 0.9, 2 * np.pi * 11.5e12, 2.4e-12, 0.0)
    assert np.array_equal(jac[:, 1:], np.zeros((3, 4)))
    assert np.all(jac[:, 0] == 0.5)


def test_default_state_beat_period(default_state):
    # adjacent fringe minima are one beat period 2 pi / delta_omega apart
    beat = HomParams(N=1.0, V=default_state.V,
                     delta_omega=default_state.delta_omega,
                     tau_c=default_state.tau_c)

    def minimum_in(lo_fs, hi_fs):
        t = np.arange(lo_fs, hi_fs, 0.05) * 1e-15
        y = homi_rate(beat, t)
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
    assert "envelope_unidentifiable" in fit.flags
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


def assert_within(fit, truth, names, k=5.0):
    for name in names:
        miss = abs(getattr(fit, name) - getattr(truth, name))
        assert miss <= k * fit.stderr[name], (name, miss / fit.stderr[name])


def test_blind_fit_finds_the_dip_at_the_operating_point():
    # at V = 0.874 the fringes next to the dip are only a few percent
    # shallower, so the lowest count is often on one of them, a beat period
    # (~91 fs) from the dip: a start there ends on the wrong fringe
    rng = np.random.default_rng(874)
    for _ in range(40):
        truth = HomParams(N=1.0, V=0.874, delta_omega=2 * np.pi * 11e12,
                          tau_c=1.3e-12,
                          tau_offset=rng.uniform(-50e-15, 50e-15))
        delays = np.linspace(-2.5e-12, 2.5e-12, rng.integers(300, 601))
        pairs = math.exp(rng.uniform(math.log(100.0), math.log(5000.0)))
        scan = synthesize_scan(truth, delays, pairs,
                               rng_seed=int(rng.integers(2**31)))
        assert_within(fit_homi(scan), truth, ("V", "tau_offset"))


def two_step_delays(tau_c, half_range):
    """10 fs steps inside +-tau_c, 100 fs steps outside."""
    inner = np.arange(-tau_c, tau_c + 5e-15, 10e-15)
    outer = np.arange(tau_c + 100e-15, half_range + 1e-18, 100e-15)
    return np.concatenate([-outer[::-1], inner, outer])


def jittered_delays(half_range, rng):
    """Uniform 20 fs steps, each delay moved by up to +-30% of a step."""
    d = np.arange(-half_range, half_range + 1e-18, 20e-15)
    return d + rng.uniform(-0.3, 0.3, len(d)) * 20e-15


@pytest.mark.parametrize("grid", ["two_step", "jittered"])
def test_blind_fit_on_nonuniform_delay_grid(grid):
    # a DFT over the sample index, which assumes one delay step, misreads
    # the beat frequency on such grids
    rng = np.random.default_rng(11)
    for v, tau_c, pairs in ((0.874, 1.3e-12, 2000.0), (0.5, 2.2e-12, 800.0),
                            (0.95, 3.5e-12, 5000.0)):
        truth = HomParams(N=1.0, V=v, delta_omega=2 * np.pi * 11.2e12,
                          tau_c=tau_c, tau_offset=rng.uniform(-50e-15, 50e-15))
        delays = (two_step_delays(tau_c, 1.5 * tau_c) if grid == "two_step"
                  else jittered_delays(1.5 * tau_c, rng))
        scan = synthesize_scan(truth, delays, pairs,
                               rng_seed=int(rng.integers(2**31)))
        assert_within(fit_homi(scan), truth,
                      ("V", "delta_omega", "tau_c", "tau_offset"))


@settings(max_examples=30)
@given(v=st.floats(0.3, 0.98), dw_thz=st.floats(10.5, 11.5),
       tau_c_ps=st.floats(1.0, 4.0), tau0_fs=st.floats(-50.0, 50.0),
       points_frac=st.floats(0.0, 1.0),
       log_pairs=st.floats(math.log(200.0), math.log(20000.0)),
       seed=st.integers(0, 2**31 - 1))
def test_blind_fit_over_the_analysis_ranges(v, dw_thz, tau_c_ps, tau0_fs,
                                            points_frac, log_pairs, seed):
    # the benchmark's analysis ranges: +-1.5 tau_c at steps of at most
    # 30 fs, 121-2001 delays log-uniform, 200-20000 pairs per point
    truth = HomParams(N=1.0, V=v, delta_omega=2 * np.pi * dw_thz * 1e12,
                      tau_c=tau_c_ps * 1e-12, tau_offset=tau0_fs * 1e-15)
    fewest = max(121, math.ceil(3.0 * tau_c_ps * 1e3 / 30.0) + 1)
    points = round(fewest * (2001 / fewest) ** points_frac)
    delays = np.linspace(-1.5 * truth.tau_c, 1.5 * truth.tau_c, points)
    scan = synthesize_scan(truth, delays, math.exp(log_pairs), rng_seed=seed)
    assert_within(fit_homi(scan), truth, ("V", "delta_omega", "tau_c"))


SPIKE = np.where(np.arange(241) == 120, 50.0, 0.0)


@pytest.mark.parametrize("counts", [np.zeros(241), SPIKE],
                         ids=["all_zero", "one_spike"])
def test_fit_without_beat_power_raises(counts):
    # no envelope can be measured; warnings are errors here, so this also
    # checks that the start divides by no zero width
    scan = HomScan(delays=DELAYS, counts=counts,
                   uncertainties=np.sqrt(np.maximum(counts, 1.0)))
    with pytest.raises(FitConvergenceError, match="nothing to fit"):
        fit_homi(scan)


ZERO_SIGMA_TRUTH = HomParams(N=1.0, V=0.9, delta_omega=2 * np.pi * 11e12,
                             tau_c=2e-12)


def test_fit_weights_nonpositive_sigma_by_poisson_rule():
    # at 8 pairs per point many counts are 0; written with sigma = sqrt(c)
    # those points carry sigma 0, which the fit used to weight by 1e12,
    # ending at V = 0 with NaN errors. The Poisson likelihood reads no
    # sigma, so the fit is that of the scan written with sqrt(max(c, 1)).
    # The weighted chi^2 that read sigma gave V = 0.916 +- 0.056 here.
    twin = synthesize_scan(ZERO_SIGMA_TRUTH, DELAYS, 8.0, rng_seed=0)
    assert np.any(twin.counts == 0.0)
    bare = HomScan(delays=DELAYS, counts=twin.counts,
                   uncertainties=np.sqrt(twin.counts))
    got, want = fit_homi(bare), fit_homi(twin)
    assert got.params() == want.params()
    assert np.array_equal(got.covariance, want.covariance)
    assert got.residual_norm == want.residual_norm
    assert want.V == pytest.approx(0.796, abs=1e-3)
    assert want.stderr["V"] == pytest.approx(0.062, abs=1e-3)


# The benchmark's analysis case that failed its 5-stderr check (seed 3002,
# case 216): a deep dip at 303 pairs per point, where weighting each point
# by its own count pushed V up (mean z +0.95 over such redraws)
DEEP_DIP = HomParams(N=1.0, V=0.9797755416009413,
                     delta_omega=2 * np.pi * 10.922730160284107e12,
                     tau_c=1.4138968727919696e-12,
                     tau_offset=-22.595921033348386e-15)
DEEP_DIP_DELAYS = np.linspace(-2.1208453091879544e-12,
                              2.1208453091879544e-12, 1044)


def z_of_visibility(truth, delays, pairs, draws, seed):
    """(V - truth) / stderr over ``draws`` seeded Poisson redraws, each fit
    started at the true shape (N from the fit's own start)."""
    rng = np.random.default_rng(seed)
    shape = {k: getattr(truth, k) for k in ("V", "delta_omega", "tau_c",
                                           "tau_offset")}
    z = []
    for _ in range(draws):
        scan = synthesize_scan(truth, delays, pairs,
                               rng_seed=int(rng.integers(2**31)))
        fit = fit_homi(scan, init=shape)
        z.append((fit.V - truth.V) / fit.stderr["V"])
    return np.array(z)


def test_visibility_stderr_covers_a_deep_low_count_dip():
    z = z_of_visibility(DEEP_DIP, DEEP_DIP_DELAYS, 302.81207369741804,
                        draws=100, seed=3002)
    assert abs(z.mean()) <= 0.3
    assert 0.8 <= z.std() <= 1.2
    assert np.max(np.abs(z)) <= 5.0


TWO_ADJACENT = np.where(np.arange(241) == 120, 50.0,
                        np.where(np.arange(241) == 121, 40.0, 0.0))


@pytest.mark.parametrize("sigma", ["poisson", "zero"])
def test_fit_with_singular_normal_matrix_raises(sigma):
    # two nonzero delays fix no envelope: J^T J at the optimum is singular,
    # and the fit used to return NaN errors flagged singular_covariance
    s = (np.sqrt(np.maximum(TWO_ADJACENT, 1.0)) if sigma == "poisson"
         else np.where(TWO_ADJACENT > 0.0, np.sqrt(TWO_ADJACENT), 0.0))
    scan = HomScan(delays=DELAYS, counts=TWO_ADJACENT, uncertainties=s)
    with pytest.raises(FitConvergenceError, match="singular") as exc:
        fit_homi(scan)
    assert set(exc.value.last_iterate) == set(asdict(TRUE))


@pytest.mark.parametrize("points", [2, 5])
def test_fit_needs_more_points_than_parameters(points):
    scan = exact_scan(delays=np.linspace(-1e-12, 1e-12, points))
    with pytest.raises(FitConvergenceError, match="5 model parameters"):
        fit_homi(scan)
    with pytest.raises(FitConvergenceError, match="5 model parameters"):
        fit_homi(scan, init=asdict(TRUE))


def test_fit_convergence_error_carries_state(monkeypatch):
    monkeypatch.setattr(hom, "_MAX_ITER", 1)
    scan = exact_scan()
    bad_init = {"N": 900.0, "V": 0.3, "delta_omega": 2 * np.pi * 10.0e12,
                "tau_c": 1.0e-12, "tau_offset": 0.5e-12}
    with pytest.raises(FitConvergenceError, match="in 1 iterations") as exc:
        fit_homi(scan, init=bad_init)
    last = exc.value.last_iterate
    assert set(last) == {"N", "V", "delta_omega", "tau_c", "tau_offset"}
    assert exc.value.residual > 0.0


def test_fit_init_variants():
    scan = exact_scan()
    with pytest.raises(ValueError, match="unknown init"):
        fit_homi(scan, init={"visibility": 0.9})
    for wrong in ("N", [], 0, TRUE):
        with pytest.raises(ValueError, match="'init' must be a dict"):
            fit_homi(scan, init=wrong)
    full = fit_homi(scan, init=asdict(TRUE))
    assert full.V == pytest.approx(0.934, abs=1e-8)
    # partial dict overrides only the named entry
    part = fit_homi(scan, init={"V": 0.5})
    assert part.init["V"] == 0.5
    assert part.V == pytest.approx(0.934, abs=1e-6)
    # V = 3 puts N/2 (1 - V cos(...)) below zero near the envelope centre
    with pytest.raises(FitConvergenceError, match="the start puts the model "
                       "rate at or below zero") as exc:
        fit_homi(scan, init={"V": 3.0})
    assert exc.value.last_iterate["V"] == 3.0


def test_fit_from_a_negative_delta_omega_reports_it_positive():
    # the curve is even in delta_omega, so a start of either sign may end
    # at -delta_omega; the fit reports its magnitude, as HomParams needs
    fit = fit_homi(exact_scan(), init={**asdict(TRUE),
                                       "delta_omega": -TRUE.delta_omega})
    assert fit.delta_omega == pytest.approx(TRUE.delta_omega, rel=1e-8)
    assert fit.params().delta_omega == fit.delta_omega


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


@pytest.mark.parametrize("field", ["delays", "counts", "uncertainties"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_scan_rejects_nonfinite_values_naming_the_field(field, bad):
    # a NaN count used to reach LAPACK ("SVD did not converge")
    values = {"delays": np.array([0.0, 1.0, 2.0]) * 1e-12,
              "counts": np.ones(3), "uncertainties": np.ones(3)}
    values[field][-1] = bad
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        HomScan(**values)


def test_params_validation():
    for n_rate in (0.0, -1.0):
        with pytest.raises(ValueError, match="N must be > 0"):
            HomParams(N=n_rate, V=0.5, delta_omega=1e13, tau_c=1e-12)
    with pytest.raises(ValueError):
        HomParams(N=1.0, V=1.2, delta_omega=1e13, tau_c=1e-12)
    with pytest.raises(ValueError):
        HomParams(N=1.0, V=0.5, delta_omega=1e13, tau_c=0.0)
    # the curve is even in delta_omega: a negative one could not be told
    # from its positive twin, and BiphotonState makes the same demand
    for dw in (0.0, -1e13):
        with pytest.raises(ValueError, match="delta_omega must be > 0"):
            HomParams(N=1.0, V=0.5, delta_omega=dw, tau_c=1e-12)
    # an infinite splitting (hom model --dw-thz 1e300) wrote NaN counts
    good = dict(N=1.0, V=0.5, delta_omega=1e13, tau_c=1e-12)
    for name in ("N", "delta_omega", "tau_c"):
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError,
                               match=f"{name} must be > 0 and finite"):
                HomParams(**{**good, name: bad})
    arr = TRUE.as_array()
    assert arr.tolist() == [TRUE.N, TRUE.V, TRUE.delta_omega, TRUE.tau_c,
                            TRUE.tau_offset]
