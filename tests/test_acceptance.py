"""Release acceptance gate: eleven criteria, one test (and one line) each.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
pass/fail lines, add ``-s`` for the numeric detail each test prints.
Frozen targets come from closed-form oracles or independent numerics; the
two documented model-vs-measurement differences (bandwidth rectangle model,
47 fs interference level) are asserted as bounded differences, not hidden.
"""
import dataclasses
import time

import numpy as np
import pytest

from freqbin.biphoton import joint_spectrum, reduce_to_bins
from freqbin.entanglement import (Domain, DensityMatrix, POL_BASIS,
                                  concurrence, fidelity, ideal_state,
                                  load_projectors, mle_tomography,
                                  mode_convert, rho_freq, simulate_counts,
                                  trace_distance)
from freqbin.hom import HomParams, HomScan, fit_homi, homi_rate, synthesize_scan
from freqbin.qpm import TWO_PI, solve_period, solve_signal_idler

C = 2.99792458e8
PARAM_NAMES = ("N", "V", "delta_omega", "tau_c", "tau_offset")


def test_criterion_01_qpm_design_round_trip(default_spec):
    """solve_period inverts solve_signal_idler for both gratings, fast."""
    spec120 = dataclasses.replace(default_spec, temperature=120.0)
    t0 = time.perf_counter()
    for j, lam_um in ((0, 9.25), (1, 9.50)):
        assert spec120.segments[j].period == pytest.approx(lam_um * 1e-6,
                                                           rel=1e-12)
        pt = solve_signal_idler(spec120, j)
        back = solve_period(spec120, pt)
        rel = abs(back - spec120.segments[j].period) / (lam_um * 1e-6)
        print(f"segment {j}: {lam_um} um -> "
              f"({pt.signal_wavelength*1e9:.4f}, "
              f"{pt.idler_wavelength*1e9:.4f}) nm -> "
              f"{back*1e6:.6f} um (rel err {rel:.1e})")
        assert rel < 1e-4
    elapsed = time.perf_counter() - t0
    print(f"round-trip time {elapsed*1e3:.1f} ms")
    assert elapsed < 1.0


def test_criterion_02_operating_point_wavelengths(default_spec):
    """9.25 um at 120 C emits near 1506/1594 nm; the two gratings emit the
    same pair with polarizations exchanged at the shipped temperature."""
    spec120 = dataclasses.replace(default_spec, temperature=120.0)
    for j in range(2):
        pt = solve_signal_idler(spec120, j)
        short, long_ = sorted((pt.signal_wavelength * 1e9,
                               pt.idler_wavelength * 1e9))
        print(f"120 C, segment {j}: ({short:.3f}, {long_:.3f}) nm")
        assert abs(short - 1506.0) < 15.0
        assert abs(long_ - 1594.0) < 15.0
    a = solve_signal_idler(default_spec, 0)
    b = solve_signal_idler(default_spec, 1)
    # the H photon is the short wavelength in one process and the long in
    # the other: same pair, polarizations exchanged
    da = abs(a.signal_wavelength - b.idler_wavelength) * 1e9
    db = abs(a.idler_wavelength - b.signal_wavelength) * 1e9
    print(f"{default_spec.temperature:.3f} C: pair coincidence to "
          f"({da:.2e}, {db:.2e}) nm")
    assert da < 1e-4 and db < 1e-4


def test_criterion_03_bin_separation(default_state):
    """Bin splitting from the solved peaks sits in the 10.5-12.0 THz band."""
    thz = default_state.delta_omega / TWO_PI / 1e12
    print(f"delta_omega / 2 pi = {thz:.6f} THz")
    assert 10.5 <= thz <= 12.0
    assert thz == pytest.approx(11.010367, rel=1e-5)


def test_criterion_04_interference_point_checks():
    """Zero-delay level (1-V)/2 and the flat N/2 floor outside the envelope."""
    p = HomParams(N=1.0, V=0.934, delta_omega=TWO_PI * 11.5e12,
                  tau_c=2.40e-12, tau_offset=0.0)
    i0 = float(homi_rate(p, 0.0))
    print(f"I(0)/N = {i0:.6f} (measured 0.034 +/- 0.006)")
    assert i0 == pytest.approx((1.0 - 0.934) / 2.0, abs=1e-15)
    assert i0 == pytest.approx(0.033, abs=1e-12)
    assert abs(i0 - 0.034) < 0.006
    for tau in (1.5 * p.tau_c, 3.0e-12, -2.5e-12):
        assert float(homi_rate(p, tau)) == 0.5


def test_criterion_05_fit_closed_loop():
    """Noiseless recovery to 1e-6; 100-seed Poisson study unbiased within
    3 standard errors of an estimate."""
    t0 = time.perf_counter()
    delays = np.linspace(-3e-12, 3e-12, 241)
    truth = HomParams(N=4000.0, V=0.934, delta_omega=TWO_PI * 11.5e12,
                      tau_c=2.40e-12, tau_offset=0.0)
    exact_counts = homi_rate(truth, delays)
    exact = HomScan(delays=delays, counts=exact_counts,
                    uncertainties=np.sqrt(np.maximum(exact_counts, 1.0)))
    fit = fit_homi(exact)
    assert fit.N == pytest.approx(truth.N, rel=1e-6)
    assert fit.V == pytest.approx(truth.V, rel=1e-6)
    assert fit.delta_omega == pytest.approx(truth.delta_omega, rel=1e-6)
    assert fit.tau_c == pytest.approx(truth.tau_c, rel=1e-6)
    assert abs(fit.tau_offset) < 1e-18
    print("noiseless recovery at 1e-6 relative: ok")

    # Poisson ensemble: synthesize at 2000 pairs/point (flat level 2 x 2000)
    synth = dataclasses.replace(truth, N=1.0)
    est = np.empty((100, 5))
    rep = np.empty((100, 5))
    for k in range(100):
        scan = synthesize_scan(synth, delays, 2000.0, rng_seed=1000 + k)
        f = fit_homi(scan)
        est[k] = f.params().as_array()
        rep[k] = [f.stderr[n] for n in PARAM_NAMES]
    tvec = truth.as_array()
    bias = est.mean(axis=0) - tvec
    se_est = rep.mean(axis=0)              # a single measurement's precision
    z_mean = bias / (est.std(axis=0, ddof=1) / 10.0)
    for n, b, s, z in zip(PARAM_NAMES, bias, se_est, z_mean):
        print(f"  {n:12s} bias {b:+.3e} = {b/s:+.3f} stderr "
              f"(ensemble z {z:+.2f})")
        # gauged by one measurement's precision: the Poisson fit's 100-seed
        # mean biases lie within 0.2 stderr here (tau_c's is the largest,
        # +0.18, which the ensemble resolves at z ~ +2)
        assert abs(b) < 3.0 * s
    elapsed = time.perf_counter() - t0
    print(f"criterion-5 runtime {elapsed:.1f} s")
    assert elapsed < 60.0


def test_criterion_06_bandwidth_consistency(default_state):
    """Rectangle-model Fourier conversion of tau_c = 2.40 ps, checked
    against an independent FFT, then compared with the 1.47 +/- 0.11 nm
    figure: the mismatch is real and reported here, not hidden."""
    half = 1.39155737825151          # sinc^2(x) = 1/2
    assert np.sinc(half / np.pi) ** 2 == pytest.approx(0.5, abs=1e-12)
    tau_c = 2.40e-12
    dnu = 2.0 * half / (np.pi * tau_c)

    # FFT cross-check of the analytic sinc^2 width
    n, dt = 1 << 20, tau_c / 4096.0
    field = np.zeros(n)
    field[: int(round(tau_c / dt))] = 1.0
    spec = np.abs(np.fft.rfft(field)) ** 2
    freq = np.fft.rfftfreq(n, dt)
    top = spec[0]
    k = int(np.argmax(spec < 0.5 * top))
    f_half = np.interp(0.5 * top, [spec[k], spec[k - 1]],
                       [freq[k], freq[k - 1]])
    assert 2.0 * f_half == pytest.approx(dnu, rel=1e-3)

    dlam_nm = (1550e-9) ** 2 * dnu / C * 1e9
    print(f"rect(2.40 ps) -> {dnu/1e12:.6f} THz -> {dlam_nm:.6f} nm at "
          f"1550 nm")
    assert dlam_nm == pytest.approx(2.958099, abs=0.01)
    # the quoted 1.47 +/- 0.11 nm is NOT consistent with the rectangle
    # model (ratio ~2); the discrepancy is asserted and reported
    assert abs(dlam_nm - 1.47) > 0.11
    print(f"documented discrepancy: {dlam_nm:.2f} nm vs quoted "
          f"1.47 +/- 0.11 nm (ratio {dlam_nm/1.47:.2f}) — the quoted "
          f"bandwidth matches a ~4.8 ps rectangle instead")

    # the model chain is self-consistent: its own width implies a
    # bandwidth inside the 1.4 +/- 0.4 nm source artifact
    own = (1550e-9) ** 2 * (2.0 * half / (np.pi * default_state.tau_c)) / C
    print(f"model tau_c {default_state.tau_c*1e12:.3f} ps -> "
          f"{own*1e9:.3f} nm")
    assert 1.0 <= own * 1e9 <= 1.8


def test_criterion_07_metric_identities():
    """F = (1+V)/2 and C = V over 10^4 random valid states."""
    rng = np.random.default_rng(7)
    n = 10_000
    p = rng.uniform(0.02, 0.98, n)
    vmax = 2.0 * np.sqrt(p * (1.0 - p))
    v = rng.uniform(0.0, 1.0, n) * np.minimum(vmax, 1.0) * 0.999
    phi = rng.uniform(0.0, TWO_PI, n)
    err_f = err_c = 0.0
    target = ideal_state(0.0)
    for pk, vk, fk in zip(p, v, phi):
        err_c = max(err_c, abs(concurrence(rho_freq(pk, vk, fk)) - vk))
        err_f = max(err_f, abs(fidelity(rho_freq(0.5, vk, 0.0), target)
                               - (1.0 + vk) / 2.0))
    print(f"max |C - V| = {err_c:.2e}, max |F - (1+V)/2| = {err_f:.2e} "
          f"over {n} states")
    assert err_c < 1e-10 and err_f < 1e-10
    wp = rho_freq(0.516, 0.934, 0.0)
    assert fidelity(wp, target) == pytest.approx(0.967, abs=1e-12)
    assert concurrence(wp) == pytest.approx(0.934, abs=1e-12)


def test_criterion_08_delay_table_chain():
    """(I/N, phi, F, C) at 0, 47, -20 fs; the 47 fs level difference is a
    bounded, documented one."""
    p, v = 0.516, 0.934
    dw, tau_c = TWO_PI * 11.5e12, 2.40e-12
    hom = HomParams(N=1.0, V=v, delta_omega=dw, tau_c=tau_c, tau_offset=0.0)
    rows = {}
    for tau_fs in (0.0, 47.0, -20.0):
        tau = tau_fs * 1e-15
        phase = float(np.mod(dw * tau, TWO_PI))
        rho = mode_convert(rho_freq(p, v, 0.0), tau, dw)
        f = fidelity(rho, ideal_state(phase, domain=Domain.POLARIZATION))
        c = concurrence(rho)
        rows[tau_fs] = (float(homi_rate(hom, tau)), phase, f, c)
        print(f"tau {tau_fs:+5.0f} fs: I/N {rows[tau_fs][0]:.6f}, "
              f"phi {phase/np.pi:.4f} pi, F {f:.4f}, C {c:.4f}")

    assert rows[0.0][0] == pytest.approx(0.033, abs=1e-12)
    assert abs(rows[0.0][0] - 0.034) <= 0.006
    assert rows[-20.0][1] / np.pi == pytest.approx(1.54, abs=0.005)
    # 47 fs: model 0.9431 vs measured 0.972 +/- 0.033 — a known ~0.03
    # difference, asserted as bounded rather than called a failure
    assert rows[47.0][0] == pytest.approx(0.943110, abs=1e-6)
    assert abs(rows[47.0][0] - 0.972) < 0.033
    print(f"47 fs documented difference: model {rows[47.0][0]:.4f} vs "
          f"0.972 +/- 0.033 (|diff| {abs(rows[47.0][0]-0.972):.4f})")
    for tau_fs in rows:
        assert rows[tau_fs][2] == pytest.approx((1.0 + v) / 2.0, abs=1e-12)
        assert rows[tau_fs][3] == pytest.approx(v, abs=1e-12)


def test_criterion_09_tomography_recovery():
    """Noiseless MLE to trace distance < 1e-4 on random states of every
    rank; Poisson scatter within 3x the quoted uncertainties."""
    t0 = time.perf_counter()
    james = load_projectors("james16")
    rng = np.random.default_rng(2024)
    worst = 0.0
    for k in range(12):
        r = 1 + k % 4
        a = rng.normal(size=(4, r)) + 1j * rng.normal(size=(4, r))
        m = a @ a.conj().T
        rho = DensityMatrix(m / np.trace(m).real, POL_BASIS)
        rec = mle_tomography(simulate_counts(rho, james, 4000.0,
                                             rng_seed=None))
        worst = max(worst, trace_distance(rec, rho))
    print(f"noiseless MLE worst trace distance {worst:.2e} (12 states, "
          f"ranks 1-4)")
    assert worst < 1e-4

    truth = mode_convert(rho_freq(0.516, 0.934, 0.0), 0.0, 1.0)
    target = ideal_state(0.0, domain=Domain.POLARIZATION)
    fs, cs = np.empty(100), np.empty(100)
    for seed in range(100):
        rec = mle_tomography(simulate_counts(truth, james, 4000.0,
                                             rng_seed=seed))
        fs[seed] = fidelity(rec, target)
        cs[seed] = concurrence(rec)
    sf, sc = fs.std(ddof=1), cs.std(ddof=1)
    bf, bc = fs.mean() - 0.967, cs.mean() - 0.934
    print(f"100-seed Poisson: std F {sf:.4f} (< {3*0.018:.3f}), "
          f"std C {sc:.4f} (< {3*0.036:.3f}); "
          f"mean bias F {bf:+.4f}, C {bc:+.4f}")
    assert sf < 3.0 * 0.018
    assert sc < 3.0 * 0.036
    assert abs(bf) < 0.06 and abs(bc) < 0.06
    elapsed = time.perf_counter() - t0
    print(f"criterion-9 runtime {elapsed:.1f} s")
    assert elapsed < 120.0


def test_criterion_10_physicality_suite():
    """Hermiticity, unit trace and positivity for every matrix the
    pipeline produces; mode_convert preserves spectrum and concurrence."""
    rng = np.random.default_rng(10)

    def check(rho):
        m = rho.elements
        assert np.max(np.abs(m - m.conj().T)) <= 1e-12
        assert abs(np.trace(m).real - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(m).min() >= -1e-10

    produced = [rho_freq(0.5, 1.0, 0.0), rho_freq(0.5, 1.0, np.pi),
                ideal_state(1.23).projector(),
                ideal_state(0.4, domain=Domain.POLARIZATION).projector()]
    for _ in range(200):
        p = rng.uniform(0.02, 0.98)
        v = rng.uniform(0.0, 1.0) * 2.0 * np.sqrt(p * (1 - p)) * 0.999
        rho = rho_freq(p, v, rng.uniform(0, TWO_PI))
        produced += [rho, mode_convert(rho, rng.normal() * 1e-13,
                                       TWO_PI * 11.5e12)]
    james = load_projectors("james16")
    truth = mode_convert(rho_freq(0.516, 0.934, 0.0), 0.0, 1.0)
    for seed in (1, 2, 3):
        produced.append(mle_tomography(
            simulate_counts(truth, james, 4000.0, rng_seed=seed)))
    for rho in produced:
        check(rho)
    print(f"{len(produced)} matrices pass hermiticity/trace/PSD")

    worst_eig = worst_c = 0.0
    for _ in range(40):
        p = rng.uniform(0.05, 0.95)
        v = rng.uniform(0.0, 1.0) * 2.0 * np.sqrt(p * (1 - p)) * 0.999
        rho = rho_freq(p, v, rng.uniform(0, TWO_PI))
        out = mode_convert(rho, rng.normal() * 2e-13, TWO_PI * 11.5e12)
        worst_eig = max(worst_eig, np.max(np.abs(
            np.linalg.eigvalsh(out.elements)
            - np.linalg.eigvalsh(rho.elements))))
        worst_c = max(worst_c, abs(concurrence(out) - concurrence(rho)))
    print(f"mode_convert invariance: eigenvalues {worst_eig:.2e}, "
          f"concurrence {worst_c:.2e}")
    assert worst_eig < 1e-12 and worst_c < 1e-12


def test_criterion_11_intrinsic_visibility_bound(default_spec,
                                                 default_state):
    """Group-delay walk-off bounds the intrinsic visibility below 1; the
    value is dispersion-model dependent, so the 0.954 figure gets a wide
    band."""
    v = default_state.V
    print(f"intrinsic V = {v:.6f} (model prediction 0.954, "
          f"dispersion-model dependent)")
    assert v <= 1.0
    assert v < 1.0                      # strict deficit from walk-off
    assert abs(v - 0.954) <= 0.03
    # the deficit is the mismatch of the two processes' triangular
    # envelopes; a narrower grid must reproduce it (not a grid artifact)
    sa = joint_spectrum(default_spec, n_points=2049)
    again = reduce_to_bins(sa, default_spec)
    assert again.V == pytest.approx(v, abs=1e-3)
