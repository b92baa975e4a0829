"""Spectral amplitudes and the two-bin reduction.

The dispersionless symmetric toy (conftest) is the exact oracle: both
processes peak at mirror frequencies, so the reduction must return p = 1/2,
V = 1 and phi equal to the closed-form design phase. Bundled-crystal numbers
are frozen regressions cross-checked against independent arithmetic.
"""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freqbin.biphoton import (BiphotonState, _group_index_mismatch,
                              joint_spectrum, reduce_to_bins,
                              segment_amplitude)
from freqbin.dispersion import group_index
from freqbin.errors import (BinReductionError, GridResolutionError,
                            PhysicalityError)
from freqbin.qpm import PolingSegment, TWO_PI

from conftest import PAIRINGS, design_crystal

C = 2.99792458e8


def _omega(lam):
    return TWO_PI * C / lam


# --- segment amplitude ------------------------------------------------------

def test_peak_magnitude_is_scale_times_length(const_crystal):
    lam_s = const_crystal.segments[0].period * 0.1    # closed-form root
    a = segment_amplitude(const_crystal, 0, _omega(lam_s))
    assert abs(a) == pytest.approx(const_crystal.segments[0].length,
                                   rel=1e-10)
    half = dataclasses.replace(
        const_crystal,
        segments=(PolingSegment(15.0e-6, 20e-3, amplitude_scale=0.5),))
    a2 = segment_amplitude(half, 0, _omega(lam_s))
    assert abs(a2) == pytest.approx(0.5 * abs(a), rel=1e-10)


def test_first_sinc_zero_closed_form(const_crystal):
    # dk L/2 = pi  ->  lam_s = dn / (1/Lambda + 1/L), everything in um
    lam_um, l_um = 15.0, 20e3
    lam_zero = 0.1 / (1.0 / lam_um + 1.0 / l_um)
    a = segment_amplitude(const_crystal, 0, _omega(lam_zero * 1e-6))
    assert abs(a) < 1e-10 * const_crystal.segments[0].length


def test_segment_amplitude_scalar_vs_vector(const_crystal):
    w = _omega(1.5e-6)
    scalar = segment_amplitude(const_crystal, 0, w)
    vec = segment_amplitude(const_crystal, 0, np.array([w, w * 1.001]))
    assert isinstance(scalar, complex)
    assert vec.shape == (2,)
    assert vec[0] == pytest.approx(scalar, rel=1e-12)


# --- joint spectrum ---------------------------------------------------------

def test_grid_symmetric_normalized(default_spec, default_state):
    sa = default_state.spectrum
    omega_p = _omega(775e-9)
    # exchange symmetry: omega + reversed(omega) = omega_p everywhere
    assert np.max(np.abs(omega_p - (sa.omega + sa.omega[::-1]))) < \
        1e-12 * omega_p
    mid = len(sa.omega) // 2
    assert sa.omega[mid] == pytest.approx(0.5 * omega_p, rel=1e-12)
    assert len(sa.omega) % 2 == 1
    assert np.sum(sa.intensity) * sa.d_omega == pytest.approx(1.0, rel=1e-9)
    # rows sum coherently to the total
    assert np.allclose(sa.per_segment.sum(axis=0), sa.total)
    assert sa.grid_meta["points_per_lobe"] >= 20.0
    assert sa.grid_meta["points"] == len(sa.omega)
    assert sa.grid_meta["omega_p_rad_s"] == pytest.approx(omega_p, rel=1e-15)
    # each segment's centre and group-index mismatch, from its solved pair;
    # the array evaluation equals dispersion's one-field group index
    for pt, (center, dng) in zip(sa.segment_points, sa.segment_geometry):
        assert center == pytest.approx(_omega(pt.signal_wavelength),
                                       rel=1e-15)
        assert dng == abs(
            group_index(default_spec.field(pt.idler_wavelength, pt.idler_pol),
                        default_spec.sellmeier_for(pt.idler_pol))
            - group_index(default_spec.field(pt.signal_wavelength,
                                             pt.signal_pol),
                          default_spec.sellmeier_for(pt.signal_pol)))


def test_grid_resolution_error(default_spec):
    with pytest.raises(GridResolutionError):
        joint_spectrum(default_spec, n_points=33)


@pytest.mark.parametrize("lobes", [0.0, -1.0, float("nan")])
def test_joint_spectrum_rejects_nonpositive_lobes(default_spec, lobes):
    # a margin at or below zero would cut the grid into the peaks
    with pytest.raises(ValueError, match="lobes must be positive"):
        joint_spectrum(default_spec, lobes=lobes)


@pytest.mark.parametrize("n_points", [16, 0, -7])
def test_joint_spectrum_rejects_fewer_than_17_points(default_spec, n_points):
    # such counts used to be raised to 17 without a word
    with pytest.raises(ValueError, match="n_points must be at least 17"):
        joint_spectrum(default_spec, n_points=n_points)


def test_single_segment_bandwidth(default_spec):
    single = dataclasses.replace(default_spec,
                                 segments=(default_spec.segments[0],))
    sa = joint_spectrum(single)
    inten = sa.intensity
    k = int(np.argmax(inten))
    half = 0.5 * inten[k]

    def cross(side):
        idx = k
        while inten[idx] > half:
            idx += side
        # linear interpolation to the half-max crossing
        f = (inten[idx - side] - half) / (inten[idx - side] - inten[idx])
        return sa.omega[idx - side] + f * (sa.omega[idx] - sa.omega[idx - side])

    width = abs(cross(+1) - cross(-1))
    lam_c = TWO_PI * C / sa.omega[k]
    fwhm_nm = width * lam_c ** 2 / (TWO_PI * C) * 1e9
    assert fwhm_nm == pytest.approx(1.3375, abs=0.01)
    assert 1.0 <= fwhm_nm <= 1.8


# --- two-bin reduction ------------------------------------------------------

def test_symmetric_toy_is_maximally_entangled(symmetric_toy):
    sa = joint_spectrum(symmetric_toy)
    st = reduce_to_bins(sa, symmetric_toy)
    assert st.p == pytest.approx(0.5, abs=1e-9)
    assert st.V >= 0.999999
    # closed-form design phase 2 pi (1/Lambda_1 - 1/Lambda_2) L_2 (mod 2 pi)
    s1, s2 = symmetric_toy.segments
    d = np.mod(TWO_PI * (1 / s1.period - 1 / s2.period) * s2.length, TWO_PI)
    wrap = min(abs(st.phi - d), TWO_PI - abs(st.phi - d))
    assert wrap < 1e-9
    # dispersionless bins sit exactly at the two design wavelengths
    assert st.bin_centers[0] == pytest.approx(_omega(1.5e-6), rel=1e-9)
    assert st.bin_centers[1] == pytest.approx(_omega(1.8e-6), rel=1e-9)


@pytest.mark.parametrize("pairing", [None, *sorted(PAIRINGS)])
@pytest.mark.parametrize("dt_c", [0.0, 3.0])
def test_phi_is_the_relative_phase_of_the_amplitudes(default_spec, pairing,
                                                     dt_c):
    # the closed form against its definition: the phase of segment lo's
    # amplitude less segment hi's, each at its phase-matched centre
    spec = default_spec if pairing is None else design_crystal(pairing)
    spec = dataclasses.replace(spec, temperature=spec.temperature + dt_c)
    st = reduce_to_bins(joint_spectrum(spec), spec)
    centers = [c for c, _ in st.spectrum.segment_geometry]
    hi = int(np.argmax(centers))
    amp_hi = segment_amplitude(spec, hi, centers[hi])
    amp_lo = segment_amplitude(spec, 1 - hi, centers[1 - hi])
    d = np.mod(np.angle(amp_lo) - np.angle(amp_hi) - st.phi, TWO_PI)
    assert min(d, TWO_PI - d) < 1e-9


def test_default_state_frozen_values(default_state):
    st = default_state
    assert st.p == pytest.approx(0.514373, abs=1e-4)
    assert st.V == pytest.approx(0.978439, abs=2e-4)
    assert st.phi == pytest.approx(0.384320, abs=1e-3)
    assert st.delta_omega / TWO_PI / 1e12 == pytest.approx(11.010367,
                                                           rel=1e-5)
    assert st.tau_c * 1e12 == pytest.approx(5.1682, abs=1e-3)
    assert st.compensation_delay * 1e12 == pytest.approx(-5.0853, abs=2e-3)


def test_default_bins_straddle_half_pump(default_state):
    w1, w2 = default_state.bin_centers
    assert w1 > w2
    assert w1 - w2 == pytest.approx(default_state.delta_omega, rel=1e-12)
    assert w1 + w2 == pytest.approx(_omega(775e-9), rel=1e-12)


def test_reduction_rejects_single_process(default_spec):
    single = dataclasses.replace(default_spec,
                                 segments=(default_spec.segments[0],))
    sa = joint_spectrum(single)
    with pytest.raises(BinReductionError, match="two"):
        reduce_to_bins(sa, default_spec)


def test_reduction_rejects_asymmetric_grid(default_spec, default_state):
    sa = default_state.spectrum
    skew = dataclasses.replace(sa, omega=sa.omega + 1e-4 * sa.omega[0])
    with pytest.raises(BinReductionError, match="symmetric"):
        reduce_to_bins(skew, default_spec)


def test_reduction_rejects_unresolved_bins(default_spec):
    close = dataclasses.replace(default_spec,
                                segments=(PolingSegment(9.370e-6, 20e-3),
                                          PolingSegment(9.372e-6, 20e-3)))
    sa = joint_spectrum(close)
    with pytest.raises(BinReductionError, match="unresolved"):
        reduce_to_bins(sa, close)


def test_reduction_stable_under_grid_refinement(default_spec, default_state):
    fine = reduce_to_bins(joint_spectrum(default_spec, n_points=8193),
                          default_spec)
    st = default_state
    assert abs(fine.p - st.p) < 1e-3
    assert abs(fine.V - st.V) < 1e-3
    assert abs(fine.phi - st.phi) < 1e-3
    # solver-derived quantities don't depend on the grid at all
    assert fine.delta_omega == pytest.approx(st.delta_omega, rel=1e-12)
    assert fine.tau_c == pytest.approx(st.tau_c, rel=1e-12)


def _overlap_setup(sa, spec):
    """(p, overlap magnitude as a function of delays, t_span), built from
    the reduction's definitions: the exchange overlap of the normalized
    segment amplitudes and the delay span set by the group-delay
    walk-off."""
    points = sa.segment_points
    centers = [TWO_PI * C / pt.signal_wavelength for pt in points]
    hi = int(np.argmax(centers))
    lo = 1 - hi
    omega_p = TWO_PI * C / spec.pump_wavelength
    d_om = sa.d_omega
    a_hi, a_lo = sa.per_segment[hi], sa.per_segment[lo]
    weight_hi = np.sum(np.abs(a_hi) ** 2) * d_om
    weight_lo = np.sum(np.abs(a_lo) ** 2) * d_om
    p = weight_hi / (weight_hi + weight_lo)
    cross = np.conj(a_hi) * a_lo[::-1] * d_om / np.sqrt(weight_hi * weight_lo)
    theta = 2.0 * sa.omega - omega_p

    def overlap_mag(tau):
        return np.abs(np.sum(cross * np.exp(1j * np.outer(
            np.atleast_1d(tau), theta)), axis=1))

    dng = _group_index_mismatch(spec, points)
    widths = [dng[j] * spec.segments[j].length / C for j in range(2)]
    t_span = 1.2 * (sum(widths) + abs(spec.segment_start(hi)
                                      - spec.segment_start(lo))
                    * max(dng) / C)
    return p, overlap_mag, t_span


def _reference_reduction(sa, spec, tau_scan_points=801):
    """(p, V, compensation delay) by the direct delay search: the overlap
    summed on a uniform grid of tau_scan_points delays over +-t_span (one
    block of delays at a time), then golden-section refinement."""
    p, overlap_mag, t_span = _overlap_setup(sa, spec)
    taus = np.linspace(-t_span, t_span, tau_scan_points)
    mags = np.concatenate([overlap_mag(block)
                           for block in np.array_split(taus, 16)])
    k = int(np.argmax(mags))
    a, b = taus[max(k - 1, 0)], taus[min(k + 1, len(taus) - 1)]
    gr = 0.5 * (np.sqrt(5.0) - 1.0)
    c1, c2 = b - gr * (b - a), a + gr * (b - a)
    f1, f2 = overlap_mag(c1)[0], overlap_mag(c2)[0]
    for _ in range(80):
        if f1 < f2:
            a, c1, f1 = c1, c2, f2
            c2 = a + gr * (b - a)
            f2 = overlap_mag(c2)[0]
        else:
            b, c2, f2 = c2, c1, f1
            c1 = b - gr * (b - a)
            f1 = overlap_mag(c1)[0]
    tau_star = 0.5 * (a + b)
    vis = 2.0 * np.sqrt(p * (1.0 - p)) * overlap_mag(tau_star)[0]
    return p, min(vis, 1.0), tau_star


@pytest.mark.parametrize("n_points", [4097, 8193])
def test_delay_search_matches_direct_scan(default_spec, n_points):
    specs = [default_spec] + [design_crystal(name) for name in PAIRINGS]
    for spec in specs:
        sa = joint_spectrum(spec, n_points=n_points)
        state = reduce_to_bins(sa, spec)
        p, vis, tau_star = _reference_reduction(sa, spec)
        assert state.p == pytest.approx(p, rel=1e-14, abs=0.0), spec.name
        assert state.V == pytest.approx(vis, rel=1e-12, abs=0.0), spec.name
        assert state.compensation_delay == pytest.approx(
            tau_star, rel=1e-7, abs=0.0), spec.name


@settings(max_examples=8)
@given(pairing=st.sampled_from(sorted(PAIRINGS)),
       t0_c=st.floats(50.0, 170.0), signal_um=st.floats(1.49, 1.53),
       length_mm=st.floats(10.0, 30.0))
def test_delay_search_matches_direct_scan_on_generated_crystals(
        pairing, t0_c, signal_um, length_mm):
    spec = design_crystal(pairing, t0_c=t0_c, signal_um=signal_um,
                          length_mm=length_mm)
    sa = joint_spectrum(spec, n_points=4097)
    state = reduce_to_bins(sa, spec)
    p, vis, tau_star = _reference_reduction(sa, spec)
    # abs=0: pytest.approx's default abs=1e-12 would pass any delay to 1 ps
    assert state.p == pytest.approx(p, rel=1e-14, abs=0.0)
    assert state.V == pytest.approx(vis, rel=1e-12, abs=0.0)
    assert state.compensation_delay == pytest.approx(tau_star, rel=1e-7,
                                                     abs=0.0)


def test_delay_peak_beyond_span_keeps_edge_sample(default_spec,
                                                  default_state):
    """A linear spectral phase e^{i omega T} on one segment moves the
    overlap peak by T/2. Moved past +t_span, the overlap has no maximum
    between the FFT's last two delays in the span (its slope does not turn
    from rising to falling there), so the search keeps the edge sample."""
    sa = default_state.spectrum
    _, _, t_span = _overlap_setup(sa, default_spec)
    shift = 2.0 * (t_span + default_state.tau_c
                   - default_state.compensation_delay)
    per = sa.per_segment.copy()
    per[0] = per[0] * np.exp(1j * sa.omega * shift)
    moved = dataclasses.replace(sa, per_segment=per)
    state = reduce_to_bins(moved, default_spec)
    p, overlap_mag, _ = _overlap_setup(moved, default_spec)
    delay = state.compensation_delay
    assert all(np.isfinite([state.p, state.V, state.phi, delay]))
    assert abs(delay) <= t_span
    # the last of the FFT's delays pi k / (size d_om) inside the span
    size = 2 ** int(np.ceil(np.log2(len(sa.omega))))
    step = np.pi / (size * sa.d_omega)
    assert delay == pytest.approx(np.floor(t_span / step) * step,
                                  rel=1e-12, abs=0.0)
    assert state.V == pytest.approx(
        2.0 * np.sqrt(p * (1.0 - p)) * overlap_mag(delay)[0], rel=1e-12,
        abs=0.0)


def test_intensity_stable_under_grid_refinement(default_spec, default_state):
    coarse = default_state.spectrum
    fine = joint_spectrum(default_spec, n_points=2 * (len(coarse.omega) - 1)
                          + 1)
    # halved step: every other fine point lands exactly on a coarse point
    assert np.array_equal(fine.omega[::2], coarse.omega)
    ic = coarse.intensity / coarse.intensity.max()
    i_f = fine.intensity[::2] / fine.intensity.max()
    assert np.max(np.abs(ic - i_f)) < 1e-3


# --- state validation -------------------------------------------------------

def test_biphoton_state_physicality():
    ok = BiphotonState(p=0.5, V=1.0, phi=0.0, delta_omega=1e12, tau_c=1e-12,
                       bin_centers=(2.0, 1.0))
    assert ok.V == 1.0
    with pytest.raises(PhysicalityError):
        BiphotonState(p=1.2, V=0.5, phi=0.0, delta_omega=1e12, tau_c=1e-12,
                      bin_centers=(2.0, 1.0))
    with pytest.raises(PhysicalityError):
        # V above the 2 sqrt(p(1-p)) Cauchy-Schwarz cap
        BiphotonState(p=0.99, V=0.9, phi=0.0, delta_omega=1e12, tau_c=1e-12,
                      bin_centers=(2.0, 1.0))
    with pytest.raises(PhysicalityError):
        BiphotonState(p=0.5, V=0.9, phi=0.0, delta_omega=-1.0, tau_c=1e-12,
                      bin_centers=(2.0, 1.0))
    with pytest.raises(PhysicalityError):
        BiphotonState(p=0.5, V=0.9, phi=0.0, delta_omega=1e12, tau_c=0.0,
                      bin_centers=(2.0, 1.0))
