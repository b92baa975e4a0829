"""Spectral amplitudes, the two-bin reduction, and ideal n-bin states.

The dispersionless symmetric toy (conftest) is the exact oracle: both
processes peak at mirror frequencies, so the reduction must return p = 1/2,
V = 1 and phi equal to the closed-form design phase. Bundled-crystal numbers
are frozen regressions cross-checked against independent arithmetic.
"""
import dataclasses

import numpy as np
import pytest

from freqbin.biphoton import (BiphotonState, _group_index_mismatch,
                              design_phase, joint_spectrum, n_mode_state,
                              reduce_to_bins, segment_amplitude)
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


# --- design phase -----------------------------------------------------------

def test_design_phase_closed_form(default_spec):
    s1, s2 = default_spec.segments
    expected = np.mod(TWO_PI * (1 / s1.period - 1 / s2.period) * s2.length,
                      TWO_PI)
    assert design_phase(default_spec) == pytest.approx(expected, abs=1e-12)
    assert design_phase(default_spec) == pytest.approx(5.648610, abs=1e-5)
    rev = design_phase(default_spec, first=1, second=0)
    assert 0.0 <= rev < TWO_PI


# --- joint spectrum ---------------------------------------------------------

def test_grid_symmetric_normalized(default_state):
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


def test_grid_resolution_error(default_spec):
    with pytest.raises(GridResolutionError):
        joint_spectrum(default_spec, n_points=33)


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
    d = design_phase(symmetric_toy)
    wrap = min(abs(st.phi - d), TWO_PI - abs(st.phi - d))
    assert wrap < 1e-9
    # dispersionless bins sit exactly at the two design wavelengths
    assert st.bin_centers[0] == pytest.approx(_omega(1.5e-6), rel=1e-9)
    assert st.bin_centers[1] == pytest.approx(_omega(1.8e-6), rel=1e-9)


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


def _reference_reduction(sa, spec, tau_scan_points=801):
    """(p, V, compensation delay) by the direct delay search: the overlap
    summed on a uniform grid of tau_scan_points delays over +-t_span (one
    block of delays at a time), then golden-section refinement."""
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

    dng = [_group_index_mismatch(spec, pt) for pt in points]
    widths = [dng[j] * spec.segments[j].length / C for j in range(2)]
    t_span = 1.2 * (sum(widths) + abs(spec.segment_start(hi)
                                      - spec.segment_start(lo))
                    * max(dng) / C)
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
        assert state.p == pytest.approx(p, rel=1e-14), spec.name
        assert state.V == pytest.approx(vis, rel=1e-12), spec.name
        assert state.compensation_delay == pytest.approx(tau_star,
                                                         rel=1e-7), spec.name


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


# --- n-mode descriptor ------------------------------------------------------

def test_two_mode_default_is_bell_like():
    w2, w1 = _omega(1.6e-6), _omega(1.5e-6)
    st = n_mode_state([w2, w1]).as_biphoton()
    assert st.p == pytest.approx(0.5, abs=1e-12)
    assert st.V == pytest.approx(1.0, abs=1e-12)
    assert st.phi == 0.0
    assert st.delta_omega == pytest.approx(w1 - w2, rel=1e-12)
    assert st.bin_centers == (w1, w2)


def test_two_mode_amplitude_phase():
    st = n_mode_state([1.0, 2.0], amplitudes=[1.0, 1.0j]).as_biphoton()
    assert st.p == pytest.approx(0.5, abs=1e-12)
    assert st.V == pytest.approx(1.0, abs=1e-12)
    assert st.phi == pytest.approx(1.5 * np.pi, abs=1e-12)


def test_three_mode_structure():
    st = n_mode_state([1.0, 2.0, 3.5])
    assert st.n == 3
    assert st.pairing == ((0, 2), (1, 1), (2, 0))
    for a in st.amplitudes:
        assert abs(a) == pytest.approx(1 / np.sqrt(3), rel=1e-12)
    with pytest.raises(ValueError):
        st.as_biphoton()


def test_n_mode_normalization_and_validation():
    st = n_mode_state([1.0, 2.0, 3.0], amplitudes=[1.0, 1.0, 2.0])
    assert sum(abs(a) ** 2 for a in st.amplitudes) == pytest.approx(1.0,
                                                                    rel=1e-12)
    assert abs(st.amplitudes[2]) ** 2 == pytest.approx(4.0 / 6.0, rel=1e-12)
    with pytest.raises(ValueError):
        n_mode_state([1.0])
    with pytest.raises(ValueError):
        n_mode_state([2.0, 1.0])
    with pytest.raises(ValueError):
        n_mode_state([1.0, 1.0])
    with pytest.raises(ValueError):
        n_mode_state([1.0, 2.0], amplitudes=[1.0])
