"""Two-qubit metrics, mode conversion, and maximum-likelihood tomography.

The X-structured family rho(p, V, phi) has closed-form metrics: fidelity to
the phase-matched Bell state is (1 + V)/2 regardless of p, and concurrence
equals V exactly. Those identities anchor the randomized checks here.
"""
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freqbin.entanglement import (FREQ_BASIS, POL_BASIS, DensityMatrix,
                                  Domain, StateVector, TomographyDataset,
                                  TomographyResult, concurrence, fidelity,
                                  ideal_state, load_projectors,
                                  mle_tomography, mode_convert, p_from_counts,
                                  rho_freq, simulate_counts, trace_distance)
from freqbin.errors import (BasisMismatchError, PhysicalityError,
                            TomographyDataError)

TWO_PI = 2.0 * np.pi


def random_rho(rng, basis=FREQ_BASIS):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m).real, basis)


# --- states and validation --------------------------------------------------

def test_bell_state_matches_x_family_extreme():
    proj = ideal_state(0.0).projector()
    rho = rho_freq(0.5, 1.0, 0.0)
    assert np.allclose(proj.elements, rho.elements, atol=1e-15)
    assert proj.basis_labels == FREQ_BASIS


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(3) / 3.0, FREQ_BASIS)
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(4) / 4.0, ("a", "b", "c"))
    bad_herm = np.eye(4, dtype=complex) / 4.0
    bad_herm[0, 1] = 0.1
    with pytest.raises(PhysicalityError, match="Hermitian"):
        DensityMatrix(bad_herm, FREQ_BASIS)
    with pytest.raises(PhysicalityError, match="trace"):
        DensityMatrix(np.eye(4) / 2.0, FREQ_BASIS)
    with pytest.raises(PhysicalityError, match="eigenvalue"):
        DensityMatrix(np.diag([0.6, 0.6, -0.2, 0.0]), FREQ_BASIS)


def test_density_matrix_accessors():
    rho = rho_freq(0.516, 0.934, 0.3)
    assert rho.purity == pytest.approx(
        0.516 ** 2 + 0.484 ** 2 + 2 * (0.934 / 2) ** 2, rel=1e-12)
    assert rho.eigenvalues.sum() == pytest.approx(1.0, abs=1e-12)
    back = DensityMatrix.from_json_dict(rho.to_json_dict())
    assert np.allclose(back.elements, rho.elements, atol=1e-15)
    assert back.basis_labels == rho.basis_labels


def test_state_vector_validation():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0, 0.0, 0.0]), FREQ_BASIS)
    with pytest.raises(ValueError):
        StateVector(np.ones(3) / np.sqrt(3), FREQ_BASIS)


def test_rho_freq_bounds():
    with pytest.raises(PhysicalityError):
        rho_freq(1.2, 0.0, 0.0)
    with pytest.raises(PhysicalityError):
        rho_freq(0.9, 0.7, 0.0)     # V above 2 sqrt(p(1-p)) = 0.6
    edge = rho_freq(0.5, 1.0, 1.0)  # exactly saturating is fine
    assert concurrence(edge) == pytest.approx(1.0, abs=1e-12)


# --- metric identities ------------------------------------------------------

def test_fidelity_identity_exact():
    rng = np.random.default_rng(12)
    for _ in range(300):
        p = rng.uniform(0.0, 1.0)
        v = rng.uniform(0.0, 2.0 * np.sqrt(p * (1.0 - p)))
        phi = rng.uniform(0.0, TWO_PI)
        f = fidelity(rho_freq(p, v, phi), ideal_state(phi))
        assert abs(f - 0.5 * (1.0 + v)) < 1e-12


def test_concurrence_equals_v_exact():
    rng = np.random.default_rng(13)
    for _ in range(2000):
        p = rng.uniform(0.0, 1.0)
        v = rng.uniform(0.0, 2.0 * np.sqrt(p * (1.0 - p)))
        phi = rng.uniform(0.0, TWO_PI)
        assert abs(concurrence(rho_freq(p, v, phi)) - v) < 1e-10


def test_metric_reference_points():
    bell = ideal_state(0.0).projector()
    assert fidelity(bell, ideal_state(0.0)) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(bell, ideal_state(np.pi)) == pytest.approx(0.0,
                                                              abs=1e-12)
    assert concurrence(bell) == pytest.approx(1.0, abs=1e-12)
    mixed = DensityMatrix(np.eye(4) / 4.0, FREQ_BASIS)
    assert fidelity(mixed, ideal_state(0.0)) == pytest.approx(0.25,
                                                              abs=1e-12)
    assert concurrence(mixed) == 0.0
    # headline working point
    assert fidelity(rho_freq(0.516, 0.934, 0.0),
                    ideal_state(0.0)) == pytest.approx(0.967, abs=1e-12)


def test_fidelity_basis_mismatch():
    with pytest.raises(BasisMismatchError):
        fidelity(rho_freq(0.5, 1.0, 0.0),
                 ideal_state(0.0, domain=Domain.POLARIZATION))


def test_trace_distance_cases():
    a = rho_freq(0.5, 1.0, 0.0)
    assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-12)
    b = ideal_state(np.pi).projector()
    assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)
    c = rho_freq(0.5, 0.9, 0.0)
    assert trace_distance(a, c) == pytest.approx(0.05, abs=1e-12)
    with pytest.raises(BasisMismatchError):
        trace_distance(a, DensityMatrix(np.eye(4) / 4.0, POL_BASIS))


# --- mode conversion --------------------------------------------------------

def test_mode_convert_phase_shift():
    dw = TWO_PI * 11.5e12
    rho = mode_convert(rho_freq(0.516, 0.934, 0.0), tau=-20e-15,
                       delta_omega=dw)
    assert rho.basis_labels == POL_BASIS
    phase = np.mod(np.angle(rho.elements[2, 1]), TWO_PI)
    assert phase / np.pi == pytest.approx(1.5400, abs=1e-4)
    assert abs(rho.elements[2, 1]) == pytest.approx(0.934 / 2, abs=1e-12)


def test_mode_convert_preserves_spectrum_and_concurrence():
    rng = np.random.default_rng(21)
    for _ in range(20):
        rho = random_rho(rng)
        out = mode_convert(rho, tau=rng.uniform(-1e-12, 1e-12),
                           delta_omega=rng.uniform(1e12, 1e14))
        assert np.max(np.abs(np.sort(out.eigenvalues)
                             - np.sort(rho.eigenvalues))) < 1e-12
        assert abs(concurrence(out) - concurrence(rho)) < 1e-12


def test_mode_convert_zero_delay_is_relabeling():
    rho = rho_freq(0.516, 0.934, 0.3)
    out = mode_convert(rho, tau=0.0, delta_omega=TWO_PI * 11.5e12)
    assert np.allclose(out.elements, rho.elements, atol=1e-15)
    assert out.basis_labels == POL_BASIS


def test_mode_convert_state_vector():
    dw = TWO_PI * 11.5e12
    tau = 37e-15
    out = mode_convert(ideal_state(0.0), tau=tau, delta_omega=dw)
    assert isinstance(out, StateVector)
    assert out.basis_labels == POL_BASIS
    target = ideal_state(np.mod(dw * tau, TWO_PI),
                         domain=Domain.POLARIZATION)
    assert fidelity(out.projector(), target) == pytest.approx(1.0,
                                                              abs=1e-12)


def test_mode_convert_input_validation():
    pol = DensityMatrix(np.eye(4) / 4.0, POL_BASIS)
    with pytest.raises(BasisMismatchError):
        mode_convert(pol, tau=0.0, delta_omega=1e13)
    with pytest.raises(BasisMismatchError):
        mode_convert(ideal_state(0.0, domain=Domain.POLARIZATION),
                     tau=0.0, delta_omega=1e13)
    with pytest.raises(TypeError):
        mode_convert(np.eye(4) / 4.0, tau=0.0, delta_omega=1e13)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(p=st.floats(0.0, 1.0), v_frac=st.floats(0.0, 1.0),
       phi=st.floats(0.0, TWO_PI), tau=st.floats(-3e-12, 3e-12),
       dw_thz=st.floats(1.0, 20.0))
def test_converted_x_state_metric_identities(p, v_frac, phi, tau, dw_thz):
    """rho_freq then mode_convert: physical, C = V, F = (1 + V)/2 against
    the Bell state carrying the imprinted phase phi + delta_omega tau."""
    v = v_frac * 2.0 * np.sqrt(p * (1.0 - p))
    dw = TWO_PI * dw_thz * 1e12
    rho = mode_convert(rho_freq(p, v, phi), tau, dw)
    m = rho.elements
    assert rho.basis_labels == POL_BASIS
    assert np.max(np.abs(m - m.conj().T)) <= 1e-12
    assert np.trace(m).real == pytest.approx(1.0, abs=1e-12)
    assert rho.eigenvalues.min() >= -1e-10
    # at V = 2 sqrt(p(1-p)) the state is pure: two eigenvalues of
    # rho (sy x sy) rho* (sy x sy) vanish and their square roots carry
    # ~sqrt(eps) of rounding (1.8e-8 at worst over p in [0, 1])
    assert concurrence(rho) == pytest.approx(v, abs=1e-7)
    target = ideal_state(phi + dw * tau, Domain.POLARIZATION)
    assert fidelity(rho, target) == pytest.approx(0.5 * (1.0 + v), abs=1e-12)


# --- counts -----------------------------------------------------------------

def test_p_from_counts():
    p, se = p_from_counts(516.0, 484.0)
    assert p == pytest.approx(0.516, abs=1e-12)
    assert se == pytest.approx(np.sqrt(0.516 * 0.484 / 1000.0), rel=1e-12)
    with pytest.raises(ValueError):
        p_from_counts(-1.0, 10.0)
    with pytest.raises(ValueError):
        p_from_counts(0.0, 0.0)


# --- projector sets ---------------------------------------------------------

def test_load_projectors_bundled():
    settings = load_projectors("james16")
    assert len(settings) == 16
    assert [s.setting_id for s in settings] == [f"{k:02d}"
                                                for k in range(1, 17)]
    assert settings[0].proj_a == "h" and settings[0].proj_b == "h"
    assert settings[1].proj_a == "h" and settings[1].proj_b == "v"
    for s in settings:
        pi = s.projector
        assert pi.shape == (4, 4)
        assert np.trace(pi).real == pytest.approx(1.0, abs=1e-12)


def test_load_projectors_incomplete(tmp_path):
    payload = {"states": {"h": [[1.0, 0.0], [0.0, 0.0]]},
               "settings": [["h", "h"]] * 16}
    f = tmp_path / "degenerate.json"
    f.write_text(json.dumps(payload))
    with pytest.raises(TomographyDataError, match="complete"):
        load_projectors(str(f))


def test_dataset_validation():
    settings = load_projectors("james16")
    with pytest.raises(TomographyDataError):
        TomographyDataset(settings=settings, counts=np.ones(15))
    with pytest.raises(TomographyDataError):
        TomographyDataset(settings=settings[:8], counts=np.ones(8))
    with pytest.raises(TomographyDataError):
        TomographyDataset(settings=settings, counts=-np.ones(16))
    bad = np.ones(16)
    bad[3] = np.nan
    with pytest.raises(TomographyDataError):
        TomographyDataset(settings=settings, counts=bad)
    dup = (settings[0],) * 16
    with pytest.raises(TomographyDataError, match="complete"):
        TomographyDataset(settings=dup, counts=np.ones(16))


def test_simulate_counts_means_and_seeds():
    settings = load_projectors("james16")
    hv = StateVector(np.array([0, 1.0, 0, 0]), POL_BASIS).projector()
    exact = simulate_counts(hv, settings, 4000.0, rng_seed=None)
    # setting 02 projects onto |hv>: the full flux lands there
    assert exact.counts[1] == pytest.approx(4000.0, rel=1e-12)
    assert exact.counts[0] == pytest.approx(0.0, abs=1e-9)
    assert exact.meta["expected_total"] == 4000.0
    assert exact.meta["rng_seed"] is None

    mixed = DensityMatrix(np.eye(4) / 4.0, POL_BASIS)
    flat = simulate_counts(mixed, settings, 4000.0, rng_seed=None)
    assert np.allclose(flat.counts, 1000.0, atol=1e-9)

    a = simulate_counts(hv, settings, 4000.0, rng_seed=5)
    b = simulate_counts(hv, settings, 4000.0, rng_seed=5)
    c = simulate_counts(hv, settings, 4000.0, rng_seed=6)
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)
    assert np.array_equal(a.counts, np.round(a.counts))   # integers

    with pytest.raises(ValueError):
        simulate_counts(hv, settings, 0.0, rng_seed=None)


# --- maximum-likelihood reconstruction --------------------------------------

@pytest.fixture(scope="module")
def james():
    return load_projectors("james16")


def test_mle_noiseless_bell(james):
    truth = ideal_state(0.0, domain=Domain.POLARIZATION).projector()
    data = simulate_counts(truth, james, 4000.0, rng_seed=None)
    rho = mle_tomography(data)
    assert rho.basis_labels == POL_BASIS
    f = fidelity(rho, ideal_state(0.0, domain=Domain.POLARIZATION))
    assert f > 0.9999


def test_mle_noiseless_working_point(james):
    truth = rho_freq(0.516, 0.934, 0.0)
    data = simulate_counts(truth, james, 4000.0, rng_seed=None)
    res = mle_tomography(data, basis=FREQ_BASIS, full_output=True)
    assert isinstance(res, TomographyResult)
    assert np.max(np.abs(res.rho.elements - truth.elements)) < 1e-4
    # saturated-model reference: exact data must reach the 0 ceiling
    assert -1e-6 <= res.log_likelihood <= 1e-9
    hist = np.array(res.ll_history)
    assert np.all(np.diff(hist) >= -1e-12)
    assert res.converged and res.n_iter >= 1


def test_mle_poisson_counts_close(james):
    truth = mode_convert(rho_freq(0.516, 0.934, 0.0), 0.0, 1.0)
    data = simulate_counts(truth, james, 4000.0, rng_seed=42)
    rho = mle_tomography(data)
    assert trace_distance(rho, truth) < 0.06
    assert concurrence(rho) == pytest.approx(0.934, abs=0.08)


def test_mle_rejects_empty_counts(james):
    data = TomographyDataset(settings=james, counts=np.zeros(16))
    with pytest.raises(TomographyDataError, match="zero"):
        mle_tomography(data)


# --- exchange-symmetry phase conventions, end to end ------------------------

def test_phase_pi_state_is_antisymmetric_analogue(default_state):
    from freqbin.hom import homi_from_state

    sym = rho_freq(0.5, 1.0, 0.0)
    anti = rho_freq(0.5, 1.0, np.pi)
    assert fidelity(anti, ideal_state(np.pi)) == pytest.approx(1.0,
                                                               abs=1e-12)
    assert fidelity(anti, ideal_state(0.0)) == pytest.approx(0.0, abs=1e-12)
    assert fidelity(sym, ideal_state(np.pi)) == pytest.approx(0.0, abs=1e-12)

    # phi = 0 dips at zero delay, phi = pi anti-bunches there
    mk = lambda phi: type(default_state)(
        p=0.5, V=1.0, phi=phi, delta_omega=default_state.delta_omega,
        tau_c=default_state.tau_c, bin_centers=default_state.bin_centers)
    assert homi_from_state(mk(0.0), 0.0) == pytest.approx(0.0, abs=1e-12)
    assert homi_from_state(mk(np.pi), 0.0) == pytest.approx(1.0, abs=1e-12)
