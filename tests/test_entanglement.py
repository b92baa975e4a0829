"""Two-qubit metrics, mode conversion, and maximum-likelihood tomography.

The X-structured family rho(p, V, phi) has closed-form metrics: fidelity to
the phase-matched Bell state is (1 + V)/2 regardless of p, and concurrence
equals V exactly. Those identities anchor the randomized checks here.
"""
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from freqbin.entanglement import (FREQ_BASIS, POL_BASIS, DensityMatrix,
                                  Domain, ProjectorSetting, StateVector,
                                  TomographyDataset, TomographyResult,
                                  concurrence, conversion_phase,
                                  fidelity, ideal_state,
                                  load_projectors, mle_tomography,
                                  mode_convert, rho_freq, simulate_counts,
                                  trace_distance)
from freqbin.errors import (BasisMismatchError, FitConvergenceError,
                            PhysicalityError, TomographyDataError)

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


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_density_matrix_rejects_nonfinite_elements(bad):
    # a NaN element used to reach LAPACK ("Eigenvalues did not converge");
    # it is a plain ValueError, a usage error, not a PhysicalityError
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 0] = bad
    with pytest.raises(ValueError, match="elements must be finite") as exc:
        DensityMatrix(m, FREQ_BASIS)
    assert not isinstance(exc.value, PhysicalityError)


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


@pytest.mark.parametrize("tau, dw, needle", [
    (20e-15, 0.0, "delta_omega must be > 0"),
    (20e-15, -TWO_PI * 11.5e12, "delta_omega must be > 0"),
    (0.0, np.inf, "delta_omega must be > 0"),
    (0.0, np.nan, "delta_omega must be > 0"),
    (np.inf, 1e13, "delta_omega \\* tau must be finite"),
    (1e300, 1e13, "delta_omega \\* tau must be finite"),
    # a float step of the phase nears 1e-9 rad at 2**22 rad (about 58 ns
    # at 11.5 THz); 1e285 s is tomo table1's --taus-fs=1e300
    (1.0, 2.0 ** 22, "within \\+-2\\*\\*22 rad"),
    (-1.0, 2.0 ** 22, "within \\+-2\\*\\*22 rad"),
    (60e-9, TWO_PI * 11.5e12, "within \\+-2\\*\\*22 rad"),
    (1e285, TWO_PI * 11.5e12, "within \\+-2\\*\\*22 rad"),
])
def test_conversion_rejects_a_bad_splitting_or_delay(tau, dw, needle):
    # a splitting of -11.5 THz imprinted the +11.5 THz phase's complement
    with pytest.raises(ValueError, match=needle):
        conversion_phase(tau, dw)
    with pytest.raises(ValueError, match=needle):
        mode_convert(rho_freq(0.5, 0.9, 0.0), tau=tau, delta_omega=dw)


def test_readme_library_example_runs(capsys):
    # the example scored the converted state against a frequency-basis
    # target and raised BasisMismatchError
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    code = readme.split("## Library", 1)[1].split("```python\n", 1)[1]
    exec(code.split("```", 1)[0], {})
    assert 0.9 < float(capsys.readouterr().out) <= 1.0


def test_conversion_phase_is_the_imprinted_phase():
    dw = TWO_PI * 11.5e12
    for tau in (-20e-15, 0.0, 37e-15, 1e-9, -50e-9):   # 50 ns < 2**22 rad
        phase = conversion_phase(tau, dw)
        assert 0.0 <= phase < TWO_PI
        assert phase == (dw * tau) % TWO_PI
        rho = mode_convert(rho_freq(0.516, 0.934, 0.0), tau, dw)
        assert np.mod(np.angle(rho.elements[2, 1]), TWO_PI) == \
            pytest.approx(phase, abs=1e-9)


@settings(max_examples=60)
@given(p=st.floats(0.0, 1.0), v_frac=st.floats(0.0, 1.0),
       phi=st.floats(0.0, TWO_PI), tau=st.floats(-3e-12, 3e-12),
       dw_thz=st.floats(1.0, 20.0))
@example(p=0.8125, v_frac=1.0, phi=1.0, tau=0.0, dw_thz=11.0)   # pure
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
    assert concurrence(rho) == pytest.approx(v, abs=1e-12)
    target = ideal_state(phi + dw * tau, Domain.POLARIZATION)
    assert fidelity(rho, target) == pytest.approx(0.5 * (1.0 + v), abs=1e-12)


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


def test_projector_is_stored_read_only():
    for s in load_projectors("james16"):
        ket = np.kron(s.ket_a, s.ket_b)
        assert np.array_equal(s.projector, np.outer(ket, ket.conj()))
        assert not s.projector.flags.writeable
        with pytest.raises(ValueError):
            s.projector[0, 0] = 0.0


def test_projector_setting_rejects_unnormalized_ket():
    with pytest.raises(ValueError, match="ket_b"):
        ProjectorSetting("01", "h", "x", ket_a=[1.0, 0.0], ket_b=[1.0, 1.0])


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


def test_noiseless_counts_are_the_traces():
    settings = load_projectors("james16")
    rng = np.random.default_rng(11)
    for _ in range(20):
        rho = random_rho(rng, POL_BASIS)
        want = [2500.0 * np.trace(rho.elements @ s.projector).real
                for s in settings]
        got = simulate_counts(rho, settings, 2500.0, rng_seed=None).counts
        assert got == pytest.approx(want, rel=1e-15, abs=0.0)


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
    res = mle_tomography(data, full_output=True)
    assert isinstance(res, TomographyResult)
    assert res.rho.basis_labels == POL_BASIS
    assert np.max(np.abs(res.rho.elements - truth.elements)) < 1e-4
    # saturated-model reference: exact data must reach the 0 ceiling
    assert -1e-6 <= res.log_likelihood <= 1e-9
    hist = np.array(res.ll_history)
    assert np.all(np.diff(hist) >= -1e-12)
    assert res.n_iter >= 1


def test_mle_poisson_counts_close(james):
    truth = mode_convert(rho_freq(0.516, 0.934, 0.0), 0.0, 1.0)
    data = simulate_counts(truth, james, 4000.0, rng_seed=42)
    rho = mle_tomography(data)
    assert trace_distance(rho, truth) < 0.06
    assert concurrence(rho) == pytest.approx(0.934, abs=0.08)


def _log_likelihood(data, rho):
    # saturated-model reference with the flux profiled out, as the MLE's
    probs = np.real([np.trace(s.projector @ rho.elements)
                     for s in data.settings])
    c = data.counts
    mu = c.sum() * probs / probs.sum()
    pos = c > 0
    return float(np.sum(c[pos] * np.log(mu[pos] / c[pos])) + c.sum()
                 - mu.sum())


def _certificate(data, rho):
    # at tr(G s) = n, concavity bounds the gap to the maximum by
    # n (lambda_max(G^-1/2 R G^-1/2) - 1), R = sum_k (c_k / mu_k) Pi_k
    pis = np.stack([s.projector for s in data.settings])
    c = data.counts
    n = c.sum()
    w, v = np.linalg.eigh(pis.sum(axis=0))
    g_isqrt = (v / np.sqrt(w)) @ v.conj().T
    mu = np.real(np.einsum("kij,ji->k", pis, rho.elements))
    mu = n * mu / mu.sum()
    pos = c > 0
    r = np.einsum("k,kij->ij", c[pos] / mu[pos], pis[pos])
    return float(n * (np.linalg.eigvalsh(g_isqrt @ r @ g_isqrt)[-1] - 1.0))


def test_mle_beats_the_generating_state(james):
    # criterion 09's ensemble: a maximizer is at least as likely as the
    # state that generated the counts
    truth = mode_convert(rho_freq(0.516, 0.934, 0.0), 0.0, 1.0)
    short = []
    for seed in range(100):
        data = simulate_counts(truth, james, 4000.0, rng_seed=seed)
        res = mle_tomography(data, full_output=True)
        if (_log_likelihood(data, res.rho)
                < _log_likelihood(data, truth) - 1e-9):
            short.append(seed)
        assert res.log_likelihood == pytest.approx(
            _log_likelihood(data, res.rho), abs=1e-9)
        assert res.certified_gap == pytest.approx(
            _certificate(data, res.rho), abs=1e-8)
    assert short == []


@settings(max_examples=60, deadline=None, derandomize=True)
@given(p=st.floats(0.0, 1.0), v_frac=st.floats(0.0, 1.0),
       phi=st.floats(0.0, TWO_PI), tau_fs=st.floats(-100.0, 100.0),
       total=st.floats(1e3, 1e5), seed=st.integers(0, 2**32 - 1))
def test_mle_over_simulated_counts_is_physical_and_certified(
        james, p, v_frac, phi, tau_fs, total, seed):
    truth = mode_convert(rho_freq(p, v_frac * 2.0 * np.sqrt(p * (1.0 - p)),
                                  phi), tau_fs * 1e-15, TWO_PI * 11.5e12)
    data = simulate_counts(truth, james, total, rng_seed=seed)
    res = mle_tomography(data, full_output=True)
    DensityMatrix(res.rho.elements, res.rho.basis_labels)
    assert np.all(np.diff(res.ll_history) >= 0.0)
    # 1e-9 nats: the rounding of a log-likelihood over 1e5 counts
    assert (_log_likelihood(data, res.rho)
            >= _log_likelihood(data, truth) - 1e-9)
    assert _certificate(data, res.rho) <= 1e-6
    assert res.certified_gap == pytest.approx(_certificate(data, res.rho),
                                              abs=1e-8)


def _corner_cases():
    # nearly product states with a small admixture, which the projected
    # gradient this method replaced could not fit in 500 steps
    for p in (1e-3, 1e-5):
        for f in (0.0, 0.5, 1.0):
            for seed in (0, 1):
                yield p, f * 2.0 * np.sqrt(p * (1.0 - p)), 1e5, seed
    yield 1e-3, 0.0, 1472.0, 3


@pytest.mark.parametrize("p, v, total, seed", list(_corner_cases()))
def test_mle_fits_nearly_product_states(james, p, v, total, seed):
    truth = mode_convert(rho_freq(p, v, 0.3), 10e-15, TWO_PI * 11.5e12)
    data = simulate_counts(truth, james, total, rng_seed=seed)
    res = mle_tomography(data, full_output=True)
    assert res.certified_gap <= 1e-6
    assert res.log_likelihood >= _log_likelihood(data, truth) - 1e-9
    assert np.all(np.diff(res.ll_history) >= 0.0)


@pytest.mark.parametrize("counts", [5.0 * np.eye(16)[0], np.eye(16)[3]])
def test_mle_with_a_single_nonzero_setting(james, counts):
    # a maximum of rank one, fixed by the data along one direction only
    data = TomographyDataset(settings=james, counts=counts)
    res = mle_tomography(data, full_output=True)
    DensityMatrix(res.rho.elements, res.rho.basis_labels)
    assert res.certified_gap <= 1e-6
    assert res.certified_gap == pytest.approx(_certificate(data, res.rho),
                                              abs=1e-8)


def test_mle_singular_newton_system_ends_the_phase(james, monkeypatch):
    # a LinAlgError is a ValueError, which the CLI reads as a usage error
    # (exit 2), so a singular Newton system must not escape as one
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(np.linalg, "solve", singular)
    data = simulate_counts(rho_freq(0.516, 0.934, 0.0), james, 4000.0,
                           rng_seed=1)
    res = mle_tomography(data, full_output=True)
    assert np.allclose(res.rho.elements, np.eye(4) / 4.0, atol=1e-15)
    assert res.certified_gap > 1.0     # the start, reported as such


def test_mle_raises_after_its_step_budget(james, monkeypatch):
    monkeypatch.setattr("freqbin.entanglement._MLE_MAX_ITER", 3)
    data = simulate_counts(rho_freq(0.516, 0.934, 0.0), james, 4000.0,
                           rng_seed=1)
    with pytest.raises(FitConvergenceError, match="3 Newton steps") as exc:
        mle_tomography(data)
    DensityMatrix(exc.value.last_iterate, POL_BASIS)


def test_mle_rejects_empty_counts(james):
    data = TomographyDataset(settings=james, counts=np.zeros(16))
    with pytest.raises(TomographyDataError, match="zero"):
        mle_tomography(data)


# --- exchange-symmetry phase conventions, end to end ------------------------

def test_phase_pi_state_is_antisymmetric_analogue():
    sym = rho_freq(0.5, 1.0, 0.0)
    anti = rho_freq(0.5, 1.0, np.pi)
    assert fidelity(anti, ideal_state(np.pi)) == pytest.approx(1.0,
                                                               abs=1e-12)
    assert fidelity(anti, ideal_state(0.0)) == pytest.approx(0.0, abs=1e-12)
    assert fidelity(sym, ideal_state(np.pi)) == pytest.approx(0.0, abs=1e-12)
