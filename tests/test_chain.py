"""The design chain end to end: the paper's three visibilities agree on data.

A crystal of each bundled Sellmeier pairing, designed to cross at 110 C, is
run near its crossing through joint_spectrum -> reduce_to_bins. Its
(p, V, phi, delta_omega, tau_c) then feed both measurement sides:

* HOM: a Poisson scan of HomParams(1, V, delta_omega, tau_c), whose fit
  recovers V, delta_omega and tau_c within HOM_K standard errors;
* tomography: rho_freq(p, V, phi), mode-converted at a delay tau, gives
  F = (1 + V)/2 against the ideal state of phase phi + delta_omega tau and
  C = V without noise, and a Poisson MLE reconstruction within infidelity
  TOMO_C / sqrt(counts) of it.

HOM_K and TOMO_C are the benchmark's calibrated bounds. A sign or
labelling slip between the layers (in phi + delta_omega tau, or in the
w1 -> H mapping) fails here although each layer passes alone.
"""
import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from freqbin.biphoton import joint_spectrum, reduce_to_bins
from freqbin.entanglement import (Domain, concurrence, conversion_phase,
                                  fidelity, ideal_state, load_projectors,
                                  mle_tomography, mode_convert, rho_freq,
                                  simulate_counts)
from freqbin.hom import HomParams, fit_homi, synthesize_scan
from freqbin.qpm import crossing_temperature

from conftest import PAIRINGS, design_crystal

HOM_K = 5.0
TOMO_C = 20.0
SETTINGS = load_projectors("james16")


def _uhlmann_fidelity(a, b) -> float:
    """(Tr sqrt(sqrt(a) b sqrt(a)))^2 for density matrices a and b."""
    w, v = np.linalg.eigh(a)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    m = root @ b @ root
    ev = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    return float(np.sum(np.sqrt(np.clip(ev, 0.0, None))) ** 2)


@settings(max_examples=24)
@given(pairing=st.sampled_from(sorted(PAIRINGS)),
       dt_c=st.floats(-0.5, 0.5), tau_fs=st.floats(-50.0, 50.0),
       seed=st.integers(0, 2**31 - 1))
def test_designed_fitted_and_tomographic_visibilities_agree(pairing, dt_c,
                                                            tau_fs, seed):
    spec = design_crystal(pairing)
    t_star = crossing_temperature(spec, (105.0, 115.0))
    spec = dataclasses.replace(spec, temperature=t_star + dt_c)
    state = reduce_to_bins(joint_spectrum(spec), spec)

    # HOM side: delays over +-1.5 tau_c, 20 fs apart or finer
    truth = HomParams(1.0, state.V, state.delta_omega, state.tau_c)
    half = 1.5 * state.tau_c
    delays = np.linspace(-half, half, int(np.ceil(2 * half / 20e-15)) + 1)
    fit = fit_homi(synthesize_scan(truth, delays, 2000.0, seed))
    for name in ("V", "delta_omega", "tau_c"):
        miss = abs(getattr(fit, name) - getattr(truth, name))
        assert miss <= HOM_K * fit.stderr[name], (name, miss)

    # tomography side, after conversion at tau
    tau = tau_fs * 1e-15
    rho = mode_convert(rho_freq(state.p, state.V, state.phi), tau,
                       state.delta_omega)
    target = ideal_state(state.phi + conversion_phase(tau, state.delta_omega),
                         Domain.POLARIZATION)
    assert abs(fidelity(rho, target) - 0.5 * (1.0 + state.V)) < 1e-9
    assert abs(concurrence(rho) - state.V) < 1e-9
    data = simulate_counts(rho, SETTINGS, 1e4, seed)
    rec = mle_tomography(data)
    infidelity = 1.0 - _uhlmann_fidelity(rho.elements, rec.elements)
    assert infidelity <= TOMO_C / np.sqrt(data.counts.sum())
