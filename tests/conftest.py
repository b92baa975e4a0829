"""Shared fixtures: the default crystal, its reduced state, toy models, and
the scalar wavenumber oracle.

Toy crystals build on the one index formula: a set with only a1 = n0^2 is
a dispersionless index n0, so solver results have closed-form oracles (see
individual tests for the arithmetic). The oracle evaluates k = 2 pi n/lam
one wavelength at a time in SI units, range-checked, independently of the
solvers' array mismatch in um units.
"""
import dataclasses

import numpy as np
import pytest
from hypothesis import settings

from freqbin.biphoton import joint_spectrum, reduce_to_bins
from freqbin.dispersion import Axis, Polarization, SellmeierSet, load_sellmeier
from freqbin.qpm import (CrystalSpec, PhaseMatchPoint, PolingSegment,
                         load_crystal, solve_period)

# every property test draws the same examples on every run, and none is
# timed: the examples' costs vary with the crystal drawn
settings.register_profile("freqbin", deadline=None, derandomize=True)
settings.load_profile("freqbin")


def checked_index(sset, lam_um, t_c):
    """n of ``sset`` at one wavelength [um] and temperature [degC], after
    ``check_range``: its range error otherwise."""
    sset.check_range(lam_um, t_c)
    return float(sset.index(lam_um, t_c))


def wavenumber(sset, lam, t_c):
    """k = 2 pi n/lam [rad/m] at one vacuum wavelength ``lam`` [m]."""
    return 2.0 * np.pi * checked_index(sset, lam * 1e6, t_c) / lam


def delta_k(spec, lam_p, lam_s, lam_i, period, signal_pol=Polarization.H):
    """k_p - k_s - k_i - 2 pi/period [rad/m] of ``spec`` at its temperature:
    the pump on ``spec.pump_polarization``, the signal on ``signal_pol``
    and the idler on the other one; ``period=np.inf`` drops the grating.
    The wavelengths [m] are taken as given, and range-checked in the order
    pump, signal, idler."""
    pol, t_c = Polarization(signal_pol), spec.temperature
    return (wavenumber(spec.sellmeier_for(spec.pump_polarization), lam_p, t_c)
            - wavenumber(spec.sellmeier_for(pol), lam_s, t_c)
            - wavenumber(spec.sellmeier_for(pol.other), lam_i, t_c)
            - 2.0 * np.pi / period)


# bundled Sellmeier pairings: name -> (extraordinary set, ordinary set)
PAIRINGS = {
    "edwards": ("cln_e_edwards1984", "cln_o_edwards1984"),
    "jundt_e_edwards_o": ("cln_e_jundt1997", "cln_o_edwards1984"),
    "mgo_gayer": ("mgo_cln_e_gayer2008", "mgo_cln_o_gayer2008"),
}


def design_crystal(pairing, t0_c=110.0, signal_um=1.51, length_mm=20.0):
    """Two-period crystal of a bundled pairing whose gratings emit one pair,
    roles exchanged, at ``t0_c``: each period comes from ``solve_period``
    on the default crystal's pump and axis map."""
    base = load_crystal("default")
    ext, ordi = PAIRINGS[pairing]
    lam_p = base.pump_wavelength
    lam_s = signal_um * 1e-6
    lam_i = 1.0 / (1.0 / lam_p - 1.0 / lam_s)
    length = length_mm * 1e-3
    spec = dataclasses.replace(
        base, temperature=t0_c, name=pairing,
        sellmeier={Axis.EXTRAORDINARY: load_sellmeier(ext),
                   Axis.ORDINARY: load_sellmeier(ordi)},
        segments=(PolingSegment(1e-5, length),) * 2)
    periods = [solve_period(spec, PhaseMatchPoint(
        lam_p, a, b, Polarization.H, Polarization.V, 0.0))
        for a, b in ((lam_s, lam_i), (lam_i, lam_s))]
    return dataclasses.replace(
        spec, segments=tuple(PolingSegment(p, length) for p in periods))


@pytest.fixture(scope="session")
def default_spec():
    """Bundled two-period crystal at its shipped operating temperature."""
    return load_crystal("default")


@pytest.fixture(scope="session")
def default_state(default_spec):
    """Reduced two-bin state of the default crystal (shared; expensive-ish)."""
    sa = joint_spectrum(default_spec)
    return reduce_to_bins(sa, default_spec)


def const_set(name, axis, n0, lam_range=(0.2, 6.0), t_range=(-50.0, 500.0)):
    """Dispersionless set: index exactly n0, dn/dlam -0.0."""
    return SellmeierSet(name=name, axis=axis, coefficients={"a1": n0 * n0},
                        valid_wavelength_um=lam_range,
                        valid_temperature_C=t_range)


@pytest.fixture(scope="session")
def const_crystal():
    """Constant n_e=2.2 / n_o=2.3: the root is lam_s = Lambda*(n_o - n_e)."""
    e = const_set("const_e", Axis.EXTRAORDINARY, 2.2)
    o = const_set("const_o", Axis.ORDINARY, 2.3)
    return CrystalSpec(segments=(PolingSegment(15.0e-6, 20e-3),),
                       temperature=25.0, pump_wavelength=775e-9,
                       axis_map={"H": "extraordinary", "V": "ordinary"},
                       sellmeier={"extraordinary": e, "ordinary": o})


@pytest.fixture(scope="session")
def quad_crystal():
    """Type-0 crystal: the Edwards extraordinary set on both polarizations.

    Signal and idler share one index, so the mismatch is symmetric under
    signal<->idler exchange: the period that phase-matches 1450 nm at the
    default pump also matches its 1664.8 nm idler, and the default bracket
    holds that mirrored root pair.
    """
    base = load_crystal("default")
    spec = dataclasses.replace(
        base, name="type0", axis_map={"H": "extraordinary",
                                      "V": "extraordinary"},
        sellmeier={"extraordinary": load_sellmeier("cln_e_edwards1984")},
        segments=(PolingSegment(1e-5, 20e-3),))
    lam_p, lam_s = base.pump_wavelength, 1.45e-6
    lam_i = 1.0 / (1.0 / lam_p - 1.0 / lam_s)
    period = solve_period(spec, PhaseMatchPoint(
        lam_p, lam_s, lam_i, Polarization.H, Polarization.V, 0.0))
    return dataclasses.replace(spec, segments=(PolingSegment(period, 20e-3),))


@pytest.fixture(scope="session")
def symmetric_toy():
    """Two-segment dispersionless toy built for perfect indistinguishability.

    Peaks at 1.5 um (Lambda_1 = 15 um) and 1.8 um (Lambda_2 = 18 um) with
    the pump chosen so the two processes populate the same two bins
    (1/1.5 + 1/1.8 = 1/lam_p); L_1 = 134 poling periods exactly, so the
    realized inter-process phase equals the closed-form design phase.
    """
    e = const_set("toy_e", Axis.EXTRAORDINARY, 2.2)
    o = const_set("toy_o", Axis.ORDINARY, 2.3)
    lam_p = 1.0 / (1.0 / 1.5 + 1.0 / 1.8)
    return CrystalSpec(segments=(PolingSegment(15.0e-6, 2.010e-3),
                                 PolingSegment(18.0e-6, 2.010e-3)),
                       temperature=25.0, pump_wavelength=lam_p * 1e-6,
                       axis_map={"H": "extraordinary", "V": "ordinary"},
                       sellmeier={"extraordinary": e, "ordinary": o})
