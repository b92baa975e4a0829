"""Refractive index and group index of the nonlinear crystal.

Coefficient sets are data, not code: each set ships as a JSON file (see
``freqbin/data/sellmeier/``) holding the coefficients of one formula, the
temperature-dependent two-pole Sellmeier equation, with their validity
ranges and literature source. Bundled defaults are the
temperature-dependent congruent LiNbO3 equations of Edwards & Lawrence,
Opt. Quantum Electron. 16, 373 (1984), both axes; alternates from Jundt,
Opt. Lett. 22, 1553 (1997) (extraordinary, congruent) and Gayer et al.,
Appl. Phys. B 91, 343 (2008) (5% MgO-doped CLN) are included for
sensitivity studies.

``OpticalField`` and ``group_index`` remain for ``perfbench/setup_child.py``;
everything is pure and immutable after load, safe for concurrent callers.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ._json import _read_json
from .errors import TemperatureRangeError, WavelengthRangeError


class Axis(str, enum.Enum):
    ORDINARY = "ordinary"
    EXTRAORDINARY = "extraordinary"


class Polarization(str, enum.Enum):
    H = "H"
    V = "V"

    @property
    def other(self) -> "Polarization":
        """The orthogonal polarization: a type-II idler's, given its signal's."""
        return Polarization.V if self is Polarization.H else Polarization.H


# the coefficient names the index formula reads (lam in um, T in deg C)
_COEFFICIENT_NAMES = ("a1", "a2", "a3", "a4", "a5", "a6",
                      "b1", "b2", "b3", "b4", "t0", "t1")


@dataclass(frozen=True)
class SellmeierSet:
    """One axis' index model: named coefficients of the temperature-dependent
    two-pole Sellmeier formula, and its validity ranges.

    Parameters
    ----------
    name : str
        Identifier, e.g. ``"cln_e_edwards1984"``.
    axis : Axis
        Crystal axis this set describes.
    coefficients : dict
        Named reals a1..a6, b1..b4, t0, t1 giving (lam in um, T in deg C)
        n^2 = a1 + b1 f + (a2+b2 f)/(lam^2-(a3+b3 f)^2)
                 + (a4+b4 f)/(lam^2-a5^2) - a6 lam^2,  f=(T-t0)(T+t1).
        Any other name raises ValueError; a name the dict omits is 0, so
        {"a1": n0**2} is a dispersionless index n0. The stored dict holds
        exactly the twelve names, as floats.
    valid_wavelength_um, valid_temperature_C : tuple of float
        Inclusive validity ranges.
    source : str
        Citation / provenance free text.
    """

    name: str
    axis: Axis
    coefficients: dict
    valid_wavelength_um: tuple
    valid_temperature_C: tuple
    source: str = ""

    def __post_init__(self):
        object.__setattr__(self, "axis", Axis(self.axis))
        unknown = sorted(set(self.coefficients) - set(_COEFFICIENT_NAMES))
        if unknown:
            raise ValueError(f"{self.name}: the index formula reads no "
                             f"coefficient {unknown}; it reads "
                             f"{list(_COEFFICIENT_NAMES)}")
        object.__setattr__(self, "coefficients", {
            key: float(self.coefficients.get(key, 0.0))
            for key in _COEFFICIENT_NAMES})

    def temperature_terms(self, t_c) -> tuple:
        """The formula's terms at ``t_c`` [deg C], a scalar or an array:
        (a1+b1 f, a2+b2 f, (a3+b3 f)^2, a4+b4 f, a5^2, a6), which
        ``_squared_index`` and ``dn_dlam`` read. A solver that evaluates
        many wavelengths at one temperature derives them once."""
        c = self.coefficients
        f = (t_c - c["t0"]) * (t_c + c["t1"])
        pole1 = c["a3"] + c["b3"] * f
        return (c["a1"] + c["b1"] * f, c["a2"] + c["b2"] * f, pole1 * pole1,
                c["a4"] + c["b4"] * f, c["a5"] * c["a5"], c["a6"])

    def index(self, lam_um, t_c):
        """n(lam, T) for a scalar or array ``lam_um`` [um] at ``t_c``
        [deg C]; array and elementwise scalar calls agree bit for bit, and
        so does math.sqrt of ``_squared_index`` on Python floats.
        No range check: see ``check_range``."""
        return np.sqrt(_squared_index(self.temperature_terms(t_c), lam_um))

    def dn_dlam(self, lam_um, t_c):
        """Analytic dn/dlam [1/um], for the arguments ``index`` takes."""
        _, b, pole2, d, e, a6 = self.temperature_terms(t_c)
        lam2 = lam_um * lam_um
        den1 = lam2 - pole2
        den2 = lam2 - e
        dn2 = (-2.0 * lam_um * b / (den1 * den1)
               - 2.0 * lam_um * d / (den2 * den2)
               - 2.0 * a6 * lam_um)
        return dn2 / (2.0 * self.index(lam_um, t_c))

    def group_index(self, lam_um, t_c):
        """Group index n - lam dn/dlam, for the arguments ``index`` takes."""
        return self.index(lam_um, t_c) - lam_um * self.dn_dlam(lam_um, t_c)

    def check_range(self, wavelength_um: float, temperature_C: float) -> None:
        lo, hi = self.valid_wavelength_um
        if not lo <= wavelength_um <= hi:
            raise WavelengthRangeError(
                f"{self.name}: wavelength {wavelength_um:.6g} um outside "
                f"valid range [{lo:g}, {hi:g}] um")
        self.check_temperature(temperature_C)

    def check_temperature(self, temperature_C: float) -> None:
        """TemperatureRangeError unless ``temperature_C`` [deg C] lies in
        the validity range; ``check_range`` and ``CrystalSpec`` share it."""
        tlo, thi = self.valid_temperature_C
        if not tlo <= temperature_C <= thi:
            raise TemperatureRangeError(
                f"{self.name}: temperature {temperature_C:.6g} C outside "
                f"valid range [{tlo:g}, {thi:g}] C")


def _squared_index(terms, lam_um):
    """n^2 at ``lam_um`` [um], a scalar or an array, from the
    ``SellmeierSet.temperature_terms`` of one temperature: the one place
    the index formula is written."""
    a, b, pole2, d, e, a6 = terms
    lam2 = lam_um * lam_um
    return a + b / (lam2 - pole2) + d / (lam2 - e) - a6 * lam2


@dataclass(frozen=True)
class OpticalField:
    """A monochromatic field: vacuum wavelength [m], polarization, T [degC]."""

    wavelength: float
    polarization: Polarization
    temperature: float

    def __post_init__(self):
        if not self.wavelength > 0.0:
            raise ValueError("wavelength must be strictly positive")
        object.__setattr__(self, "polarization",
                           Polarization(self.polarization))

    @property
    def wavelength_um(self) -> float:
        return self.wavelength * 1e6


def load_sellmeier(source) -> SellmeierSet:
    """Load a SellmeierSet from a JSON file path or a bundled name.

    ``source`` may be a filesystem path or the stem of a bundled file, e.g.
    ``"cln_e_edwards1984"``.
    """
    raw = _read_json("sellmeier", source)
    raw.refuse_unknown(("name", "axis", "coefficients", "valid_wavelength_um",
                        "valid_temperature_C", "source"), "a Sellmeier file")
    coefficients = raw.object("coefficients")
    return SellmeierSet(
        name=raw["name"],
        axis=raw["axis"],
        coefficients={k: coefficients.number(k) for k in coefficients},
        valid_wavelength_um=raw.bounds("valid_wavelength_um"),
        valid_temperature_C=raw.bounds("valid_temperature_C"),
        source=raw.get("source", ""),
    )


def group_index(fld: OpticalField, sset: SellmeierSet,
                method: str = "analytic") -> float:
    """Group index n_g = n - lambda * dn/dlambda of the field, range-checked
    (``SellmeierSet.group_index``; ``method`` accepts only "analytic")."""
    if method != "analytic":
        raise ValueError(f"unknown method '{method}'")
    sset.check_range(fld.wavelength_um, fld.temperature)
    return float(sset.group_index(fld.wavelength_um, fld.temperature))
