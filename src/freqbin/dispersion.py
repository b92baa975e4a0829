"""Refractive index, wavenumber, and group index of the nonlinear crystal.

Coefficient sets are data, not code: each set ships as a JSON file (see
``freqbin/data/sellmeier/``) naming its functional form, coefficients,
validity ranges, and literature source. Bundled defaults are the
temperature-dependent congruent LiNbO3 equations of Edwards & Lawrence,
Opt. Quantum Electron. 16, 373 (1984), both axes; alternates from Jundt,
Opt. Lett. 22, 1553 (1997) (extraordinary, congruent) and Gayer et al.,
Appl. Phys. B 91, 343 (2008) (5% MgO-doped CLN) are included for
sensitivity studies.

All functions here are pure; everything is immutable after load, so the
module is safe for concurrent callers.
"""
from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import _kernels
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


_FORM_CODES = {
    "constant": _kernels.FORM_CONSTANT,
    "linear": _kernels.FORM_LINEAR,
    "quadratic": _kernels.FORM_QUADRATIC,
    "sellmeier_t": _kernels.FORM_SELLMEIER_T,
}

# coefficient-name -> pack slot (see _kernels pack layout)
_PACK_SLOTS = {"a1": 1, "a2": 2, "a3": 3, "a4": 4, "a5": 5, "a6": 6,
               "b1": 7, "b2": 8, "b3": 9, "b4": 10, "t0": 11, "t1": 12}


@dataclass(frozen=True)
class SellmeierSet:
    """One axis' index model: functional form + named coefficients + ranges.

    Parameters
    ----------
    name : str
        Identifier, e.g. ``"cln_e_edwards1984"``.
    axis : Axis
        Crystal axis this set describes.
    form : str
        One of ``constant | linear | quadratic | sellmeier_t``.
    coefficients : dict
        Named reals. For ``sellmeier_t``: a1..a6, b1..b4, t0, t1 giving
        n^2 = a1 + b1 f + (a2+b2 f)/(lam^2-(a3+b3 f)^2)
                 + (a4+b4 f)/(lam^2-a5^2) - a6 lam^2,  f=(T-t0)(T+t1).
        Toy forms use n0/n1/n2: constant n = n0; linear n = n0 + n1*lam;
        quadratic n = n0 + n1*(lam-n2)^2 (lam in um throughout).
    temperature_form : str
        ``"product_offset"`` (the f=(T-t0)(T+t1) dependence) for
        ``sellmeier_t``, ``"none"`` for the temperature-free toy forms; the
        form fixes it, and any other value raises ValueError.
    valid_wavelength_um, valid_temperature_C : tuple of float
        Inclusive validity ranges.
    source : str
        Citation / provenance free text.
    """

    name: str
    axis: Axis
    form: str
    coefficients: dict
    temperature_form: str
    valid_wavelength_um: tuple
    valid_temperature_C: tuple
    source: str = ""
    _pack: np.ndarray = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.form not in _FORM_CODES:
            raise ValueError(f"unknown index form '{self.form}'")
        t_form = "product_offset" if self.form == "sellmeier_t" else "none"
        if self.temperature_form != t_form:
            raise ValueError(f"{self.name}: form '{self.form}' takes "
                             f"temperature_form '{t_form}', not "
                             f"'{self.temperature_form}'")
        pack = np.zeros(13)
        pack[0] = _FORM_CODES[self.form]
        if self.form == "sellmeier_t":
            for key, slot in _PACK_SLOTS.items():
                pack[slot] = float(self.coefficients.get(key, 0.0))
        else:
            # toy forms: n0,n1,n2 occupy the a1,a2,a3 slots
            for i, key in enumerate(("n0", "n1", "n2")):
                pack[1 + i] = float(self.coefficients.get(key, 0.0))
        object.__setattr__(self, "_pack", pack)

    def check_range(self, wavelength_um: float, temperature_C: float) -> None:
        lo, hi = self.valid_wavelength_um
        if not lo <= wavelength_um <= hi:
            raise WavelengthRangeError(
                f"{self.name}: wavelength {wavelength_um:.6g} um outside "
                f"valid range [{lo:g}, {hi:g}] um")
        tlo, thi = self.valid_temperature_C
        if not tlo <= temperature_C <= thi:
            raise TemperatureRangeError(
                f"{self.name}: temperature {temperature_C:.6g} C outside "
                f"valid range [{tlo:g}, {thi:g}] C")


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


def _read_json(kind: str, source) -> dict:
    """Parsed JSON of ``source``: an existing file path, else the bundled
    ``data/<kind>/<source>.json``; FileNotFoundError naming both otherwise."""
    path = Path(source)
    if path.is_file():
        return json.loads(path.read_text(encoding="utf-8"))
    ref = resources.files("freqbin").joinpath(f"data/{kind}/{source}.json")
    if ref.is_file():
        return json.loads(ref.read_text(encoding="utf-8"))
    raise FileNotFoundError(f"no file '{source}' and no bundled "
                            f"data/{kind}/{source}.json")


def load_sellmeier(source) -> SellmeierSet:
    """Load a SellmeierSet from a JSON file path or a bundled name.

    ``source`` may be a filesystem path or the stem of a bundled file, e.g.
    ``"cln_e_edwards1984"``.
    """
    raw = _read_json("sellmeier", source)
    return SellmeierSet(
        name=raw["name"],
        axis=Axis(raw["axis"]),
        form=raw.get("form", "sellmeier_t"),
        coefficients=dict(raw["coefficients"]),
        temperature_form=raw.get("temperature_form", "product_offset"),
        valid_wavelength_um=tuple(raw["valid_wavelength_um"]),
        valid_temperature_C=tuple(raw["valid_temperature_C"]),
        source=raw.get("source", ""),
    )


def refractive_index(fld: OpticalField, sset: SellmeierSet) -> float:
    """n(lambda, T) for the given field under the given coefficient set.

    Pure and deterministic; raises a range error naming the violated bound
    for out-of-range inputs.
    """
    lam_um = fld.wavelength_um
    sset.check_range(lam_um, fld.temperature)
    return float(_kernels.index_n(lam_um, fld.temperature, sset._pack))


def wavenumber(fld: OpticalField, sset: SellmeierSet) -> float:
    """k = 2 pi n(lambda, T) / lambda in rad/m."""
    return 2.0 * np.pi * refractive_index(fld, sset) / fld.wavelength


def group_index(fld: OpticalField, sset: SellmeierSet,
                method: str = "analytic") -> float:
    """Group index n_g = n - lambda * dn/dlambda, with the closed-form
    derivative of the index model (``method`` accepts only "analytic")."""
    if method != "analytic":
        raise ValueError(f"unknown method '{method}'")
    lam_um = fld.wavelength_um
    sset.check_range(lam_um, fld.temperature)
    dn = _kernels.index_dn_dlam(lam_um, fld.temperature, sset._pack)
    n = _kernels.index_n(lam_um, fld.temperature, sset._pack)
    return float(n - lam_um * dn)
