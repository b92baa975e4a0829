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
import json
import numbers
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

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

    def index(self, lam_um, t_c):
        """n(lam, T) for a scalar or array ``lam_um`` [um] at ``t_c``
        [deg C]; array and elementwise scalar calls agree bit for bit.
        No range check: see ``check_range``."""
        c = self.coefficients
        f = (t_c - c["t0"]) * (t_c + c["t1"])
        lam2 = lam_um * lam_um
        pole1 = c["a3"] + c["b3"] * f
        n2 = (c["a1"] + c["b1"] * f
              + (c["a2"] + c["b2"] * f) / (lam2 - pole1 * pole1)
              + (c["a4"] + c["b4"] * f) / (lam2 - c["a5"] * c["a5"])
              - c["a6"] * lam2)
        return np.sqrt(n2)

    def dn_dlam(self, lam_um, t_c):
        """Analytic dn/dlam [1/um], for the arguments ``index`` takes."""
        c = self.coefficients
        f = (t_c - c["t0"]) * (t_c + c["t1"])
        lam2 = lam_um * lam_um
        pole1 = c["a3"] + c["b3"] * f
        den1 = lam2 - pole1 * pole1
        den2 = lam2 - c["a5"] * c["a5"]
        dn2 = (-2.0 * lam_um * (c["a2"] + c["b2"] * f) / (den1 * den1)
               - 2.0 * lam_um * (c["a4"] + c["b4"] * f) / (den2 * den2)
               - 2.0 * c["a6"] * lam_um)
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


class _JsonObject(dict):
    """A parsed JSON object whose missing key raises ValueError naming the
    file and the key, so a malformed input is a usage error (CLI exit 2)
    and a bare KeyError stays a programming error."""

    def __init__(self, pairs, where):
        super().__init__(pairs)
        self.where = where

    def __missing__(self, key):
        raise ValueError(f"{self.where}: missing key '{key}'")

    def number(self, key, default=None):
        """The JSON number at ``key`` (``default`` when given and the key
        is absent); ValueError naming the file and the key otherwise."""
        value = self[key] if default is None else self.get(key, default)
        return _number(value, f"{self.where}: '{key}'")

    def object(self, key) -> "_JsonObject":
        """The JSON object at ``key``; ValueError naming the file and the
        key otherwise."""
        value = self[key]
        if not isinstance(value, _JsonObject):
            raise ValueError(f"{self.where}: '{key}' must be a JSON object, "
                             f"not {type(value).__name__}")
        return value

    def pairs(self, key, name=None) -> list:
        """The list of two-element lists at ``key``, as tuples; ValueError
        naming the file and ``name`` (default ``key``), or the entry that is
        no pair, otherwise."""
        name, value = name or key, self[key]
        if not isinstance(value, list):
            raise ValueError(f"{self.where}: '{name}' must be a list of "
                             "pairs")
        for k, item in enumerate(value):
            if not (isinstance(item, list) and len(item) == 2):
                raise ValueError(f"{self.where}: '{name}[{k}]' must be a "
                                 f"pair, not {item!r}")
        return [tuple(item) for item in value]

    def bounds(self, key) -> tuple:
        """The [low, high] pair at ``key``, each checked as by ``number``."""
        pair = self[key]
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ValueError(f"{self.where}: '{key}' must be [low, high]")
        return tuple(_number(v, f"{self.where}: '{key}'") for v in pair)


def _number(value, what: str):
    """``value`` if it is a finite real number (a bool is not); otherwise
    ValueError saying that ``what`` must be one."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not np.isfinite(value)):
        raise ValueError(f"{what} must be a finite number, not {value!r}")
    return value


def _json_file(path, what: str = "file") -> dict:
    """The JSON object in file ``path``, objects as _JsonObject naming the
    file; FileNotFoundError "no such <what>: <path>" when it is missing,
    ValueError naming it unless it holds an object."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such {what}: {path}")
    payload = json.loads(path.read_text(encoding="utf-8"),
                         object_pairs_hook=lambda p: _JsonObject(p, path))
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object, not "
                         f"{type(payload).__name__}")
    return payload


def _read_json(kind: str, source) -> dict:
    """Parsed JSON of ``source``: an existing file path, else the bundled
    ``data/<kind>/<source>.json``; FileNotFoundError naming both otherwise."""
    path = Path(source)
    if not path.is_file():
        path = resources.files("freqbin").joinpath(
            f"data/{kind}/{source}.json")
        if not path.is_file():
            raise FileNotFoundError(f"no file '{source}' and no bundled "
                                    f"data/{kind}/{source}.json")
    return _json_file(path)


# the top-level keys of a Sellmeier file
_SELLMEIER_KEYS = ("name", "axis", "coefficients", "valid_wavelength_um",
                   "valid_temperature_C", "source")


def load_sellmeier(source) -> SellmeierSet:
    """Load a SellmeierSet from a JSON file path or a bundled name.

    ``source`` may be a filesystem path or the stem of a bundled file, e.g.
    ``"cln_e_edwards1984"``.
    """
    raw = _read_json("sellmeier", source)
    unknown = sorted(set(raw) - set(_SELLMEIER_KEYS))
    if unknown:
        raise ValueError(f"{raw.where}: unknown key(s) {unknown}; a "
                         f"Sellmeier file holds {list(_SELLMEIER_KEYS)}")
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
