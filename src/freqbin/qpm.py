"""Quasi-phase-matching: mismatch evaluation, pair solvers, period design.

Collinear type-II geometry with a CW pump. Energy conservation is enforced
structurally: the idler is always slaved to the signal via
1/lam_p = 1/lam_s + 1/lam_i, and a PhaseMatchPoint refuses construction from
an inconsistent triple. The QPM condition solved is

    dk = k_p - k_s - k_i - 2*pi/Lambda = 0.

Each k = 2*pi*n/lam comes from the axis' ``SellmeierSet``, which evaluates
n for a whole signal grid in one call (``_mismatch``). Roots are located
by a sign-change scan and refined inside their bracket by Illinois regula
falsi (``_bracketed_root``): derivative-free like bisection and as safe,
since the bracket always holds a sign change, but superlinear, so a pair
solve or a crossing search needs a handful of evaluations.
``biphoton.reduce_to_bins`` refines its compensation delay with the same
solver, on the overlap's slope. Everything is pure over immutable specs.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .dispersion import (Axis, OpticalField, Polarization, SellmeierSet,
                         _read_json, load_sellmeier, wavenumber)
from .errors import (BranchAmbiguityError, NoPhaseMatchError,
                     TemperatureRangeError, WavelengthRangeError)

TWO_PI = 2.0 * np.pi
C_M_PER_S = 2.99792458e8  # speed of light in m/s
_SCAN_POINTS = 241        # signal grid that brackets each pair-solve root
_PAIR_TOL = 1e-3          # largest |dk| in rad/m a solved pair may keep
_CROSSING_TOL_C = 1e-9    # width in degC of the crossing's final bracket


class Branch(str, enum.Enum):
    """Which nondegenerate root to take when the bracket holds a mirror pair."""

    SIGNAL_SHORT = "signal_short"   # lam_s below the degeneracy 2*lam_p
    SIGNAL_LONG = "signal_long"


@dataclass(frozen=True)
class PolingSegment:
    """One poling section: period Lambda [m], length L [m], amplitude scale.

    ``amplitude_scale`` in (0, 1] lumps duty-cycle / effective-nonlinearity
    factors into a single knob multiplying this segment's emission amplitude.
    """

    period: float
    length: float
    amplitude_scale: float = 1.0

    def __post_init__(self):
        if not self.period > 0.0:
            raise ValueError("poling period must be > 0")
        if not self.length > 0.0:
            raise ValueError("segment length must be > 0")
        if not 0.0 < self.amplitude_scale <= 1.0:
            raise ValueError("amplitude_scale must be in (0, 1]")


@dataclass(frozen=True)
class CrystalSpec:
    """The physical device: ordered segments + operating conditions.

    axis_map fixes the (total) polarization->axis assignment; sellmeier maps
    each referenced axis to its coefficient set. The pump polarization is a
    stored field because the type-II coupling dictates it and nothing in
    the geometry can infer it.
    """

    segments: tuple
    temperature: float
    pump_wavelength: float
    axis_map: dict
    sellmeier: dict
    pump_polarization: Polarization = Polarization.V
    name: str = ""

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise ValueError("CrystalSpec needs at least one segment")
        object.__setattr__(self, "segments", segs)
        amap = {Polarization(k): Axis(v) for k, v in self.axis_map.items()}
        if set(amap) != {Polarization.H, Polarization.V}:
            raise ValueError("axis_map must assign both H and V")
        object.__setattr__(self, "axis_map", amap)
        smap = {Axis(k): v for k, v in self.sellmeier.items()}
        for axis in set(amap.values()):
            if axis not in smap:
                raise ValueError(f"no SellmeierSet for axis '{axis.value}'")
        object.__setattr__(self, "sellmeier", smap)
        object.__setattr__(self, "pump_polarization",
                           Polarization(self.pump_polarization))
        for sset in smap.values():
            tlo, thi = sset.valid_temperature_C
            if not tlo <= self.temperature <= thi:
                raise TemperatureRangeError(
                    f"crystal temperature {self.temperature:g} C outside "
                    f"validity [{tlo:g}, {thi:g}] C of set {sset.name}")

    @property
    def total_length(self) -> float:
        return sum(s.length for s in self.segments)

    def segment_start(self, index: int) -> float:
        return sum(s.length for s in self.segments[:index])

    def sellmeier_for(self, pol) -> SellmeierSet:
        return self.sellmeier[self.axis_map[Polarization(pol)]]

    def field(self, wavelength: float, pol) -> OpticalField:
        return OpticalField(wavelength, Polarization(pol), self.temperature)


@dataclass(frozen=True)
class PhaseMatchPoint:
    """A solved (pump, signal, idler) triple with its residual mismatch.

    Wavelengths in meters; residual in rad/m. Construction enforces energy
    conservation to 1e-9 relative on the 1/lambda scale.
    """

    pump_wavelength: float
    signal_wavelength: float
    idler_wavelength: float
    signal_pol: Polarization
    idler_pol: Polarization
    residual_mismatch: float

    def __post_init__(self):
        object.__setattr__(self, "signal_pol", Polarization(self.signal_pol))
        object.__setattr__(self, "idler_pol", Polarization(self.idler_pol))
        up = 1.0 / self.pump_wavelength
        gap = abs(up - 1.0 / self.signal_wavelength
                  - 1.0 / self.idler_wavelength)
        if gap > 1e-9 * up:
            raise ValueError(
                "energy conservation violated: |1/lp - 1/ls - 1/li| "
                f"= {gap:.3e} m^-1 exceeds 1e-9 of 1/lp = {up:.3e}")

    @property
    def delta_omega(self) -> float:
        """Angular frequency splitting |omega_s - omega_i| in rad/s."""
        return abs(TWO_PI * C_M_PER_S * (1.0 / self.signal_wavelength
                                         - 1.0 / self.idler_wavelength))


def load_crystal(source) -> CrystalSpec:
    """Build a CrystalSpec from a JSON config file or bundled name.

    Expected keys: segments [{period_um, length_mm, amplitude_scale}],
    temperature_C, pump_nm, axis_map {H: axis, V: axis}, sellmeier_files
    {axis: path-or-bundled-name}, optional pump_polarization (default "V").
    """
    raw = _read_json("crystals", source)
    if not (isinstance(raw["segments"], list)
            and all(isinstance(s, dict) for s in raw["segments"])):
        raise ValueError(f"{raw.where}: 'segments' must be a list of "
                         "JSON objects")
    segments = tuple(
        PolingSegment(period=s["period_um"] * 1e-6,
                      length=s["length_mm"] * 1e-3,
                      amplitude_scale=s.get("amplitude_scale", 1.0))
        for s in raw["segments"])
    sellmeier = {Axis(axis): load_sellmeier(fname)
                 for axis, fname in raw["sellmeier_files"].items()}
    return CrystalSpec(
        segments=segments,
        temperature=raw["temperature_C"],
        pump_wavelength=raw["pump_nm"] * 1e-9,
        axis_map=raw["axis_map"],
        sellmeier=sellmeier,
        pump_polarization=raw.get("pump_polarization", "V"),
        name=raw.get("name", ""),
    )


def delta_k(spec: CrystalSpec, pump: OpticalField, signal: OpticalField,
            idler: OpticalField, period: float) -> float:
    """Phase mismatch k_p - k_s - k_i - 2 pi / period in rad/m.

    ``period=np.inf`` drops the grating term. The caller is responsible
    for idler energy conservation; no check is made here.
    """
    if not period > 0.0:
        raise ValueError("period must be > 0 (np.inf for no grating)")
    kp = wavenumber(pump, spec.sellmeier_for(pump.polarization))
    ks = wavenumber(signal, spec.sellmeier_for(signal.polarization))
    ki = wavenumber(idler, spec.sellmeier_for(idler.polarization))
    return kp - ks - ki - TWO_PI / period


# ---------------------------------------------------------------------------
# the solvers' mismatch evaluator (um units)

def _check_span(spec: CrystalSpec, sets, lam_lo_um, lam_hi_um):
    """Range-check the pump and a signal span [lam_lo_um, lam_hi_um] with
    its slaved idlers; the idler falls as the signal rises, so the span's
    ends bound every pair ``_mismatch`` evaluates inside it."""
    p_set, s_set, i_set = sets
    t = spec.temperature
    lam_p = spec.pump_wavelength * 1e6
    for lam_s in (lam_lo_um, lam_hi_um):
        s_set.check_range(lam_s, t)
    for lam_s in (lam_hi_um, lam_lo_um):
        i_set.check_range(1.0 / (1.0 / lam_p - 1.0 / lam_s), t)
    p_set.check_range(lam_p, t)


def _mismatch(spec: CrystalSpec, sets, lam_s_um, period_um=np.inf):
    """k_p - k_s - k_i - 2 pi/period_um and k_s + k_i, both in rad/um.

    ``sets`` holds the (pump, signal, idler) coefficient sets. ``lam_s_um``
    is a signal wavelength or an array of them; the idler is slaved to the
    pump, and the default period drops the grating term. Nothing is
    range-checked here: callers run ``_check_span`` once per span.
    """
    p_set, s_set, i_set = sets
    t = spec.temperature
    lam_p = spec.pump_wavelength * 1e6
    lam_i = 1.0 / (1.0 / lam_p - 1.0 / lam_s_um)
    kp = TWO_PI * p_set.index(lam_p, t) / lam_p
    ks = TWO_PI * s_set.index(lam_s_um, t) / lam_s_um
    ki = TWO_PI * i_set.index(lam_i, t) / lam_i
    return kp - ks - ki - TWO_PI / period_um, ks + ki


def _bracketed_root(f, a, b, fa, fb, xtol, maxiter=200):
    """Root of ``f`` between ``a`` and ``b`` (``fa``, ``fb`` of opposite
    sign) by Illinois regula falsi.

    The new point replaces the bracket end whose sign it shares; when the
    same end survives twice in a row, its stored value is halved so the
    next step lands on its side and both ends close in. Stops at an exact
    zero or once the bracket is no wider than ``xtol``; returns the last
    point and its value.
    """
    x, fx = a, fa
    for _ in range(maxiter):
        x = b - fb * (b - a) / (fb - fa)
        if not min(a, b) < x < max(a, b):   # rounding at a flat end
            x = 0.5 * (a + b)
        fx = f(x)
        if fx == 0.0:
            break
        if fx * fb < 0.0:
            a, fa = b, fb
        else:
            fa *= 0.5
        b, fb = x, fx
        if abs(b - a) <= xtol:
            break
    return x, fx


def solve_signal_idler(spec: CrystalSpec, segment_index: int,
                       signal_pol=Polarization.H,
                       branch: Branch | None = None,
                       bracket=(1.2e-6, 1.9e-6)) -> PhaseMatchPoint:
    """Solve dk = 0 for the given segment's period.

    The signal bracket is scanned on ``_SCAN_POINTS`` wavelengths for sign
    changes of the mismatch; each is refined by ``_bracketed_root`` to a few
    ulps of the wavelength, and the root must then satisfy |dk| <=
    ``_PAIR_TOL`` rad/m. With two roots in the bracket, ``branch`` must
    pick a side of the degeneracy (2*lam_p); with none, NoPhaseMatchError
    reports the scanned mismatch extremes.
    """
    segment = spec.segments[segment_index]
    period_um = segment.period * 1e6
    signal_pol = Polarization(signal_pol)
    sets = tuple(map(spec.sellmeier_for, (spec.pump_polarization,
                                          signal_pol, signal_pol.other)))

    lam_p_um = spec.pump_wavelength * 1e6
    lo_um, hi_um = bracket[0] * 1e6, bracket[1] * 1e6
    if not lam_p_um < lo_um < hi_um:
        raise ValueError("signal bracket must satisfy lam_p < lo < hi")

    def dk(lam_s_um):
        return _mismatch(spec, sets, lam_s_um, period_um)[0]

    # the refinement stays inside the grid, so one check covers it too
    _check_span(spec, sets, lo_um, hi_um)
    lam_grid = np.linspace(lo_um, hi_um, _SCAN_POINTS)
    dk_grid = dk(lam_grid)
    sign = np.sign(dk_grid)
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    exact = np.nonzero(sign == 0)[0]

    roots = []
    for i in flips:
        roots.append(_bracketed_root(dk, lam_grid[i], lam_grid[i + 1],
                                     dk_grid[i], dk_grid[i + 1],
                                     xtol=1e-15 * hi_um))
    for i in exact:
        roots.append((lam_grid[i], dk_grid[i]))

    if not roots:
        dk_per_m = dk_grid * 1e6
        raise NoPhaseMatchError(
            f"no phase-matching root for segment {segment_index} "
            f"(period {period_um:.4f} um) in signal bracket "
            f"[{lo_um*1e3:.1f}, {hi_um*1e3:.1f}] nm; dk spans "
            f"[{dk_per_m.min():.4g}, {dk_per_m.max():.4g}] rad/m",
            dk_min=float(dk_per_m.min()), dk_max=float(dk_per_m.max()))

    if len(roots) > 1:
        if branch is None:
            raise BranchAmbiguityError(
                f"{len(roots)} phase-matching roots in bracket; pass "
                "branch=Branch.SIGNAL_SHORT or Branch.SIGNAL_LONG",
                roots=[r[0] * 1e-6 for r in roots])
        lam_deg = 2.0 * lam_p_um
        side = [r for r in roots
                if (r[0] < lam_deg) == (Branch(branch) is Branch.SIGNAL_SHORT)]
        if not side:
            raise NoPhaseMatchError(
                f"no root on branch {Branch(branch).value}; roots at "
                f"{[f'{r[0]*1e3:.2f} nm' for r in roots]}")
        if len(side) > 1:
            raise BranchAmbiguityError(
                "branch selection still ambiguous",
                roots=[r[0] * 1e-6 for r in side])
        lam_root, dk_root = side[0]
    else:
        lam_root, dk_root = roots[0]

    residual = dk_root * 1e6  # rad/um -> rad/m
    if abs(residual) > _PAIR_TOL:
        raise NoPhaseMatchError(
            f"root refinement stalled at |dk| = {abs(residual):.3g} rad/m "
            f"(> tol {_PAIR_TOL:g}); mismatch may be discontinuous")
    lam_i_um = 1.0 / (1.0 / lam_p_um - 1.0 / lam_root)
    return PhaseMatchPoint(
        pump_wavelength=spec.pump_wavelength,
        signal_wavelength=lam_root * 1e-6,
        idler_wavelength=lam_i_um * 1e-6,
        signal_pol=signal_pol, idler_pol=signal_pol.other,
        residual_mismatch=residual)


def solve_period(spec: CrystalSpec, target: PhaseMatchPoint) -> float:
    """Poling period [m] that phase-matches ``target``: 2 pi/(k_p - k_s - k_i).

    The target's own pump wavelength is used (conservation was checked when
    the point was built). Raises NoPhaseMatchError when the wavevector
    balance is nonpositive (grating momentum cannot fix that sign).
    """
    denom = delta_k(spec,
                    spec.field(target.pump_wavelength, spec.pump_polarization),
                    spec.field(target.signal_wavelength, target.signal_pol),
                    spec.field(target.idler_wavelength, target.idler_pol),
                    np.inf)
    if denom <= 0.0:
        raise NoPhaseMatchError(
            "phase matching impossible in this configuration: "
            f"k_p - k_s - k_i = {denom:.4g} rad/m is not positive")
    return TWO_PI / denom


@dataclass(frozen=True)
class TuningPoint:
    """One sweep sample: the swept value and its solution (None = gap)."""

    value: float
    point: PhaseMatchPoint | None


def tuning_curve(spec: CrystalSpec, segment_index: int,
                 variable: str = "temperature", sweep=(100.0, 140.0),
                 steps: int = 41, signal_pol=Polarization.H,
                 branch: Branch | None = None) -> list:
    """Sweep temperature or pump wavelength, solving each point independently.

    Points that fail to phase-match (or leave a coefficient set's validity
    range) are recorded as gaps, not raised. The list is ordered exactly as
    the sweep values; reversing the sweep reverses the list.
    """
    if variable not in ("temperature", "pump_wavelength"):
        raise ValueError("variable must be temperature or pump_wavelength")
    if int(steps) < 1:
        raise ValueError("sweep needs at least one step")
    lo, hi = sweep
    if steps == 1 and lo != hi:
        raise ValueError("single-step sweep requires lo == hi")
    values = np.linspace(lo, hi, int(steps))
    out = []
    for v in values:
        try:
            # replace() re-validates, so an out-of-range temperature is a
            # gap too, not an exception
            mod = replace(spec, **{variable: float(v)})
            pt = solve_signal_idler(mod, segment_index, signal_pol=signal_pol,
                                    branch=branch)
        except (NoPhaseMatchError, WavelengthRangeError,
                TemperatureRangeError):
            pt = None
        out.append(TuningPoint(value=float(v), point=pt))
    return out


def crossing_temperature(spec: CrystalSpec,
                         t_bracket=(100.0, 140.0)) -> float:
    """Temperature at which segments 0 and 1 emit the same pair, roles
    exchanged.

    At the crossing, the H signals of segments 0 and 1 are conjugate
    frequencies (nu_0 + nu_1 = nu_p), i.e. the two processes populate the
    same two bins with polarizations swapped. The gap is refined by
    ``_bracketed_root`` until its temperature bracket is no wider than
    ``_CROSSING_TOL_C`` degC.
    """
    c_um = C_M_PER_S * 1e6
    nu_p = c_um / (spec.pump_wavelength * 1e6)

    def gap(t):
        mod = replace(spec, temperature=float(t))
        return sum(c_um / (solve_signal_idler(mod, j).signal_wavelength * 1e6)
                   for j in (0, 1)) - nu_p

    lo, hi = float(t_bracket[0]), float(t_bracket[1])
    glo, ghi = gap(lo), gap(hi)
    if glo * ghi > 0.0:
        raise NoPhaseMatchError(
            f"no tuning-curve crossing in [{lo:g}, {hi:g}] C "
            f"(pair mismatch spans [{glo:.4g}, {ghi:.4g}] THz-equivalent)",
            dk_min=glo, dk_max=ghi)
    return float(_bracketed_root(gap, lo, hi, glo, ghi,
                                 xtol=_CROSSING_TOL_C)[0])
