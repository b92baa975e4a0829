"""Quasi-phase-matching: mismatch evaluation, pair solvers, period design.

Collinear type-II geometry with a CW pump. Energy conservation is enforced
structurally: the idler is always slaved to the signal via
1/lam_p = 1/lam_s + 1/lam_i, and a PhaseMatchPoint refuses construction from
an inconsistent triple. The QPM condition solved is

    dk = k_p - k_s - k_i - 2*pi/Lambda = 0.

Each k = 2*pi*n/lam comes from the axis' ``SellmeierSet``. One evaluator,
``_mismatch``, broadcasts the temperatures, pumps and periods of a stack of
rows against a grid of signal wavelengths, and one batched pair solver,
``_solve_rows``, serves every caller: it range-checks each row, scans all
rows' mismatch for sign changes in one call, and refines each bracketed
root by Illinois regula falsi (``_bracketed_root``): derivative-free like
bisection and as safe, since the bracket always holds a sign change, but
superlinear. Each row repeats a one-row solve's arithmetic, so a
``tuning_curve`` (one call over the sweep) and ``biphoton.joint_spectrum``
(one call over the segments) return bit for bit what
``solve_signal_idler`` (the one-row call) returns point by point.

``crossing_temperature`` solves both segments at both bracket ends in one
call, then runs Newton's method in (T, lam_s) on dk_0(T, lam_s) = 0 and
dk_1(T, lam_i(lam_s)) = 0, with closed-form derivatives from
``SellmeierSet.dn_dT`` and ``dn_dlam``, from the ends' regula falsi point.
An iterate that leaves the bracket hands over to an Illinois search on the
pair-frequency gap between the ends. ``biphoton.reduce_to_bins`` refines
its compensation delay with the same root finder, on the overlap's slope.
Everything is pure over immutable specs.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import dispersion
from .dispersion import (Axis, OpticalField, Polarization, SellmeierSet,
                         _read_json, wavenumber)
from .errors import (BranchAmbiguityError, NoPhaseMatchError,
                     TemperatureRangeError, WavelengthRangeError)

TWO_PI = 2.0 * np.pi
C_M_PER_S = 2.99792458e8  # speed of light in m/s
_SCAN_POINTS = 241        # signal grid that brackets each pair-solve root
_PAIR_TOL = 1e-3          # largest |dk| in rad/m a solved pair may keep
_CROSSING_TOL_C = 1e-9    # last Newton step, or final bracket, in degC
_NEWTON_STEPS = 20        # Newton steps before the crossing's bracket search
_SIGNAL_BRACKET = (1.2e-6, 1.9e-6)   # default signal search range [m]


class Branch(str, enum.Enum):
    """Which nondegenerate root to take when the bracket holds a mirror pair."""

    SIGNAL_SHORT = "signal_short"   # lam_s below the degeneracy 2*lam_p
    SIGNAL_LONG = "signal_long"


def _check_temperature(sellmeier: dict, t_c: float) -> None:
    """TemperatureRangeError unless every set in ``sellmeier`` covers t_c."""
    for sset in sellmeier.values():
        tlo, thi = sset.valid_temperature_C
        if not tlo <= t_c <= thi:
            raise TemperatureRangeError(
                f"crystal temperature {t_c:g} C outside validity "
                f"[{tlo:g}, {thi:g}] C of set {sset.name}")


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class CrystalSpec:
    """The physical device: ordered segments + operating conditions.

    axis_map fixes the (total) polarization->axis assignment; sellmeier maps
    each referenced axis to its coefficient set. A mapping whose keys (and
    axis_map's values) are already the enums is kept as given, so the specs
    that ``replace`` derives share their maps instead of each holding
    copies. The pump polarization is a stored field because the type-II
    coupling dictates it and nothing in the geometry can infer it.
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
        amap = self.axis_map
        if not all(type(k) is Polarization and type(v) is Axis
                   for k, v in amap.items()):
            amap = {Polarization(k): Axis(v) for k, v in amap.items()}
        if set(amap) != {Polarization.H, Polarization.V}:
            raise ValueError("axis_map must assign both H and V")
        object.__setattr__(self, "axis_map", amap)
        smap = self.sellmeier
        if not all(type(k) is Axis for k in smap):
            smap = {Axis(k): v for k, v in smap.items()}
        for axis in set(amap.values()):
            if axis not in smap:
                raise ValueError(f"no SellmeierSet for axis '{axis.value}'")
        object.__setattr__(self, "sellmeier", smap)
        object.__setattr__(self, "pump_polarization",
                           Polarization(self.pump_polarization))
        _check_temperature(smap, self.temperature)

    @property
    def total_length(self) -> float:
        return sum(s.length for s in self.segments)

    def segment_start(self, index: int) -> float:
        return sum(s.length for s in self.segments[:index])

    def sellmeier_for(self, pol) -> SellmeierSet:
        return self.sellmeier[self.axis_map[Polarization(pol)]]

    def field(self, wavelength: float, pol) -> OpticalField:
        return OpticalField(wavelength, Polarization(pol), self.temperature)


@dataclass(frozen=True, slots=True)
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
        PolingSegment(period=s.number("period_um") * 1e-6,
                      length=s.number("length_mm") * 1e-3,
                      amplitude_scale=s.number("amplitude_scale", 1.0))
        for s in raw["segments"])
    # looked up in dispersion at each call, as biphoton looks up group_index
    sellmeier = {Axis(axis): dispersion.load_sellmeier(fname)
                 for axis, fname in raw.object("sellmeier_files").items()}
    return CrystalSpec(
        segments=segments,
        temperature=raw.number("temperature_C"),
        pump_wavelength=raw.number("pump_nm") * 1e-9,
        axis_map=raw.object("axis_map"),
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

def _check_span(sets, t_c, lam_p_um, lam_lo_um, lam_hi_um):
    """Range-check the pump and a signal span [lam_lo_um, lam_hi_um] with
    its slaved idlers at ``t_c``; the idler falls as the signal rises, so
    the span's ends bound every pair ``_mismatch`` evaluates inside it."""
    p_set, s_set, i_set = sets
    for lam_s in (lam_lo_um, lam_hi_um):
        s_set.check_range(lam_s, t_c)
    for lam_s in (lam_hi_um, lam_lo_um):
        i_set.check_range(1.0 / (1.0 / lam_p_um - 1.0 / lam_s), t_c)
    p_set.check_range(lam_p_um, t_c)


def _mismatch(sets, t_c, lam_p_um, lam_s_um, period_um=np.inf):
    """k_p - k_s - k_i - 2 pi/period_um and k_s + k_i, both in rad/um.

    ``sets`` holds the (pump, signal, idler) coefficient sets. The
    temperature, pump, signal and period broadcast against each other, so
    a column of rows against a row of signals scans every row at once;
    the idler is slaved to the pump, and the default period drops the
    grating term. Nothing is range-checked here: callers run
    ``_check_span`` once per span.
    """
    p_set, s_set, i_set = sets
    lam_i = 1.0 / (1.0 / lam_p_um - 1.0 / lam_s_um)
    kp = TWO_PI * p_set.index(lam_p_um, t_c) / lam_p_um
    ks = TWO_PI * s_set.index(lam_s_um, t_c) / lam_s_um
    ki = TWO_PI * i_set.index(lam_i, t_c) / lam_i
    return kp - ks - ki - TWO_PI / period_um, ks + ki


def _mismatch_slopes(sets, t_c, lam_p_um, lam_s_um):
    """d(dk)/dT [rad/um/degC] and d(dk)/dlam_s [rad/um^2] of ``_mismatch``
    at a fixed pump, the idler slaved (dlam_i/dlam_s = -(lam_i/lam_s)^2)."""
    p_set, s_set, i_set = sets
    lam_i = 1.0 / (1.0 / lam_p_um - 1.0 / lam_s_um)

    def dk_dlam(sset, lam):
        return TWO_PI * (sset.dn_dlam(lam, t_c)
                         - sset.index(lam, t_c) / lam) / lam

    d_t = TWO_PI * (p_set.dn_dT(lam_p_um, t_c) / lam_p_um
                    - s_set.dn_dT(lam_s_um, t_c) / lam_s_um
                    - i_set.dn_dT(lam_i, t_c) / lam_i)
    d_lam = (dk_dlam(i_set, lam_i) * (lam_i / lam_s_um) ** 2
             - dk_dlam(s_set, lam_s_um))
    return d_t, d_lam


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


# ---------------------------------------------------------------------------
# pair solves

def _pick_root(roots, segment_index, period_um, dk_row, branch, lam_p_um,
               lo_um, hi_um):
    """The one root (lam_s_um, dk) of a scanned row that the branch
    selects; the pair solve's errors otherwise."""
    if not roots:
        dk_per_m = dk_row * 1e6
        raise NoPhaseMatchError(
            f"no phase-matching root for segment {segment_index} "
            f"(period {period_um:.4f} um) in signal bracket "
            f"[{lo_um*1e3:.1f}, {hi_um*1e3:.1f}] nm; dk spans "
            f"[{dk_per_m.min():.4g}, {dk_per_m.max():.4g}] rad/m",
            dk_min=float(dk_per_m.min()), dk_max=float(dk_per_m.max()))
    if len(roots) == 1:
        return roots[0]
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
    return side[0]


def _solve_rows(spec: CrystalSpec, segments, t_c, lam_p,
                signal_pol=Polarization.H, branch: Branch | None = None,
                bracket=_SIGNAL_BRACKET) -> list:
    """Pair solves of rows (segment index, temperature [degC], pump [m]):
    each row's PhaseMatchPoint, or the exception its own
    ``solve_signal_idler`` would raise, in row order.

    ``segments``, ``t_c`` and ``lam_p`` are each one value that every row
    shares or a 1-D sequence with one value per row. Each row is
    range-checked as ``replace(spec, ...)`` and its span would be. The
    rows that pass share one sign-change scan of the mismatch on
    ``_SCAN_POINTS`` signal wavelengths, in which a shared value stays a
    scalar; every bracketed root is refined by the scalar
    ``_bracketed_root``, so each row repeats a one-row solve's arithmetic
    bit for bit.
    """
    n_seg = len(spec.segments)
    for j in np.ravel(segments):
        if not 0 <= j < n_seg:
            raise ValueError(f"segment index {j} is out of range: the "
                             f"crystal has {n_seg} segment(s), 0..{n_seg - 1}")
    signal_pol = Polarization(signal_pol)
    sets = tuple(map(spec.sellmeier_for, (spec.pump_polarization,
                                          signal_pol, signal_pol.other)))
    period_um = (spec.segments[segments].period * 1e6
                 if np.ndim(segments) == 0 else
                 np.array([spec.segments[j].period * 1e6 for j in segments]))
    lo_um, hi_um = bracket[0] * 1e6, bracket[1] * 1e6
    rows = list(np.broadcast(segments, t_c, lam_p))
    outcomes, scanned = [None] * len(rows), []
    for r, (j, t, lp) in enumerate(rows):
        try:
            _check_temperature(spec.sellmeier, float(t))
            if not lp * 1e6 < lo_um < hi_um:
                raise ValueError(
                    "signal bracket must satisfy lam_p < lo < hi")
            # the refinement stays inside the grid, so one check covers it
            _check_span(sets, float(t), float(lp) * 1e6, lo_um, hi_um)
        except ValueError as exc:
            outcomes[r] = exc
        else:
            scanned.append(r)
    if not scanned:
        return outcomes

    def column(x):
        return x if np.ndim(x) == 0 else np.asarray(x)[scanned, None]

    lam_grid = np.linspace(lo_um, hi_um, _SCAN_POINTS)
    dk_grid = np.atleast_2d(_mismatch(sets, column(t_c), column(lam_p) * 1e6,
                                      lam_grid, column(period_um))[0])
    sign = np.sign(dk_grid)
    flips = sign[:, :-1] * sign[:, 1:] < 0
    for k, r in enumerate(scanned):
        j, t, lp = rows[r]
        t, lp_um = float(t), float(lp) * 1e6
        per_um = spec.segments[j].period * 1e6
        dk_row = dk_grid[k]

        def dk(lam_s_um):
            return _mismatch(sets, t, lp_um, lam_s_um, per_um)[0]

        roots = [_bracketed_root(dk, lam_grid[i], lam_grid[i + 1],
                                 dk_row[i], dk_row[i + 1],
                                 xtol=1e-15 * hi_um)
                 for i in np.nonzero(flips[k])[0]]
        roots += [(lam_grid[i], dk_row[i])
                  for i in np.nonzero(sign[k] == 0)[0]]
        try:
            lam_root, dk_root = _pick_root(roots, j, per_um, dk_row, branch,
                                           lp_um, lo_um, hi_um)
            residual = dk_root * 1e6  # rad/um -> rad/m
            if abs(residual) > _PAIR_TOL:
                raise NoPhaseMatchError(
                    f"root refinement stalled at |dk| = {abs(residual):.3g} "
                    f"rad/m (> tol {_PAIR_TOL:g}); mismatch may be "
                    "discontinuous")
        except (NoPhaseMatchError, BranchAmbiguityError) as exc:
            outcomes[r] = exc
            continue
        lam_i_um = 1.0 / (1.0 / lp_um - 1.0 / lam_root)
        outcomes[r] = PhaseMatchPoint(
            pump_wavelength=float(lp),
            signal_wavelength=lam_root * 1e-6,
            idler_wavelength=lam_i_um * 1e-6,
            signal_pol=signal_pol, idler_pol=signal_pol.other,
            residual_mismatch=residual)
    return outcomes


def _solved(outcomes) -> list:
    """``_solve_rows``' points; raises the first row's exception if any."""
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def solve_signal_idler(spec: CrystalSpec, segment_index: int,
                       signal_pol=Polarization.H,
                       branch: Branch | None = None,
                       bracket=_SIGNAL_BRACKET) -> PhaseMatchPoint:
    """Solve dk = 0 for the given segment's period.

    The signal bracket is scanned on ``_SCAN_POINTS`` wavelengths for sign
    changes of the mismatch; each is refined by ``_bracketed_root`` to a few
    ulps of the wavelength, and the root must then satisfy |dk| <=
    ``_PAIR_TOL`` rad/m. With two roots in the bracket, ``branch`` must
    pick a side of the degeneracy (2*lam_p); with none, NoPhaseMatchError
    reports the scanned mismatch extremes. This is the one-row case of
    the batched solver behind ``tuning_curve``.
    """
    return _solved(_solve_rows(spec, segment_index, spec.temperature,
                               spec.pump_wavelength, signal_pol, branch,
                               bracket))[0]


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


@dataclass(frozen=True, slots=True)
class TuningPoint:
    """One sweep sample: the swept value and its solution (None = gap)."""

    value: float
    point: PhaseMatchPoint | None


def tuning_curve(spec: CrystalSpec, segment_index: int,
                 variable: str = "temperature", sweep=(100.0, 140.0),
                 steps: int = 41, signal_pol=Polarization.H,
                 branch: Branch | None = None) -> list:
    """Sweep temperature or pump wavelength, one pair solve per point.

    All points are solved in one batched scan, each exactly as
    ``solve_signal_idler`` would solve it alone. Points that fail to
    phase-match (or leave a coefficient set's validity range) are recorded
    as gaps, not raised. The list is ordered exactly as the sweep values;
    reversing the sweep reverses the list.
    """
    if variable not in ("temperature", "pump_wavelength"):
        raise ValueError("variable must be temperature or pump_wavelength")
    if int(steps) < 1:
        raise ValueError("sweep needs at least one step")
    lo, hi = sweep
    if steps == 1 and lo != hi:
        raise ValueError("single-step sweep requires lo == hi")
    values = np.linspace(lo, hi, int(steps))
    rows = {"temperature": spec.temperature,
            "pump_wavelength": spec.pump_wavelength, variable: values}
    out = []
    for v, pt in zip(values, _solve_rows(spec, segment_index,
                                         rows["temperature"],
                                         rows["pump_wavelength"],
                                         signal_pol, branch)):
        if isinstance(pt, (NoPhaseMatchError, WavelengthRangeError,
                           TemperatureRangeError)):
            pt = None
        elif isinstance(pt, Exception):
            raise pt
        out.append(TuningPoint(value=float(v), point=pt))
    return out


def _newton_crossing(spec: CrystalSpec, t_ends, gaps, lam_ends):
    """Crossing temperature by Newton's method in (T, lam), or None.

    lam [um] is segment 0's H signal, and the crossing solves
    dk_0(T, lam) = 0 and dk_1(T, mu) = 0 with mu = lam_i(lam): segment 1's
    H signal is segment 0's idler. The start is the regula falsi point of
    the bracket ends (their temperatures, pair-frequency ``gaps`` and
    segment-0 signals ``lam_ends`` [m]). None once an iterate leaves the
    temperature bracket or puts lam or mu outside the signal bracket that
    the ends' pair solves range-checked, or after ``_NEWTON_STEPS``.
    """
    (t_lo, t_hi), (g_lo, g_hi) = t_ends, gaps
    t_min, t_max = sorted(t_ends)
    if g_lo == g_hi:
        return None
    sets = tuple(map(spec.sellmeier_for, (spec.pump_polarization,
                                          Polarization.H, Polarization.V)))
    lam_p = spec.pump_wavelength * 1e6
    lo_um, hi_um = _SIGNAL_BRACKET[0] * 1e6, _SIGNAL_BRACKET[1] * 1e6
    periods = np.array([seg.period * 1e6 for seg in spec.segments[:2]])

    def idler(lam):
        return 1.0 / (1.0 / lam_p - 1.0 / lam)

    def inside(t, lam):
        return (t_min <= t <= t_max and lo_um <= lam <= hi_um
                and lo_um <= idler(lam) <= hi_um)

    w = g_lo / (g_lo - g_hi)
    t = t_lo + w * (t_hi - t_lo)
    lam = (lam_ends[0] + w * (lam_ends[1] - lam_ends[0])) * 1e6
    if not inside(t, lam):
        return None
    for _ in range(_NEWTON_STEPS):
        mu = idler(lam)
        x = np.array([lam, mu])
        f0, f1 = _mismatch(sets, t, lam_p, x, periods)[0].tolist()
        (a, c), (b, d) = (g.tolist() for g in
                          _mismatch_slopes(sets, t, lam_p, x))
        d *= -(mu / lam) ** 2          # dmu/dlam
        det = a * d - b * c
        if det == 0.0:
            return None
        step_t = (f0 * d - b * f1) / det
        t, lam = t - step_t, lam - (a * f1 - c * f0) / det
        if not inside(t, lam):
            return None
        if abs(step_t) <= _CROSSING_TOL_C:
            return t
    return None


def crossing_temperature(spec: CrystalSpec,
                         t_bracket=(100.0, 140.0)) -> float:
    """Temperature at which segments 0 and 1 emit the same pair, roles
    exchanged.

    At the crossing, the H signals of segments 0 and 1 are conjugate
    frequencies (nu_0 + nu_1 = nu_p), i.e. the two processes populate the
    same two bins with polarizations swapped. Both segments are solved at
    both bracket ends in one batched call, whose errors propagate; Newton's
    method in (T, lam_s) (``_newton_crossing``) then converges on the
    crossing until its temperature step is no larger than
    ``_CROSSING_TOL_C`` degC. If an iterate leaves the bracket, the gap
    nu_0 + nu_1 - nu_p is refined by ``_bracketed_root`` instead, until its
    temperature bracket is no wider than ``_CROSSING_TOL_C``.
    """
    c_um = C_M_PER_S * 1e6
    nu_p = c_um / (spec.pump_wavelength * 1e6)

    def pairs(*temps):
        n = len(temps)
        return _solved(_solve_rows(spec, (0, 1) * n, np.repeat(temps, 2),
                                   spec.pump_wavelength))

    def gap(p0, p1):
        return (c_um / (p0.signal_wavelength * 1e6)
                + c_um / (p1.signal_wavelength * 1e6) - nu_p)

    lo, hi = float(t_bracket[0]), float(t_bracket[1])
    lo0, lo1, hi0, hi1 = pairs(lo, hi)
    glo, ghi = gap(lo0, lo1), gap(hi0, hi1)
    if glo * ghi > 0.0:
        raise NoPhaseMatchError(
            f"no tuning-curve crossing in [{lo:g}, {hi:g}] C "
            f"(pair mismatch spans [{glo:.4g}, {ghi:.4g}] THz-equivalent)",
            dk_min=glo, dk_max=ghi)
    t_star = _newton_crossing(spec, (lo, hi), (glo, ghi),
                              (lo0.signal_wavelength, hi0.signal_wavelength))
    if t_star is None:
        t_star = _bracketed_root(lambda t: gap(*pairs(t)), lo, hi, glo, ghi,
                                 xtol=_CROSSING_TOL_C)[0]
    return float(t_star)
