"""Phase-matching solvers against closed-form toy oracles + frozen defaults.

Toy arithmetic (constant indices, pump V->ordinary n_o, signal H->extra n_e,
idler slaved): dk = 0 reduces to (n_o - n_e)/lam_s = 1/Lambda, i.e.
lam_s = Lambda (n_o - n_e). A signal index whose square is linear in
lam^2, n_e^2 = a1 - a6 lam^2, gives the root of
lam^2 (1/Lambda^2 + a6) - 2 n_o lam/Lambda + n_o^2 - a1 = 0. The type-0
crystal (one index for signal and idler) is symmetric under signal<->idler
exchange, so its roots come in mirrored pairs.
"""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freqbin.biphoton import segment_amplitude
from freqbin.dispersion import Axis, Polarization, SellmeierSet
from freqbin.errors import (BranchAmbiguityError, NoPhaseMatchError,
                            TemperatureRangeError, WavelengthRangeError)
from freqbin.qpm import (_CROSSING_TOL_C, _PAIR_TOL, Branch, CrystalSpec,
                         PhaseMatchPoint, PolingSegment, _bracketed_root,
                         _mismatch, _pair_sets, _row_mismatch,
                         crossing_temperature, load_crystal, solve_period,
                         solve_signal_idler, tuning_curve)

from conftest import PAIRINGS, const_set, delta_k, design_crystal

C = 2.99792458e8


# --- toy oracles -----------------------------------------------------------

def test_const_toy_root_closed_form(const_crystal):
    pt = solve_signal_idler(const_crystal, 0)
    lam_s = const_crystal.segments[0].period * (2.3 - 2.2)
    assert pt.signal_wavelength == pytest.approx(lam_s, rel=1e-12)
    # slaved idler
    li = 1.0 / (1.0 / const_crystal.pump_wavelength - 1.0 / lam_s)
    assert pt.idler_wavelength == pytest.approx(li, rel=1e-12)
    assert pt.signal_pol.value == "H" and pt.idler_pol.value == "V"


def test_const_toy_period_round_trip(const_crystal):
    pt = solve_signal_idler(const_crystal, 0)
    period = solve_period(const_crystal, pt)
    assert period == pytest.approx(const_crystal.segments[0].period,
                                   rel=1e-12)


def test_linear_toy_root_closed_form():
    # n_e^2 = a1 - a6 lam^2 (a two-pole set with only a1 and a6)
    a1, a6, n_o, lam_um = 4.9, 0.02, 2.3, 15.0
    e = SellmeierSet(name="lin_e", axis=Axis.EXTRAORDINARY,
                     coefficients={"a1": a1, "a6": a6},
                     valid_wavelength_um=(0.2, 6.0),
                     valid_temperature_C=(-50.0, 500.0))
    o = const_set("lin_o", Axis.ORDINARY, n_o)
    spec = CrystalSpec(segments=(PolingSegment(lam_um * 1e-6, 20e-3),),
                       temperature=25.0, pump_wavelength=775e-9,
                       axis_map={"H": "extraordinary", "V": "ordinary"},
                       sellmeier={"extraordinary": e, "ordinary": o})
    pt = solve_signal_idler(spec, 0)
    # the smaller root of the quadratic; the other lies near 2 n_o Lambda
    qa, qb, qc = 1.0 / lam_um ** 2 + a6, -2.0 * n_o / lam_um, n_o ** 2 - a1
    oracle = 2.0 * qc / (-qb + np.sqrt(qb * qb - 4.0 * qa * qc))   # um
    assert pt.signal_wavelength * 1e6 == pytest.approx(oracle, rel=1e-12)
    assert solve_period(spec, pt) == pytest.approx(lam_um * 1e-6, rel=1e-12)


def test_quad_toy_mirrored_roots_need_branch(quad_crystal):
    with pytest.raises(BranchAmbiguityError) as exc:
        solve_signal_idler(quad_crystal, 0)
    roots = sorted(exc.value.roots)
    assert len(roots) == 2
    assert roots[0] * 1e9 == pytest.approx(1450.0, abs=1e-6)
    assert roots[1] * 1e9 == pytest.approx(1664.8148, abs=1e-4)


def test_quad_toy_branch_selection_and_conjugacy(quad_crystal):
    lam_deg = 2.0 * quad_crystal.pump_wavelength
    short = solve_signal_idler(quad_crystal, 0, branch=Branch.SIGNAL_SHORT)
    long = solve_signal_idler(quad_crystal, 0, branch=Branch.SIGNAL_LONG)
    assert short.signal_wavelength < lam_deg < long.signal_wavelength
    # mirrored pair: one branch's idler is the other's signal
    assert short.idler_wavelength == pytest.approx(long.signal_wavelength,
                                                   rel=1e-12)
    assert long.idler_wavelength == pytest.approx(short.signal_wavelength,
                                                  rel=1e-12)


def test_branch_filters_a_single_root(default_spec):
    # each bundled segment has one root: segment 0's signal lies below the
    # degeneracy, segment 1's above it. The other branch used to take that
    # root anyway, since a branch was applied only to two or more roots
    for j, (own, other) in enumerate([tuple(Branch), tuple(Branch)[::-1]]):
        pt = solve_signal_idler(default_spec, j)
        lam_nm = pt.signal_wavelength * 1e9
        assert solve_signal_idler(default_spec, j, branch=own) == pt
        with pytest.raises(NoPhaseMatchError) as exc:
            solve_signal_idler(default_spec, j, branch=other)
        assert f"on branch {other.value}" in str(exc.value)
        assert f"'{lam_nm:.2f} nm'" in str(exc.value)
        assert exc.value.dk_min < 0.0 < exc.value.dk_max
        curve = tuning_curve(default_spec, j, steps=3, branch=other)
        assert [tp.point for tp in curve] == [None] * 3
    with pytest.raises(ValueError, match="'sideways' is not a valid Branch"):
        solve_signal_idler(default_spec, 0, branch="sideways")


# --- residuals / conservation / errors -------------------------------------

def test_residual_below_tolerance(default_spec):
    for j in range(2):
        pt = solve_signal_idler(default_spec, j)
        assert abs(pt.residual_mismatch) < 1e-3


def test_delta_k_matches_reported_residual(default_spec):
    # the scalar SI-unit oracle against the solver's um-unit mismatch
    pt = solve_signal_idler(default_spec, 0)
    dk = delta_k(default_spec, pt.pump_wavelength, pt.signal_wavelength,
                 pt.idler_wavelength, default_spec.segments[0].period,
                 pt.signal_pol)
    assert dk == pytest.approx(pt.residual_mismatch, abs=1e-5)


def test_delta_k_unpoled_equals_grating_at_root(const_crystal):
    pt = solve_signal_idler(const_crystal, 0)
    period = const_crystal.segments[0].period
    free = delta_k(const_crystal, pt.pump_wavelength, pt.signal_wavelength,
                   pt.idler_wavelength, np.inf)   # no grating
    assert free == pytest.approx(2.0 * np.pi / period, rel=1e-10)


def test_phase_match_point_rejects_nonconserving_triple():
    with pytest.raises(ValueError, match="energy conservation"):
        PhaseMatchPoint(pump_wavelength=775e-9, signal_wavelength=1.55e-6,
                        idler_wavelength=1.54e-6, signal_pol="H",
                        idler_pol="V", residual_mismatch=0.0)


def test_phase_match_point_rejects_an_idler_polarized_as_its_signal():
    # solve_period takes the idler's set from signal_pol.other, so an H/H
    # target would get the V set silently (9.25 um on the default crystal;
    # the H set gives 6.59 um)
    lam_p, lam_s = 775e-9, 1.506e-6
    lam_i = 1.0 / (1.0 / lam_p - 1.0 / lam_s)
    for pol in ("H", "V"):
        with pytest.raises(ValueError, match="idler_pol must be signal_pol"):
            PhaseMatchPoint(lam_p, lam_s, lam_i, pol, pol, 0.0)


def test_delta_omega_property():
    lam_p, lam_s = 775e-9, 1.507e-6
    lam_i = 1.0 / (1.0 / lam_p - 1.0 / lam_s)
    pt = PhaseMatchPoint(lam_p, lam_s, lam_i, "H", "V", 0.0)
    c = 2.99792458e8
    expected = abs(2 * np.pi * c * (1 / lam_s - 1 / lam_i))
    assert pt.delta_omega == pytest.approx(expected, rel=1e-12)


def test_no_root_reports_mismatch_span(const_crystal):
    # Lambda = 10 um puts the root at 1.0 um, below the default bracket
    spec = dataclasses.replace(const_crystal,
                               segments=(PolingSegment(10e-6, 20e-3),))
    with pytest.raises(NoPhaseMatchError) as exc:
        solve_signal_idler(spec, 0)
    assert exc.value.dk_min is not None and exc.value.dk_max is not None
    assert exc.value.dk_max < 0.0     # mismatch negative across the bracket


@pytest.mark.parametrize("index", [2, 5, -1])
def test_segment_index_out_of_range_is_rejected(default_spec, index):
    # -1 would silently pick the last grating; 2 and 5 index past the end
    with pytest.raises(ValueError, match=rf"segment index {index} .* 2 "):
        solve_signal_idler(default_spec, index)
    with pytest.raises(ValueError, match=rf"segment index {index} "):
        tuning_curve(default_spec, index, steps=3)


def test_solve_period_impossible_sign(const_crystal):
    # pump on the low-index axis: k_p - k_s - k_i = -2 pi (n_o-n_e)/lam_s < 0
    spec = dataclasses.replace(const_crystal, pump_polarization="H")
    lam_s = 1.5e-6
    lam_i = 1.0 / (1.0 / spec.pump_wavelength - 1.0 / lam_s)
    target = PhaseMatchPoint(spec.pump_wavelength, lam_s, lam_i,
                             signal_pol="V", idler_pol="H",
                             residual_mismatch=0.0)
    with pytest.raises(NoPhaseMatchError, match="not positive"):
        solve_period(spec, target)


@pytest.mark.parametrize("e_range, o_range, bad", [
    ((1.3, 6.0), (0.2, 6.0), "1.2 um"),      # signal at the bracket's low end
    ((0.2, 6.0), (0.2, 2.0), "2.18"),        # idler of the low-end signal
    ((0.2, 6.0), (0.8, 6.0), "0.775 um")],   # pump
    ids=["signal", "idler", "pump"])
def test_span_outside_validity_is_refused(e_range, o_range, bad):
    # signal H -> extraordinary; pump and idler V -> ordinary. Both the pair
    # solve and the amplitude over the same span check every wavelength
    # once, before any mismatch is evaluated.
    spec = CrystalSpec(segments=(PolingSegment(15.0e-6, 20e-3),),
                       temperature=25.0, pump_wavelength=775e-9,
                       axis_map={"H": "extraordinary", "V": "ordinary"},
                       sellmeier={"extraordinary": const_set(
                                      "e", Axis.EXTRAORDINARY, 2.2, e_range),
                                  "ordinary": const_set(
                                      "o", Axis.ORDINARY, 2.3, o_range)})
    with pytest.raises(WavelengthRangeError, match=bad):
        solve_signal_idler(spec, 0)
    omega = 2.0 * np.pi * C / np.linspace(1.2e-6, 1.9e-6, 101)
    with pytest.raises(WavelengthRangeError, match=bad):
        segment_amplitude(spec, 0, omega)


# --- solver properties over the bundled pairings ---------------------------

def test_bracketed_root_is_superlinear():
    # bisection needs 52 halvings to shrink [0, 3] below 1e-15
    calls = []

    def f(x):
        calls.append(x)
        return x ** 3 - 2.0

    x, fx = _bracketed_root(f, 0.0, 3.0, -2.0, 25.0, xtol=1e-15)
    assert len(calls) <= 15
    assert x == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-15)
    assert fx == f(x)


def _with_slope(calls, f, df):
    """(f, f') as ``_bracketed_root`` takes them, recording each point."""
    def both(x):
        calls.append(x)
        return f(x), df(x)
    return both


def test_bracketed_root_newton_converges_quadratically():
    calls = []
    g = _with_slope(calls, lambda x: x ** 3 - 2.0, lambda x: 3.0 * x * x)
    x, fx = _bracketed_root(g, 0.0, 3.0, -2.0, 25.0, xtol=1e-15, dfb=27.0)
    assert x == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-15)
    assert fx == x ** 3 - 2.0
    # Newton from 3: 2.074, 1.538, 1.307, 1.2616, 1.259923, 1.25992105,
    # where Illinois alone takes 12 points
    assert calls[0] == 3.0 - 25.0 / 27.0
    assert len(calls) <= 7


def test_bracketed_root_newton_ends_on_a_closed_bracket():
    # Newton from the convex side of e^x - 2 approaches the root from
    # above without crossing it; the step lengthened to xtol/2 crosses it,
    # so the point returned ends a sign change no wider than xtol
    calls = []
    g = _with_slope(calls, lambda x: math.exp(x) - 2.0, math.exp)
    xtol = 1e-9
    x, fx = _bracketed_root(g, 0.0, 3.0, -1.0, math.exp(3.0) - 2.0,
                            xtol=xtol, dfb=math.exp(3.0))
    assert fx == math.exp(x) - 2.0
    assert fx == 0.0 or any(
        abs(c - x) <= xtol and (math.exp(c) - 2.0) * fx < 0.0
        for c in calls[:-1])
    assert abs(x - math.log(2.0)) <= xtol
    assert len(calls) <= 7


def test_bracketed_root_takes_the_illinois_step_where_newton_cannot():
    # f' = 0 at the start (x^2 - 1 at 0), then a Newton step that leaves
    # the bracket (atan from 10 lands near -139): both are Illinois steps,
    # and the search still converges
    for f, df, a, b, dfb in ((lambda x: x * x - 1.0, lambda x: 2.0 * x,
                              3.0, 0.0, 0.0),
                             (math.atan, lambda x: 1.0 / (1.0 + x * x),
                              -1.0, 10.0, 1.0 / 101.0)):
        calls = []
        fa, fb = f(a), f(b)
        x, _ = _bracketed_root(_with_slope(calls, f, df), a, b, fa, fb,
                               xtol=1e-14, dfb=dfb)
        assert calls[0] == b - fb * (b - a) / (fb - fa)
        assert abs(f(x)) < 1e-14
        assert len(calls) <= 8


@settings(max_examples=30)
@given(pairing=st.sampled_from(sorted(PAIRINGS)),
       t_c=st.floats(50.0, 170.0), lam_s=st.floats(1.2, 1.9),
       period_um=st.sampled_from([np.inf, 7.4, 9.6]),
       pol=st.sampled_from(["H", "V"]))
def test_row_mismatch_is_the_array_mismatch_bit_for_bit(pairing, t_c, lam_s,
                                                        period_um, pol):
    # the pair solves refine in Python floats on one row's terms; each
    # value must equal the array scan's at the same signal
    sets = _pair_sets(design_crystal(pairing), Polarization(pol))
    lam_p = 0.775
    dk = _row_mismatch(sets, t_c, lam_p, period_um)
    grid = np.array([1.2, lam_s, 1.9])
    scan = _mismatch(sets, np.array([[t_c]]), lam_p, grid, period_um)[0][0]
    assert [dk(float(x)) for x in grid] == scan.tolist()
    assert dk(lam_s) == _mismatch(sets, t_c, lam_p, lam_s, period_um)[0]


def _bisect(f, lo, hi, width):
    """Plain bisection of f on [lo, hi] down to ``width``; the midpoint."""
    flo = f(lo)
    assert flo * f(hi) < 0.0
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        fm = f(mid)
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


@settings(max_examples=50)
@given(pairing=st.sampled_from(sorted(PAIRINGS)),
       t_c=st.floats(50.0, 170.0), segment=st.integers(0, 1))
def test_pair_root_properties(pairing, t_c, segment):
    spec = dataclasses.replace(design_crystal(pairing), temperature=t_c)
    tol = _PAIR_TOL
    pt = solve_signal_idler(spec, segment)
    lp, ls, li = pt.pump_wavelength, pt.signal_wavelength, pt.idler_wavelength
    assert abs(1.0 / lp - 1.0 / ls - 1.0 / li) <= 1e-13 / lp
    assert abs(pt.residual_mismatch) <= tol
    period = spec.segments[segment].period

    def dk(lam_s):
        return delta_k(spec, lp, lam_s, 1.0 / (1.0 / lp - 1.0 / lam_s),
                       period)

    assert abs(dk(ls)) <= tol
    root = _bisect(dk, 1.2e-6, 1.9e-6, 0.0)
    assert ls == pytest.approx(root, rel=1e-12)
    # period <-> pair round trip: 2 pi/(k_p - k_s - k_i) at the root is the
    # segment's period up to the residual's share of the grating vector
    rel = abs(pt.residual_mismatch) * period / (2.0 * np.pi) + 1e-13
    assert solve_period(spec, pt) == pytest.approx(period, rel=rel)


def _target(spec, signal_um, pol):
    """The pair of ``spec``'s pump with signal ``signal_um`` [um] polarized
    ``pol`` and its slaved idler."""
    lam_p, lam_s = spec.pump_wavelength, signal_um * 1e-6
    return PhaseMatchPoint(lam_p, lam_s, 1.0 / (1.0 / lam_p - 1.0 / lam_s),
                           pol, pol.other, 0.0)


@settings(max_examples=60)
@given(pairing=st.sampled_from(sorted(PAIRINGS)),
       t_c=st.floats(50.0, 170.0), signal_um=st.floats(1.45, 1.60),
       pol=st.sampled_from(tuple(Polarization)))
def test_solve_period_is_two_pi_over_the_unpoled_mismatch(pairing, t_c,
                                                          signal_um, pol):
    # the scalar SI-unit oracle's 2 pi/(k_p - k_s - k_i), for either
    # signal polarization (test_solve_period_impossible_sign takes a
    # balance below zero)
    spec = dataclasses.replace(design_crystal(pairing), temperature=t_c)
    target = _target(spec, signal_um, pol)
    free = delta_k(spec, target.pump_wavelength, target.signal_wavelength,
                   target.idler_wavelength, np.inf, pol)
    assert solve_period(spec, target) == pytest.approx(2.0 * np.pi / free,
                                                       rel=1e-12)


@settings(max_examples=30)
@given(pairing=st.sampled_from(sorted(PAIRINGS)),
       role=st.sampled_from(("pump", "signal", "idler")),
       signal_um=st.floats(1.45, 1.60),
       pol=st.sampled_from(tuple(Polarization)))
def test_solve_period_outside_validity_raises_the_sets_error(
        pairing, role, signal_um, pol):
    # one set's wavelength range shrunk to leave out one of the target's
    # wavelengths, and none of the others: solve_period raises that set's
    # error, word for word as the oracle, which checks pump, signal and
    # idler in turn
    base = design_crystal(pairing)
    target = _target(base, signal_um, pol)
    lam_um = 1e6 * {"pump": target.pump_wavelength,
                    "signal": target.signal_wavelength,
                    "idler": target.idler_wavelength}[role]
    sset = base.sellmeier_for({"pump": base.pump_polarization,
                               "signal": pol, "idler": pol.other}[role])
    narrow = dataclasses.replace(sset, valid_wavelength_um=(
        (lam_um + 0.01, 6.0) if role == "pump" else (0.2, lam_um - 0.01)))
    spec = dataclasses.replace(base,
                               sellmeier={**base.sellmeier, sset.axis: narrow})
    with pytest.raises(WavelengthRangeError) as oracle:
        delta_k(spec, target.pump_wavelength, target.signal_wavelength,
                target.idler_wavelength, np.inf, pol)
    with pytest.raises(WavelengthRangeError) as exc:
        solve_period(spec, target)
    assert str(exc.value) == str(oracle.value)
    assert str(exc.value).startswith(
        f"{sset.name}: wavelength {lam_um:.6g} um outside valid range")


@settings(max_examples=25)
@given(pairing=st.sampled_from(sorted(PAIRINGS)),
       t0_c=st.floats(50.0, 170.0), signal_um=st.floats(1.49, 1.53),
       half_c=st.floats(5.0, 20.0))
def test_crossing_temperature_matches_bisection(pairing, t0_c, signal_um,
                                                half_c):
    spec = design_crystal(pairing, t0_c=t0_c, signal_um=signal_um)
    t_bracket = (t0_c - half_c, t0_c + half_c)
    nu_p = C / spec.pump_wavelength

    def gap(t):
        mod = dataclasses.replace(spec, temperature=t)
        return sum(C / solve_signal_idler(mod, j).signal_wavelength
                   for j in range(2)) - nu_p

    t_star = crossing_temperature(spec, t_bracket)
    assert abs(t_star - _bisect(gap, *t_bracket, _CROSSING_TOL_C)) \
        <= _CROSSING_TOL_C


def test_crossing_is_found_past_a_vertex_of_the_mismatch():
    # n_o^2 = 5.2901 - 1e-4 (T - 100)^2 (a set with only a1, b1 and
    # t0 = -t1 = 100) against a constant n_e = 2.2: both signals are
    # Lambda_j (n_o - n_e), so the segments cross where n_o = 2.3, at
    # T = 99 and 101 C, and the searched mismatch peaks near the 100 C
    # vertex. The bracket [99.5, 120] C holds that peak and the 101 C
    # crossing: the search starts on the rising side of the peak and must
    # still close in on 101 C.
    o = SellmeierSet(name="vertex_o", axis=Axis.ORDINARY,
                     coefficients={"a1": 5.2901, "b1": -1e-4, "t0": 100.0,
                                   "t1": -100.0},
                     valid_wavelength_um=(0.3, 3.0),
                     valid_temperature_C=(-50.0, 500.0))
    lam_p, lam_s = 0.775, 1.5
    lam_i = 1.0 / (1.0 / lam_p - 1.0 / lam_s)
    spec = CrystalSpec(
        segments=(PolingSegment(lam_s / 0.1 * 1e-6, 20e-3),
                  PolingSegment(lam_i / 0.1 * 1e-6, 20e-3)),
        temperature=110.0, pump_wavelength=lam_p * 1e-6,
        axis_map={"H": "extraordinary", "V": "ordinary"},
        sellmeier={"extraordinary": const_set("e", Axis.EXTRAORDINARY, 2.2),
                   "ordinary": o})
    t_bracket = (99.5, 120.0)
    nu_p = C / spec.pump_wavelength

    def gap(t):
        mod = dataclasses.replace(spec, temperature=t)
        return sum(C / solve_signal_idler(mod, j).signal_wavelength
                   for j in range(2)) - nu_p

    t_star = crossing_temperature(spec, t_bracket)
    assert abs(t_star - _bisect(gap, *t_bracket, _CROSSING_TOL_C)) \
        <= _CROSSING_TOL_C
    assert t_star == pytest.approx(101.0, abs=1e-8)


def test_no_crossing_reports_the_mismatch_at_the_bracket_ends(default_spec):
    # the crossing is the root of segment 1's mismatch at segment 0's
    # idler; a bracket without one reports that mismatch at its ends
    t_bracket = (60.0, 70.0)

    def h(t):
        at = dataclasses.replace(default_spec, temperature=t)
        pair0 = solve_signal_idler(at, 0)
        return delta_k(at, at.pump_wavelength, pair0.idler_wavelength,
                       pair0.signal_wavelength, at.segments[1].period)

    with pytest.raises(NoPhaseMatchError, match="rad/m") as exc:
        crossing_temperature(default_spec, t_bracket)
    assert [exc.value.dk_min, exc.value.dk_max] == pytest.approx(
        sorted(map(h, t_bracket)), rel=1e-9)


# --- frozen behavior of the bundled crystal --------------------------------

def test_default_crystal_shape(default_spec):
    assert len(default_spec.segments) == 2
    assert default_spec.segments[0].period == pytest.approx(9.25e-6)
    assert default_spec.segments[1].period == pytest.approx(9.50e-6)
    assert default_spec.pump_wavelength == pytest.approx(775e-9)
    assert default_spec.total_length == pytest.approx(40e-3)
    assert default_spec.segment_start(1) == pytest.approx(20e-3)


def test_default_pairs_at_operating_temperature(default_spec):
    a = solve_signal_idler(default_spec, 0)
    b = solve_signal_idler(default_spec, 1)
    assert a.signal_wavelength * 1e9 == pytest.approx(1507.103114, abs=2e-3)
    assert a.idler_wavelength * 1e9 == pytest.approx(1595.410388, abs=2e-3)
    # both processes populate the same pair with polarizations exchanged
    assert b.signal_wavelength == pytest.approx(a.idler_wavelength, rel=1e-9)
    assert b.idler_wavelength == pytest.approx(a.signal_wavelength, rel=1e-9)


def test_default_period_round_trip(default_spec):
    spec120 = dataclasses.replace(default_spec, temperature=120.0)
    for j in range(2):
        pt = solve_signal_idler(spec120, j)
        period = solve_period(spec120, pt)
        assert period == pytest.approx(spec120.segments[j].period, rel=1e-6)


def test_crossing_temperature_matches_shipped_operating_point(default_spec):
    t = crossing_temperature(default_spec)
    assert t == pytest.approx(default_spec.temperature, abs=1e-6)
    assert t == pytest.approx(115.785109, abs=1e-4)


def test_crossing_temperature_no_sign_change(default_spec):
    with pytest.raises(NoPhaseMatchError):
        crossing_temperature(default_spec, t_bracket=(100.0, 105.0))


def test_crossing_of_one_segment_is_rejected(default_spec):
    # it indexed past the end of the segments: an IndexError escaped
    single = dataclasses.replace(default_spec,
                                 segments=default_spec.segments[:1])
    with pytest.raises(ValueError, match="needs two segments; the crystal "
                                         "has 1"):
        crossing_temperature(single)


# --- tuning curves ----------------------------------------------------------

def test_tuning_curve_single_point_equals_solver(default_spec):
    curve = tuning_curve(default_spec, 0, sweep=(120.0, 120.0), steps=1)
    assert len(curve) == 1
    direct = solve_signal_idler(
        dataclasses.replace(default_spec, temperature=120.0), 0)
    assert curve[0].value == 120.0
    assert curve[0].point.signal_wavelength == pytest.approx(
        direct.signal_wavelength, rel=1e-12)


def test_tuning_curve_reversal(default_spec):
    fwd = tuning_curve(default_spec, 0, sweep=(110.0, 130.0), steps=5)
    rev = tuning_curve(default_spec, 0, sweep=(130.0, 110.0), steps=5)
    assert [p.value for p in rev] == [p.value for p in fwd][::-1]
    for f, r in zip(fwd, rev[::-1]):
        assert r.point.signal_wavelength == pytest.approx(
            f.point.signal_wavelength, rel=1e-12)


def test_tuning_curve_monotone_in_temperature(default_spec):
    curve = tuning_curve(default_spec, 0, sweep=(105.0, 130.0), steps=11)
    lams = [p.point.signal_wavelength for p in curve]
    assert all(p.point is not None for p in curve)
    diffs = np.diff(lams)
    assert np.all(diffs > 0) or np.all(diffs < 0)


def test_tuning_curve_pump_sweep_gaps(default_spec):
    # first pump values sit below the coefficient sets' 0.4 um validity
    # floor -> recorded as gaps; the last value is the shipped pump
    curve = tuning_curve(default_spec, 0, variable="pump_wavelength",
                         sweep=(0.35e-6, 775e-9), steps=6)
    assert len(curve) == 6
    assert curve[0].point is None
    assert curve[-1].point is not None
    assert curve[-1].point.signal_wavelength * 1e9 == pytest.approx(
        1507.103, abs=0.01)


@pytest.mark.parametrize("sweep", [(0.0, 10e-9), (-5e-9, 10e-9)])
def test_tuning_curve_nonpositive_pump_is_an_error_naming_it(default_spec,
                                                             sweep):
    # a zero pump used to escape as a ZeroDivisionError from the span
    # check, and a negative one was recorded as a gap
    with pytest.raises(ValueError, match="pump wavelength must be > 0"):
        tuning_curve(default_spec, 0, variable="pump_wavelength",
                     sweep=sweep, steps=3)


def test_tuning_curve_temperature_gap_outside_validity(default_spec):
    # 10 C is below the Edwards sets' 20 C floor: a gap, not an exception
    curve = tuning_curve(default_spec, 0, sweep=(10.0, 120.0), steps=2)
    assert curve[0].point is None
    assert curve[1].point is not None


def one_solve_per_row(spec, segment, variable, sweep, steps, branch=None):
    """(value, point) of each sweep value solved alone on a replaced spec,
    with None where that solve raises a gap's error."""
    rows = []
    for v in np.linspace(*sweep, steps):
        try:
            pt = solve_signal_idler(
                dataclasses.replace(spec, **{variable: float(v)}), segment,
                branch=branch)
        except (NoPhaseMatchError, WavelengthRangeError,
                TemperatureRangeError):
            pt = None
        rows.append((float(v), pt))
    return rows


@pytest.mark.parametrize("pairing", ["default"] + sorted(PAIRINGS))
@pytest.mark.parametrize("segment", [0, 1])
def test_tuning_curve_equals_one_solve_per_row(pairing, segment):
    # the batched scan repeats each row's arithmetic: equal bit for bit.
    # 0-260 C leaves every set's validity range at both ends, and pumps
    # below 0.4 um or far from 775 nm are out of range or unmatched
    spec = (load_crystal("default") if pairing == "default"
            else design_crystal(pairing))
    for variable, sweep, steps in (("temperature", (0.0, 260.0), 27),
                                   ("pump_wavelength", (0.35e-6, 0.8e-6),
                                    19)):
        curve = tuning_curve(spec, segment, variable, sweep, steps)
        rows = one_solve_per_row(spec, segment, variable, sweep, steps)
        assert [(tp.value, tp.point) for tp in curve] == rows
        gaps = sum(pt is None for _, pt in rows)
        assert 0 < gaps < steps


def test_tuning_curve_branch_rows_equal_one_solve_per_row(quad_crystal):
    # pumps from 760 to 800 nm take the type-0 crystal from no root in the
    # signal bracket through one to a mirrored pair, of which the branch
    # picks one, and past it to none again
    sweep = ("pump_wavelength", (0.76e-6, 0.8e-6), 9)
    for branch in Branch:
        curve = tuning_curve(quad_crystal, 0, *sweep, branch=branch)
        assert [(tp.value, tp.point) for tp in curve] \
            == one_solve_per_row(quad_crystal, 0, *sweep, branch=branch)
    with pytest.raises(BranchAmbiguityError):
        tuning_curve(quad_crystal, 0, *sweep)


def test_tuning_curve_argument_validation(default_spec):
    with pytest.raises(ValueError):
        tuning_curve(default_spec, 0, variable="pressure")
    with pytest.raises(ValueError):
        tuning_curve(default_spec, 0, steps=0)
    with pytest.raises(ValueError):
        tuning_curve(default_spec, 0, sweep=(100.0, 140.0), steps=1)


# --- construction / loading -------------------------------------------------

def test_poling_segment_validation():
    with pytest.raises(ValueError):
        PolingSegment(-1e-6, 20e-3)
    with pytest.raises(ValueError):
        PolingSegment(9.25e-6, 0.0)
    with pytest.raises(ValueError):
        PolingSegment(9.25e-6, 20e-3, amplitude_scale=1.5)
    with pytest.raises(ValueError):
        PolingSegment(9.25e-6, 20e-3, amplitude_scale=0.0)


def test_crystal_spec_validation(const_crystal):
    e = const_set("e", Axis.EXTRAORDINARY, 2.2)
    o = const_set("o", Axis.ORDINARY, 2.3)
    seg = (PolingSegment(15e-6, 20e-3),)
    with pytest.raises(ValueError):
        CrystalSpec(segments=(), temperature=25.0, pump_wavelength=775e-9,
                    axis_map={"H": "extraordinary", "V": "ordinary"},
                    sellmeier={"extraordinary": e, "ordinary": o})
    with pytest.raises(ValueError):
        CrystalSpec(segments=seg, temperature=25.0, pump_wavelength=775e-9,
                    axis_map={"H": "extraordinary"},
                    sellmeier={"extraordinary": e})
    with pytest.raises(ValueError):
        CrystalSpec(segments=seg, temperature=25.0, pump_wavelength=775e-9,
                    axis_map={"H": "extraordinary", "V": "ordinary"},
                    sellmeier={"extraordinary": e})
    # the set's check_range text, which the pair solver's range checks give
    sset = const_crystal.sellmeier_for("H")
    with pytest.raises(TemperatureRangeError) as oracle:
        sset.check_range(1.5, 1000.0)
    with pytest.raises(TemperatureRangeError) as exc:
        dataclasses.replace(const_crystal, temperature=1000.0)
    assert str(exc.value) == str(oracle.value)
    assert str(exc.value).startswith("const_e: temperature 1000 C outside")
    # a set filed under the axis it does not describe
    with pytest.raises(ValueError, match="'o' describes the ordinary axis "
                       "but is filed under 'extraordinary'"):
        CrystalSpec(segments=seg, temperature=25.0, pump_wavelength=775e-9,
                    axis_map={"H": "extraordinary", "V": "ordinary"},
                    sellmeier={"extraordinary": o, "ordinary": e})


def test_crystal_spec_maps_normalized_once(const_crystal):
    # string keys become the enums; a derived spec shares its source's maps
    # instead of holding copies, so each retained spec is smaller
    assert all(type(p) is Polarization and type(a) is Axis
               for p, a in const_crystal.axis_map.items())
    assert all(type(a) is Axis for a in const_crystal.sellmeier)
    warm = dataclasses.replace(const_crystal, temperature=30.0)
    assert warm.axis_map is const_crystal.axis_map
    assert warm.sellmeier is const_crystal.sellmeier
    assert warm.sellmeier_for("V") is const_crystal.sellmeier_for("V")


def test_crystal_spec_helpers(default_spec):
    sset = default_spec.sellmeier_for("H")
    assert sset.axis is Axis.EXTRAORDINARY
    fld = default_spec.field(1.55e-6, "H")
    assert fld.temperature == default_spec.temperature
    assert fld.wavelength == 1.55e-6
