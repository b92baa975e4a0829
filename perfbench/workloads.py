"""Seeded inputs for the benchmark's workloads.

Each generator is an endless stream that depends on its seed alone. It
draws plain numbers from numpy's PCG64 stream and yields them as dicts, so
one seed always gives the same inputs, a run takes only as many as it
uses, and the program under test sees nothing but those numbers.
The structural choices (Sellmeier pairing, grid size, task kind) follow a
fixed cycle, and only the continuous values come from the seed. Every run
therefore carries the same mix of task shapes, which keeps the medians of
different seeds comparable.

Ranges that span one to two decades (HOM delays and pairs per point,
tomography count totals) are drawn log-uniformly, so each decade gets the
same share of tasks: a uniform draw would put nine tasks in ten in the top
decade and leave the small, fast end of the range almost unmeasured.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

# Sellmeier pairings of the bundled sets: (name, extraordinary, ordinary).
DESIGN_PAIRINGS = (
    ("edwards", "cln_e_edwards1984", "cln_o_edwards1984"),
    ("jundt_e_edwards_o", "cln_e_jundt1997", "cln_o_edwards1984"),
    ("mgo_gayer", "mgo_cln_e_gayer2008", "mgo_cln_o_gayer2008"),
)
SELLMEIER_SETS = tuple(sorted({s for _, e, o in DESIGN_PAIRINGS
                               for s in (e, o)}))
# Joint-spectrum grid sizes, cycled. 4097 points is the common grid: it is
# the CLI's default and the size of the 801 x 4097 delay scan in ROADMAP.
# One grid in four has 8193 points on purpose, so that a run's p50 measures
# 4097-point tasks and its p90 measures 8193-point tasks.
DESIGN_POINTS = (4097, 4097, 4097, 8193)
DESIGN_BRACKET_C = 20.0          # crossing search and tuning sweep: T0 +- 20 C
DESIGN_TUNING_STEPS = 41

HOM_MAX_STEP_FS = 30.0           # >= 3 delays per beat period at 11.5 THz
HOM_HALF_RANGE_TAUC = 1.5        # scan half-range in units of tau_c
ANALYSIS_STRATA = 16             # tasks of one kind per stratified cycle

# stream salts keep the workloads' random streams apart for one seed
_SALT = {"design": 1, "analysis": 2, "cli_chain": 3}


def _rng(workload: str, seed: int) -> np.random.Generator:
    if int(seed) < 0:
        raise ValueError("seed must be a nonnegative integer")
    return np.random.default_rng([int(seed), _SALT[workload]])


def _stratified(rng) -> np.ndarray:
    """ANALYSIS_STRATA uniforms on [0, 1), one in each equal slice of the
    interval, in seeded order. Every cycle then spans each range evenly,
    so the cost mix of a run depends little on the seed."""
    k = ANALYSIS_STRATA
    return (rng.permutation(k) + rng.uniform(size=k)) / k


def _scale(u: float, lo: float, hi: float, log: bool = False) -> float:
    """Map u in [0, 1) onto [lo, hi), uniformly or log-uniformly."""
    if log:
        return float(math.exp(math.log(lo) + u * math.log(hi / lo)))
    return float(lo + u * (hi - lo))


def design_inputs(seed: int):
    """Two-period crystal variants for the source designer's loop.

    Each variant fixes a Sellmeier pairing, the temperature at which the
    two gratings must emit one pair (50-170 C), the signal wavelength of
    that pair (1.49-1.53 um) and the length of both segments (10-30 mm).
    The periods follow from these by ``solve_period`` (see tasks.py).
    """
    rng = _rng("design", seed)
    for i in itertools.count():
        name, ext, ordi = DESIGN_PAIRINGS[i % len(DESIGN_PAIRINGS)]
        yield {
            "pairing": name, "extraordinary": ext, "ordinary": ordi,
            "t0_c": float(rng.uniform(50.0, 170.0)),
            "signal_um": float(rng.uniform(1.49, 1.53)),
            "length_mm": float(rng.uniform(10.0, 30.0)),
            "points": DESIGN_POINTS[i % len(DESIGN_POINTS)],
        }


def _hom_points_min(tau_c_ps: float) -> int:
    """Fewest delays that span +-1.5 tau_c at steps of at most 30 fs."""
    span_fs = 2.0 * HOM_HALF_RANGE_TAUC * tau_c_ps * 1e3
    return max(121, math.ceil(span_fs / HOM_MAX_STEP_FS) + 1)


def analysis_inputs(seed: int):
    """HOM fits and tomographic reconstructions, one of each per pair of
    tasks in a seeded order.

    HOM: V 0.3-0.98, splitting 10.5-11.5 THz, tau_c 1-4 ps, 121-2001
    delays over +-1.5 tau_c (never coarser than 30 fs, so the beat is
    sampled), 200-20000 pairs per point. Tomography: p 0.45-0.55,
    V 0.3-0.98, conversion delay -50..+50 fs, 1e3-1e5 expected counts.
    Each cycle of ANALYSIS_STRATA tasks of a kind draws every value
    stratified (see ``_stratified``).
    """
    rng = _rng("analysis", seed)
    while True:
        h = {k: _stratified(rng) for k in
             ("tau_c", "points", "V", "dw", "tau0", "pairs")}
        t = {k: _stratified(rng) for k in
             ("p", "V", "tau", "dw", "total")}
        for i in range(ANALYSIS_STRATA):
            for kind in rng.permutation(["hom", "tomo"]):
                if kind == "hom":
                    tau_c_ps = _scale(h["tau_c"][i], 1.0, 4.0)
                    points = int(round(_scale(
                        h["points"][i], _hom_points_min(tau_c_ps), 2001,
                        log=True)))
                    yield {
                        "kind": "hom",
                        "V": _scale(h["V"][i], 0.3, 0.98),
                        "dw_thz": _scale(h["dw"][i], 10.5, 11.5),
                        "tau_c_ps": tau_c_ps,
                        "tau0_fs": _scale(h["tau0"][i], -50.0, 50.0),
                        "points": points,
                        "half_range_ps": HOM_HALF_RANGE_TAUC * tau_c_ps,
                        "pairs": _scale(h["pairs"][i], 200.0, 20000.0,
                                        log=True),
                        "rng_seed": int(rng.integers(2**31)),
                    }
                else:
                    yield {
                        "kind": "tomo",
                        "p": _scale(t["p"][i], 0.45, 0.55),
                        "V": _scale(t["V"][i], 0.3, 0.98),
                        "tau_fs": _scale(t["tau"][i], -50.0, 50.0),
                        "dw_thz": _scale(t["dw"][i], 10.5, 11.5),
                        "expected_total": _scale(t["total"][i], 1e3, 1e5,
                                                 log=True),
                        "rng_seed": int(rng.integers(2**31)),
                    }


def cli_chain_inputs(seed: int):
    """Per chain: the Poisson seed of ``hom synth`` and ``tomo simulate``
    and the mode-conversion delay of ``tomo simulate`` (-50..+50 fs)."""
    rng = _rng("cli_chain", seed)
    while True:
        yield {"seed": int(rng.integers(2**31)),
               "tau_fs": round(float(rng.uniform(-50.0, 50.0)), 3)}
