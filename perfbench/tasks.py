"""What one task of each workload runs, and how its output is checked.

A workload object holds ``cases``, an endless iterator over its seeded
inputs from which the timed phase takes one block at a time before
timing it. It runs one task per call of ``run`` (returning a small
summary of the output, or ``{"error": <exception name>}``), and judges
that summary in ``check`` after the timed phase, returning None or the
reason it failed.
The library is reached through the ``freqbin`` package namespace at call
time, so the tracer's wrappers see every call.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import freqbin as fb
from freqbin.dispersion import Axis
from freqbin.qpm import PolingSegment

import workloads as wl

C_M_PER_S = 2.99792458e8
TWO_PI = 2.0 * math.pi

# Design: the pair solve stops at |dk| < 1e-3 rad/m, which may move the
# pair by ~6e5 Hz (5e-6 nm) and the crossing by ~2e-6 C; each tolerance
# below leaves a margin of 15x or more over that.
CROSSING_TOL_C = 1e-4
TUNING_TOL_NM = 1e-4
SPLITTING_RTOL = 1e-6
# Analysis: fitted V, delta_omega and tau_c within HOM_K standard errors
# of the truth; reconstruction infidelity below TOMO_C / sqrt(total
# counts). Infidelity of these rank-2 states falls as 1/sqrt(N); over about
# 700 calibration reconstructions (generator seeds 777 and 12345) the
# largest value was 8.7 / sqrt(N).
HOM_K = 5.0
HOM_SHAPE = ("V", "delta_omega", "tau_c", "tau_offset")
TOMO_C = 20.0


def uhlmann_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """(Tr sqrt(sqrt(a) b sqrt(a)))^2 for density matrices a and b."""
    w, v = np.linalg.eigh(a)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    m = root @ b @ root
    ev = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    return float(np.sum(np.sqrt(np.clip(ev, 0.0, None))) ** 2)


def _error(exc: Exception) -> dict:
    return {"error": type(exc).__name__, "message": str(exc)[:200]}


# --- design ----------------------------------------------------------------

def design_crystal(params: dict, base, sets: dict):
    """Two-period crystal whose gratings emit the same pair, roles swapped,
    at params["t0_c"]: each period comes from ``solve_period``."""
    lam_p = base.pump_wavelength
    lam_s = params["signal_um"] * 1e-6
    lam_i = 1.0 / (1.0 / lam_p - 1.0 / lam_s)
    length = params["length_mm"] * 1e-3
    spec = replace(base, temperature=params["t0_c"],
                   sellmeier={Axis.EXTRAORDINARY: sets[params["extraordinary"]],
                              Axis.ORDINARY: sets[params["ordinary"]]},
                   segments=(PolingSegment(1e-5, length),) * 2,
                   name=params["pairing"])
    periods = [fb.solve_period(spec, fb.PhaseMatchPoint(
        lam_p, a, b, fb.Polarization.H, fb.Polarization.V, 0.0))
        for a, b in ((lam_s, lam_i), (lam_i, lam_s))]
    return replace(spec, segments=tuple(PolingSegment(p, length)
                                        for p in periods))


class Design:
    block = len(wl.DESIGN_POINTS)

    def __init__(self, seed: int):
        base = fb.load_crystal("default")
        sets = {n: fb.load_sellmeier(n) for n in wl.SELLMEIER_SETS}
        self.cases = ((p, design_crystal(p, base, sets))
                      for p in wl.design_inputs(seed))

    def run(self, case) -> dict:
        params, spec = case
        t0, half = params["t0_c"], wl.DESIGN_BRACKET_C
        try:
            t_star = fb.crossing_temperature(spec, (t0 - half, t0 + half))
            curve = fb.tuning_curve(spec, 0, sweep=(t0 - half, t0 + half),
                                    steps=wl.DESIGN_TUNING_STEPS)
            state = fb.reduce_to_bins(
                fb.joint_spectrum(spec, n_points=params["points"]), spec)
        except Exception as exc:  # a raising task is a failed task
            return _error(exc)
        mid = curve[len(curve) // 2].point
        return {"t_star": t_star,
                "gaps": sum(tp.point is None for tp in curve),
                "mid_signal_m": None if mid is None else mid.signal_wavelength,
                "state": (state.p, state.V, state.phi, state.delta_omega,
                          state.tau_c)}

    def check(self, case, out: dict):
        params, spec = case
        if "error" in out:
            return f"raised {out['error']}: {out['message']}"
        if not abs(out["t_star"] - params["t0_c"]) < CROSSING_TOL_C:
            return f"crossing {out['t_star']!r} C, target {params['t0_c']!r}"
        if out["gaps"] or out["mid_signal_m"] is None:
            return f"tuning curve has {out['gaps']} gaps"
        if not abs(out["mid_signal_m"] * 1e9
                   - params["signal_um"] * 1e3) < TUNING_TOL_NM:
            return "tuning curve misses the design pair at T0"
        p, v, phi, dw, tau_c = out["state"]
        lam_s = params["signal_um"] * 1e-6
        lam_i = 1.0 / (1.0 / spec.pump_wavelength - 1.0 / lam_s)
        dw_true = TWO_PI * C_M_PER_S * abs(1.0 / lam_s - 1.0 / lam_i)
        if not (0.0 < p < 1.0 and 0.0 < v <= 1.0 and math.isfinite(phi)
                and 0.0 < tau_c < 1e-10):
            return f"unphysical state p={p} V={v} phi={phi} tau_c={tau_c}"
        if not abs(dw / dw_true - 1.0) < SPLITTING_RTOL:
            return f"splitting {dw!r} rad/s, expected {dw_true!r}"
        return None


# --- analysis --------------------------------------------------------------

class Analysis:
    block = 2

    def __init__(self, seed: int):
        self.cases = wl.analysis_inputs(seed)
        self.settings = fb.load_projectors("james16")

    def run(self, case) -> dict:
        try:
            if case["kind"] == "hom":
                truth = fb.HomParams(
                    N=1.0, V=case["V"], delta_omega=TWO_PI * case["dw_thz"] * 1e12,
                    tau_c=case["tau_c_ps"] * 1e-12,
                    tau_offset=case["tau0_fs"] * 1e-15)
                r = case["half_range_ps"] * 1e-12
                scan = fb.synthesize_scan(
                    truth, np.linspace(-r, r, case["points"]), case["pairs"],
                    case["rng_seed"])
                # Warm start at the generating shape (N still comes from
                # fit_homi's initializer, which runs either way). Started
                # from that initializer alone, about 3% of these fits end
                # in a wrong local minimum, V or tau_c off by up to 25
                # standard errors, and every task of a run must pass.
                fit = fb.fit_homi(scan, init={k: getattr(truth, k)
                                              for k in HOM_SHAPE})
                return {"fit": {k: getattr(fit, k)
                                for k in ("V", "delta_omega", "tau_c")},
                        "stderr": fit.stderr, "truth": truth}
            rho = fb.mode_convert(fb.rho_freq(case["p"], case["V"], 0.0),
                                  case["tau_fs"] * 1e-15,
                                  TWO_PI * case["dw_thz"] * 1e12)
            data = fb.simulate_counts(rho, self.settings,
                                      case["expected_total"], case["rng_seed"])
            result = fb.mle_tomography(data, full_output=True)
            return {"rho": result.rho.elements, "truth": rho.elements,
                    "total": float(data.counts.sum())}
        except Exception as exc:  # a raising task is a failed task
            return _error(exc)

    def check(self, case, out: dict):
        if "error" in out:
            return f"raised {out['error']}: {out['message']}"
        if case["kind"] == "hom":
            for k, fitted in out["fit"].items():
                se = out["stderr"][k]
                miss = abs(fitted - getattr(out["truth"], k))
                if not miss <= HOM_K * se:
                    return f"{k} off by {miss / se:.3g} stderr"
            return None
        infid = 1.0 - uhlmann_fidelity(out["truth"], out["rho"])
        bound = TOMO_C / math.sqrt(out["total"])
        if not infid <= bound:
            return f"infidelity {infid:.3g} above {bound:.3g}"
        return None


# --- cli_chain -------------------------------------------------------------

TIMESTAMP = "2000-01-01T00:00:00+00:00"
# one chain: (task name, argv after the program, files written, file read)
CHAIN = (
    ("qpm_crossing", ["qpm", "crossing"], ["qpm_crossing.json"], None),
    ("spectrum", ["spectrum"], ["spectrum_jsa.csv", "spectrum_state.json"],
     None),
    ("hom_synth", ["hom", "synth", "--seed", "{seed}"], ["hom_synth.csv"],
     None),
    ("hom_fit", ["hom", "fit", "--scan", "{dir}/hom_synth.csv"],
     ["hom_fit.json"], "hom_synth.csv"),
    ("tomo_simulate", ["tomo", "simulate", "--tau-fs", "{tau_fs}",
                       "--seed", "{seed}"], ["tomo_counts.csv"], None),
    ("tomo_reconstruct", ["tomo", "reconstruct", "--data",
                          "{dir}/tomo_counts.csv"], ["tomo_rho.json"],
     "tomo_counts.csv"),
)
CLI_SUBCOMMANDS = tuple(step[0] for step in CHAIN)
# CLI defaults the checks reproduce with library calls
CLI_HOM = dict(N=1.0, V=0.934, delta_omega=TWO_PI * 11.5e12, tau_c=2.40e-12,
               tau_offset=0.0)
CLI_HOM_GRID = (-3e-12, 3e-12, 241)
CLI_HOM_PAIRS = 2000.0
CLI_TOMO = dict(p=0.516, V=0.934, phi=0.0, dw=TWO_PI * 11.5e12,
                expected_total=4000.0)


def _read_rows(path: Path):
    header, rows = None, []
    for line in path.read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        cells = [c.strip() for c in line.split(",")]
        if header is None:
            header = cells
        else:
            rows.append(dict(zip(header, cells)))
    return rows


def _close(a, b, rtol) -> bool:
    return bool(np.allclose(np.asarray(a, float), np.asarray(b, float),
                            rtol=rtol, atol=0.0))


class CliChain:
    """Each task is one subprocess of the chain, in the chain's order."""

    block = len(CHAIN)

    def __init__(self, seed: int, root: Path, work: Path, env: dict):
        self.root, self.work, self.env = root, work, env
        self.cases = (dict(chain, chain_id=k, step=s)
                      for k, chain in enumerate(wl.cli_chain_inputs(seed))
                      for s in range(len(CHAIN)))
        self.traced = False          # run tasks through cli_child.py
        self._reference = None

    def chain_dir(self, case) -> Path:
        return self.work / f"chain_{case['chain_id']:04d}"

    def spans_file(self, case) -> Path:
        return self.work / f"spans_{case['chain_id']:04d}_{case['step']}.json"

    def argv(self, case) -> list:
        name, args, _, _ = CHAIN[case["step"]]
        out = self.chain_dir(case)
        fill = {"seed": case["seed"], "tau_fs": repr(case["tau_fs"]),
                "dir": out}
        return ([a.format(**fill) for a in args]
                + ["--out-dir", str(out), "--timestamp", TIMESTAMP])

    def command(self, case) -> list:
        if not self.traced:
            return [sys.executable, "-m", "freqbin.cli", *self.argv(case)]
        return [sys.executable, str(self.root / "perfbench" / "cli_child.py"),
                str(self.spans_file(case)), *self.argv(case)]

    def run(self, case) -> dict:
        proc = subprocess.run(self.command(case), cwd=self.root,
                              env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=150)
        return {"returncode": proc.returncode, "stderr": proc.stderr[-300:]}

    def io_bytes(self, case) -> tuple:
        """(bytes written, bytes read) of one task, from the file sizes."""
        _, _, written, read = CHAIN[case["step"]]
        out = self.chain_dir(case)
        sizes = [(out / f).stat().st_size for f in written
                 if (out / f).exists()]
        return sum(sizes), (out / read).stat().st_size if read else 0

    def reference(self) -> dict:
        """Library results for the chain's seed-independent steps."""
        if self._reference is None:
            spec = fb.load_crystal("default")
            sa = fb.joint_spectrum(spec)
            self._reference = {
                "crossing": fb.crossing_temperature(spec, (100.0, 140.0)),
                "spectrum": sa, "state": fb.reduce_to_bins(sa, spec),
                "settings": fb.load_projectors("james16")}
        return self._reference

    def check(self, case, out: dict):
        name = CHAIN[case["step"]][0]
        if out["returncode"] != 0:
            return f"{name} exited {out['returncode']}: {out['stderr']}"
        try:
            return getattr(self, f"_check_{name}")(case,
                                                   self.chain_dir(case))
        except (OSError, ValueError, KeyError) as exc:
            return f"{name} output unreadable: {type(exc).__name__}: {exc}"

    def _check_qpm_crossing(self, case, out):
        got = json.loads((out / "qpm_crossing.json").read_text())
        if got["crossing_temperature_C"] != self.reference()["crossing"]:
            return "crossing temperature differs from the library's"
        return None

    def _check_spectrum(self, case, out):
        ref = self.reference()
        got = json.loads((out / "spectrum_state.json").read_text())["state"]
        st = ref["state"]
        want = {"p": st.p, "V": st.V, "phi_rad": st.phi,
                "delta_omega_rad_s": st.delta_omega, "tau_c_s": st.tau_c}
        if any(got[k] != v for k, v in want.items()):
            return "two-bin state differs from the library's"
        rows = _read_rows(out / "spectrum_jsa.csv")
        sa = ref["spectrum"]
        if len(rows) != len(sa.omega):
            return f"{len(rows)} spectrum rows, library has {len(sa.omega)}"
        if not _close([float(r["intensity"]) for r in rows],
                      np.abs(sa.total) ** 2, 1e-10):
            return "spectrum intensity differs from the library's"
        return None

    def _check_hom_synth(self, case, out):
        rows = _read_rows(out / "hom_synth.csv")
        scan = fb.synthesize_scan(fb.HomParams(**CLI_HOM),
                                  np.linspace(*CLI_HOM_GRID), CLI_HOM_PAIRS,
                                  case["seed"])
        if [float(r["counts"]) for r in rows] != scan.counts.tolist():
            return "synthesized counts differ from the library's"
        return None

    def _check_hom_fit(self, case, out):
        got = json.loads((out / "hom_fit.json").read_text())["fit"]
        rows = _read_rows(out / "hom_synth.csv")
        scan = fb.HomScan(
            delays=np.array([float(r["tau_fs"]) for r in rows]) * 1e-15,
            counts=np.array([float(r["counts"]) for r in rows]),
            uncertainties=np.array([float(r["sigma"]) for r in rows]))
        fit = fb.fit_homi(scan)
        if not _close([got["V"], got["delta_omega_rad_s"], got["tau_c_s"]],
                      [fit.V, fit.delta_omega, fit.tau_c], 1e-9):
            return "fitted parameters differ from the library's"
        return None

    def _check_tomo_simulate(self, case, out):
        rows = _read_rows(out / "tomo_counts.csv")
        t = CLI_TOMO
        rho = fb.mode_convert(fb.rho_freq(t["p"], t["V"], t["phi"]),
                              case["tau_fs"] * 1e-15, t["dw"])
        data = fb.simulate_counts(rho, self.reference()["settings"],
                                  t["expected_total"], case["seed"])
        if [float(r["counts"]) for r in rows] != data.counts.tolist():
            return "simulated counts differ from the library's"
        return None

    def _check_tomo_reconstruct(self, case, out):
        got = json.loads((out / "tomo_rho.json").read_text())
        rho = fb.DensityMatrix.from_json_dict(got["rho"]).elements
        rows = _read_rows(out / "tomo_counts.csv")
        data = fb.TomographyDataset(
            settings=self.reference()["settings"],
            counts=np.array([float(r["counts"]) for r in rows]))
        want = fb.mle_tomography(data).elements
        if not np.max(np.abs(rho - want)) < 1e-9:
            return "reconstructed state differs from the library's"
        return None
