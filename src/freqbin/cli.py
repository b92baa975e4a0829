"""Command-line front end: design, simulate, synthesize, fit, reconstruct.

Subcommands mirror the library modules (qpm / spectrum / hom / tomo); every
output file embeds tool version, resolved configuration, rng seed, and
timestamp, so a rerun with the same seed is byte-identical apart from the
timestamp (which ``--timestamp`` can pin). Exit codes: 0 success,
1 numerical failure, 2 usage or configuration error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .biphoton import BiphotonState, joint_spectrum, reduce_to_bins
from .dispersion import Polarization
from .entanglement import (Domain, DensityMatrix, concurrence, fidelity,
                           ideal_state, load_projectors, mle_tomography,
                           mode_convert, rho_freq, simulate_counts,
                           TomographyDataset)
from .errors import (BasisMismatchError, BinReductionError,
                     BranchAmbiguityError, FitConvergenceError, FreqbinError,
                     GridResolutionError, NoPhaseMatchError, PhysicalityError,
                     TemperatureRangeError, TomographyDataError,
                     WavelengthRangeError)
from .hom import HomParams, HomScan, fit_homi, homi_from_state, homi_rate, \
    synthesize_scan
from .qpm import (C_M_PER_S, Branch, CrystalSpec, PhaseMatchPoint,
                  crossing_temperature, load_crystal, solve_period,
                  solve_signal_idler, tuning_curve)

TWO_PI = 2.0 * np.pi

_NUMERICAL = (NoPhaseMatchError, BranchAmbiguityError, FitConvergenceError,
              BinReductionError, GridResolutionError, PhysicalityError)
_USAGE = (FileNotFoundError, IsADirectoryError, json.JSONDecodeError,
          WavelengthRangeError, TemperatureRangeError, TomographyDataError,
          BasisMismatchError, KeyError, ValueError)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _fmt(x) -> str:
    """Deterministic short float formatting for CSV cells."""
    if x is None or (isinstance(x, float) and not np.isfinite(x)):
        return "nan"
    return f"{x:.12g}"


def _out_dir(args) -> Path:
    d = Path(args.out_dir or os.environ.get("FREQBIN_OUT_DIR") or ".")
    d.mkdir(parents=True, exist_ok=True)
    return d


def _resolved(args) -> dict:
    skip = {"func", "parser", "error_json", "timestamp", "out_dir",
            "config"}
    return {k: v for k, v in sorted(vars(args).items())
            if k not in skip and not callable(v)}


def _meta(args, seed=None) -> dict:
    return {"tool": "freqbin", "version": __version__,
            "timestamp": args.timestamp or _now(), "seed": seed,
            "config": _resolved(args)}


def _csv_text(args, header: str, rows, seed=None) -> str:
    m = _meta(args, seed)
    lines = [f"# tool: {m['tool']} {m['version']}",
             f"# timestamp: {m['timestamp']}",
             f"# seed: {m['seed']}",
             f"# config: {json.dumps(m['config'], sort_keys=True)}",
             header]
    lines.extend(",".join(_fmt(c) if not isinstance(c, str) else c
                          for c in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_text(args, payload: dict, seed=None) -> str:
    return json.dumps({"meta": _meta(args, seed), **payload},
                      indent=2, sort_keys=True) + "\n"


def _emit(args, filename: str, text: str) -> Path:
    path = _out_dir(args) / filename
    path.write_text(text)
    print(f"wrote {path}")
    return path


def _load_spec(args) -> CrystalSpec:
    spec = load_crystal(getattr(args, "crystal", None) or "default")
    if getattr(args, "t_c", None) is not None:
        spec = replace(spec, temperature=float(args.t_c))
    return spec


def _read_table(path: Path):
    """Rows of a metadata-prefixed CSV as (header, list-of-cell-lists)."""
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    header = None
    rows = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = [c.strip() for c in line.split(",")]
            continue
        rows.append([c.strip() for c in line.split(",")])
    if header is None or not rows:
        raise ValueError(f"{path} contains no data rows")
    return header, rows


def _point_row(spec: CrystalSpec, j: int, pt: PhaseMatchPoint):
    return (str(j), _fmt(spec.segments[j].period * 1e6),
            _fmt(pt.signal_wavelength * 1e9), _fmt(pt.idler_wavelength * 1e9),
            pt.signal_pol.value, pt.idler_pol.value,
            _fmt(pt.residual_mismatch))


# --- qpm ------------------------------------------------------------------

def cmd_qpm_solve(args) -> int:
    spec = _load_spec(args)
    branch = Branch(args.branch) if args.branch else None
    segments = ([int(args.segment)] if args.segment is not None
                else list(range(len(spec.segments))))
    header = ("segment,period_um,lambda_s_nm,lambda_i_nm,signal_pol,"
              "idler_pol,residual_rad_per_m")
    rows = []
    points = {}
    for j in segments:
        pt = solve_signal_idler(spec, j, signal_pol=args.signal_pol,
                                branch=branch)
        points[j] = pt
        rows.append(_point_row(spec, j, pt))
        print(f"segment {j}: signal {pt.signal_wavelength*1e9:.3f} nm "
              f"({pt.signal_pol.value}) / idler "
              f"{pt.idler_wavelength*1e9:.3f} nm ({pt.idler_pol.value}), "
              f"residual {pt.residual_mismatch:.2e} rad/m")
    if (args.format or "csv") == "json":
        payload = {"points": {str(j): {
            "period_um": spec.segments[j].period * 1e6,
            "lambda_s_nm": p.signal_wavelength * 1e9,
            "lambda_i_nm": p.idler_wavelength * 1e9,
            "signal_pol": p.signal_pol.value,
            "idler_pol": p.idler_pol.value,
            "residual_rad_per_m": p.residual_mismatch}
            for j, p in points.items()}}
        _emit(args, "qpm_solve.json", _json_text(args, payload))
    else:
        _emit(args, "qpm_solve.csv", _csv_text(args, header, rows))
    return 0


def cmd_qpm_period(args) -> int:
    spec = _load_spec(args)
    lam_s = args.signal_nm * 1e-9
    lam_i = args.idler_nm * 1e-9
    lam_p = 1.0 / (1.0 / lam_s + 1.0 / lam_i)   # pump slaved to conservation
    spec = replace(spec, pump_wavelength=lam_p)
    signal_pol = Polarization(args.signal_pol)
    pt = PhaseMatchPoint(pump_wavelength=lam_p, signal_wavelength=lam_s,
                         idler_wavelength=lam_i, signal_pol=signal_pol,
                         idler_pol=signal_pol.other, residual_mismatch=0.0)
    period = solve_period(spec, pt)
    print(f"period {period*1e6:.6f} um (pump {lam_p*1e9:.4f} nm, "
          f"T {spec.temperature:.3f} C)")
    payload = {"period_um": period * 1e6, "pump_nm": lam_p * 1e9,
               "signal_nm": args.signal_nm, "idler_nm": args.idler_nm,
               "temperature_C": spec.temperature}
    _emit(args, "qpm_period.json", _json_text(args, payload))
    return 0


def cmd_qpm_tune(args) -> int:
    spec = _load_spec(args)
    if (args.t_from_c is None) == (args.pump_from_nm is None):
        raise ValueError(
            "give exactly one sweep: --t-from-c/--t-to-c or "
            "--pump-from-nm/--pump-to-nm")
    if args.t_from_c is not None:
        if args.t_to_c is None:
            raise ValueError("--t-from-c requires --t-to-c")
        variable = "temperature"
        sweep = (args.t_from_c, args.t_to_c)
        to_csv = lambda v: v
    else:
        if args.pump_to_nm is None:
            raise ValueError("--pump-from-nm requires --pump-to-nm")
        variable = "pump_wavelength"
        sweep = (args.pump_from_nm * 1e-9, args.pump_to_nm * 1e-9)
        to_csv = lambda v: v * 1e9
    curve = tuning_curve(spec, int(args.segment), variable=variable,
                         sweep=sweep, steps=int(args.steps),
                         signal_pol=args.signal_pol,
                         branch=Branch(args.branch) if args.branch else None)
    rows = []
    for tp in curve:
        if tp.point is None:
            rows.append((_fmt(to_csv(tp.value)), "nan", "nan", "nan"))
        else:
            rows.append((_fmt(to_csv(tp.value)),
                         _fmt(tp.point.signal_wavelength * 1e9),
                         _fmt(tp.point.idler_wavelength * 1e9),
                         _fmt(tp.point.residual_mismatch)))
    n_ok = sum(tp.point is not None for tp in curve)
    print(f"{variable} sweep: {n_ok}/{len(curve)} points phase-matched")
    _emit(args, "qpm_tune.csv", _csv_text(
        args, "variable,lambda_s_nm,lambda_i_nm,residual_rad_per_m", rows))
    return 0


def cmd_qpm_crossing(args) -> int:
    spec = _load_spec(args)
    t_star = crossing_temperature(spec, (args.t_lo_c, args.t_hi_c))
    at = replace(spec, temperature=t_star)
    pts = [solve_signal_idler(at, j) for j in range(2)]
    dw = abs(pts[0].delta_omega) / (TWO_PI * 1e12)
    print(f"crossing temperature {t_star:.6f} C; common pair "
          f"{pts[0].signal_wavelength*1e9:.3f} / "
          f"{pts[0].idler_wavelength*1e9:.3f} nm, splitting {dw:.4f} THz")
    payload = {"crossing_temperature_C": t_star,
               "splitting_thz": dw,
               "points": {str(j): {"lambda_s_nm": p.signal_wavelength * 1e9,
                                   "lambda_i_nm": p.idler_wavelength * 1e9,
                                   "signal_pol": p.signal_pol.value,
                                   "idler_pol": p.idler_pol.value}
                          for j, p in enumerate(pts)}}
    _emit(args, "qpm_crossing.json", _json_text(args, payload))
    return 0


# --- spectrum -------------------------------------------------------------

def _state_payload(state: BiphotonState) -> dict:
    return {"p": state.p, "V": state.V, "phi_rad": state.phi,
            "delta_omega_rad_s": state.delta_omega,
            "delta_omega_thz": state.delta_omega / (TWO_PI * 1e12),
            "tau_c_s": state.tau_c, "tau_c_ps": state.tau_c * 1e12,
            "bin_centers_rad_s": list(state.bin_centers),
            "compensation_delay_s": state.compensation_delay,
            "flags": []}


def cmd_spectrum(args) -> int:
    spec = _load_spec(args)
    sa = joint_spectrum(spec, n_points=int(args.points),
                        lobes=float(args.lobes))
    rows = [(_fmt(w), _fmt(TWO_PI * C_M_PER_S / w * 1e9), _fmt(t.real),
             _fmt(t.imag), _fmt(abs(t) ** 2))
            for w, t in zip(sa.omega, sa.total)]
    _emit(args, "spectrum_jsa.csv", _csv_text(
        args, "omega_s_rad_s,lambda_s_nm,re_total,im_total,intensity", rows))

    if len(spec.segments) == 2:
        state = reduce_to_bins(sa, spec)
        payload = {"state": _state_payload(state)}
        print(f"p = {state.p:.6f}, V = {state.V:.6f}, "
              f"phi = {state.phi:.6f} rad, "
              f"splitting {state.delta_omega/(TWO_PI*1e12):.4f} THz, "
              f"tau_c {state.tau_c*1e12:.4f} ps")
    else:
        payload = {"state": {
            "p": None, "V": None, "phi_rad": None,
            "delta_omega_rad_s": None, "tau_c_s": None,
            "flags": ["v_undefined_single_process"],
            "note": f"{len(spec.segments)} emission process(es); "
                    "two-bin reduction requires exactly two"}}
        print("single emission process: V undefined (flagged in state JSON)")
    _emit(args, "spectrum_state.json", _json_text(args, payload))
    return 0


# --- hom ------------------------------------------------------------------

def _hom_grid(args):
    r = float(args.range_ps) * 1e-12
    return np.linspace(-r, r, int(args.points))


def _hom_params(args) -> HomParams:
    return HomParams(N=float(args.n), V=float(args.v),
                     delta_omega=TWO_PI * float(args.dw_thz) * 1e12,
                     tau_c=float(args.tauc_ps) * 1e-12,
                     tau_offset=float(args.tau0_fs) * 1e-15)


def cmd_hom_model(args) -> int:
    params = _hom_params(args)
    taus = _hom_grid(args)
    vals = homi_rate(params, taus)
    rows = [(_fmt(t * 1e15), _fmt(v), _fmt(0.0))
            for t, v in zip(taus, vals)]
    print(f"model curve: {len(taus)} points, I(0)/N = "
          f"{homi_rate(params, 0.0)/params.N:.6f}")
    _emit(args, "hom_model.csv", _csv_text(args, "tau_fs,counts,sigma", rows))
    return 0


def cmd_hom_synth(args) -> int:
    params = _hom_params(args)
    taus = _hom_grid(args)
    scan = synthesize_scan(params, taus, float(args.pairs), int(args.seed))
    rows = [(_fmt(t * 1e15), _fmt(c), _fmt(s))
            for t, c, s in zip(scan.delays, scan.counts, scan.uncertainties)]
    print(f"synthesized {len(taus)} points at ~{args.pairs:g} pairs/point "
          f"(seed {args.seed})")
    _emit(args, "hom_synth.csv",
          _csv_text(args, "tau_fs,counts,sigma", rows, seed=int(args.seed)))
    return 0


def cmd_hom_fit(args) -> int:
    header, rows = _read_table(Path(args.scan))
    idx = {name: k for k, name in enumerate(header)}
    for need in ("tau_fs", "counts", "sigma"):
        if need not in idx:
            raise ValueError(f"scan file lacks required column '{need}'")
    taus = np.array([float(r[idx["tau_fs"]]) for r in rows]) * 1e-15
    counts = np.array([float(r[idx["counts"]]) for r in rows])
    sigma = np.array([float(r[idx["sigma"]]) for r in rows])
    if np.all(sigma <= 0.0):
        sigma = np.sqrt(np.maximum(counts, 1.0))
    scan = HomScan(delays=taus, counts=counts, uncertainties=sigma)
    init = json.loads(args.init) if args.init else None
    fit = fit_homi(scan, init=init)
    se = fit.stderr
    print(f"V = {fit.V:.6f} +- {se['V']:.6f}, "
          f"dw/2pi = {fit.delta_omega/(TWO_PI*1e12):.6f} THz, "
          f"tau_c = {fit.tau_c*1e12:.6f} ps, flags = {list(fit.flags)}")
    payload = {"fit": {
        "N": fit.N, "V": fit.V,
        "delta_omega_rad_s": fit.delta_omega,
        "delta_omega_thz": fit.delta_omega / (TWO_PI * 1e12),
        "tau_c_s": fit.tau_c, "tau_c_ps": fit.tau_c * 1e12,
        "tau_offset_s": fit.tau_offset,
        "stderr": {k: float(v) for k, v in se.items()},
        "residual_norm": fit.residual_norm, "n_iter": fit.n_iter,
        "flags": list(fit.flags)},
        "covariance": np.asarray(fit.covariance).tolist()}
    _emit(args, "hom_fit.json", _json_text(args, payload))
    return 0


# --- tomo -----------------------------------------------------------------

def _rho_from_args(args) -> DensityMatrix:
    if getattr(args, "rho", None):
        path = Path(args.rho)
        if not path.exists():
            raise FileNotFoundError(f"no such file: {path}")
        payload = json.loads(path.read_text())
        return DensityMatrix.from_json_dict(
            payload.get("rho", payload))
    rho = rho_freq(float(args.p), float(args.v), float(args.phi))
    tau = getattr(args, "tau_fs", None)
    if tau is not None:
        rho = mode_convert(rho, float(tau) * 1e-15,
                           TWO_PI * float(args.dw_thz) * 1e12)
    return rho


def _rho_payload(rho: DensityMatrix, extra=None) -> dict:
    d = {"rho": rho.to_json_dict()}
    if extra:
        d.update(extra)
    return d


def cmd_tomo_simulate(args) -> int:
    rho = _rho_from_args(args)
    settings = load_projectors(args.projectors)
    seed = None if args.seed is None else int(args.seed)
    data = simulate_counts(rho, settings, float(args.expected_total), seed)
    rows = [(s.setting_id, s.proj_a, s.proj_b, _fmt(c))
            for s, c in zip(data.settings, data.counts)]
    kind = "noiseless means" if seed is None else f"Poisson (seed {seed})"
    print(f"simulated {len(rows)} settings, {kind}, "
          f"total {data.counts.sum():.1f}")
    _emit(args, "tomo_counts.csv",
          _csv_text(args, "setting_id,proj_a,proj_b,counts", rows, seed=seed))
    return 0


def cmd_tomo_reconstruct(args) -> int:
    header, rows = _read_table(Path(args.data))
    idx = {name: k for k, name in enumerate(header)}
    for need in ("proj_a", "proj_b", "counts"):
        if need not in idx:
            raise ValueError(f"dataset lacks required column '{need}'")
    settings = load_projectors(args.projectors)
    by_pair = {(s.proj_a, s.proj_b): s for s in settings}
    chosen, counts = [], []
    for r in rows:
        key = (r[idx["proj_a"]], r[idx["proj_b"]])
        if key not in by_pair:
            raise TomographyDataError(
                f"projection pair {key} not in set '{args.projectors}'")
        chosen.append(by_pair[key])
        counts.append(float(r[idx["counts"]]))
    data = TomographyDataset(settings=tuple(chosen),
                             counts=np.array(counts))
    result = mle_tomography(data, full_output=True)
    rho = result.rho
    print(f"reconstructed in {result.n_iter} iterations, "
          f"log-likelihood {result.log_likelihood:.6f}, "
          f"purity {rho.purity:.6f}")
    payload = _rho_payload(rho, {
        "diagnostics": {"log_likelihood": result.log_likelihood,
                        "n_iter": result.n_iter,
                        "converged": result.converged}})
    _emit(args, "tomo_rho.json", _json_text(args, payload))
    return 0


def cmd_tomo_metrics(args) -> int:
    rho = _rho_from_args(args)
    phi_t = float(args.target_phi)
    domain = (Domain.POLARIZATION if tuple(rho.basis_labels)[0] == "HH"
              else Domain.FREQUENCY)
    f = fidelity(rho, ideal_state(phi_t, domain))
    c = concurrence(rho)
    print(f"F = {f:.6f}, C = {c:.6f} (target phase {phi_t:g} rad, "
          f"{domain.value} basis)")
    payload = {"metrics": {"fidelity": f, "concurrence": c,
                           "purity": rho.purity,
                           "target_phi_rad": phi_t,
                           "basis": list(rho.basis_labels)}}
    _emit(args, "tomo_metrics.json", _json_text(args, payload))
    return 0


def cmd_tomo_convert(args) -> int:
    dw = TWO_PI * float(args.dw_thz) * 1e12
    tau = float(args.tau_fs) * 1e-15
    phase = float(np.mod(dw * tau, TWO_PI))
    print(f"phase delta_omega*tau = {phase:.6f} rad = "
          f"{phase/np.pi:.4f} pi (mod 2 pi)")
    extra = {"conversion": {"tau_fs": float(args.tau_fs),
                            "delta_omega_thz": float(args.dw_thz),
                            "phase_rad": phase,
                            "phase_over_pi": phase / np.pi}}
    if getattr(args, "rho", None):
        rho_in = _rho_from_args(args)
        rho_out = mode_convert(rho_in, tau, dw)
        payload = _rho_payload(rho_out, extra)
    else:
        payload = extra
    _emit(args, "tomo_convert.json", _json_text(args, payload))
    return 0


def cmd_tomo_table1(args) -> int:
    p, v = float(args.p), float(args.v)
    dw = TWO_PI * float(args.dw_thz) * 1e12
    tau_c = float(args.tauc_ps) * 1e-12
    taus_fs = [float(t) for t in str(args.taus_fs).split(",")]
    settings = load_projectors(args.projectors)
    state = BiphotonState(p=p, V=v, phi=0.0, delta_omega=dw, tau_c=tau_c,
                          bin_centers=(0.0, 0.0))
    rows = []
    for k, tau_fs in enumerate(taus_fs):
        tau = tau_fs * 1e-15
        i_over_n = float(homi_from_state(state, tau))
        phi = float(np.mod(dw * tau, TWO_PI))
        rho_p = mode_convert(rho_freq(p, v, 0.0), tau, dw)
        f_model = fidelity(rho_p, ideal_state(phi, Domain.POLARIZATION))
        c_model = concurrence(rho_p)
        data = simulate_counts(rho_p, settings, float(args.expected_total),
                               int(args.seed) + k)
        rec = mle_tomography(data)
        f_mle = fidelity(rec, ideal_state(phi, Domain.POLARIZATION))
        c_mle = concurrence(rec)
        rows.append((_fmt(tau_fs), _fmt(i_over_n), _fmt(phi / np.pi),
                     _fmt(f_model), _fmt(c_model), _fmt(f_mle), _fmt(c_mle)))
        print(f"tau = {tau_fs:7.1f} fs: I/N = {i_over_n:.4f}, "
              f"phi = {phi/np.pi:.4f} pi, F = {f_model:.4f}, "
              f"C = {c_model:.4f} (MLE: F = {f_mle:.4f}, C = {c_mle:.4f})")
    _emit(args, "tomo_table1.csv", _csv_text(
        args, "tau_fs,i_over_n,phi_over_pi,fidelity,concurrence,"
        "fidelity_mle,concurrence_mle", rows, seed=int(args.seed)))
    return 0


# --- wiring ---------------------------------------------------------------

def _add_common(sp):
    sp.set_defaults(parser=sp)
    sp.add_argument("--config", default=None,
                    help="JSON file with default option values")
    sp.add_argument("--out-dir", default=None,
                    help="output directory (default $FREQBIN_OUT_DIR or .)")
    sp.add_argument("--timestamp", default=None,
                    help="override embedded timestamp (reproducible bytes)")
    sp.add_argument("--error-json", action="store_true",
                    help="print machine-readable JSON to stderr on failure")


def _add_crystal(sp, temperature=True):
    sp.add_argument("--crystal", default=None,
                    help="crystal config: bundled name or JSON path "
                         "(default: bundled 'default')")
    if temperature:
        sp.add_argument("--t-c", type=float, default=None,
                        help="override crystal temperature [degC]")


def _add_hom_params(sp):
    sp.add_argument("--n", type=float, default=1.0,
                    help="baseline level N (far-delay rate = N/2)")
    sp.add_argument("--v", type=float, default=0.934, help="visibility")
    sp.add_argument("--dw-thz", type=float, default=11.5,
                    help="bin splitting delta_omega/2pi [THz]")
    sp.add_argument("--tauc-ps", type=float, default=2.40,
                    help="triangular envelope half-base [ps]")
    sp.add_argument("--tau0-fs", type=float, default=0.0,
                    help="envelope center offset [fs]")
    sp.add_argument("--range-ps", type=float, default=3.0,
                    help="scan half-range [ps]")
    sp.add_argument("--points", type=int, default=241,
                    help="number of delay points")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="freqbin",
        description="Two-period quasi-phase-matched frequency-bin pair "
                    "source: design, spectra, interference, tomography.")
    ap.add_argument("--version", action="version",
                    version=f"freqbin {__version__}")
    top = ap.add_subparsers(dest="command")

    # qpm
    qpm = top.add_parser("qpm", help="phase-matching design tools")
    qsub = qpm.add_subparsers(dest="subcommand")

    s = qsub.add_parser("solve", help="solve signal/idler for a segment")
    _add_crystal(s)
    s.add_argument("--segment", type=int, default=None,
                   help="segment index (default: all segments)")
    s.add_argument("--signal-pol", default="H", choices=("H", "V"))
    s.add_argument("--branch", default=None,
                   choices=tuple(b.value for b in Branch))
    s.add_argument("--format", default=None, choices=("csv", "json"))
    _add_common(s)
    s.set_defaults(func=cmd_qpm_solve)

    s = qsub.add_parser("period", help="poling period for a target pair")
    _add_crystal(s)
    s.add_argument("--signal-nm", type=float, required=True)
    s.add_argument("--idler-nm", type=float, required=True)
    s.add_argument("--signal-pol", default="H", choices=("H", "V"))
    _add_common(s)
    s.set_defaults(func=cmd_qpm_period)

    s = qsub.add_parser("tune", help="tuning curve over T or pump")
    _add_crystal(s)
    s.add_argument("--segment", type=int, default=0)
    s.add_argument("--t-from-c", type=float, default=None)
    s.add_argument("--t-to-c", type=float, default=None)
    s.add_argument("--pump-from-nm", type=float, default=None)
    s.add_argument("--pump-to-nm", type=float, default=None)
    s.add_argument("--steps", type=int, default=41)
    s.add_argument("--signal-pol", default="H", choices=("H", "V"))
    s.add_argument("--branch", default=None,
                   choices=tuple(b.value for b in Branch))
    _add_common(s)
    s.set_defaults(func=cmd_qpm_tune)

    s = qsub.add_parser("crossing",
                        help="temperature where both segments emit one pair")
    _add_crystal(s, temperature=False)
    s.add_argument("--t-lo-c", type=float, default=100.0)
    s.add_argument("--t-hi-c", type=float, default=140.0)
    _add_common(s)
    s.set_defaults(func=cmd_qpm_crossing)

    # spectrum
    s = top.add_parser("spectrum",
                       help="joint spectral amplitude and bin reduction")
    _add_crystal(s)
    s.add_argument("--points", type=int, default=4097)
    s.add_argument("--lobes", type=float, default=6.0,
                   help="sinc-lobe margin around each peak")
    _add_common(s)
    s.set_defaults(func=cmd_spectrum)

    # hom
    hom = top.add_parser("hom", help="Hong-Ou-Mandel scans")
    hsub = hom.add_subparsers(dest="subcommand")

    s = hsub.add_parser("model", help="noiseless beat-model curve")
    _add_hom_params(s)
    _add_common(s)
    s.set_defaults(func=cmd_hom_model)

    s = hsub.add_parser("synth", help="Poisson-sampled synthetic scan")
    _add_hom_params(s)
    s.add_argument("--pairs", type=float, default=2000.0,
                   help="expected pairs per point at baseline")
    s.add_argument("--seed", type=int, default=0)
    _add_common(s)
    s.set_defaults(func=cmd_hom_synth)

    s = hsub.add_parser("fit", help="fit a scan CSV (tau_fs,counts,sigma)")
    s.add_argument("--scan", required=True, help="scan CSV path")
    s.add_argument("--init", default=None,
                   help='JSON dict of starting values, e.g. '
                        '\'{"delta_omega": 7e13}\'')
    _add_common(s)
    s.set_defaults(func=cmd_hom_fit)

    # tomo
    tomo = top.add_parser("tomo", help="two-qubit states and tomography")
    tsub = tomo.add_subparsers(dest="subcommand")

    def _add_state(sp, with_tau=True):
        sp.add_argument("--p", type=float, default=0.516,
                        help="population of the H-in-high-bin process")
        sp.add_argument("--v", type=float, default=0.934, help="coherence")
        sp.add_argument("--phi", type=float, default=0.0,
                        help="relative phase [rad]")
        sp.add_argument("--rho", default=None,
                        help="density-matrix JSON path (overrides --p/--v)")
        if with_tau:
            sp.add_argument("--tau-fs", type=float, default=None,
                            help="mode-conversion delay [fs] (maps to "
                                 "polarization basis)")
            sp.add_argument("--dw-thz", type=float, default=11.5,
                            help="bin splitting for conversion [THz]")

    s = tsub.add_parser("simulate", help="projective Poisson counts")
    _add_state(s)
    s.add_argument("--projectors", default="james16")
    s.add_argument("--expected-total", type=float, default=4000.0,
                   help="flux scale: mean counts of one full-basis group "
                        "(~expected_total/4 per setting)")
    s.add_argument("--seed", type=int, default=None,
                   help="Poisson seed (omit for noiseless means)")
    _add_common(s)
    s.set_defaults(func=cmd_tomo_simulate)

    s = tsub.add_parser("reconstruct", help="MLE density matrix from counts")
    s.add_argument("--data", required=True, help="counts CSV path")
    s.add_argument("--projectors", default="james16")
    _add_common(s)
    s.set_defaults(func=cmd_tomo_reconstruct)

    s = tsub.add_parser("metrics", help="fidelity/concurrence of a state")
    _add_state(s)
    s.add_argument("--target-phi", type=float, default=0.0,
                   help="ideal-state phase [rad]")
    _add_common(s)
    s.set_defaults(func=cmd_tomo_metrics)

    s = tsub.add_parser("convert",
                        help="frequency->polarization phase transfer")
    s.add_argument("--tau-fs", type=float, required=True)
    s.add_argument("--dw-thz", type=float, default=11.5)
    s.add_argument("--rho", default=None,
                   help="optional frequency-basis matrix JSON to convert")
    s.add_argument("--p", type=float, default=0.516)
    s.add_argument("--v", type=float, default=0.934)
    s.add_argument("--phi", type=float, default=0.0)
    _add_common(s)
    s.set_defaults(func=cmd_tomo_convert)

    s = tsub.add_parser("table1",
                        help="model-chain delay table (I/N, phi, F, C)")
    s.add_argument("--p", type=float, default=0.516)
    s.add_argument("--v", type=float, default=0.934)
    s.add_argument("--dw-thz", type=float, default=11.5)
    s.add_argument("--tauc-ps", type=float, default=2.40)
    s.add_argument("--taus-fs", default="0,47,-20",
                   help="comma-separated delays [fs]")
    s.add_argument("--projectors", default="james16")
    s.add_argument("--expected-total", type=float, default=4000.0)
    s.add_argument("--seed", type=int, default=1)
    _add_common(s)
    s.set_defaults(func=cmd_tomo_table1)

    return ap


def _apply_config(ap, args, argv):
    """Re-parse ``argv`` with the ``--config`` file's values as the
    subcommand's defaults, so flags given on the command line still win.
    Keys that name none of the subcommand's options are a usage error."""
    if not args.config:
        return args
    path = Path(args.config)
    if not path.exists():
        raise FileNotFoundError(f"no such config file: {path}")
    payload = json.loads(path.read_text())
    if not isinstance(payload, dict):
        raise ValueError("config file must hold a JSON object")
    values = {key.replace("-", "_"): v for key, v in payload.items()}
    options = {a.dest for a in args.parser._actions} - {"help", "config"}
    unknown = sorted(set(values) - options)
    if unknown:
        raise ValueError(f"config file {path} sets unknown options "
                         f"{unknown}")
    args.parser.set_defaults(**values)
    return ap.parse_args(argv)


def _report(args, exc, kind):
    if getattr(args, "error_json", False):
        detail = {"error": type(exc).__name__, "kind": kind,
                  "message": str(exc)}
        print(json.dumps(detail, sort_keys=True), file=sys.stderr)
    else:
        print(f"error: {exc}", file=sys.stderr)


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    func = getattr(args, "func", None)
    if func is None:
        ap.print_help()
        return 2
    try:
        args = _apply_config(ap, args, argv)
        return func(args)
    except _NUMERICAL as exc:
        _report(args, exc, "numerical")
        return 1
    except _USAGE as exc:
        _report(args, exc, "usage")
        return 2
    except FreqbinError as exc:       # pragma: no cover - catch-all guard
        _report(args, exc, "numerical")
        return 1


if __name__ == "__main__":
    sys.exit(main())
