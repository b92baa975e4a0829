"""Command-line front end: design, simulate, synthesize, fit, reconstruct.

Subcommands mirror the library modules (qpm / spectrum / hom / tomo); every
output file embeds tool version, resolved configuration, rng seed, and
timestamp, so a rerun with the same seed is byte-identical apart from the
timestamp (which ``--timestamp`` can pin). Exit codes: 0 success,
1 numerical failure, 2 usage or configuration error.

Each handler imports the library layers it runs, so a process loads only
its subcommand's layers; ``--version``, ``--help`` and usage errors load
no numpy.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .errors import FreqbinError

_USAGE = (FileNotFoundError, IsADirectoryError, ValueError)
# namespace entries left out of each output's recorded configuration
_UNRECORDED = {"func", "error_json", "timestamp", "out_dir", "config"}


_NUMBER = "{:.12g}"     # the format of every number in a CSV cell


def _fmt(x) -> str:
    """Deterministic short float formatting for CSV cells."""
    return "nan" if x is None else _NUMBER.format(x)


def _write(args, name: str, payload=None, header=None, rows=(), seed=None):
    """Write one output file into the output directory and report its path.

    Without ``header`` the file is strict JSON, ``payload`` plus a ``meta``
    block: a NaN or infinity in it raises ValueError. With it the file is
    CSV: ``# key: value`` metadata lines, the header, then ``rows``, whose
    strings are written as they are and numbers through ``_fmt``.
    """
    meta = {"tool": "freqbin", "version": __version__,
            "timestamp": (args.timestamp
                          or datetime.now(timezone.utc).isoformat()),
            "seed": seed,
            "config": {k: v for k, v in sorted(vars(args).items())
                       if k not in _UNRECORDED}}
    if header is None:
        text = json.dumps({"meta": meta, **payload}, indent=2,
                          sort_keys=True, allow_nan=False)
    else:
        lines = [f"# tool: freqbin {__version__}",
                 f"# timestamp: {meta['timestamp']}", f"# seed: {seed}",
                 f"# config: {json.dumps(meta['config'], sort_keys=True)}",
                 header]
        lines.extend(",".join(c if isinstance(c, str) else _fmt(c)
                              for c in row) for row in rows)
        text = "\n".join(lines)
    out = Path(args.out_dir or os.environ.get("FREQBIN_OUT_DIR") or ".")
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(text + "\n")
    print(f"wrote {out / name}")


def _read_columns(path, names, what: str) -> list:
    """Cells of the columns ``names`` of a metadata-prefixed CSV, as one
    list of strings per column; ``what`` names the file in errors."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    table = [[c.strip() for c in line.split(",")]
             for line in map(str.strip, path.read_text().splitlines())
             if line and not line.startswith("#")]
    if len(table) < 2:
        raise ValueError(f"{path} contains no data rows")
    header, rows = table[0], table[1:]
    for name in names:
        if name not in header:
            raise ValueError(f"{what} lacks required column '{name}'")
    for k, r in enumerate(rows, 1):
        if len(r) < len(header):
            raise ValueError(f"{path}: data row {k} has {len(r)} cells, "
                             f"the header {len(header)}")
    return [[r[header.index(name)] for r in rows] for name in names]


def _load_spec(args):
    """The crystal of ``--crystal``, at ``--t-c`` where it is given."""
    from dataclasses import replace
    from .qpm import load_crystal
    spec = load_crystal(args.crystal or "default")
    if getattr(args, "t_c", None) is not None:
        spec = replace(spec, temperature=float(args.t_c))
    return spec


def _point(spec, j: int, pt) -> dict:
    """The record of segment j's solved pair, in the CSV column order."""
    return {"period_um": spec.segments[j].period * 1e6,
            "lambda_s_nm": pt.signal_wavelength * 1e9,
            "lambda_i_nm": pt.idler_wavelength * 1e9,
            "signal_pol": pt.signal_pol.value,
            "idler_pol": pt.idler_pol.value,
            "residual_rad_per_m": pt.residual_mismatch}


# --- qpm ------------------------------------------------------------------

def cmd_qpm_solve(args) -> int:
    from .qpm import solve_signal_idler
    spec = _load_spec(args)
    segments = ([int(args.segment)] if args.segment is not None
                else list(range(len(spec.segments))))
    points = {}
    for j in segments:
        pt = solve_signal_idler(spec, j, signal_pol=args.signal_pol,
                                branch=args.branch)
        points[j] = _point(spec, j, pt)
        print(f"segment {j}: signal {pt.signal_wavelength*1e9:.3f} nm "
              f"({pt.signal_pol.value}) / idler "
              f"{pt.idler_wavelength*1e9:.3f} nm ({pt.idler_pol.value}), "
              f"residual {pt.residual_mismatch:.2e} rad/m")
    if (args.format or "csv") == "json":
        _write(args, "qpm_solve.json", {"points": {
            str(j): rec for j, rec in points.items()}})
    else:
        _write(args, "qpm_solve.csv",
               header=",".join(["segment", *points[segments[0]]]),
               rows=[(j, *rec.values()) for j, rec in points.items()])
    return 0


def cmd_qpm_period(args) -> int:
    from .dispersion import Polarization
    from .qpm import PhaseMatchPoint, solve_period
    spec = _load_spec(args)
    for flag, nm in (("--signal-nm", args.signal_nm),
                     ("--idler-nm", args.idler_nm)):
        if not nm > 0.0:
            raise ValueError(f"{flag} must be positive, not {nm:g}")
    lam_s, lam_i = args.signal_nm * 1e-9, args.idler_nm * 1e-9
    lam_p = 1.0 / (1.0 / lam_s + 1.0 / lam_i)   # pump slaved to conservation
    if not lam_p > 0.0:
        raise ValueError("--signal-nm and --idler-nm are too short: the "
                         "pump wavelength they give underflows to 0")
    pol = Polarization(args.signal_pol)
    period = solve_period(spec, PhaseMatchPoint(lam_p, lam_s, lam_i, pol,
                                                pol.other, 0.0))
    print(f"period {period*1e6:.6f} um (pump {lam_p*1e9:.4f} nm, "
          f"T {spec.temperature:.3f} C)")
    _write(args, "qpm_period.json", {
        "period_um": period * 1e6, "pump_nm": lam_p * 1e9,
        "signal_nm": args.signal_nm, "idler_nm": args.idler_nm,
        "temperature_C": spec.temperature})
    return 0


def cmd_qpm_tune(args) -> int:
    from .qpm import tuning_curve
    spec = _load_spec(args)
    if (args.t_from_c is None) == (args.pump_from_nm is None):
        raise ValueError(
            "give exactly one sweep: --t-from-c/--t-to-c or "
            "--pump-from-nm/--pump-to-nm")
    if args.t_from_c is not None:
        if args.t_to_c is None:
            raise ValueError("--t-from-c requires --t-to-c")
        if args.pump_to_nm is not None:
            raise ValueError(f"--pump-to-nm {args.pump_to_nm:g} is read "
                             "only with --pump-from-nm, which is not given")
        variable = "temperature"
        sweep = (args.t_from_c, args.t_to_c)
        to_csv = lambda v: v
    else:
        if args.pump_to_nm is None:
            raise ValueError("--pump-from-nm requires --pump-to-nm")
        if args.t_to_c is not None:
            raise ValueError(f"--t-to-c {args.t_to_c:g} is read only with "
                             "--t-from-c, which is not given")
        variable = "pump_wavelength"
        sweep = (args.pump_from_nm * 1e-9, args.pump_to_nm * 1e-9)
        to_csv = lambda v: v * 1e9
    curve = tuning_curve(spec, int(args.segment), variable=variable,
                         sweep=sweep, steps=int(args.steps),
                         signal_pol=args.signal_pol, branch=args.branch)
    rows = [(to_csv(tp.value), *((None,) * 3 if tp.point is None else (
        tp.point.signal_wavelength * 1e9, tp.point.idler_wavelength * 1e9,
        tp.point.residual_mismatch))) for tp in curve]
    n_ok = sum(tp.point is not None for tp in curve)
    print(f"{variable} sweep: {n_ok}/{len(curve)} points phase-matched")
    _write(args, "qpm_tune.csv", rows=rows,
           header="variable,lambda_s_nm,lambda_i_nm,residual_rad_per_m")
    return 0


def cmd_qpm_crossing(args) -> int:
    from dataclasses import replace
    from .qpm import crossing_temperature, solve_signal_idler
    spec = _load_spec(args)
    t_star = crossing_temperature(spec, (args.t_lo_c, args.t_hi_c))
    at = replace(spec, temperature=t_star)
    pts = [solve_signal_idler(at, j) for j in range(2)]
    dw = abs(pts[0].delta_omega) / (math.tau * 1e12)
    print(f"crossing temperature {t_star:.6f} C; common pair "
          f"{pts[0].signal_wavelength*1e9:.3f} / "
          f"{pts[0].idler_wavelength*1e9:.3f} nm, splitting {dw:.4f} THz")
    keys = ("lambda_s_nm", "lambda_i_nm", "signal_pol", "idler_pol")
    _write(args, "qpm_crossing.json", {
        "crossing_temperature_C": t_star, "splitting_thz": dw,
        "points": {str(j): {k: _point(at, j, p)[k] for k in keys}
                   for j, p in enumerate(pts)}})
    return 0


# --- spectrum -------------------------------------------------------------

def cmd_spectrum(args) -> int:
    from .biphoton import joint_spectrum, reduce_to_bins
    from .qpm import C_M_PER_S
    spec = _load_spec(args)
    sa = joint_spectrum(spec, n_points=int(args.points),
                        lobes=float(args.lobes))
    # each row is one cell, formatted in one call as _fmt formats numbers
    row = ",".join([_NUMBER] * 5).format
    _write(args, "spectrum_jsa.csv",
           header="omega_s_rad_s,lambda_s_nm,re_total,im_total,intensity",
           rows=((line,) for line in map(
               row, sa.omega.tolist(),
               (math.tau * C_M_PER_S / sa.omega * 1e9).tolist(),
               sa.total.real.tolist(), sa.total.imag.tolist(),
               sa.intensity.tolist())))

    if len(spec.segments) == 2:
        st = reduce_to_bins(sa, spec)
        state = {"p": st.p, "V": st.V, "phi_rad": st.phi,
                 "delta_omega_rad_s": st.delta_omega,
                 "delta_omega_thz": st.delta_omega / (math.tau * 1e12),
                 "tau_c_s": st.tau_c, "tau_c_ps": st.tau_c * 1e12,
                 "bin_centers_rad_s": list(st.bin_centers),
                 "compensation_delay_s": st.compensation_delay, "flags": []}
        print(f"p = {st.p:.6f}, V = {st.V:.6f}, phi = {st.phi:.6f} rad, "
              f"splitting {st.delta_omega/(math.tau*1e12):.4f} THz, "
              f"tau_c {st.tau_c*1e12:.4f} ps")
    else:
        state = {"p": None, "V": None, "phi_rad": None,
                 "delta_omega_rad_s": None, "tau_c_s": None,
                 "flags": ["v_undefined_single_process"],
                 "note": f"{len(spec.segments)} emission process(es); "
                         "two-bin reduction requires exactly two"}
        print("single emission process: V undefined (flagged in state JSON)")
    _write(args, "spectrum_state.json", {"state": state})
    return 0


# --- hom ------------------------------------------------------------------

def _hom(args, n_rate=1.0):
    """The beat-model parameters, at baseline level ``n_rate``, and the
    delay grid of the HOM options."""
    import numpy as np
    from .hom import HomParams
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, not {args.points}")
    if not args.range_ps > 0.0:
        raise ValueError(f"--range-ps must be positive, not {args.range_ps:g}")
    params = HomParams(n_rate, args.v, math.tau * args.dw_thz * 1e12,
                       args.tauc_ps * 1e-12, args.tau0_fs * 1e-15)
    r = args.range_ps * 1e-12
    return params, np.linspace(-r, r, args.points)


def cmd_hom_model(args) -> int:
    from .hom import homi_rate
    params, taus = _hom(args, args.n)
    vals = homi_rate(params, taus)
    print(f"model curve: {len(taus)} points, I(0)/N = "
          f"{homi_rate(params, 0.0)/params.N:.6f}")
    _write(args, "hom_model.csv", header="tau_fs,counts,sigma",
           rows=[(t * 1e15, v, 0.0) for t, v in zip(taus, vals)])
    return 0


def cmd_hom_synth(args) -> int:
    from .hom import synthesize_scan
    params, taus = _hom(args)       # the counts scale with --pairs, not N
    scan = synthesize_scan(params, taus, args.pairs, args.seed)
    print(f"synthesized {len(taus)} points at ~{args.pairs:g} pairs/point "
          f"(seed {args.seed})")
    _write(args, "hom_synth.csv", header="tau_fs,counts,sigma",
           rows=zip(scan.delays * 1e15, scan.counts, scan.uncertainties),
           seed=args.seed)
    return 0


def cmd_hom_fit(args) -> int:
    import numpy as np
    from .hom import HomScan, fit_homi
    taus, counts = (np.array([float(c) for c in col]) for col in
                    _read_columns(args.scan, ("tau_fs", "counts"),
                                  "scan file"))
    scan = HomScan(delays=taus * 1e-15, counts=counts)
    fit = fit_homi(scan, init=json.loads(args.init) if args.init else None)
    se = fit.stderr
    print(f"V = {fit.V:.6f} +- {se['V']:.6f}, "
          f"dw/2pi = {fit.delta_omega/(math.tau*1e12):.6f} THz, "
          f"tau_c = {fit.tau_c*1e12:.6f} ps, flags = {list(fit.flags)}")
    _write(args, "hom_fit.json", {"fit": {
        "N": fit.N, "V": fit.V, "delta_omega_rad_s": fit.delta_omega,
        "delta_omega_thz": fit.delta_omega / (math.tau * 1e12),
        "tau_c_s": fit.tau_c, "tau_c_ps": fit.tau_c * 1e12,
        "tau_offset_s": fit.tau_offset,
        "stderr": {k: float(v) for k, v in se.items()},
        "residual_norm": fit.residual_norm, "n_iter": fit.n_iter,
        "flags": list(fit.flags)},
        "covariance": np.asarray(fit.covariance).tolist()})
    return 0


# --- tomo -----------------------------------------------------------------

def _rho_from_args(args):
    """The state of ``--rho``, else of ``--p/--v/--phi``, mode-converted
    by ``--tau-fs`` where it is given, at ``--dw-thz`` (default 11.5)."""
    if args.tau_fs is None and args.dw_thz is not None:
        raise ValueError(f"--dw-thz {args.dw_thz:g} is read only with "
                         "--tau-fs, which is not given")
    from ._json import _json_file
    from .entanglement import DensityMatrix, mode_convert, rho_freq
    if args.rho:
        payload = _json_file(args.rho)
        rho = DensityMatrix.from_json_dict(
            payload.object("rho") if "rho" in payload else payload)
    else:
        rho = rho_freq(float(args.p), float(args.v), float(args.phi))
    if args.tau_fs is not None:
        dw_thz = _SPLITTING_THZ if args.dw_thz is None else args.dw_thz
        rho = mode_convert(rho, float(args.tau_fs) * 1e-15,
                           math.tau * dw_thz * 1e12)
    return rho


def cmd_tomo_simulate(args) -> int:
    from .entanglement import load_projectors, simulate_counts
    rho = _rho_from_args(args)
    settings = load_projectors(args.projectors)
    seed = None if args.seed is None else int(args.seed)
    data = simulate_counts(rho, settings, float(args.expected_total), seed)
    kind = "noiseless means" if seed is None else f"Poisson (seed {seed})"
    print(f"simulated {len(data.counts)} settings, {kind}, "
          f"total {data.counts.sum():.1f}")
    _write(args, "tomo_counts.csv", header="setting_id,proj_a,proj_b,counts",
           rows=[(s.setting_id, s.proj_a, s.proj_b, c)
                 for s, c in zip(data.settings, data.counts)], seed=seed)
    return 0


def cmd_tomo_reconstruct(args) -> int:
    import numpy as np
    from .entanglement import (TomographyDataset, load_projectors,
                               mle_tomography)
    from .errors import TomographyDataError
    proj_a, proj_b, counts = _read_columns(
        args.data, ("proj_a", "proj_b", "counts"), "dataset")
    settings = load_projectors(args.projectors)
    by_pair = {(s.proj_a, s.proj_b): s for s in settings}
    chosen = []
    for key in zip(proj_a, proj_b):
        if key not in by_pair:
            raise TomographyDataError(
                f"projection pair {key} not in set '{args.projectors}'")
        chosen.append(by_pair[key])
    data = TomographyDataset(settings=tuple(chosen),
                             counts=np.array([float(c) for c in counts]))
    result = mle_tomography(data, full_output=True)
    print(f"reconstructed in {result.n_iter} iterations, "
          f"log-likelihood {result.log_likelihood:.6f}, "
          f"purity {result.rho.purity:.6f}")
    _write(args, "tomo_rho.json", {
        "rho": result.rho.to_json_dict(),
        "diagnostics": {"log_likelihood": result.log_likelihood,
                        "n_iter": result.n_iter,
                        "certified_gap": result.certified_gap}})
    return 0


def cmd_tomo_metrics(args) -> int:
    from .entanglement import Domain, concurrence, fidelity, ideal_state
    rho = _rho_from_args(args)
    phi_t = float(args.target_phi)
    domain = (Domain.POLARIZATION if tuple(rho.basis_labels)[0] == "HH"
              else Domain.FREQUENCY)
    f = fidelity(rho, ideal_state(phi_t, domain))
    c = concurrence(rho)
    print(f"F = {f:.6f}, C = {c:.6f} (target phase {phi_t:g} rad, "
          f"{domain.value} basis)")
    _write(args, "tomo_metrics.json", {"metrics": {
        "fidelity": f, "concurrence": c, "purity": rho.purity,
        "target_phi_rad": phi_t, "basis": list(rho.basis_labels)}})
    return 0


def cmd_tomo_convert(args) -> int:
    from ._conversion import conversion_phase   # loads no numpy
    phase = conversion_phase(float(args.tau_fs) * 1e-15,
                             math.tau * float(args.dw_thz) * 1e12)
    print(f"phase delta_omega*tau = {phase:.6f} rad = "
          f"{phase/math.pi:.4f} pi (mod 2 pi)")
    payload = {"conversion": {"tau_fs": float(args.tau_fs),
                              "delta_omega_thz": float(args.dw_thz),
                              "phase_rad": phase,
                              "phase_over_pi": phase / math.pi}}
    if args.rho:
        payload["rho"] = _rho_from_args(args).to_json_dict()
    _write(args, "tomo_convert.json", payload)
    return 0


def cmd_tomo_table1(args) -> int:
    from .entanglement import (Domain, concurrence, conversion_phase,
                               fidelity, ideal_state, load_projectors,
                               mle_tomography, mode_convert, rho_freq,
                               simulate_counts)
    from .hom import HomParams, homi_rate
    dw = math.tau * args.dw_thz * 1e12
    try:
        taus_fs = [float(t) for t in args.taus_fs.split(",")]
    except ValueError:
        raise ValueError("--taus-fs must be comma-separated delays [fs], "
                         f"not {args.taus_fs!r}") from None
    settings = load_projectors(args.projectors)
    rho_f = rho_freq(args.p, args.v, 0.0)
    beat = HomParams(1.0, args.v, dw, args.tauc_ps * 1e-12)
    for k, tau_fs in enumerate(taus_fs, 1):   # HomParams checked dw
        try:
            conversion_phase(tau_fs * 1e-15, dw)
        except ValueError as exc:
            raise ValueError(f"--taus-fs entry {k}: {exc}") from None
    rows = []
    for k, tau_fs in enumerate(taus_fs):
        tau = tau_fs * 1e-15
        i_over_n = homi_rate(beat, tau)
        phi = conversion_phase(tau, dw)
        rho_p = mode_convert(rho_f, tau, dw)
        f_model = fidelity(rho_p, ideal_state(phi, Domain.POLARIZATION))
        c_model = concurrence(rho_p)
        data = simulate_counts(rho_p, settings, args.expected_total,
                               args.seed + k)
        rec = mle_tomography(data)
        f_mle = fidelity(rec, ideal_state(phi, Domain.POLARIZATION))
        c_mle = concurrence(rec)
        rows.append((tau_fs, i_over_n, phi / math.pi, f_model, c_model, f_mle,
                     c_mle))
        print(f"tau = {tau_fs:7.1f} fs: I/N = {i_over_n:.4f}, "
              f"phi = {phi/math.pi:.4f} pi, F = {f_model:.4f}, "
              f"C = {c_model:.4f} (MLE: F = {f_mle:.4f}, C = {c_mle:.4f})")
    _write(args, "tomo_table1.csv", rows=rows, seed=args.seed,
           header="tau_fs,i_over_n,phi_over_pi,fidelity,concurrence,"
                  "fidelity_mle,concurrence_mle")
    return 0


# --- wiring ---------------------------------------------------------------

def _opt(*flags, **kwargs):
    """One option declaration: ``add_argument``'s arguments."""
    return flags, kwargs


_COMMON = (
    _opt("--config", help="JSON file with default option values"),
    _opt("--out-dir", help="output directory (default $FREQBIN_OUT_DIR or .)"),
    _opt("--timestamp",
         help="override embedded timestamp (reproducible bytes)"),
    _opt("--error-json", action="store_true",
         help="print machine-readable JSON to stderr on failure"))
_CRYSTAL = _opt("--crystal", help="crystal config: bundled name or JSON "
                                  "path (default: bundled 'default')")
_T_C = _opt("--t-c", type=float, help="override crystal temperature [degC]")
_SIGNAL_POL = _opt("--signal-pol", default="H", choices=("H", "V"))
_BRANCH = _opt("--branch", choices=("signal_short", "signal_long"))
_PROJECTORS = _opt("--projectors", default="james16")
_EXPECTED_TOTAL = _opt("--expected-total", type=float, default=4000.0,
                       help="flux scale: mean counts of one full-basis "
                            "group (~expected_total/4 per setting)")
_SPLITTING_THZ = 11.5        # default bin splitting delta_omega/2pi
_DW_THZ = _opt("--dw-thz", type=float, default=_SPLITTING_THZ,
               help="bin splitting delta_omega/2pi [THz]")
_TAUC_PS = _opt("--tauc-ps", type=float, default=2.40,
                help="triangular envelope half-base [ps]")
_HOM = (
    _opt("--v", type=float, default=0.934, help="visibility"),
    _DW_THZ, _TAUC_PS,
    _opt("--tau0-fs", type=float, default=0.0,
         help="envelope center offset [fs]"),
    _opt("--range-ps", type=float, default=3.0, help="scan half-range [ps]"),
    _opt("--points", type=int, default=241, help="number of delay points"))
_P = _opt("--p", type=float, default=0.516,
          help="population of the H-in-high-bin process")
_V = _opt("--v", type=float, default=0.934, help="coherence")
_STATE = (_P, _V,
          _opt("--phi", type=float, default=0.0, help="relative phase [rad]"),
          _opt("--rho", help="density-matrix JSON path (overrides --p/--v)"),
          _opt("--tau-fs", type=float, help="mode-conversion delay [fs] "
                                            "(maps to polarization basis)"),
          _opt("--dw-thz", type=float, help="bin splitting delta_omega/2pi "
                                            "[THz] of --tau-fs, default 11.5"))


def _command(parent, name, func, help, *options):
    """Add subcommand ``name`` running ``func`` with ``options`` followed
    by the options every subcommand takes."""
    sp = parent.add_parser(name, help=help)
    for flags, kwargs in options + _COMMON:
        sp.add_argument(*flags, **kwargs)
    sp.set_defaults(func=func)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="freqbin",
        description="Two-period quasi-phase-matched frequency-bin pair "
                    "source: design, spectra, interference, tomography.")
    ap.add_argument("--version", action="version",
                    version=f"freqbin {__version__}")
    top = ap.add_subparsers(dest="command")

    qsub = top.add_parser("qpm", help="phase-matching design tools") \
        .add_subparsers(dest="subcommand")
    _command(qsub, "solve", cmd_qpm_solve,
             "solve signal/idler for a segment", _CRYSTAL, _T_C,
             _opt("--segment", type=int,
                  help="segment index (default: all segments)"),
             _SIGNAL_POL, _BRANCH,
             _opt("--format", choices=("csv", "json")))
    _command(qsub, "period", cmd_qpm_period,
             "poling period for a target pair", _CRYSTAL, _T_C,
             _opt("--signal-nm", type=float, required=True),
             _opt("--idler-nm", type=float, required=True), _SIGNAL_POL)
    _command(qsub, "tune", cmd_qpm_tune, "tuning curve over T or pump",
             _CRYSTAL, _T_C, _opt("--segment", type=int, default=0),
             _opt("--t-from-c", type=float), _opt("--t-to-c", type=float),
             _opt("--pump-from-nm", type=float),
             _opt("--pump-to-nm", type=float),
             _opt("--steps", type=int, default=41), _SIGNAL_POL, _BRANCH)
    _command(qsub, "crossing", cmd_qpm_crossing,
             "temperature where both segments emit one pair", _CRYSTAL,
             _opt("--t-lo-c", type=float, default=100.0),
             _opt("--t-hi-c", type=float, default=140.0))

    _command(top, "spectrum", cmd_spectrum,
             "joint spectral amplitude and bin reduction", _CRYSTAL, _T_C,
             _opt("--points", type=int, default=4097),
             _opt("--lobes", type=float, default=6.0,
                  help="sinc-lobe margin around each peak"))

    hsub = top.add_parser("hom", help="Hong-Ou-Mandel scans") \
        .add_subparsers(dest="subcommand")
    _command(hsub, "model", cmd_hom_model, "noiseless beat-model curve",
             _opt("--n", type=float, default=1.0,
                  help="baseline level N (far-delay rate = N/2)"), *_HOM)
    _command(hsub, "synth", cmd_hom_synth, "Poisson-sampled synthetic scan",
             *_HOM, _opt("--pairs", type=float, default=2000.0,
                         help="expected pairs per point at baseline"),
             _opt("--seed", type=int, default=0))
    _command(hsub, "fit", cmd_hom_fit, "fit a scan CSV (tau_fs,counts)",
             _opt("--scan", required=True, help="scan CSV path"),
             _opt("--init", help='JSON dict of starting values, e.g. '
                                 '\'{"delta_omega": 7e13}\''))

    tsub = top.add_parser("tomo", help="two-qubit states and tomography") \
        .add_subparsers(dest="subcommand")
    _command(tsub, "simulate", cmd_tomo_simulate, "projective Poisson counts",
             *_STATE, _PROJECTORS, _EXPECTED_TOTAL,
             _opt("--seed", type=int,
                  help="Poisson seed (omit for noiseless means)"))
    _command(tsub, "reconstruct", cmd_tomo_reconstruct,
             "MLE density matrix from counts",
             _opt("--data", required=True, help="counts CSV path"),
             _PROJECTORS)
    _command(tsub, "metrics", cmd_tomo_metrics,
             "fidelity/concurrence of a state", *_STATE,
             _opt("--target-phi", type=float, default=0.0,
                  help="ideal-state phase [rad]"))
    _command(tsub, "convert", cmd_tomo_convert,
             "frequency->polarization phase transfer",
             _opt("--tau-fs", type=float, required=True), _DW_THZ,
             _opt("--rho",
                  help="optional frequency-basis matrix JSON to convert"))
    _command(tsub, "table1", cmd_tomo_table1,
             "model-chain delay table (I/N, phi, F, C)", _P, _V, _DW_THZ,
             _TAUC_PS, _opt("--taus-fs", default="0,47,-20",
                            help="comma-separated delays [fs]"),
             _PROJECTORS, _EXPECTED_TOTAL, _opt("--seed", type=int, default=1))
    return ap


def _with_config(ap, argv) -> list:
    """``argv`` with the ``--config`` file's values inserted as option
    tokens after the subcommand's name, so that argparse converts and
    checks them and the command line's own flags, coming later, win.
    ``true`` sets a flag, ``false`` leaves it unset and ``null`` leaves
    any option unset. Keys that name none of the subcommand's options are
    a usage error."""
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config")
    try:
        config = pre.parse_known_args(argv)[0].config
    except argparse.ArgumentError:
        return argv                # the full parse reports it
    if not config:
        return argv
    from ._json import _json_file
    payload = _json_file(config, "config file")
    parser, k = ap, 0          # follow the command words to the subcommand
    while k < len(argv) and argv[k] in _subparsers(parser):
        parser = _subparsers(parser)[argv[k]]
        k += 1
    options = {a.dest: a for a in parser._actions
               if a.option_strings and a.dest not in ("help", "config")}
    values = {key.replace("-", "_"): v for key, v in payload.items()}
    unknown = sorted(set(values) - set(options))
    if unknown:
        raise ValueError(f"config file {payload.where} sets unknown "
                         f"options {unknown}")
    tokens = []
    for dest, value in values.items():
        action = options[dest]
        if value is None or (value is False and action.nargs == 0):
            continue
        flag = action.option_strings[0]
        tokens.append(flag if value is True else f"{flag}={value}")
    return argv[:k] + tokens + argv[k:]


def _subparsers(parser) -> dict:
    return next((a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)), {})


def main(argv=None) -> int:
    ap = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    error_json = "--error-json" in argv
    try:
        args = ap.parse_args(_with_config(ap, argv))
        if getattr(args, "func", None) is None:
            ap.print_help()
            return 2
        error_json = args.error_json
        for dest, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"--{dest.replace('_', '-')} must be "
                                 f"finite, not {value}")
        return args.func(args)
    except (FreqbinError, *_USAGE) as exc:
        kind, code = (("numerical", 1) if isinstance(exc, FreqbinError)
                      and not isinstance(exc, ValueError) else ("usage", 2))
        if error_json:
            print(json.dumps({"error": type(exc).__name__, "kind": kind,
                              "message": str(exc)}, sort_keys=True),
                  file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
