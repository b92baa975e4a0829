"""End-to-end command-line behavior: file outputs, exit codes, determinism.

Everything runs in-process through ``main(argv)`` with ``--out-dir`` pointed
at pytest temp dirs, so these tests double as integration coverage of the
whole pipeline (solver -> spectrum -> reduction -> fit -> tomography).
"""
import argparse
import json
from importlib import resources

import numpy as np
import pytest

from freqbin import errors
from freqbin.biphoton import joint_spectrum
from freqbin.cli import _build_parser, _fmt, main
from freqbin.entanglement import mode_convert, rho_freq
from freqbin.hom import HomParams, synthesize_scan
from freqbin.qpm import Branch, load_crystal, solve_signal_idler

PAIR_120 = {0: (1504.3894, 1598.4627), 1: (1592.7616, 1509.4744)}


def read_meta_and_rows(path):
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition(": ")
            meta[key] = val
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def load_json(path):
    """The output file's JSON, parsed strictly: NaN and Infinity fail."""
    return json.loads(path.read_text(), parse_constant=reject_constant)


# --- qpm ------------------------------------------------------------------

def test_qpm_solve_default(tmp_path, capsys):
    rc = main(["qpm", "solve", "--out-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "segment 0" in out and "segment 1" in out
    meta, header, rows = read_meta_and_rows(tmp_path / "qpm_solve.csv")
    assert meta["tool"].startswith("freqbin")
    assert header[0] == "segment"
    assert len(rows) == 2
    # at the shipped operating temperature both segments emit the same pair
    s0, i0 = float(rows[0][2]), float(rows[0][3])
    s1, i1 = float(rows[1][2]), float(rows[1][3])
    assert s0 == pytest.approx(1507.103, abs=2e-3)
    assert i0 == pytest.approx(1595.410, abs=2e-3)
    assert s1 == pytest.approx(i0, abs=1e-4)
    assert i1 == pytest.approx(s0, abs=1e-4)


def test_qpm_solve_single_segment_at_design_temperature(tmp_path):
    rc = main(["qpm", "solve", "--t-c", "120", "--segment", "0",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    _, _, rows = read_meta_and_rows(tmp_path / "qpm_solve.csv")
    assert len(rows) == 1
    assert float(rows[0][2]) == pytest.approx(PAIR_120[0][0], abs=1e-3)
    assert float(rows[0][3]) == pytest.approx(PAIR_120[0][1], abs=1e-3)
    assert abs(float(rows[0][2]) - 1506.0) < 15.0
    assert abs(float(rows[0][3]) - 1594.0) < 15.0


def test_qpm_solve_json_format(tmp_path):
    rc = main(["qpm", "solve", "--format", "json", "--out-dir",
               str(tmp_path)])
    assert rc == 0
    payload = load_json(tmp_path / "qpm_solve.json")
    assert set(payload["points"]) == {"0", "1"}
    assert payload["points"]["0"]["lambda_s_nm"] == pytest.approx(
        1507.103, abs=2e-3)
    assert payload["meta"]["tool"] == "freqbin"


def test_qpm_period_slaves_pump(tmp_path, capsys):
    rc = main(["qpm", "period", "--signal-nm", "1506", "--idler-nm", "1594",
               "--t-c", "120", "--out-dir", str(tmp_path)])
    assert rc == 0
    payload = load_json(tmp_path / "qpm_period.json")
    assert payload["period_um"] == pytest.approx(9.245063, abs=1e-4)
    assert abs(payload["period_um"] - 9.25) < 0.5
    assert payload["pump_nm"] == pytest.approx(774.3755, abs=1e-3)
    assert "period" in capsys.readouterr().out


def test_qpm_tune_temperature_sweep(tmp_path):
    rc = main(["qpm", "tune", "--t-from-c", "110", "--t-to-c", "130",
               "--steps", "3", "--out-dir", str(tmp_path)])
    assert rc == 0
    _, header, rows = read_meta_and_rows(tmp_path / "qpm_tune.csv")
    assert header == ["variable", "lambda_s_nm", "lambda_i_nm",
                      "residual_rad_per_m"]
    assert [float(r[0]) for r in rows] == [110.0, 120.0, 130.0]
    assert float(rows[1][1]) == pytest.approx(PAIR_120[0][0], abs=1e-3)


def test_qpm_tune_requires_exactly_one_sweep(tmp_path, capsys):
    assert main(["qpm", "tune", "--t-from-c", "110", "--t-to-c", "130",
                 "--pump-from-nm", "770", "--pump-to-nm", "780",
                 "--out-dir", str(tmp_path)]) == 2
    assert main(["qpm", "tune", "--out-dir", str(tmp_path)]) == 2
    # half a sweep
    for given, needed in (("--t-from-c", "--t-to-c"),
                          ("--pump-from-nm", "--pump-to-nm")):
        capsys.readouterr()
        assert main(["qpm", "tune", given, "110", "--out-dir",
                     str(tmp_path)]) == 2
        assert f"{given} requires {needed}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_branch_without_a_root_on_it(tmp_path, capsys):
    # segment 0's one root lies on the short branch: the long branch used
    # to return it; now a solve fails and a tuning curve holds only gaps
    rc = main(["qpm", "solve", "--segment", "0", "--branch", "signal_long",
               "--error-json", "--out-dir", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NoPhaseMatchError"
    assert "on branch signal_long" in err["message"]
    assert not list(tmp_path.iterdir())
    rc = main(["qpm", "tune", "--segment", "0", "--branch", "signal_long",
               "--t-from-c", "110", "--t-to-c", "130", "--steps", "3",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    assert "0/3 points phase-matched" in capsys.readouterr().out
    _, _, rows = read_meta_and_rows(tmp_path / "qpm_tune.csv")
    assert [r[1:] for r in rows] == [["nan"] * 3] * 3


def test_qpm_tune_pump_sweep(tmp_path):
    rc = main(["qpm", "tune", "--pump-from-nm", "770", "--pump-to-nm", "780",
               "--steps", "3", "--out-dir", str(tmp_path)])
    assert rc == 0
    _, header, rows = read_meta_and_rows(tmp_path / "qpm_tune.csv")
    assert header[0] == "variable"
    # the variable column is the pump wavelength in nm
    assert [float(r[0]) for r in rows] == pytest.approx([770.0, 775.0,
                                                         780.0], rel=1e-12)
    pt = solve_signal_idler(load_crystal("default"), 0)
    assert float(rows[1][1]) == pytest.approx(pt.signal_wavelength * 1e9,
                                              rel=1e-11)
    assert float(rows[1][2]) == pytest.approx(pt.idler_wavelength * 1e9,
                                              rel=1e-11)


@pytest.mark.parametrize("argv", [
    ["qpm", "solve", "--segment", "5"],
    ["qpm", "solve", "--segment", "-1"],
    ["qpm", "tune", "--segment", "7", "--t-from-c", "110", "--t-to-c", "130"],
])
def test_segment_out_of_range_is_usage_error(tmp_path, capsys, argv):
    # -1 used to pick the last grating silently, 5 and 7 to raise IndexError
    rc = main([*argv, "--error-json", "--out-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert f"segment index {argv[3]} " in err["message"]
    assert "2 segment(s)" in err["message"]
    assert not list(tmp_path.iterdir())


def test_qpm_crossing(tmp_path):
    rc = main(["qpm", "crossing", "--out-dir", str(tmp_path)])
    assert rc == 0
    payload = load_json(tmp_path / "qpm_crossing.json")
    assert payload["crossing_temperature_C"] == pytest.approx(115.785109,
                                                              abs=1e-4)
    assert payload["splitting_thz"] == pytest.approx(11.0104, abs=1e-3)
    assert payload["points"]["0"]["signal_pol"] == "H"


def test_qpm_crossing_no_sign_change_is_numerical_failure(tmp_path, capsys):
    rc = main(["qpm", "crossing", "--t-lo-c", "100", "--t-hi-c", "105",
               "--error-json", "--out-dir", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "numerical"
    assert err["error"] == "NoPhaseMatchError"


def test_qpm_solve_rootless_period(tmp_path, capsys):
    crystal = {
        "segments": [{"period_um": 11.0, "length_mm": 20.0}],
        "temperature_C": 115.785109042, "pump_nm": 775.0,
        "axis_map": {"H": "extraordinary", "V": "ordinary"},
        "sellmeier_files": {"extraordinary": "cln_e_edwards1984",
                            "ordinary": "cln_o_edwards1984"},
    }
    cfg = tmp_path / "rootless.json"
    cfg.write_text(json.dumps(crystal))
    rc = main(["qpm", "solve", "--crystal", str(cfg), "--error-json",
               "--out-dir", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NoPhaseMatchError"
    assert not (tmp_path / "qpm_solve.csv").exists()


# --- spectrum -------------------------------------------------------------

def test_spectrum_outputs(tmp_path, capsys):
    rc = main(["spectrum", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert "V = 0.978" in capsys.readouterr().out
    _, header, rows = read_meta_and_rows(tmp_path / "spectrum_jsa.csv")
    assert header == ["omega_s_rad_s", "lambda_s_nm", "re_total", "im_total",
                      "intensity"]
    assert len(rows) == 4097
    state = load_json(tmp_path / "spectrum_state.json")["state"]
    assert state["p"] == pytest.approx(0.514373, abs=1e-4)
    assert state["V"] == pytest.approx(0.978439, abs=2e-4)
    assert state["delta_omega_thz"] == pytest.approx(11.010367, abs=1e-4)
    assert state["tau_c_ps"] == pytest.approx(5.1682, abs=1e-3)
    assert state["flags"] == []
    # intensity column integrates to ~1 against the omega column
    # (%.12g cell formatting costs a few ppm)
    w = np.array([float(r[0]) for r in rows])
    inten = np.array([float(r[4]) for r in rows])
    assert np.trapezoid(inten, w) == pytest.approx(1.0, rel=1e-4)
    # each cell is _fmt of the library's value at that point
    sa = joint_spectrum(load_crystal("default"))
    c = 2.99792458e8
    assert rows == [[_fmt(x) for x in (o, 2.0 * np.pi * c / o * 1e9, t.real,
                                       t.imag, abs(t) ** 2)]
                    for o, t in zip(sa.omega, sa.total)]


@pytest.mark.parametrize("lobes", ["-1", "0"])
def test_spectrum_nonpositive_lobes_is_usage_error(tmp_path, capsys, lobes):
    rc = main(["spectrum", "--lobes", lobes, "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "lobes must be positive" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_spectrum_too_few_points_is_usage_error(tmp_path, capsys):
    # --points -7 used to become 17 points, then fail as a numerical error
    # (exit 1) reporting "17 points across ..."
    rc = main(["spectrum", "--points", "-7", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "n_points must be at least 17, not -7" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_spectrum_single_process_flag(tmp_path, capsys):
    crystal = {
        "segments": [{"period_um": 9.25, "length_mm": 20.0}],
        "temperature_C": 115.785109042, "pump_nm": 775.0,
        "axis_map": {"H": "extraordinary", "V": "ordinary"},
        "sellmeier_files": {"extraordinary": "cln_e_edwards1984",
                            "ordinary": "cln_o_edwards1984"},
    }
    cfg = tmp_path / "single.json"
    cfg.write_text(json.dumps(crystal))
    rc = main(["spectrum", "--crystal", str(cfg), "--out-dir",
               str(tmp_path)])
    assert rc == 0
    assert "V undefined" in capsys.readouterr().out
    state = load_json(tmp_path / "spectrum_state.json")["state"]
    assert state["flags"] == ["v_undefined_single_process"]
    assert state["V"] is None


# --- hom ------------------------------------------------------------------

def test_hom_model_curve(tmp_path, capsys):
    rc = main(["hom", "model", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert "I(0)/N = 0.033" in capsys.readouterr().out
    _, header, rows = read_meta_and_rows(tmp_path / "hom_model.csv")
    assert header == ["tau_fs", "counts", "sigma"]
    assert len(rows) == 241
    at_zero = [r for r in rows if float(r[0]) == 0.0]
    assert len(at_zero) == 1
    assert float(at_zero[0][1]) == pytest.approx(0.033, abs=1e-12)


def test_hom_synth_fit_closed_loop(tmp_path, capsys):
    rc = main(["hom", "synth", "--pairs", "2000", "--seed", "3",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    meta, _, rows = read_meta_and_rows(tmp_path / "hom_synth.csv")
    assert meta["seed"] == "3"
    assert len(rows) == 241
    rc = main(["hom", "fit", "--scan", str(tmp_path / "hom_synth.csv"),
               "--out-dir", str(tmp_path)])
    assert rc == 0
    fit = load_json(tmp_path / "hom_fit.json")["fit"]
    assert abs(fit["V"] - 0.934) < 4 * fit["stderr"]["V"]
    assert fit["delta_omega_thz"] == pytest.approx(11.5, rel=1e-3)
    assert fit["tau_c_ps"] == pytest.approx(2.40, rel=0.05)
    assert fit["flags"] == []


def test_hom_fit_flags_featureless_data(tmp_path):
    main(["hom", "synth", "--v", "0", "--seed", "8", "--out-dir",
          str(tmp_path)])
    rc = main(["hom", "fit", "--scan", str(tmp_path / "hom_synth.csv"),
               "--out-dir", str(tmp_path)])
    assert rc == 0
    fit = load_json(tmp_path / "hom_fit.json")["fit"]
    # at V ~ 0 the envelope is as unresolved as the beat (tau_c read
    # 1.1e21 ps here, flagged only delta_omega_unidentifiable)
    assert {"delta_omega_unidentifiable",
            "envelope_unidentifiable"} <= set(fit["flags"])
    assert fit["V"] < 0.1


def test_hom_fit_too_few_points_is_numerical_failure(tmp_path, capsys):
    assert main(["hom", "synth", "--points", "2", "--out-dir",
                 str(tmp_path)]) == 0
    rc = main(["hom", "fit", "--scan", str(tmp_path / "hom_synth.csv"),
               "--error-json", "--out-dir", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["kind"] == "numerical"
    assert err["error"] == "FitConvergenceError"
    assert not (tmp_path / "hom_fit.json").exists()


def test_hom_fit_missing_scan_is_usage_error(tmp_path, capsys):
    rc = main(["hom", "fit", "--scan", str(tmp_path / "nope.csv"),
               "--error-json", "--out-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "usage"
    assert err["error"] == "FileNotFoundError"
    assert not (tmp_path / "hom_fit.json").exists()


def write_scan(path, counts, sigma, taus=None):
    """A scan CSV of the given columns; 241 delays over +-3 ps by default."""
    taus = taus or np.linspace(-3000.0, 3000.0, len(counts)).tolist()
    path.write_text("tau_fs,counts,sigma\n" + "".join(
        f"{t!r},{c!r},{s!r}\n" for t, c, s in zip(taus, counts, sigma)))
    return path


def test_hom_fit_weights_zero_sigma_by_poisson_rule(tmp_path):
    # written with sigma = sqrt(c), the zero counts of this 8-pair scan
    # used to be weighted by 1e12: V = 0 +- NaN, 30 NaN tokens in the file.
    # The Poisson likelihood reads only the counts, zeros included; the
    # weighted chi^2 that read the sigma column gave V = 0.916 +- 0.056
    scan = synthesize_scan(HomParams(1.0, 0.9, 2 * np.pi * 11e12, 2e-12),
                           np.linspace(-3e-12, 3e-12, 241), 8.0, 0)
    path = write_scan(tmp_path / "scan.csv", scan.counts.tolist(),
                      np.sqrt(scan.counts).tolist())
    assert main(["hom", "fit", "--scan", str(path), "--out-dir",
                 str(tmp_path)]) == 0
    fit = load_json(tmp_path / "hom_fit.json")["fit"]
    assert fit["V"] == pytest.approx(0.796, abs=1e-3)
    assert fit["stderr"]["V"] == pytest.approx(0.062, abs=1e-3)
    assert fit["flags"] == []


def test_hom_fit_reads_only_delays_and_counts(tmp_path):
    # the fit is the same with the sigma column, without it, and after
    # hom model's sigma column of zeros
    assert main(["hom", "model", "--n", "4000", "--out-dir",
                 str(tmp_path / "model")]) == 0
    _, _, rows = read_meta_and_rows(tmp_path / "model" / "hom_model.csv")
    bare = tmp_path / "bare.csv"
    bare.write_text("tau_fs,counts\n" + "".join(f"{t},{c}\n"
                                                 for t, c, _ in rows))
    fits = []
    for scan in (tmp_path / "model" / "hom_model.csv", bare):
        out = tmp_path / scan.stem
        assert main(["hom", "fit", "--scan", str(scan), "--out-dir",
                     str(out)]) == 0
        fits.append(load_json(out / "hom_fit.json")["fit"])
    assert fits[0] == fits[1]
    assert fits[0]["V"] == pytest.approx(0.934, abs=1e-6)


def test_hom_fit_with_singular_normal_matrix_is_numerical_failure(tmp_path,
                                                                  capsys):
    # counts at two adjacent delays only: the fit has no finite errors,
    # and used to exit 0 writing NaN errors
    counts = [0.0] * 241
    counts[120], counts[121] = 50.0, 40.0
    path = write_scan(tmp_path / "scan.csv", counts,
                      [max(c, 1.0) ** 0.5 for c in counts])
    rc = main(["hom", "fit", "--scan", str(path), "--error-json",
               "--out-dir", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "numerical"
    assert err["error"] == "FitConvergenceError"
    assert not (tmp_path / "hom_fit.json").exists()


@pytest.mark.parametrize("column", ["tau_fs", "counts"])
def test_hom_fit_nonfinite_cell_is_usage_error(tmp_path, capsys, column):
    # a nan count used to reach LAPACK: "SVD did not converge"; the sigma
    # column is not read
    scan = synthesize_scan(HomParams(1.0, 0.9, 2 * np.pi * 11e12, 2e-12),
                           np.linspace(-3e-12, 3e-12, 241), 2000.0, 0)
    columns = {"tau_fs": (scan.delays * 1e15).tolist(),
               "counts": scan.counts.tolist(),
               "sigma": scan.uncertainties.tolist()}
    columns[column][7] = float("nan")
    path = write_scan(tmp_path / "scan.csv", columns["counts"],
                      columns["sigma"], columns["tau_fs"])
    rc = main(["hom", "fit", "--scan", str(path), "--error-json",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "usage" and err["error"] == "ValueError"
    field = {"tau_fs": "delays"}.get(column, column)
    assert f"{field} must be finite" in err["message"]
    assert not (tmp_path / "hom_fit.json").exists()


def test_short_csv_row_is_usage_error(tmp_path, capsys):
    scan = tmp_path / "short.csv"
    scan.write_text("tau_fs,counts,sigma\n1,2,3\n2,3\n")
    rc = main(["hom", "fit", "--scan", str(scan), "--error-json",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "usage" and err["error"] == "ValueError"
    assert str(scan) in err["message"] and "row 2" in err["message"]


@pytest.mark.parametrize("command, flag, text, needle", [
    (["hom", "fit"], "--scan", "tau_fs,counts,sigma\n", "no data rows"),
    (["hom", "fit"], "--scan", "tau_fs,sigma\n1,2\n",
     "scan file lacks required column 'counts'"),
    (["tomo", "reconstruct"], "--data", "# seed: 1\nsetting_id,proj_a\n",
     "no data rows"),
    (["tomo", "reconstruct"], "--data",
     "setting_id,proj_a,counts\n0,h,5\n",
     "dataset lacks required column 'proj_b'")],
    ids=["scan_empty", "scan_column", "counts_empty", "counts_column"])
def test_csv_without_rows_or_column_is_usage_error(tmp_path, capsys,
                                                   command, flag, text,
                                                   needle):
    path = tmp_path / "in.csv"
    path.write_text(text)
    rc = main(command + [flag, str(path), "--error-json", "--out-dir",
                         str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "usage" and needle in err["message"]
    assert not list(tmp_path.glob("*.json"))


# --- tomo -----------------------------------------------------------------

def test_tomo_metrics_working_point(tmp_path, capsys):
    rc = main(["tomo", "metrics", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert "F = 0.967" in capsys.readouterr().out
    m = load_json(tmp_path / "tomo_metrics.json")["metrics"]
    assert m["fidelity"] == pytest.approx(0.967, abs=1e-9)
    assert m["concurrence"] == pytest.approx(0.934, abs=1e-9)
    assert m["basis"] == ["w1w1", "w1w2", "w2w1", "w2w2"]


def test_tomo_metrics_from_rho_file(tmp_path):
    rho = rho_freq(0.5, 0.8, 0.0)
    f = tmp_path / "rho.json"
    f.write_text(json.dumps({"rho": rho.to_json_dict()}))
    rc = main(["tomo", "metrics", "--rho", str(f), "--out-dir",
               str(tmp_path)])
    assert rc == 0
    m = load_json(tmp_path / "tomo_metrics.json")["metrics"]
    assert m["fidelity"] == pytest.approx(0.9, abs=1e-9)
    assert m["concurrence"] == pytest.approx(0.8, abs=1e-9)


def test_tomo_convert_delay_phase(tmp_path, capsys):
    rc = main(["tomo", "convert", "--tau-fs", "-20", "--out-dir",
               str(tmp_path)])
    assert rc == 0
    assert "1.5400 pi" in capsys.readouterr().out
    conv = load_json(tmp_path / "tomo_convert.json")["conversion"]
    assert conv["phase_over_pi"] == pytest.approx(1.54, abs=1e-6)


def test_tomo_convert_with_matrix(tmp_path):
    f = tmp_path / "rho_in.json"
    f.write_text(json.dumps({"rho": rho_freq(0.516, 0.934,
                                             0.0).to_json_dict()}))
    rc = main(["tomo", "convert", "--tau-fs", "-20", "--rho", str(f),
               "--out-dir", str(tmp_path)])
    assert rc == 0
    payload = load_json(tmp_path / "tomo_convert.json")
    assert payload["rho"]["basis"] == ["HH", "HV", "VH", "VV"]
    elem = (np.array(payload["rho"]["re"]) + 1j * np.array(
        payload["rho"]["im"]))
    phase = np.mod(np.angle(elem[2, 1]), 2 * np.pi)
    assert phase / np.pi == pytest.approx(1.54, abs=1e-6)


def write_rho(path, rho):
    path.write_text(json.dumps({"rho": rho.to_json_dict()}))
    return str(path)


def test_tau_fs_converts_a_rho_file(tmp_path):
    # --tau-fs was ignored when --rho was given: metrics printed the
    # frequency-basis F = 0.967, simulate wrote unconverted counts
    rho = write_rho(tmp_path / "f.json", rho_freq(0.516, 0.934, 0.0))
    for source in (["--rho", rho], []):
        out = str(tmp_path / ("file" if source else "options"))
        for command in (["metrics"], ["simulate", "--seed", "3"]):
            assert main(["tomo", *command, *source, "--tau-fs", "47",
                         "--out-dir", out]) == 0

    def both(name, read):
        return [read(tmp_path / side / name) for side in ("file", "options")]
    metrics = both("tomo_metrics.json", lambda f: load_json(f)["metrics"])
    counts = both("tomo_counts.csv", lambda f: read_meta_and_rows(f)[2])
    assert metrics[0] == metrics[1] and counts[0] == counts[1]
    assert metrics[0]["basis"] == ["HH", "HV", "VH", "VV"]
    assert metrics[0]["fidelity"] == pytest.approx(0.048, abs=1e-3)


def test_tau_fs_converts_at_the_default_splitting(tmp_path):
    # --dw-thz has no default of its own: --tau-fs alone converts at 11.5 THz
    for name, extra in (("default", []), ("explicit", ["--dw-thz", "11.5"])):
        assert main(["tomo", "simulate", "--tau-fs", "47", "--seed", "3",
                     *extra, "--out-dir", str(tmp_path / name)]) == 0
    default, explicit = (read_meta_and_rows(tmp_path / n / "tomo_counts.csv")
                         for n in ("default", "explicit"))
    assert default[2] == explicit[2]
    assert json.loads(default[0]["config"])["dw_thz"] is None


def test_tau_fs_on_a_polarization_rho_file_is_usage_error(tmp_path, capsys):
    rho = mode_convert(rho_freq(0.516, 0.934, 0.0), 0.0, 2 * np.pi * 11.5e12)
    path = write_rho(tmp_path / "p.json", rho)
    rc = main(["tomo", "metrics", "--rho", path, "--tau-fs", "47",
               "--error-json", "--out-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "usage" and err["error"] == "BasisMismatchError"
    assert not (tmp_path / "tomo_metrics.json").exists()


@pytest.mark.parametrize("argv, needle", [
    (["tomo", "convert", "--tau-fs", "nan"], "--tau-fs"),
    (["tomo", "metrics", "--tau-fs", "inf"], "--tau-fs"),
    (["hom", "synth", "--dw-thz", "nan"], "--dw-thz"),
    (["tomo", "metrics", "--rho", "{rho}"], "elements must be finite"),
])
def test_nonfinite_input_is_usage_error_and_writes_nothing(tmp_path, capsys,
                                                           argv, needle):
    # tomo convert --tau-fs nan used to exit 0 writing "tau_fs": NaN, and
    # the tomo metrics cases to print "Eigenvalues did not converge"
    rho = rho_freq(0.5, 0.8, 0.0).to_json_dict()
    rho["re"][0][0] = float("nan")
    path = tmp_path / "in" / "rho.json"
    path.parent.mkdir()
    path.write_text(json.dumps({"rho": rho}))
    rc = main([a.format(rho=path) for a in argv]
              + ["--error-json", "--out-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "usage" and needle in err["message"]
    assert not list(tmp_path.glob("*.*"))


@pytest.mark.parametrize("argv, needle", [
    (["qpm", "period", "--signal-nm", "0", "--idler-nm", "1594"],
     "--signal-nm"),
    (["qpm", "period", "--signal-nm", "1506", "--idler-nm", "0"],
     "--idler-nm"),
    (["qpm", "period", "--signal-nm", "-1", "--idler-nm", "1594"],
     "--signal-nm"),
    (["qpm", "period", "--signal-nm", "1e-300", "--idler-nm", "1594"],
     "--signal-nm"),
    (["hom", "model", "--n", "-1"], "N must be > 0"),
    (["hom", "model", "--points", "0"], "--points"),
    (["hom", "synth", "--points", "-5"], "--points"),
    # the same mistake gets the same code in hom and tomo, though tomo's
    # is a PhysicalityError
    (["hom", "model", "--v", "1.5"], "V must be in"),
    (["tomo", "simulate", "--v", "1.5"], "V = 1.5"),
    (["tomo", "simulate", "--p", "1.5"], "p = 1.5"),
    # a zero range wrote 241 rows at delay 0 and a negative one a
    # decreasing grid; a splitting of -11.5 THz wrote the +11.5 THz curve
    (["hom", "model", "--range-ps", "0"], "--range-ps"),
    (["hom", "model", "--range-ps", "-3"], "--range-ps"),
    (["hom", "synth", "--range-ps", "0"], "--range-ps"),
    (["hom", "synth", "--range-ps", "-3"], "--range-ps"),
    (["hom", "model", "--dw-thz", "0"], "delta_omega must be > 0"),
    (["hom", "model", "--dw-thz", "-11.5"], "delta_omega must be > 0"),
    (["hom", "synth", "--dw-thz", "-11.5"], "delta_omega must be > 0"),
    # a zero pump escaped as a ZeroDivisionError, a negative one wrote gaps
    (["qpm", "tune", "--pump-from-nm", "0", "--pump-to-nm", "10",
      "--steps", "3"], "pump wavelength must be > 0, not 0 m"),
    (["qpm", "tune", "--pump-from-nm", "-5", "--pump-to-nm", "10",
      "--steps", "3"], "pump wavelength must be > 0, not -5e-09 m"),
    # an infinite splitting wrote NaN counts, or a NaN phase the JSON
    # writer refused
    (["hom", "model", "--dw-thz", "1e300"],
     "delta_omega must be > 0 and finite, not inf"),
    (["tomo", "convert", "--tau-fs", "0", "--dw-thz", "1e300"],
     "delta_omega must be > 0 and finite, not inf"),
    # the tomography side took a splitting at or below zero
    (["tomo", "convert", "--tau-fs", "20", "--dw-thz", "0"],
     "delta_omega must be > 0"),
    (["tomo", "convert", "--tau-fs", "20", "--dw-thz", "-11.5"],
     "delta_omega must be > 0"),
    (["tomo", "simulate", "--tau-fs", "20", "--dw-thz", "-11.5"],
     "delta_omega must be > 0"),
    # a splitting without a delay was ignored, and these two messages named
    # no option
    (["tomo", "metrics", "--dw-thz", "-5"],
     "--dw-thz -5 is read only with --tau-fs"),
    (["tomo", "simulate", "--dw-thz", "-5"],
     "--dw-thz -5 is read only with --tau-fs"),
    (["tomo", "table1", "--taus-fs="], "--taus-fs must be comma-separated"),
    (["qpm", "tune", "--pump-from-nm", "1300", "--pump-to-nm", "1400",
      "--steps", "3"], "pump 1300 nm and signal bracket [1200, 1900] nm"),
    # a NaN entry's message named neither the option nor the entry, and a
    # delay of 1e300 fs wrote rows whose phase had no digits left
    (["tomo", "table1", "--taus-fs=-20,nan"], "--taus-fs entry 2: "),
    (["tomo", "table1", "--taus-fs=1e300"], "--taus-fs entry 1: "),
    # the other sweep's end was dropped without a word
    (["qpm", "tune", "--pump-from-nm", "770", "--pump-to-nm", "780",
      "--t-to-c", "130", "--steps", "3"],
     "--t-to-c 130 is read only with --t-from-c"),
    (["qpm", "tune", "--t-from-c", "110", "--t-to-c", "130",
      "--pump-to-nm", "780", "--steps", "3"],
     "--pump-to-nm 780 is read only with --pump-from-nm"),
])
def test_bad_option_value_is_usage_error_naming_it(tmp_path, capsys, argv,
                                                   needle):
    rc = main(argv + ["--error-json", "--out-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "usage" and needle in err["message"]
    assert not list(tmp_path.glob("*.*"))


def test_tomo_simulate_reconstruct_closed_loop(tmp_path):
    rc = main(["tomo", "simulate", "--out-dir", str(tmp_path)])
    assert rc == 0
    meta, header, rows = read_meta_and_rows(tmp_path / "tomo_counts.csv")
    assert header == ["setting_id", "proj_a", "proj_b", "counts"]
    assert len(rows) == 16
    assert meta["seed"] == "None"       # noiseless default
    rc = main(["tomo", "reconstruct", "--data",
               str(tmp_path / "tomo_counts.csv"), "--out-dir",
               str(tmp_path)])
    assert rc == 0
    payload = load_json(tmp_path / "tomo_rho.json")
    got = np.array(payload["rho"]["re"]) + 1j * np.array(
        payload["rho"]["im"])
    truth = rho_freq(0.516, 0.934, 0.0).elements
    assert np.max(np.abs(got - truth)) < 1e-4
    diagnostics = payload["diagnostics"]
    assert set(diagnostics) == {"log_likelihood", "n_iter", "certified_gap"}
    assert diagnostics["certified_gap"] <= 1e-6


def test_tomo_reconstruct_unknown_projection_pair_is_usage_error(tmp_path,
                                                                  capsys):
    main(["tomo", "simulate", "--out-dir", str(tmp_path)])
    path = tmp_path / "tomo_counts.csv"
    path.write_text(path.read_text().replace(",h,h,", ",h,x,", 1))
    capsys.readouterr()
    rc = main(["tomo", "reconstruct", "--data", str(path), "--error-json",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "usage" and err["error"] == "TomographyDataError"
    assert "('h', 'x') not in set 'james16'" in err["message"]
    assert not (tmp_path / "tomo_rho.json").exists()


@pytest.mark.parametrize("setting, count", [(0, 5), (3, 1)])
def test_tomo_reconstruct_single_nonzero_setting(tmp_path, setting, count):
    # a rank-one maximum: no linear-algebra error may surface as exit 2
    main(["tomo", "simulate", "--out-dir", str(tmp_path)])
    path = tmp_path / "tomo_counts.csv"
    lines = path.read_text().splitlines()
    rows = [i for i, line in enumerate(lines) if line[:1].isdigit()]
    for k, i in enumerate(rows):
        cells = lines[i].split(",")
        cells[-1] = str(count if k == setting else 0)
        lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    rc = main(["tomo", "reconstruct", "--data", str(path), "--out-dir",
               str(tmp_path)])
    assert rc == 0
    diagnostics = load_json(tmp_path / "tomo_rho.json")["diagnostics"]
    assert diagnostics["certified_gap"] <= 1e-6


def test_tomo_table1_chain(tmp_path, capsys):
    rc = main(["tomo", "table1", "--out-dir", str(tmp_path)])
    assert rc == 0
    _, header, rows = read_meta_and_rows(tmp_path / "tomo_table1.csv")
    assert header == ["tau_fs", "i_over_n", "phi_over_pi", "fidelity",
                      "concurrence", "fidelity_mle", "concurrence_mle"]
    assert len(rows) == 3
    by_tau = {float(r[0]): r for r in rows}
    assert float(by_tau[0.0][1]) == pytest.approx(0.033, abs=1e-9)
    assert float(by_tau[-20.0][2]) == pytest.approx(1.54, abs=1e-6)
    for r in rows:
        assert float(r[5]) == pytest.approx(float(r[3]), abs=0.08)
        assert float(r[6]) == pytest.approx(float(r[4]), abs=0.12)


# --- plumbing -------------------------------------------------------------

def test_pinned_timestamp_reproducible_bytes(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    argv = ["qpm", "solve", "--timestamp", "2024-01-01T00:00:00+00:00"]
    assert main(argv + ["--out-dir", str(d1)]) == 0
    assert main(argv + ["--out-dir", str(d2)]) == 0
    assert (d1 / "qpm_solve.csv").read_bytes() == \
        (d2 / "qpm_solve.csv").read_bytes()


def test_unpinned_runs_differ_only_in_timestamp(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["qpm", "solve", "--out-dir", str(d1)]) == 0
    assert main(["qpm", "solve", "--out-dir", str(d2)]) == 0
    l1 = (d1 / "qpm_solve.csv").read_text().splitlines()
    l2 = (d2 / "qpm_solve.csv").read_text().splitlines()
    diff = [k for k, (a, b) in enumerate(zip(l1, l2)) if a != b]
    assert all(l1[k].startswith("# timestamp:") for k in diff)


def test_config_file_fills_unset_options(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_c": 120.0}))
    ts = ["--timestamp", "2024-01-01T00:00:00+00:00"]
    d1, d2, d3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["qpm", "solve", "--config", str(cfg), "--out-dir",
                 str(d1)] + ts) == 0
    assert main(["qpm", "solve", "--t-c", "120", "--out-dir",
                 str(d2)] + ts) == 0
    assert (d1 / "qpm_solve.csv").read_bytes() == \
        (d2 / "qpm_solve.csv").read_bytes()
    # explicit flags win over config values
    assert main(["qpm", "solve", "--config", str(cfg), "--t-c", "110",
                 "--out-dir", str(d3)] + ts) == 0
    _, _, rows = read_meta_and_rows(d3 / "qpm_solve.csv")
    assert float(rows[0][2]) != pytest.approx(PAIR_120[0][0], abs=1e-3)


def test_config_values_apply_and_unknown_keys_fail(tmp_path, capsys):
    # options with non-None defaults take config values too
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"v": 0.5, "points": 11}))
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["hom", "model", "--config", str(cfg), "--out-dir",
                 str(d1)]) == 0
    meta, _, rows = read_meta_and_rows(d1 / "hom_model.csv")
    assert len(rows) == 11
    assert json.loads(meta["config"])["v"] == 0.5
    at_zero = [r for r in rows if float(r[0]) == 0.0]
    assert float(at_zero[0][1]) == pytest.approx(0.25, abs=1e-12)
    # explicit flags win over config values
    assert main(["hom", "model", "--config", str(cfg), "--points", "21",
                 "--out-dir", str(d2)]) == 0
    assert len(read_meta_and_rows(d2 / "hom_model.csv")[2]) == 21

    cfg.write_text(json.dumps({"v": 0.5, "points": 11, "bogus": 1}))
    capsys.readouterr()
    rc = main(["hom", "model", "--config", str(cfg), "--error-json",
               "--out-dir", str(tmp_path / "c")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "usage" and "bogus" in err["message"]
    assert not (tmp_path / "c" / "hom_model.csv").exists()


@pytest.mark.parametrize("payload", [{"format": "xml"},
                                     {"signal_pol": "X"}])
def test_config_values_pass_argparse_checks(tmp_path, payload):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    with pytest.raises(SystemExit) as exc:
        main(["qpm", "solve", "--config", str(cfg), "--out-dir",
              str(tmp_path)])
    assert exc.value.code == 2
    assert not list(tmp_path.glob("qpm_solve.*"))


def test_config_supplies_required_options_and_flags(tmp_path, capsys):
    assert main(["hom", "synth", "--out-dir", str(tmp_path)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scan": str(tmp_path / "hom_synth.csv"),
                               "init": None}))
    assert main(["hom", "fit", "--config", str(cfg), "--out-dir",
                 str(tmp_path)]) == 0
    assert (tmp_path / "hom_fit.json").exists()
    # true sets a flag; a flag given on the command line needs no value
    cfg.write_text(json.dumps({"scan": str(tmp_path / "nope.csv"),
                               "error_json": True}))
    capsys.readouterr()
    assert main(["hom", "fit", "--config", str(cfg), "--out-dir",
                 str(tmp_path)]) == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "usage"


@pytest.mark.parametrize("flag, needle", [("--rho", "no such file"),
                                          ("--config", "no such config file")])
def test_missing_rho_or_config_file_is_usage_error(tmp_path, capsys, flag,
                                                   needle):
    missing = tmp_path / "nope.json"
    rc = main(["tomo", "metrics", flag, str(missing), "--error-json",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "usage" and err["error"] == "FileNotFoundError"
    assert f"{needle}: {missing}" in err["message"]
    assert not list(tmp_path.iterdir())


def test_out_dir_environment_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("FREQBIN_OUT_DIR", str(tmp_path / "envdir"))
    assert main(["hom", "model"]) == 0
    assert (tmp_path / "envdir" / "hom_model.csv").exists()


def test_no_subcommand_shows_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["qpm", "solve", "--no-such-flag"])
    assert exc.value.code == 2


def test_bad_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2, 3]")
    rc = main(["qpm", "solve", "--config", str(cfg), "--error-json",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["kind"] == "usage"


def bundled(kind, name):
    return json.loads(resources.files("freqbin").joinpath(
        f"data/{kind}/{name}.json").read_text(encoding="utf-8"))


def broken_input(tmp_path, case):
    """(argv, file, name): a run whose input ``file`` has one defect, and
    the key or label that its error message must name."""
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return path

    def solve(drop=None, sellmeier=None, swap=False):
        crystal = bundled("crystals", "default")
        crystal.pop(drop, None)
        files = crystal["sellmeier_files"]
        if swap:
            files["extraordinary"], files["ordinary"] = (
                files["ordinary"], files["extraordinary"])
        if sellmeier:
            files["extraordinary"] = str(write("sellmeier.json", sellmeier))
        return ["qpm", "solve", "--crystal",
                str(write("crystal.json", crystal))]

    sellmeier = bundled("sellmeier", "cln_e_edwards1984")
    projectors = bundled("tomography", "james16")
    if case == "crystal":
        return solve(drop="pump_nm"), tmp_path / "crystal.json", "pump_nm"
    if case == "sellmeier":
        del sellmeier["valid_temperature_C"]
        return (solve(sellmeier=sellmeier), tmp_path / "sellmeier.json",
                "valid_temperature_C")
    if case == "swapped":   # each set filed under the other's axis
        return solve(swap=True), None, "cln_o_edwards1984"
    if case in ("crystal_key", "segment_key"):   # a misspelt optional key
        crystal = bundled("crystals", "default")
        owner, key, typo = (
            (crystal, "pump_polarization", "pump_polarisation")
            if case == "crystal_key" else
            (crystal["segments"][1], "amplitude_scale", "amplitude_scal"))
        owner[typo] = owner.pop(key)
        path = write("crystal.json", crystal)
        return ["qpm", "solve", "--crystal", str(path)], path, typo
    if case == "coefficient":   # its error names the set, not the file
        coefficients = sellmeier["coefficients"]
        coefficients["A2"] = coefficients.pop("a2")
        return solve(sellmeier=sellmeier), None, "A2"
    if case in ("projectors", "ket"):
        if case == "projectors":
            del projectors["settings"]
        else:
            projectors["settings"][3] = ["v", "x"]
        path = write("projectors.json", projectors)
        return (["tomo", "simulate", "--projectors", str(path)], path,
                "settings" if case == "projectors" else "x")
    rho = rho_freq(0.5, 0.8, 0.0).to_json_dict()
    del rho["im"]
    path = write("rho.json", {"rho": rho})
    return ["tomo", "metrics", "--rho", str(path)], path, "im"


@pytest.mark.parametrize("case", ["sellmeier", "crystal", "projectors",
                                  "rho", "coefficient", "ket", "swapped",
                                  "crystal_key", "segment_key"])
def test_malformed_input_file_is_usage_error_naming_the_key(tmp_path,
                                                           capsys, case):
    # a missing key used to escape as a bare KeyError ("error: 'pump_nm'"),
    # a misspelled coefficient name or crystal key was dropped without a
    # word (the crystal_key and segment_key runs used the defaults V and
    # 1.0), and swapped Sellmeier files failed later (exit 1) without
    # naming the swap
    argv, path, key = broken_input(tmp_path, case)
    rc = main(argv + ["--error-json", "--out-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "usage" and err["error"] == "ValueError"
    assert f"'{key}'" in err["message"]
    if path is not None:
        assert str(path) in err["message"]


def wrong_type_input(tmp_path, case):
    """(argv, names): a run whose input holds a value of the wrong JSON
    type, and the names (file, key) that its error message must hold."""
    if case.startswith("init"):
        main(["hom", "synth", "--out-dir", str(tmp_path)])
        init, key = {"init": ('"N"', None), "init_value": ('{"N": [1]}', "N"),
                     "init_str": ('{"N": "1e3"}', "N"),
                     "init_bool": ('{"V": true}', "V"),
                     "init_nan": ('{"N": NaN}', "N")}[case]
        return (["hom", "fit", "--scan", str(tmp_path / "hom_synth.csv"),
                 "--init", init],
                ["'init'"] + ([f"'{key}'"] if key else []))
    path = tmp_path / f"{case}.json"
    if case.startswith("projector"):
        projectors = bundled("tomography", "james16")
        settings, states = projectors["settings"], projectors["states"]
        key, parent, field, value = {
            "projector_states": ("states", projectors, "states", [1]),
            "projector_settings": ("settings", projectors, "settings",
                                   {"a": 1}),
            "projector_setting": ("settings[0]", settings, 0, {"a": 1}),
            "projector_label": ("settings[0]", settings, 0, [["h"], "h"]),
            "projector_ket": ("states.h", states, "h", "x"),
            "projector_ket_size": ("states.h", states, "h", [[1, 0]]),
            "projector_ket_zero": ("states.h", states, "h", [[0, 0], [0, 0]]),
        }[case]
        parent[field] = value
        path.write_text(json.dumps(projectors))
        return (["tomo", "simulate", "--projectors", str(path)],
                [str(path), f"'{key}'"])
    if case.startswith("rho"):
        rho = rho_freq(0.5, 0.8, 0.0).to_json_dict()
        key, payload = {"rho": (None, [1, 2]),
                        "rho_value": ("rho", {"rho": [1, 2]}),
                        "rho_basis": ("basis", {"rho": {**rho, "basis": 5}}),
                        "rho_im": ("im", {"rho": {**rho, "im": 3}})}[case]
        path.write_text(json.dumps(payload))
        return (["tomo", "metrics", "--rho", str(path)],
                [str(path)] + ([f"'{key}'"] if key else []))
    crystal = bundled("crystals", "default")
    if case.startswith("sellmeier"):
        sellmeier = bundled("sellmeier", "cln_e_edwards1984")
        key, value = {"sellmeier_coefficient": ("a2", [1]),
                      "sellmeier_nan": ("a2", float("nan")),
                      "sellmeier_range": ("valid_wavelength_um", 5),
                      "sellmeier_coefficients": ("coefficients", [1, 2])
                      }[case]
        (sellmeier["coefficients"] if key == "a2" else sellmeier)[key] = value
        path.write_text(json.dumps(sellmeier))
        crystal["sellmeier_files"]["extraordinary"] = str(path)
        crystal_path = tmp_path / "crystal.json"
        crystal_path.write_text(json.dumps(crystal))
        return (["qpm", "solve", "--crystal", str(crystal_path)],
                [str(path), f"'{key}'"])
    if case in ("segments", "crystal_sellmeier_files", "crystal_axis_map"):
        key, command = case.removeprefix("crystal_"), "solve"
        crystal[key] = [1]
    elif case == "temperature_huge":    # an int too large for a float
        key, command = "temperature_C", "crossing"
        crystal[key] = 10 ** 400
    else:
        crystal["pump_nm"] = "x"
        key, command = "pump_nm", case.rsplit("_", 1)[1]
    path.write_text(json.dumps(crystal))
    return ["qpm", command, "--crystal", str(path)], [str(path), f"'{key}'"]


@pytest.mark.parametrize("case", ["init", "rho", "segments", "init_value",
                                  "init_str", "init_bool", "rho_value",
                                  "pump_nm_solve", "pump_nm_crossing",
                                  "init_nan", "sellmeier_coefficient",
                                  "sellmeier_nan", "sellmeier_range",
                                  "sellmeier_coefficients",
                                  "crystal_sellmeier_files",
                                  "crystal_axis_map", "projector_states",
                                  "projector_settings", "projector_setting",
                                  "projector_label", "projector_ket",
                                  "projector_ket_size",
                                  "projector_ket_zero", "rho_basis",
                                  "rho_im", "temperature_huge"])
def test_wrong_type_json_is_usage_error_naming_the_input(tmp_path, capsys,
                                                         case):
    # a value of the wrong JSON type, or a NaN, is a usage error, like a
    # missing key; the *_value, pump_nm and sellmeier cases used to escape
    # as a TypeError (exit 1), sellmeier_coefficients, the crystal_* cases
    # and projector_states as an AttributeError or TypeError (exit 1),
    # init_str and init_bool were read as the numbers 1000 and 1, the
    # NaNs were read as numbers, projector_settings, projector_setting and
    # projector_ket said only "not enough values to unpack", projector_label
    # and rho_basis escaped as a TypeError, projector_ket_size and
    # projector_ket_zero named neither the file nor the key, rho_im's
    # scalar broadcast into a matrix reported as "not Hermitian" (exit 1),
    # and temperature_huge escaped as a TypeError from the finiteness check
    argv, names = wrong_type_input(tmp_path, case)
    capsys.readouterr()
    rc = main(argv + ["--error-json", "--out-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "usage" and err["error"] == "ValueError"
    assert all(name in err["message"] for name in names)


@pytest.mark.parametrize("name", sorted(
    name for name, cls in vars(errors).items()
    if isinstance(cls, type) and issubclass(cls, errors.FreqbinError)))
def test_exit_class_follows_the_error_taxonomy(monkeypatch, capsys, name):
    # every library error, a class added later too: 1 unless it is also a
    # ValueError, which describes bad input
    cls = getattr(errors, name)

    def failing(args):
        raise cls("raised on purpose")
    monkeypatch.setattr("freqbin.cli.cmd_tomo_metrics", failing)
    rc = main(["tomo", "metrics", "--error-json"])
    err = json.loads(capsys.readouterr().err)
    want = (2, "usage") if issubclass(cls, ValueError) else (1, "numerical")
    assert (rc, err["kind"]) == want
    assert err["error"] == name and err["message"] == "raised on purpose"


def test_key_error_is_not_a_usage_error(monkeypatch):
    # a KeyError is a programming error: it propagates, not exit 2
    def broken(args):
        raise KeyError("bug")
    monkeypatch.setattr("freqbin.cli.cmd_tomo_metrics", broken)
    with pytest.raises(KeyError):
        main(["tomo", "metrics"])


# --- option declarations --------------------------------------------------

# Each subcommand's options as declared before the subcommands shared their
# declarations, less tomo convert's --p/--v/--phi and hom synth's --n, which
# they never read, and with no default for tomo simulate's and metrics'
# --dw-thz, which --tau-fs alone reads as 11.5:
# dest -> (option strings, default, required, type, choices).
COMMON_OPTIONS = {
    "config": (("--config",), None, False, None, None),
    "out_dir": (("--out-dir",), None, False, None, None),
    "timestamp": (("--timestamp",), None, False, None, None),
    "error_json": (("--error-json",), False, False, None, None),
}
OPTIONS = {
    "qpm solve": {
        "crystal": (("--crystal",), None, False, None, None),
        "t_c": (("--t-c",), None, False, "float", None),
        "segment": (("--segment",), None, False, "int", None),
        "signal_pol": (("--signal-pol",), "H", False, None, ("H", "V")),
        "branch": (("--branch",), None, False, None,
            ("signal_short", "signal_long")),
        "format": (("--format",), None, False, None, ("csv", "json")),
    },
    "qpm period": {
        "crystal": (("--crystal",), None, False, None, None),
        "t_c": (("--t-c",), None, False, "float", None),
        "signal_nm": (("--signal-nm",), None, True, "float", None),
        "idler_nm": (("--idler-nm",), None, True, "float", None),
        "signal_pol": (("--signal-pol",), "H", False, None, ("H", "V")),
    },
    "qpm tune": {
        "crystal": (("--crystal",), None, False, None, None),
        "t_c": (("--t-c",), None, False, "float", None),
        "segment": (("--segment",), 0, False, "int", None),
        "t_from_c": (("--t-from-c",), None, False, "float", None),
        "t_to_c": (("--t-to-c",), None, False, "float", None),
        "pump_from_nm": (("--pump-from-nm",), None, False, "float", None),
        "pump_to_nm": (("--pump-to-nm",), None, False, "float", None),
        "steps": (("--steps",), 41, False, "int", None),
        "signal_pol": (("--signal-pol",), "H", False, None, ("H", "V")),
        "branch": (("--branch",), None, False, None,
            ("signal_short", "signal_long")),
    },
    "qpm crossing": {
        "crystal": (("--crystal",), None, False, None, None),
        "t_lo_c": (("--t-lo-c",), 100.0, False, "float", None),
        "t_hi_c": (("--t-hi-c",), 140.0, False, "float", None),
    },
    "spectrum": {
        "crystal": (("--crystal",), None, False, None, None),
        "t_c": (("--t-c",), None, False, "float", None),
        "points": (("--points",), 4097, False, "int", None),
        "lobes": (("--lobes",), 6.0, False, "float", None),
    },
    "hom model": {
        "n": (("--n",), 1.0, False, "float", None),
        "v": (("--v",), 0.934, False, "float", None),
        "dw_thz": (("--dw-thz",), 11.5, False, "float", None),
        "tauc_ps": (("--tauc-ps",), 2.4, False, "float", None),
        "tau0_fs": (("--tau0-fs",), 0.0, False, "float", None),
        "range_ps": (("--range-ps",), 3.0, False, "float", None),
        "points": (("--points",), 241, False, "int", None),
    },
    "hom synth": {
        "v": (("--v",), 0.934, False, "float", None),
        "dw_thz": (("--dw-thz",), 11.5, False, "float", None),
        "tauc_ps": (("--tauc-ps",), 2.4, False, "float", None),
        "tau0_fs": (("--tau0-fs",), 0.0, False, "float", None),
        "range_ps": (("--range-ps",), 3.0, False, "float", None),
        "points": (("--points",), 241, False, "int", None),
        "pairs": (("--pairs",), 2000.0, False, "float", None),
        "seed": (("--seed",), 0, False, "int", None),
    },
    "hom fit": {
        "scan": (("--scan",), None, True, None, None),
        "init": (("--init",), None, False, None, None),
    },
    "tomo simulate": {
        "p": (("--p",), 0.516, False, "float", None),
        "v": (("--v",), 0.934, False, "float", None),
        "phi": (("--phi",), 0.0, False, "float", None),
        "rho": (("--rho",), None, False, None, None),
        "tau_fs": (("--tau-fs",), None, False, "float", None),
        "dw_thz": (("--dw-thz",), None, False, "float", None),
        "projectors": (("--projectors",), "james16", False, None, None),
        "expected_total":
            (("--expected-total",), 4000.0, False, "float", None),
        "seed": (("--seed",), None, False, "int", None),
    },
    "tomo reconstruct": {
        "data": (("--data",), None, True, None, None),
        "projectors": (("--projectors",), "james16", False, None, None),
    },
    "tomo metrics": {
        "p": (("--p",), 0.516, False, "float", None),
        "v": (("--v",), 0.934, False, "float", None),
        "phi": (("--phi",), 0.0, False, "float", None),
        "rho": (("--rho",), None, False, None, None),
        "tau_fs": (("--tau-fs",), None, False, "float", None),
        "dw_thz": (("--dw-thz",), None, False, "float", None),
        "target_phi": (("--target-phi",), 0.0, False, "float", None),
    },
    "tomo convert": {
        "tau_fs": (("--tau-fs",), None, True, "float", None),
        "dw_thz": (("--dw-thz",), 11.5, False, "float", None),
        "rho": (("--rho",), None, False, None, None),
    },
    "tomo table1": {
        "p": (("--p",), 0.516, False, "float", None),
        "v": (("--v",), 0.934, False, "float", None),
        "dw_thz": (("--dw-thz",), 11.5, False, "float", None),
        "tauc_ps": (("--tauc-ps",), 2.4, False, "float", None),
        "taus_fs": (("--taus-fs",), "0,47,-20", False, None, None),
        "projectors": (("--projectors",), "james16", False, None, None),
        "expected_total":
            (("--expected-total",), 4000.0, False, "float", None),
        "seed": (("--seed",), 1, False, "int", None),
    },

}


def _subcommands(parser, path=()):
    """Leaf subparsers of ``parser`` by their space-joined command path."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {" ".join(path): parser}
    out = {}
    for name, sub in subs[0].choices.items():
        out.update(_subcommands(sub, path + (name,)))
    return out


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_subcommand_options_unchanged(command):
    parsers = _subcommands(_build_parser())
    assert sorted(parsers) == sorted(OPTIONS)
    got = {a.dest: (tuple(a.option_strings), a.default, a.required,
                    getattr(a.type, "__name__", a.type),
                    None if a.choices is None else tuple(a.choices))
           for a in parsers[command]._actions
           if not isinstance(a, argparse._HelpAction)}
    assert got == {**OPTIONS[command], **COMMON_OPTIONS}


def test_branch_choices_are_the_branch_values():
    # the parser spells the choices out, so that building it loads no qpm
    parsers = _subcommands(_build_parser())
    for command in ("qpm solve", "qpm tune"):
        branch, = (a for a in parsers[command]._actions if a.dest == "branch")
        assert tuple(branch.choices) == tuple(b.value for b in Branch)
