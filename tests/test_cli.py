"""End-to-end command-line behavior: file outputs, exit codes, determinism.

Everything runs in-process through ``main(argv)`` with ``--out-dir`` pointed
at pytest temp dirs, so these tests double as integration coverage of the
whole pipeline (solver -> spectrum -> reduction -> fit -> tomography).
"""
import json

import numpy as np
import pytest

from freqbin.cli import main
from freqbin.entanglement import rho_freq

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


def load_json(path):
    return json.loads(path.read_text())


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


def test_qpm_tune_requires_exactly_one_sweep(tmp_path):
    assert main(["qpm", "tune", "--t-from-c", "110", "--t-to-c", "130",
                 "--pump-from-nm", "770", "--pump-to-nm", "780",
                 "--out-dir", str(tmp_path)]) == 2
    assert main(["qpm", "tune", "--out-dir", str(tmp_path)]) == 2


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
    assert "delta_omega_unidentifiable" in fit["flags"]
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
    assert payload["diagnostics"]["converged"] is True


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
