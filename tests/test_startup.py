"""What a process loads: ``import freqbin`` and each CLI launch.

The package resolves its public names from their submodules on access,
and the CLI imports each library layer inside the handler that runs it.
The checks of what a process loads start a fresh interpreter, since this
one has loaded every layer already.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import freqbin
from freqbin.cli import main

SRC = str(Path(freqbin.__file__).resolve().parent.parent)
LAYERS = ("dispersion", "qpm", "biphoton", "hom", "entanglement")


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=SRC if not path else SRC + os.pathsep + path)


# prints the names of the loaded modules as the process's last stderr line
_AT_EXIT = ("import atexit, json, sys\n"
            "atexit.register(lambda: print(json.dumps(sorted(sys.modules)),"
            " file=sys.stderr))\n")
# what ``python -m freqbin.cli`` runs
_CLI = ("import runpy\n"
        "runpy.run_module('freqbin.cli', run_name='__main__', alter_sys=True)")


def _loaded(code: str, *argv) -> tuple:
    """Exit code of a fresh interpreter running ``code`` with ``argv``, and
    the modules it had loaded when it exited."""
    proc = subprocess.run([sys.executable, "-c", _AT_EXIT + code, *argv],
                          env=_env(), capture_output=True, text=True,
                          timeout=120)
    return proc.returncode, set(json.loads(proc.stderr.splitlines()[-1]))


def test_import_freqbin_loads_no_layer_and_no_numpy():
    code, names = _loaded("import freqbin")
    assert code == 0
    assert "numpy" not in names
    assert not {f"freqbin.{m}" for m in LAYERS} & names
    # a submodule is still reached as an attribute of the package
    code, names = _loaded("import freqbin; freqbin.hom.homi_rate")
    assert code == 0
    assert "freqbin.hom" in names and "freqbin.qpm" not in names


@pytest.mark.parametrize("argv, want", [
    (["--version"], 0), (["--help"], 0), (["qpm", "solve", "--nope"], 2),
    (["hom", "synth", "--points", "many"], 2)])
def test_cli_without_a_command_to_run_loads_no_numpy(argv, want):
    code, names = _loaded(_CLI, *argv)
    assert code == want
    assert "numpy" not in names
    assert not {f"freqbin.{m}" for m in LAYERS} & names


def test_tomo_convert_without_a_matrix_loads_no_numpy(tmp_path):
    code, names = _loaded(_CLI, "tomo", "convert",
                            "--tau-fs", "47", "--out-dir", str(tmp_path))
    assert code == 0
    assert "numpy" not in names
    # nor with its options read from a config file
    config = tmp_path / "convert.json"
    config.write_text(json.dumps({"tau_fs": 47}))
    code, names = _loaded(_CLI, "tomo", "convert", "--config", str(config),
                          "--out-dir", str(tmp_path))
    assert code == 0
    assert "numpy" not in names


def test_hom_and_tomo_steps_load_no_phase_matching(tmp_path):
    out = str(tmp_path)
    assert main(["tomo", "simulate", "--seed", "3", "--out-dir", out]) == 0
    for argv in (["hom", "synth"],
                 ["tomo", "reconstruct", "--data", f"{out}/tomo_counts.csv"]):
        code, names = _loaded(_CLI, *argv, "--out-dir", out)
        assert code == 0
        assert not {"freqbin.dispersion", "freqbin.qpm",
                    "freqbin.biphoton"} & names


def test_a_renamed_copy_reads_its_own_bundled_data(tmp_path):
    # the package finds its data through its own name, so a copy imported
    # under another one (an A/B of two trees in one process) needs no
    # package called freqbin
    shutil.copytree(SRC + "/freqbin", tmp_path / "freqbin_copy",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code = ("import freqbin_copy as f\n"
            "spec = f.load_crystal('default')\n"
            "assert spec.sellmeier_for('H').name == 'cln_e_edwards1984'\n"
            "assert len(f.load_projectors('james16')) == 16\n"
            "import sys; assert 'freqbin' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(tmp_path)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_every_public_name_resolves_from_its_submodule():
    for name in freqbin.__all__:
        value = getattr(freqbin, name)
        owner = sys.modules[f"freqbin.{freqbin._OWNER[name]}"]
        assert value is getattr(owner, name)
    assert len(set(freqbin.__all__)) == len(freqbin.__all__)
    assert set(freqbin.__all__) <= set(dir(freqbin))
    namespace = {}
    exec("from freqbin import *", namespace)
    assert set(freqbin.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        freqbin.no_such_name  # noqa: B018


def test_package_returns_the_current_binding(monkeypatch):
    # nothing is cached in the package: a rebinding in the submodule, and
    # its undoing, show through at once
    import freqbin.qpm
    original = freqbin.crossing_temperature
    monkeypatch.setattr(freqbin.qpm, "crossing_temperature", len)
    assert freqbin.crossing_temperature is len
    monkeypatch.undo()
    assert freqbin.crossing_temperature is original
