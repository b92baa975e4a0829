"""The A/B tools under ``benchmarks/``: the working-tree copy both sides of
a comparison run from, and an in-process run end to end.

Both tests need git and a git checkout of this repository; they skip
without them.
"""
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))
import paired  # noqa: E402


def _git_ok() -> bool:
    try:
        return subprocess.run(["git", "rev-parse"], cwd=ROOT,
                              capture_output=True).returncode == 0
    except OSError:
        return False


pytestmark = pytest.mark.skipif(not _git_ok(), reason="needs a git checkout")


def test_snapshot_copies_the_files_git_would_commit(tmp_path, monkeypatch):
    repo, dest = tmp_path / "repo", tmp_path / "copy"
    repo.mkdir()

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    (repo / ".gitignore").write_text("__pycache__/\n")
    (repo / "src").mkdir()
    (repo / "src" / "kept.py").write_text("kept\n")
    (repo / "src" / "gone.py").write_text("gone\n")
    git("add", "-A")
    git("commit", "-q", "-m", "files")
    (repo / "src" / "gone.py").unlink()
    (repo / "src" / "kept.py").write_text("edited\n")
    (repo / "src" / "new.py").write_text("new\n")
    (repo / "src" / "__pycache__").mkdir()
    (repo / "src" / "__pycache__" / "kept.cpython-311.pyc").write_bytes(b"x")

    monkeypatch.setattr(paired, "ROOT", repo)
    paired.snapshot(dest)
    assert (dest / "src" / "kept.py").read_text() == "edited\n"
    assert (dest / "src" / "new.py").read_text() == "new\n"
    assert not (dest / "src" / "gone.py").exists()
    assert not (dest / "src" / "__pycache__").exists()


def test_inprocess_runs_both_sides():
    proc = subprocess.run(
        [sys.executable, "benchmarks/inprocess.py", "--workload", "analysis",
         "--tasks", "2", "--rounds", "1"],
        cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for side in ("base", "work"):
        line = next(ln for ln in lines if ln.startswith(f"{side}: "))
        assert "ok_frac 1," in line
