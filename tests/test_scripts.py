"""Smoke test of the walkthrough script that README advertises."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_run_analysis_walkthrough():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_analysis.py")],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert "three-factor interaction: -3.52 (se 1.22, z -2.9)" in lines
    # smoothed log-SEs of odr(L,V | C,R), which ``reproduce`` does not pin
    assert [line.split("log-se ")[1].split()[0] for line in lines if "log-se" in line] == [
        "0.567", "0.326", "0.536", "0.425"]
