"""The narrative demos run to completion.

Demo 01 is left out: its `estimate_delta(200, 6)` spends minutes in exact
distance searches deep inside horoballs.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          env=env, capture_output=True, text=True,
                          timeout=300)


def test_demo_02_cycles_and_growth():
    proc = run_demo("02_cycles_and_growth.py")
    assert proc.returncode == 0, proc.stderr
    assert "<alpha_f, A_m> = 32 (expected 32)" in proc.stdout
