"""The narrative demos run to completion."""

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


def test_demo_01_cusped_graph_tour():
    proc = run_demo("01_cusped_graph_tour.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "commutator power 2^4: distance 8" in lines
    assert lines[-1] == ("4-point hyperbolicity estimate (200 samples, "
                         "radius 6): 1 (0 quadruples skipped at the "
                         "distance cap)")


def test_demo_02_cycles_and_growth():
    proc = run_demo("02_cycles_and_growth.py")
    assert proc.returncode == 0, proc.stderr
    assert "<alpha_f, A_m> = 32 (expected 32)" in proc.stdout


def test_demo_03_defect_and_certificates():
    proc = run_demo("03_defect_and_certificates.py")
    assert proc.returncode == 0, proc.stderr
    lines = [line.strip() for line in proc.stdout.splitlines()]
    assert "ratio = 2/3" in lines
    assert "scaling f by 3 leaves the ratio fixed: True" in lines
    assert "constant f has zero defect: True" in lines
    # sublinear f: the certified bound falls with the radius; f = id: flat
    assert "radius 3: truncation n=4, bound 2/15" in lines
    assert lines.count("radius 3: truncation n=0, bound 2/3") == 1
    assert lines[-1].endswith("over m in {4, 9, 16}: 2")
