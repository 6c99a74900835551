"""Each script under scripts/ runs to the end and prints its headline lines."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, lines", [
    ("reproduce_desk_codes.py", ("33 orbits, verified size 33759 (formula 33759), distance 2",
                                 "4 orbits, verified size 1020 (formula 1020), distance 2")),
    ("polynomial_code_report.py", ("union of kernel orbits: size 49149, exact minimum distance 4",)),
    ("size_comparison.py", ("k=5: 223200/524287 = 0.42572",)),
], ids=["reproduce_desk_codes", "polynomial_code_report", "size_comparison"])
def test_script_runs(script, lines):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    for line in lines:
        assert line in done.stdout


def test_reproduce_builds_a_code_over_gf4(capsys):
    # q = 4 = 2^2 is no prime: the script builds its tower through construct_code
    spec = importlib.util.spec_from_file_location(
        "reproduce_desk_codes", ROOT / "scripts" / "reproduce_desk_codes.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.reproduce(4, 2, 2, "odd")
    assert ("odd tower, q=4 k=2 n=10: 2055 orbits, verified size 718273875 (formula 718273875), "
            "distance 2, claims ok=True") in capsys.readouterr().out
