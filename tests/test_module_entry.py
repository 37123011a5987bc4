"""``python -m revmax`` and ``python -m revmax.cli`` behave as ``cli.run``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from revmax.cli import run

SRC = Path(__file__).resolve().parent.parent / "src"
VERIFY = ["verify", "--id", "max-vs-endpoint", "--instances", "3", "--seed", "5"]


def run_module(module, argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", module, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("module", ["revmax", "revmax.cli"])
def test_module_gives_the_exit_code_and_file_of_run(module, tmp_path, capsys):
    expected = tmp_path / "run.csv"
    code = run([*VERIFY, "-o", str(expected)])
    printed = capsys.readouterr().out
    out = tmp_path / "module.csv"
    done = run_module(module, [*VERIFY, "-o", str(out)], tmp_path)
    assert done.returncode == code == 0
    assert done.stdout == printed
    assert out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("module", ["revmax", "revmax.cli"])
def test_module_exits_two_on_a_bad_flag(module, tmp_path):
    out = tmp_path / "x.csv"
    done = run_module(module, [*VERIFY, "--no-such-flag", "-o", str(out)], tmp_path)
    assert done.returncode == 2
    assert "unrecognized arguments: --no-such-flag" in done.stderr
    assert not out.exists()
