"""Byte-for-byte regression test of ``revmax verify-markov`` against committed outputs.

Every chain id runs on seeds 1 and 2 with 20 generated chains at the default
shapes (up to 50 states, horizons up to 128), and ``weighted-power-max`` also
runs under ``power:-0.5`` and ``alternating:power:-0.5`` on seed 1.  Each case
compares the exit code, stdout and the verification CSV with the committed
files byte for byte; the sidecar is not compared, since it quotes the
temporary output path.  The committed files were written by
``verify_markov_outputs`` before the sidecar gained its verdict-health fields.
"""

import contextlib
import io
from pathlib import Path

import pytest

from revmax.cli import run
from revmax.markov import MarkovCheck

DATA = Path(__file__).parent / "data" / "verify_markov"
WEIGHTS = {"power": "power:-0.5", "alternating": "alternating:power:-0.5"}
CASES = [(check.value, seed, None) for check in MarkovCheck for seed in (1, 2)] + [
    ("weighted-power-max", 1, weights) for weights in sorted(WEIGHTS)
]


def case_stem(check: str, seed: int, weights: str | None) -> str:
    return f"{check}-s{seed}" + (f"-{weights}" if weights else "")


def verify_markov_outputs(check: str, seed: int, weights: str | None, work: Path) -> dict:
    """Run one case in ``work``; return {golden file name: bytes}."""
    stem = case_stem(check, seed, weights)
    out = work / f"{stem}.csv"
    argv = ["verify-markov", "--id", check, "--chains", "20", "--seed", str(seed),
            "-o", str(out)]
    if weights:
        argv += ["--weights", WEIGHTS[weights]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = run(argv)
    return {
        f"{stem}.out": f"exit {rc}\n{stdout.getvalue()}".encode("utf-8"),
        f"{stem}.csv": out.read_bytes(),
    }


@pytest.mark.parametrize("check,seed,weights", CASES,
                         ids=[case_stem(*case) for case in CASES])
def test_verify_markov_outputs_match_golden_bytes(check, seed, weights, tmp_path):
    for name, produced in verify_markov_outputs(check, seed, weights, tmp_path).items():
        assert produced == (DATA / name).read_bytes(), name
