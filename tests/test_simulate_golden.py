"""Byte-for-byte regression test of ``revmax simulate`` against committed outputs.

The inputs under ``tests/data/simulate`` are a 10-state birth-death chain with
a centered dim-1 observable and a 50-state weighted graph with a centered
dim-2 observable.  Each case runs ``simulate`` at n = 4096 with 100 trials
and compares stdout, the oscillation CSV and the estimate JSON with the
committed files byte for byte.  The paths CSV (32 trials x 4096 rows) is
compared through its SHA-256 digest.  Sidecars are not compared: they quote
the argv, which holds the temporary paths.  The committed files were written
by ``simulate_outputs`` from the sampler that compared every cumulative value
with the float draw directly, before the bucket table replaced it.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from revmax.cli import run

DATA = Path(__file__).parent / "data" / "simulate"
CHAINS = ("birth-death", "graph")
WEIGHTS = {"power": "power:-0.5", "alternating": "alternating:power:-0.5"}


def simulate_outputs(chain: str, weights: str, work: Path) -> dict:
    """Run one case in ``work``; return {golden file name: bytes}."""
    osc, est, paths = work / "osc.csv", work / "estimate.json", work / "paths.csv"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = run([
            "simulate", "--chain", str(DATA / f"{chain}.json"),
            "--observable", str(DATA / f"{chain}-f.json"),
            "--weights", WEIGHTS[weights], "--n", "4096", "--trials", "100",
            "--master-seed", "11", "--osc-out", str(osc),
            "--estimate-out", str(est), "--paths-out", str(paths),
        ])
    assert rc == 0
    stem = f"{chain}-{weights}"
    return {
        f"{stem}.stdout": stdout.getvalue().encode("utf-8"),
        f"{stem}.osc.csv": osc.read_bytes(),
        f"{stem}.estimate.json": est.read_bytes(),
        f"{stem}.paths.sha256": (hashlib.sha256(paths.read_bytes()).hexdigest()
                                 + "\n").encode(),
    }


@pytest.mark.parametrize("weights", sorted(WEIGHTS))
@pytest.mark.parametrize("chain", CHAINS)
def test_simulate_outputs_match_golden_bytes(chain, weights, tmp_path):
    for name, produced in simulate_outputs(chain, weights, tmp_path).items():
        assert produced == (DATA / name).read_bytes(), name

