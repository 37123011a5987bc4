"""Byte-for-byte regression test of ``revmax verify`` against committed outputs.

Every inequality id runs at each p in {1.5, 2, 3} where its constant is
defined, on 30 generated instances of the default shapes (dims 1-3).  The
weighted ids run under four weight specs: ``power:-0.5``,
``alternating:power:-0.5``, ``constant:1.0`` and the 128-entry explicit list
in ``tests/data/verify/weights.json``, which covers the 4n indices the
statistics read at n = 32.  Each case compares the exit code, stdout and the
verification CSV with the committed files byte for byte; the sidecar is not
compared, since it quotes the temporary output path.  The committed files
were written by ``verify_outputs`` from the per-level ``cond_expect`` route,
before the conditional-expectation table replaced it.
"""

import contextlib
import io
import zlib
from pathlib import Path

import pytest

from revmax.cli import run

DATA = Path(__file__).parent / "data" / "verify"
EXPONENTS = {
    "max-vs-endpoint": ("1.5", "2", "3"),
    "max-vs-projections": ("1.5", "2"),
    "weighted-max-vs-endpoint": ("1.5", "2", "3"),
    "weighted-max-vs-projections": ("1.5", "2"),
    "dyadic-weighted-max": ("1.5", "2", "3"),
    "second-moment-series": ("2",),
    "smoothness": ("1.5", "2"),
}
WEIGHTED = {"weighted-max-vs-endpoint", "weighted-max-vs-projections",
            "dyadic-weighted-max", "second-moment-series"}
WEIGHTS = {
    "power": "power:-0.5",
    "alternating": "alternating:power:-0.5",
    "constant": "constant:1.0",
    "explicit": f"explicit:@{DATA / 'weights.json'}",
}
CASES = [
    (check, p, weights)
    for check, ps in EXPONENTS.items()
    for p in ps
    for weights in (sorted(WEIGHTS) if check in WEIGHTED else [None])
]


def case_stem(check: str, p: str, weights: str | None) -> str:
    return f"{check}-p{p}" + (f"-{weights}" if weights else "")


def verify_outputs(check: str, p: str, weights: str | None, work: Path) -> dict:
    """Run one case in ``work``; return {golden file name: bytes}."""
    stem = case_stem(check, p, weights)
    out = work / f"{stem}.csv"
    argv = ["verify", "--id", check, "--p", p, "--instances", "30",
            "--seed", str(zlib.crc32(stem.encode())), "-o", str(out)]
    if weights:
        argv += ["--weights", WEIGHTS[weights]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = run(argv)
    return {
        f"{stem}.out": f"exit {rc}\n{stdout.getvalue()}".encode("utf-8"),
        f"{stem}.csv": out.read_bytes(),
    }


@pytest.mark.parametrize("check,p,weights", CASES,
                         ids=[case_stem(*case) for case in CASES])
def test_verify_outputs_match_golden_bytes(check, p, weights, tmp_path):
    for name, produced in verify_outputs(check, p, weights, tmp_path).items():
        assert produced == (DATA / name).read_bytes(), name
