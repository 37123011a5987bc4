"""Byte-for-byte regression test of ``revmax spectrum`` and ``check-conditions``.

The five chain families of the ``chain-spectra`` benchmark (weighted graph,
birth-death, periodic ring, lazy ring and Metropolis) run at 17 and 64
states, each with one centered and one uncentered observable; 17 states is
odd, so the eigensolver's round-robin ordering carries a dummy index there.
Each case compares both commands' primary outputs with the committed files
byte for byte, and their exit codes and the sidecars' solver-health fields
(``jacobi_sweeps``, ``offdiag_residual``, ``parseval_defect``) with the
committed ``.health.json``; the rest of a sidecar quotes temporary paths.
The committed files were written by ``spectrum_outputs`` before the Jacobi
solver moved to its paired-column layout.
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from revmax.cli import run

DATA = Path(__file__).parent / "data" / "spectrum"
HEALTH = ("jacobi_sweeps", "offdiag_residual", "parseval_defect")
FAMILIES = {
    "weighted-graph": ["--model", "weighted-graph", "--seed", "5"],
    "birth-death": ["--model", "birth-death", "--up", "0.3", "--down", "0.2"],
    "ring-periodic": ["--model", "lazy-ring", "--laziness", "0"],
    "ring-lazy": ["--model", "lazy-ring", "--laziness", "0.6"],
    "metropolis": ["--model", "metropolis"],
}
CASES = [(family, m, centered) for family in FAMILIES for m in (17, 64)
         for centered in (True, False)]


def case_stem(family: str, m: int, centered: bool) -> str:
    return f"{family}-m{m}-{'c' if centered else 'u'}"


def write_inputs(family: str, m: int, centered: bool, work: Path):
    """Chain and observable files of one case; returns their paths."""
    rng = np.random.default_rng(m)
    chain = work / f"{family}-m{m}.json"
    flags = FAMILIES[family] + ["--m", str(m)] * (family != "metropolis")
    if family == "metropolis":
        target, proposal = work / f"target-m{m}.json", work / f"proposal-m{m}.json"
        target.write_text(json.dumps(rng.uniform(0.2, 1.0, m).tolist()))
        proposal.write_text(json.dumps(np.full((m, m), 1.0 / m).tolist()))
        flags += ["--target-file", str(target), "--proposal-file", str(proposal)]
    with contextlib.redirect_stderr(io.StringIO()):
        assert run(["gen-chain", *flags, "-o", str(chain)]) == 0
    pi = np.asarray(json.loads(chain.read_text())["pi"])
    raw = rng.standard_normal(m)
    # np.sum, not a BLAS dot, so the file does not depend on the BLAS build
    values = raw - float(np.sum(pi * raw)) if centered else raw + 0.5
    observable = work / f"{case_stem(family, m, centered)}-f.json"
    observable.write_text(json.dumps({"dim": 1, "values": [[x] for x in values.tolist()]}))
    return chain, observable


def spectrum_outputs(family: str, m: int, centered: bool, work: Path) -> dict:
    """Run one case's two commands in ``work``; return {golden file name: bytes}."""
    chain, observable = write_inputs(family, m, centered, work)
    stem = case_stem(family, m, centered)
    outputs, health = {}, {}
    for command, suffix in (("spectrum", "spectrum.csv"),
                            ("check-conditions", "conditions.json")):
        out = work / f"{stem}.{suffix}"
        rc = run([command, str(chain), str(observable), "-o", str(out)])
        sidecar = json.loads(Path(f"{out}.meta.json").read_text())
        health[command] = {"exit": rc, **{key: sidecar[key] for key in HEALTH}}
        outputs[f"{stem}.{suffix}"] = out.read_bytes()
    text = json.dumps(health, indent=2, sort_keys=True) + "\n"
    outputs[f"{stem}.health.json"] = text.encode("utf-8")
    return outputs


@pytest.mark.parametrize("family,m,centered", CASES,
                         ids=[case_stem(*case) for case in CASES])
def test_spectrum_outputs_match_golden_bytes(family, m, centered, tmp_path):
    for name, produced in spectrum_outputs(family, m, centered, tmp_path).items():
        assert produced == (DATA / name).read_bytes(), name
