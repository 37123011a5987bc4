"""Command-line entry point for reproducible verification experiments.

Exit codes: 0 all checks passed, 1 at least one inequality or equivalence
violated (the interesting outcome), 2 malformed input or bad flags.  Every
run writes a JSON sidecar next to its primary output recording the command
line, the seeds, and the tool version; primary outputs are byte-identical
across reruns and thread counts.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .finite_prob import ValidationError
from .inequalities import InequalityId, series_criterion, traced_constant, verify_batch
from .markov import (
    ChainPowers,
    MarkovCheck,
    check_conditions,
    dump_chain,
    load_chain,
    load_observable,
    make_chain,
    random_chain_instance,
    spectral_measure,
    verify_markov_inequality,
)
from .simulate import (
    SimConfig,
    as_convergence_diagnostic,
    jackknife_mean,
    path_max_squares,
    sample_trajectories,
    series_paths,
)
from .weights import parse_weight_spec

CSV_HEADER = "id,p,seed,atoms,n,dim,lhs,rhs,ratio,constant,pass"


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_sidecar(path: str, argv, seed=None, extra=None):
    meta = {"argv": list(argv), "version": __version__, "seed": seed}
    if extra:
        meta.update(extra)
    _write_text(path + ".meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {what} file {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} file {path!r} is not valid JSON: {exc}")


def _records_to_csv(records) -> str:
    lines = [CSV_HEADER]
    for r in records:
        d = r.descriptor
        lines.append(
            ",".join(
                [
                    r.check,
                    _fmt(r.p),
                    str(d.get("seed", "")),
                    str(d.get("atoms", d.get("states", ""))),
                    str(d.get("horizon", d.get("n", ""))),
                    str(d.get("dim", "")),
                    _fmt(r.lhs),
                    _fmt(r.rhs),
                    _fmt(r.ratio),
                    _fmt(r.constant),
                    "skipped" if r.skipped else str(r.passed).lower(),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _require_minimums(args, minimums: dict):
    for flag, low in minimums.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value < low:
            raise ValidationError(f"{flag} must be >= {low}, got {value}")


def _tol_override(args) -> float | None:
    tol = args.tol_override
    if tol is not None:
        if not 0.0 <= tol < math.inf:  # NaN fails both comparisons
            raise ValidationError(f"--tol-override must be a finite number >= 0, got {tol}")
        print(
            f"WARNING: pass tolerance overridden to {tol!r}; "
            "records no longer reflect the committed contract",
            file=sys.stderr,
        )
    return tol


def _cmd_gen_chain(args, argv) -> int:
    params = {}
    if args.model == "two-state":
        params = {"p": args.p, "q": args.q}
        if args.p is None or args.q is None:
            raise ValidationError("two-state needs --p and --q")
    elif args.model == "birth-death":
        if args.m is None or args.up is None or args.down is None:
            raise ValidationError("birth-death needs --m, --up and --down")
        params = {"up": [args.up] * (args.m - 1), "down": [args.down] * (args.m - 1)}
    elif args.model == "lazy-ring":
        if args.m is None or args.laziness is None:
            raise ValidationError("lazy-ring needs --m and --laziness")
        params = {"m": args.m, "laziness": args.laziness}
    elif args.model == "weighted-graph":
        if args.weights_file:
            params = {"weights": _load_json(args.weights_file, "weight matrix")}
        elif args.m is not None:
            params = {"m": args.m}
        else:
            raise ValidationError("weighted-graph needs --weights-file or --m")
    elif args.model == "metropolis":
        if not args.target_file or not args.proposal_file:
            raise ValidationError("metropolis needs --target-file and --proposal-file")
        params = {
            "target": _load_json(args.target_file, "target"),
            "proposal": _load_json(args.proposal_file, "proposal"),
        }
    chain = make_chain(args.model, params, seed=args.seed)
    if not chain.connected:
        print(
            "note: chain is disconnected; the spectrum has multiplicity at 1",
            file=sys.stderr,
        )
    _write_text(args.out, json.dumps(dump_chain(chain), indent=2) + "\n")
    _write_sidecar(args.out, argv, seed=args.seed, extra={"model": args.model})
    return 0


def _cmd_spectrum(args, argv) -> int:
    chain = load_chain(_load_json(args.chain, "chain"))
    f = load_observable(_load_json(args.observable, "observable"))
    sm = spectral_measure(chain, f)
    lines = ["lambda,mass"]
    for lam, mass in sm.atoms:
        lines.append(f"{_fmt(lam)},{_fmt(mass)}")
    _write_text(args.out, "\n".join(lines) + "\n")
    _write_sidecar(args.out, argv, extra=_spectral_health(sm))
    return 0


def _spectral_health(sm) -> dict:
    """Deterministic solver figures for a sidecar; primary outputs never hold them."""
    return {
        "jacobi_sweeps": sm.sweeps,
        "offdiag_residual": sm.offdiag_residual,
        "parseval_defect": sm.parseval_defect,
    }


def _json_number(x: float):
    # strict JSON has no Infinity literal
    return x if math.isfinite(x) else "inf"


def _cmd_check_conditions(args, argv) -> int:
    chain = load_chain(_load_json(args.chain, "chain"))
    f = load_observable(_load_json(args.observable, "observable"))
    report = check_conditions(chain, f, probe_horizon=args.probe_horizon)
    payload = {
        "a_bounded": report.a_bounded,
        "b_bounded": report.b_bounded,
        "c_finite": report.c_finite,
        "d_finite": report.d_finite,
        "e_member": report.e_member,
        "all_equivalent": report.all_equivalent,
        "b_sup": report.b_sup,
        "c_sigma2": _json_number(report.c_sigma2),
        "d_integral": _json_number(report.d_integral),
        "unit_mass": report.unit_mass,
        "probe_grid": list(report.probe_grid),
        "a_partial_sums": list(report.a_partial_sums),
    }
    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        _write_text(args.out, text)
        _write_sidecar(args.out, argv, extra=_spectral_health(report.measure))
    else:
        sys.stdout.write(text)
    return 0 if report.all_equivalent else 1


def _cmd_verify(args, argv) -> int:
    check = InequalityId(args.check)
    _require_minimums(
        args, {"--instances": 0, "--atoms-max": 2, "--n-max": 1, "--dim-max": 1}
    )
    weights = parse_weight_spec(args.weights) if args.weights else None
    records = verify_batch(
        check,
        p=args.p,
        count=args.instances,
        seed=args.seed,
        weights=weights,
        atoms_max=args.atoms_max,
        n_max=args.n_max,
        dim_max=args.dim_max,
        tol_override=_tol_override(args),
    )
    _write_text(args.out, _records_to_csv(records))
    health = _verdict_health(records)
    _write_sidecar(args.out, argv, seed=args.seed,
                   extra={"check": check.value, **health})
    failures = health["violations"]
    print(f"{check.value}: {len(records)} instances, {failures} violations")
    return 1 if failures else 0


def _verdict_health(records) -> dict:
    """Violation and skip counts and the worst lhs / (C·rhs) of a batch.

    The worst margin runs over the rows that were not skipped; a violation
    with rhs = 0 has margin ``"inf"``, and a batch with no such rows ``None``.
    """
    margins = [
        r.lhs / (r.constant * r.rhs) if r.rhs else math.inf
        for r in records if not r.skipped
    ]
    return {
        "violations": sum(1 for r in records if not r.passed),
        "skipped": sum(1 for r in records if r.skipped),
        "worst_margin": _json_number(max(margins)) if margins else None,
    }


def _cmd_verify_markov(args, argv) -> int:
    check = MarkovCheck(args.check)
    _require_minimums(args, {"--chains": 0, "--m-max": 2, "--n-max": 1})
    weights = parse_weight_spec(args.weights) if args.weights else None
    tol_override = _tol_override(args)
    master = np.random.default_rng(args.seed)
    records = []
    for _ in range(args.chains):
        inst_seed = int(master.integers(0, 2**63 - 1))
        chain, f = random_chain_instance(inst_seed, m_max=args.m_max)
        n = int(master.integers(1, args.n_max + 1))
        record = verify_markov_inequality(
            check, chain, f, n, weights=weights, tol_override=tol_override
        )
        record.descriptor["seed"] = inst_seed
        record.descriptor["atoms"] = chain.m
        records.append(record)
    _write_text(args.out, _records_to_csv(records))
    health = _verdict_health(records)
    _write_sidecar(args.out, argv, seed=args.seed,
                   extra={"check": check.value, **health})
    failures = health["violations"]
    print(f"{check.value}: {len(records)} chains, {failures} violations")
    return 1 if failures else 0


def _cmd_simulate(args, argv) -> int:
    chain = load_chain(_load_json(args.chain, "chain"))
    f = load_observable(_load_json(args.observable, "observable"))
    w = parse_weight_spec(args.weights)
    config = SimConfig(
        master_seed=args.master_seed,
        trials=args.trials,
        horizon=args.n,
        threads=args.threads,
    )
    seeds = [config.trial_seed(i) for i in range(config.trials)]
    powers = ChainPowers(chain, f)
    states = sample_trajectories(chain, args.n, seeds)
    paths = series_paths(chain, f, w, states, powers)

    checkpoints = []
    c = 8
    while 2 * c <= args.n:
        checkpoints.append(c)
        c *= 2
    exit_code = 0
    if args.osc_out:
        if len(checkpoints) < 1 or config.trials < 30:
            raise ValidationError(
                "oscillation table needs horizon >= 16 and at least 30 trials"
            )
        table = as_convergence_diagnostic(paths, checkpoints)
        lines = ["checkpoint,median_osc,q95_osc"]
        for cp, med, q in zip(table.checkpoints, table.median, table.q95):
            lines.append(f"{cp},{_fmt(med)},{_fmt(q)}")
        _write_text(args.osc_out, "\n".join(lines) + "\n")
        _write_sidecar(
            args.osc_out, argv, seed=args.master_seed,
            extra={"consistent": table.consistent, "weights": w.describe()},
        )
        print(f"oscillation trend consistent with a.s. convergence: {table.consistent}")

    if args.paths_out:
        lines = ["trial,k,T_k"]
        norms = np.linalg.norm(paths[: args.paths_limit], axis=2)
        for trial in range(min(config.trials, args.paths_limit)):
            for k in range(args.n):
                lines.append(f"{trial},{k + 1},{_fmt(norms[trial, k])}")
        _write_text(args.paths_out, "\n".join(lines) + "\n")
        _write_sidecar(args.paths_out, argv, seed=args.master_seed)

    if config.trials >= 100:
        estimate, se = jackknife_mean(path_max_squares(paths))
        moments = powers.second_moments(args.n)[1:]
        series_bound = (
            traced_constant(InequalityId.SECOND_MOMENT_SERIES, 2.0).value
            * series_criterion(w, moments, args.n).partial
        )
        within = bool(estimate <= series_bound + 3.0 * se)
        print(
            f"max-moment estimate {estimate:.6g} (se {se:.3g}); "
            f"series bound {series_bound:.6g}; within bound: {within}"
        )
        if args.estimate_out:
            payload = {
                "estimate": estimate,
                "standard_error": se,
                "trials": config.trials,
                "series_bound": series_bound,
                "within_bound": within,
            }
            _write_text(args.estimate_out, json.dumps(payload, indent=2) + "\n")
            _write_sidecar(args.estimate_out, argv, seed=args.master_seed)
        if not within:
            exit_code = 1
    return exit_code


def _cmd_report(args, argv) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            lines = fh.read().strip().splitlines()
    except OSError as exc:
        raise ValidationError(f"cannot read report input {args.input!r}: {exc}")
    if not lines or lines[0] != CSV_HEADER:
        raise ValidationError(
            f"report input {args.input!r} does not carry the verification header"
        )
    rows = [line.split(",") for line in lines[1:]]
    dat = ["# index ratio constant pass"]
    summary: dict[tuple, list] = {}
    for i, row in enumerate(rows):
        check, p, ratio, constant, flag = row[0], row[1], row[8], row[9], row[10]
        dat.append(f"{i} {ratio} {constant} {1 if flag == 'true' else 0}")
        key = (check, p)
        entry = summary.setdefault(key, [0, 0, 0.0])
        entry[0] += 1
        if flag == "false":
            entry[1] += 1
        if flag == "true" and ratio not in ("nan", ""):
            entry[2] = max(entry[2], float(ratio))
    _write_text(args.out_prefix + "_ratios.dat", "\n".join(dat) + "\n")
    text = ["check p count violations max_ratio"]
    for (check, p), (count, bad, worst) in sorted(summary.items()):
        text.append(f"{check} {p} {count} {bad} {_fmt(worst)}")
    _write_text(args.out_prefix + "_summary.txt", "\n".join(text) + "\n")
    _write_sidecar(args.out_prefix + "_ratios.dat", argv)
    return 0


_SCHEMAS = """file schemas:
  chain JSON        {"states": [...], "pi": [...optional...], "Q": [[rows]]}
  observable JSON   {"dim": d, "values": [[per-state vector], ...]}
  problem JSON      {"probs": [...], "partitions": [[[atom idx]...]...],
                     "dim": d, "terms": [[[per-atom vector]...]...]}
  weight spec       constant:1.0 | power:-0.5 | explicit:@file.json
                    | alternating:<spec>
  verification CSV  id,p,seed,atoms,n,dim,lhs,rhs,ratio,constant,pass
  spectrum CSV      lambda,mass
  simulation CSVs   trial,k,T_k  and  checkpoint,median_osc,q95_osc
  sidecars          every output gets <name>.meta.json with argv/seed/version;
                    spectrum and check-conditions add jacobi_sweeps,
                    offdiag_residual, parseval_defect; verify and verify-markov
                    add violations, skipped and worst_margin (lhs / (C*rhs))
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revmax",
        description=__doc__,
        epilog=_SCHEMAS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "gen-chain",
        help="write a reversible chain as JSON {states, pi, Q}",
    )
    gen.add_argument("--model", required=True,
                     choices=["two-state", "birth-death", "lazy-ring",
                              "weighted-graph", "metropolis"])
    gen.add_argument("--p", type=float, help="two-state flip probability from state 0")
    gen.add_argument("--q", type=float, help="two-state flip probability from state 1")
    gen.add_argument("--m", type=int, help="number of states")
    gen.add_argument("--up", type=float, help="birth-death upward probability")
    gen.add_argument("--down", type=float, help="birth-death downward probability")
    gen.add_argument("--laziness", type=float, help="lazy-ring holding probability")
    gen.add_argument("--weights-file", help="JSON symmetric weight matrix")
    gen.add_argument("--target-file", help="JSON target law for metropolis")
    gen.add_argument("--proposal-file", help="JSON symmetric proposal for metropolis")
    gen.add_argument("--seed", type=int, default=0, help="seed for random weights")
    gen.add_argument("-o", "--out", required=True)

    spec = sub.add_parser(
        "spectrum",
        help="spectral measure of an observable, CSV columns lambda,mass",
    )
    spec.add_argument("chain", help="chain JSON: {states, pi (optional), Q}")
    spec.add_argument("observable", help="observable JSON: {dim, values}")
    spec.add_argument("-o", "--out", required=True)

    cond = sub.add_parser(
        "check-conditions",
        help="the five boundedness conditions; exit 1 if they disagree",
    )
    cond.add_argument("chain")
    cond.add_argument("observable")
    cond.add_argument("--probe-horizon", type=int, default=64)
    cond.add_argument("-o", "--out")

    ver = sub.add_parser(
        "verify",
        help="filtration inequalities on generated instances, CSV report",
    )
    ver.add_argument("--id", dest="check", required=True,
                     choices=[i.value for i in InequalityId])
    ver.add_argument("--p", type=float, default=2.0)
    ver.add_argument("--instances", type=int, default=100)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--weights", default=None,
                     help="weight spec, e.g. constant:1.0 power:-0.5 "
                          "explicit:@w.json alternating:power:-0.5")
    ver.add_argument("--atoms-max", type=int, default=64)
    ver.add_argument("--n-max", type=int, default=32)
    ver.add_argument("--dim-max", type=int, default=3)
    ver.add_argument("--threads", type=int, default=1,
                     help="accepted and ignored; the batch runs in one thread")
    ver.add_argument("--tol-override", type=float, default=None,
                     help="expert-only pass slack override (logged loudly)")
    ver.add_argument("-o", "--out", required=True)

    vmk = sub.add_parser(
        "verify-markov",
        help="chain inequalities on generated chains, CSV report",
    )
    vmk.add_argument("--id", dest="check", required=True,
                     choices=[c.value for c in MarkovCheck])
    vmk.add_argument("--chains", type=int, default=100)
    vmk.add_argument("--seed", type=int, default=0)
    vmk.add_argument("--weights", default=None)
    vmk.add_argument("--m-max", type=int, default=50)
    vmk.add_argument("--n-max", type=int, default=128)
    vmk.add_argument("--threads", type=int, default=1,
                     help="accepted and ignored; the batch runs in one thread")
    vmk.add_argument("--tol-override", type=float, default=None)
    vmk.add_argument("-o", "--out", required=True)

    sim = sub.add_parser(
        "simulate",
        help="stationary-path series diagnostics and Monte Carlo max moment",
    )
    sim.add_argument("--chain", required=True)
    sim.add_argument("--observable", "--f", dest="observable", required=True)
    sim.add_argument("--weights", required=True)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--trials", type=int, default=200)
    sim.add_argument("--master-seed", type=int, default=0)
    sim.add_argument("--threads", type=int, default=1,
                     help="accepted and ignored; the trials run in one thread")
    sim.add_argument("--osc-out", help="CSV: checkpoint,median_osc,q95_osc")
    sim.add_argument("--paths-out", help="CSV: trial,k,T_k")
    sim.add_argument("--paths-limit", type=int, default=32,
                     help="cap on trials written to the paths CSV")
    sim.add_argument("--estimate-out", help="JSON max-moment estimate")

    rep = sub.add_parser(
        "report",
        help="gnuplot-ready ratio data and a summary from a verification CSV",
    )
    rep.add_argument("--input", required=True)
    rep.add_argument("--out-prefix", required=True)

    return parser


_HANDLERS = {
    "gen-chain": _cmd_gen_chain,
    "spectrum": _cmd_spectrum,
    "check-conditions": _cmd_check_conditions,
    "verify": _cmd_verify,
    "verify-markov": _cmd_verify_markov,
    "simulate": _cmd_simulate,
    "report": _cmd_report,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``run`` shares across calls, built on the first one.

    ``parse_args`` leaves a parser as it found it, so one process needs only
    one; building it per command costs about 2.5 ms and leaves reference
    cycles for the garbage collector.
    """
    return build_parser()


def run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _HANDLERS[args.command](args, argv)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():  # pragma: no cover
    sys.exit(run(sys.argv[1:]))
