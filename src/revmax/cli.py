"""Command-line entry point for reproducible verification experiments.

Exit codes: 0 all checks passed, 1 at least one inequality or equivalence
violated (the interesting outcome), 2 malformed input or bad flags.  Every
run writes a JSON sidecar next to its primary output recording the command
line, the seeds, and the tool version; primary outputs are byte-identical
across reruns.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .finite_prob import ValidationError, _load_json, _numbers
from .inequalities import InequalityId, series_criterion, traced_constant, verify_batch
from .markov import (
    CHAIN_MODELS,
    ChainPowers,
    MarkovCheck,
    check_conditions,
    dump_chain,
    load_chain,
    load_observable,
    make_chain,
    spectral_measure,
    verify_markov_batch,
)
from .simulate import (
    MIN_DIAGNOSTIC_TRIALS,
    MIN_ESTIMATE_TRIALS,
    derive_trial_seed,
    jackknife_mean,
    reduce_trials,
)
from .weights import parse_weight_spec

CSV_HEADER = "id,p,seed,atoms,n,dim,lhs,rhs,ratio,constant,pass"


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _open_text(path: str):
    return open(path, "w", encoding="utf-8", newline="")


def _write_text(path: str, text: str):
    with _open_text(path) as fh:
        fh.write(text)


def _write_sidecar(path: str, argv, seed=None, extra=None):
    meta = {"argv": list(argv), "version": __version__, "seed": seed}
    if extra:
        meta.update(extra)
    _write_text(path + ".meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _load_numbers(path: str, what: str) -> np.ndarray:
    return _numbers(_load_json(path, what), what)


def _records_to_csv(records) -> str:
    lines = [CSV_HEADER]
    for r in records:
        d = r.descriptor
        lines.append(",".join([
            r.check, _fmt(r.p), str(d["seed"]), str(d["atoms"]), str(d["n"]), str(d["dim"]),
            _fmt(r.lhs), _fmt(r.rhs), _fmt(r.ratio), _fmt(r.constant),
            "skipped" if r.skipped else str(r.passed).lower(),
        ]))
    return "\n".join(lines) + "\n"


def _value(args, flag: str):
    """The value ``args`` holds for ``flag``, None for a flag its command lacks."""
    return getattr(args, flag.lstrip("-").replace("-", "_"), None)


def _require_minimums(args, minimums: dict):
    for flag, low in minimums.items():
        value = _value(args, flag)
        if value < low:
            raise ValidationError(f"{flag} must be >= {low}, got {value}")


def _weights(spec: str, upto: int, check=None):
    """Parse a ``--weights`` spec and evaluate a_upto, which an explicit list must reach.

    Only power weights can overflow, and those that can grow with the index.
    A ``check`` that reads no weights refuses the spec before its file is read.
    """
    if check is not None and not check.weighted:
        raise ValidationError(f"--weights: {check.value} reads no weights")
    try:
        w = parse_weight_spec(spec)
        w.eval(upto)
    except ValidationError as exc:
        raise ValidationError(f"--weights: {exc}") from None
    return w


# Each gen-chain model, named as its errors name it: the flags it reads (each
# one needed but --seed; an empty path counts as none), what its "needs" error
# lists, the flags its number errors name (None: the library's error stands
# alone) and its make_chain params.  A non-empty --weights-file is its own model.
_MODELS = {
    "two-state": (("--p", "--q"), "--p and --q", "--p/--q",
                  lambda a: {"p": a.p, "q": a.q}),
    "birth-death": (("--m", "--up", "--down"), "--m, --up and --down", "--up/--down",
                    lambda a: {"up": [a.up] * (a.m - 1), "down": [a.down] * (a.m - 1)}),
    "lazy-ring": (("--m", "--laziness"), "--m and --laziness", "--laziness",
                  lambda a: {"m": a.m, "laziness": a.laziness}),
    "weighted-graph with --weights-file": (
        ("--weights-file",), None, None,
        lambda a: {"weights": _load_numbers(a.weights_file, "weight matrix")}),
    "weighted-graph": (("--m", "--seed"), "--weights-file or --m", None,
                       lambda a: {"m": a.m}),
    "metropolis": (("--target-file", "--proposal-file"), "--target-file and --proposal-file",
                   None, lambda a: {"target": _load_numbers(a.target_file, "target"),
                                    "proposal": _load_numbers(a.proposal_file, "proposal")}),
}


def _cmd_gen_chain(args, argv) -> int:
    if args.seed is not None:
        _require_minimums(args, {"--seed": 0})
    model = args.model
    if model == "weighted-graph" and args.weights_file:
        model += " with --weights-file"
    reads, needs, prefix, params = _MODELS[model]
    for flag in (flag for entry in _MODELS.values() for flag in entry[0]):
        if flag not in reads and _value(args, flag) is not None:
            raise ValidationError(f"{flag}: {model} does not read it")
    if any(_value(args, flag) in (None, "") for flag in reads if flag != "--seed"):
        raise ValidationError(f"{model} needs {needs}")
    if args.m is not None:
        _require_minimums(args, {"--m": 1 if args.model == "weighted-graph" else 2})
    seed = 0 if args.seed is None else args.seed
    try:
        chain = make_chain(args.model, params(args), seed=seed)
    except ValidationError as exc:
        if prefix is None:
            raise
        raise ValidationError(f"{prefix}: {exc}") from None
    if not chain.connected:
        print(
            "note: chain is disconnected; the spectrum has multiplicity at 1",
            file=sys.stderr,
        )
    _write_text(args.out, json.dumps(dump_chain(chain), indent=2) + "\n")
    _write_sidecar(args.out, argv, seed=seed, extra={"model": args.model})
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
    _require_minimums(args, {"--probe-horizon": 4})
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
    _require_minimums(args, {"--instances": 0, "--seed": 0, "--atoms-max": 2, "--n-max": 1,
                             "--dim-max": 1, "--threads": 1})
    try:
        traced_constant(check, args.p)
    except ValidationError as exc:
        raise ValidationError(f"--p: {exc}") from None
    # the statistics of horizon n read a_1 .. a_4n, and no instance has
    # n above min(--n-max, --atoms-max - 1)
    horizon = min(args.n_max, args.atoms_max - 1)
    weights = None if args.weights is None else _weights(args.weights, 4 * horizon, check)
    # a side that overflows is refused by _report_batch
    with np.errstate(over="ignore", invalid="ignore"):
        records = verify_batch(check, args.p, args.instances, args.seed, weights,
                               args.atoms_max, args.n_max, args.dim_max)
    flags = "--p/--weights" if check.weighted else "--p"
    return _report_batch(args, argv, check, records, "instance", flags)


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
    _require_minimums(args, {"--chains": 0, "--seed": 0, "--m-max": 2, "--n-max": 1,
                             "--threads": 1})
    # the even and odd statistics of horizon n read a_1 .. a_8n
    weights = None if args.weights is None else _weights(args.weights, 8 * args.n_max, check)
    with np.errstate(over="ignore", invalid="ignore"):
        records = verify_markov_batch(check, args.chains, args.seed, weights,
                                      args.m_max, args.n_max)
    return _report_batch(args, argv, check, records, "chain", "--weights")


def _report_batch(args, argv, check, records, noun: str, flags: str) -> int:
    """Write a batch's CSV and sidecar, print its summary line, give its exit code.

    A side that is not finite is refused first, naming ``flags``, which scale the sides.
    """
    for r in records:
        if not (math.isfinite(r.lhs) and math.isfinite(r.rhs)):
            raise ValidationError(
                f"{flags}: {check.value} at p={r.p} overflows double precision on"
                f" {noun} seed {r.descriptor['seed']} (lhs {r.lhs!r}, rhs {r.rhs!r})"
            )
    _write_text(args.out, _records_to_csv(records))
    health = _verdict_health(records)
    _write_sidecar(args.out, argv, seed=args.seed,
                   extra={"check": check.value, **health})
    failures = health["violations"]
    print(f"{check.value}: {len(records)} {noun}s, {failures} violations")
    return 1 if failures else 0


def _cmd_simulate(args, argv) -> int:
    _require_minimums(args, {"--n": 1, "--trials": 1, "--paths-limit": 0, "--threads": 1})
    checkpoints = []
    c = 8
    while 2 * c <= args.n:
        checkpoints.append(c)
        c *= 2
    if args.osc_out and (not checkpoints or args.trials < MIN_DIAGNOSTIC_TRIALS):
        raise ValidationError(
            "oscillation table needs horizon >= 16 and at least "
            f"{MIN_DIAGNOSTIC_TRIALS} trials"
        )
    if args.trials < MIN_ESTIMATE_TRIALS:
        if args.estimate_out:
            raise ValidationError(
                f"--estimate-out needs --trials >= {MIN_ESTIMATE_TRIALS}, got {args.trials}"
            )
        if not (args.osc_out or args.paths_out):
            raise ValidationError(
                f"nothing to write: below {MIN_ESTIMATE_TRIALS} trials no estimate is "
                "printed, so pass --osc-out or --paths-out"
            )
    chain = load_chain(_load_json(args.chain, "chain"))
    f = load_observable(_load_json(args.observable, "observable"))
    estimating = args.trials >= MIN_ESTIMATE_TRIALS
    # the series bound of horizon n reads a_1 .. a_4n
    w = _weights(args.weights, 4 * args.n if estimating else args.n)
    seeds = [derive_trial_seed(args.master_seed, i) for i in range(args.trials)]
    powers = ChainPowers(chain, f)

    def compute_series_bound():
        moments = powers.second_moments(args.n)[1:]
        return (traced_constant(InequalityId.SECOND_MOMENT_SERIES, 2.0).value
                * series_criterion(w, moments, args.n).partial)

    # non-finite figures are refused below
    with np.errstate(over="ignore", invalid="ignore"):
        reductions, series_bound = reduce_trials(
            powers, w, args.n, seeds,
            checkpoints=checkpoints if args.osc_out else (),
            norms_limit=args.paths_limit if args.paths_out else 0,
            workers=args.threads,
            meanwhile=compute_series_bound if estimating else None,
        )
    max_square = float(reductions.max_squares.max())
    if not math.isfinite(max_square) or (estimating and not math.isfinite(series_bound)):
        raise ValidationError(
            f"--weights: {w.describe()} overflows double precision in the series"
            f" (largest max square {max_square!r}, series bound {series_bound!r})"
        )

    exit_code = 0
    if args.osc_out:
        table = reductions.oscillation
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
        with _open_text(args.paths_out) as fh:
            fh.write("trial,k,T_k\n")
            for trial, norms in enumerate(reductions.norms):
                fh.write("".join([f"{trial},{k},{_fmt(x)}\n"
                                  for k, x in enumerate(norms.tolist(), 1)]))
        _write_sidecar(args.paths_out, argv, seed=args.master_seed)

    if estimating:
        estimate, se = jackknife_mean(reductions.max_squares)
        within = bool(estimate <= series_bound + 3.0 * se)
        print(
            f"max-moment estimate {estimate:.6g} (se {se:.3g}); "
            f"series bound {series_bound:.6g}; within bound: {within}"
        )
        if args.estimate_out:
            payload = {
                "estimate": estimate,
                "standard_error": se,
                "trials": args.trials,
                "series_bound": series_bound,
                "within_bound": within,
            }
            _write_text(args.estimate_out, json.dumps(payload, indent=2) + "\n")
            # a zero bound that holds is skipped, as a verify row with rhs 0 is
            skipped = within and not series_bound
            margin = estimate / series_bound if series_bound else math.inf
            _write_sidecar(
                args.estimate_out, argv, seed=args.master_seed,
                extra={"violations": int(not within), "skipped": int(skipped),
                       "worst_margin": None if skipped else _json_number(margin)},
            )
        if not within:
            exit_code = 1
    return exit_code


def _cmd_report(args, argv) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            lines = fh.read().strip().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read report input {args.input!r}: {exc}")
    if not lines or lines[0] != CSV_HEADER:
        raise ValidationError(
            f"report input {args.input!r} does not carry the verification header"
        )
    width = CSV_HEADER.count(",") + 1
    rows = [line.split(",") for line in lines[1:]]
    dat = ["# index ratio constant pass"]
    summary: dict[tuple, list] = {}
    for i, row in enumerate(rows):
        where = f"report input {args.input!r} line {i + 2}"
        if len(row) != width:
            raise ValidationError(f"{where} has {len(row)} fields, expected {width}")
        check, p, ratio, constant, flag = row[0], row[1], row[8], row[9], row[10]
        if flag not in ("true", "false", "skipped"):
            raise ValidationError(f"{where} has pass {flag!r}, not true, false or skipped")
        for name, field in (("p", p), ("ratio", ratio), ("constant", constant)):
            try:
                float(field)
            except ValueError:
                raise ValidationError(f"{where} has {name} {field!r}, not a number") from None
        dat.append(f"{i} {ratio} {constant} {1 if flag == 'true' else 0}")
        key = (check, p)
        entry = summary.setdefault(key, [0, 0, 0.0])
        entry[0] += 1
        if flag == "false":
            entry[1] += 1
        if flag == "true" and ratio != "nan":
            entry[2] = max(entry[2], float(ratio))
    text = ["check p count violations max_ratio"]
    for (check, p), (count, bad, worst) in sorted(summary.items()):
        text.append(f"{check} {p} {count} {bad} {_fmt(worst)}")
    for suffix, lines in zip(_OUTPUTS["--out-prefix"], (dat, text)):
        _write_text(args.out_prefix + suffix, "\n".join(lines) + "\n")
        _write_sidecar(args.out_prefix + suffix, argv)
    return 0


_SCHEMAS = """file schemas:
  chain JSON        {"states": [...], "pi": [...optional...], "Q": [[rows]]}
  observable JSON   {"dim": d, "values": [[per-state vector], ...]}
  problem JSON      {"probs": [...], "partitions": [[[atom idx]...]...],
                     "dim": d, "terms": [[[per-atom vector]...]...]}
                    (library only: finite_prob.load_problem reads it)
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
    threads = argparse.ArgumentParser(add_help=False)
    threads.add_argument("--threads", type=int, default=1,
                         help="accepted, but the command runs in one process: after a "
                              "fork, copy-on-write faults slow both processes by more "
                              "than a second worker saves on its 10-20 ms batches")

    gen = sub.add_parser(
        "gen-chain",
        help="write a reversible chain as JSON {states, pi, Q}",
    )
    gen.add_argument("--model", required=True, choices=CHAIN_MODELS)
    gen.add_argument("--p", type=float, help="two-state flip probability from state 0")
    gen.add_argument("--q", type=float, help="two-state flip probability from state 1")
    gen.add_argument("--m", type=int, help="number of states")
    gen.add_argument("--up", type=float, help="birth-death upward probability")
    gen.add_argument("--down", type=float, help="birth-death downward probability")
    gen.add_argument("--laziness", type=float, help="lazy-ring holding probability")
    gen.add_argument("--weights-file", help="JSON symmetric weight matrix")
    gen.add_argument("--target-file", help="JSON target law for metropolis")
    gen.add_argument("--proposal-file", help="JSON symmetric proposal for metropolis")
    gen.add_argument("--seed", type=int, help="seed for random weights")
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
        parents=[threads],
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
    ver.add_argument("-o", "--out", required=True)

    vmk = sub.add_parser(
        "verify-markov",
        parents=[threads],
        help="chain inequalities on generated chains, CSV report",
    )
    vmk.add_argument("--id", dest="check", required=True,
                     choices=[c.value for c in MarkovCheck])
    vmk.add_argument("--chains", type=int, default=100)
    vmk.add_argument("--seed", type=int, default=0)
    vmk.add_argument("--weights", default=None)
    vmk.add_argument("--m-max", type=int, default=50)
    vmk.add_argument("--n-max", type=int, default=128)
    vmk.add_argument("-o", "--out", required=True)

    sim = sub.add_parser(
        "simulate",
        help="stationary-path series diagnostics and Monte Carlo max moment",
    )
    sim.add_argument("--threads", type=int, default=1,
                     help="processes, at most one per CPU: each forked worker samples "
                          "and reduces its own range of trials; the outputs are "
                          "identical for any value")
    sim.add_argument("--chain", required=True)
    sim.add_argument("--observable", required=True)
    sim.add_argument("--weights", required=True)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--trials", type=int, default=200)
    sim.add_argument("--master-seed", type=int, default=0)
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


# the options that name a file or a file prefix a command writes, each with the
# suffixes of the files it names; every file also gets a .meta.json sidecar
_OUTPUTS = {"--out": ("",), "--osc-out": ("",), "--paths-out": ("",), "--estimate-out": ("",),
            "--out-prefix": ("_ratios.dat", "_summary.txt")}


# the files each command reads, named as its errors name them; a --weights spec
# reads one more, explicit:@FILE under any number of alternating:
_INPUTS = {"spectrum": ("chain", "observable"), "check-conditions": ("chain", "observable"),
           "simulate": ("--chain", "--observable"), "report": ("--input",),
           "gen-chain": ("--weights-file", "--target-file", "--proposal-file")}


def _file_id(path: str):
    """The (st_dev, st_ino) of a file that exists, else its directory's and its name:
    one key for every spelling of a file, links included.  None if neither exists."""
    for target, name in ((path, None), os.path.split(path)):
        try:
            st = os.stat(target or ".")
        except OSError:
            continue
        return st.st_dev, st.st_ino, name
    return None


def _require_output_dirs(args):
    """Refuse an output path in a missing directory, then any file the command writes,
    sidecars included, that has no name, is a directory, or that the command reads or
    another option writes too."""
    spec = re.fullmatch(r"(?:alternating:)*explicit:@(.*)", _value(args, "--weights") or "", re.S)
    reads = [(flag, _value(args, flag)) for flag in _INPUTS.get(args.command, ())]
    seen = {_file_id(path): (flag, "reads it")
            for flag, path in reads + [("--weights", spec and spec[1])] if path}
    for flag, suffixes in _OUTPUTS.items():
        path = _value(args, flag)
        if path is None:
            continue
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ValidationError(f"{flag}: cannot write {path!r}: No such file or directory")
        if not path:
            raise ValidationError(f"{flag}: cannot write '': the name is empty")
        for name in (path + suffix + meta for suffix in suffixes for meta in ("", ".meta.json")):
            if os.path.isdir(name):
                raise ValidationError(f"{flag}: cannot write {name!r}: Is a directory")
            other, verb = seen.setdefault(_file_id(name), (flag, "writes it too"))
            if other != flag:
                raise ValidationError(f"{flag}: cannot write {name!r}: {other} {verb}")


def run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        _require_output_dirs(args)
        return _HANDLERS[args.command](args, argv)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():  # pragma: no cover
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":  # python -m revmax.cli
    main()
