"""The four benchmark workloads: inputs, command rounds and output checks.

A workload is a closed loop of ``revmax`` commands issued in rounds.  Round
``r`` is a fixed list of command lines derived from the run's seed and
``r``; every run executes whole rounds.  Rounds ``0 .. cycle - 1`` form one
traced cycle, so that a traced run repeats exactly the same work in every
cycle.  ``check`` compares the outputs against ``oracles`` and returns one
message per problem found.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import oracles
from revmax import cli
from revmax.inequalities import random_instance
from revmax.markov import random_chain_instance

THREADS = ["--threads", "2"]
VERIFY_HEADER = "id,p,seed,atoms,n,dim,lhs,rhs,ratio,constant,pass"
PASS_SLACK = 1e-12
DEGENERATE_LHS = 1e-12


@dataclass
class Command:
    argv: list
    items: int
    outputs: list  # paths whose bytes are read back after the command
    meta: dict = field(default_factory=dict)


@dataclass
class Record:
    command: Command
    rc: object  # exit code, or the exception the command raised
    stdout: str
    outputs: dict  # path -> bytes

    @property
    def failed(self) -> bool:
        return not isinstance(self.rc, int) or self.rc not in (0, 1)


def _run_cli(argv):
    """Exit code of an untimed set-up or check command; stdout is discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.run([str(a) for a in argv])


def _write_json(path: Path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")


def _gen_chain(path: Path, *flags):
    rc = _run_cli(["gen-chain", *flags, "-o", path])
    if rc != 0:
        raise RuntimeError(f"gen-chain {' '.join(map(str, flags))} exited {rc}")
    return json.loads(path.read_text(encoding="utf-8"))


def _observable(path: Path, values):
    values = np.asarray(values, dtype=float).reshape(len(values), -1)
    _write_json(path, {"dim": int(values.shape[1]), "values": values.tolist()})
    return values


def _verification_rows(record: Record, path: str):
    text = record.outputs[path].decode("utf-8")
    lines = text.splitlines()
    if not lines or lines[0] != VERIFY_HEADER:
        return None
    return list(csv.DictReader(io.StringIO(text)))


def command_seed(seed: int, r: int, i: int, per_round: int) -> int:
    """CLI seed of command i of round r.

    Every command draws its own instances: with one seed per round, the 16
    commands of a round would all verify the same 8 shapes, and the cost of
    a run would follow the few shapes its seed happens to draw.
    """
    return seed * 1_000_000 + r * per_round + i


def _check_verification(record: Record, path: str, expected_rows: int, label: str):
    """Row count, pass flags, exit code and summary line of a verification CSV."""
    problems = []
    rows = _verification_rows(record, path)
    if rows is None:
        return [f"{label}: missing verification header"], []
    if len(rows) != expected_rows:
        problems.append(f"{label}: {len(rows)} rows, expected {expected_rows}")
    violations = 0
    for i, row in enumerate(rows):
        lhs, rhs, constant = float(row["lhs"]), float(row["rhs"]), float(row["constant"])
        bound = constant * rhs
        if rhs == 0.0:
            expected = "skipped" if lhs <= DEGENERATE_LHS else "false"
        else:
            held = lhs <= bound + PASS_SLACK * (1.0 + abs(bound))
            expected = "true" if held else "false"
        if row["pass"] != expected:
            problems.append(f"{label} row {i}: pass={row['pass']}, expected {expected}")
        violations += expected == "false"
    if record.rc != (1 if violations else 0):
        problems.append(f"{label}: exit {record.rc} with {violations} violations")
    if f"{len(rows)} " not in record.stdout or f"{violations} violations" not in record.stdout:
        problems.append(f"{label}: summary line {record.stdout.strip()!r}")
    return problems, rows


class Workload:
    name = ""
    cycle = 1  # rounds per traced cycle
    repeat_all = False  # every command line must run twice for the byte check
    host_rescaled = True  # command times are rescaled by run.HostSpeed

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def setup(self):
        """Write the input files the commands read."""

    def round(self, r: int) -> list:
        raise NotImplementedError

    def check(self, records) -> list:
        raise NotImplementedError

    def reference(self, speed) -> dict:
        """Extra per-layer reference figures for the traced run."""
        return {}


class FiltrationVerify(Workload):
    """`verify` over the criterion-3 grid plus smoothness, default shapes."""

    name = "filtration-verify"
    cycle = 3
    instances = 8
    grid = (
        ("max-vs-endpoint", "1.5"), ("max-vs-endpoint", "2"), ("max-vs-endpoint", "3"),
        ("max-vs-projections", "1.5"), ("max-vs-projections", "2"),
        ("weighted-max-vs-endpoint", "1.5"), ("weighted-max-vs-endpoint", "2"),
        ("weighted-max-vs-endpoint", "3"),
        ("weighted-max-vs-projections", "1.5"), ("weighted-max-vs-projections", "2"),
        ("dyadic-weighted-max", "1.5"), ("dyadic-weighted-max", "2"),
        ("dyadic-weighted-max", "3"),
        ("second-moment-series", "2"),
        ("smoothness", "1.5"), ("smoothness", "2"),
    )
    weighted = {"weighted-max-vs-endpoint", "weighted-max-vs-projections",
                "dyadic-weighted-max", "second-moment-series"}
    # rows recomputed by the oracle: one per command of the first rounds
    oracle_commands = 48

    def round(self, r):
        commands = []
        for i, (check, p) in enumerate(self.grid):
            out = str(self.work / f"verify-{i:02d}.csv")
            seed = command_seed(self.seed, r, i, len(self.grid))
            argv = ["verify", "--id", check, "--p", p, "--instances", str(self.instances),
                    "--seed", str(seed), *THREADS, "-o", out]
            if check in self.weighted:
                argv += ["--weights", "power:-0.5"]
            commands.append(Command(argv, self.instances, [out],
                                    {"check": check, "p": float(p)}))
        return commands

    def check(self, records):
        problems = []
        weights = np.arange(1, 33, dtype=float) ** -0.5
        checked = 0
        for k, record in enumerate(records):
            cmd = record.command
            label = " ".join(cmd.argv[:5])
            found, rows = _check_verification(record, cmd.outputs[0], self.instances, label)
            problems += found
            for row in rows:
                if row["id"] != cmd.meta["check"] or float(row["p"]) != cmd.meta["p"]:
                    problems.append(f"{label}: row names {row['id']} p={row['p']}")
            if k >= self.oracle_commands or not rows:
                continue
            row = rows[k % len(rows)]
            n, atoms, dim = int(row["n"]), int(row["atoms"]), int(row["dim"])
            inst = random_instance(int(row["seed"]), atoms=atoms, levels=n + 1, n=n, dim=dim)
            labels = [inst.filtration.labels(j) for j in range(1, n + 2)]
            terms = [t.values for t in inst.sequence.terms]
            lhs = oracles.filtration_lhs(cmd.meta["check"], cmd.meta["p"],
                                         inst.space.probs, labels, terms, weights)
            if not oracles.close(lhs, float(row["lhs"]), 1e-12):
                problems.append(f"{label} seed {row['seed']}: lhs {row['lhs']}, oracle {lhs!r}")
            checked += 1
        if checked == 0:
            problems.append("no row was recomputed")
        return problems


class ChainSpectra(Workload):
    """`spectrum` then `check-conditions` on fixed 64-state chains."""

    name = "chain-spectra"
    cycle = 2
    states = 64

    def setup(self):
        rng = np.random.default_rng(self.seed)
        m = self.states
        work = self.work
        target = work / "target.json"
        proposal = work / "proposal.json"
        _write_json(target, rng.uniform(0.2, 1.0, m).tolist())
        _write_json(proposal, np.full((m, m), 1.0 / m).tolist())
        up, down = rng.uniform(0.1, 0.45, 2)
        models = {
            "weighted-graph": ["--model", "weighted-graph", "--m", m, "--seed", self.seed],
            "birth-death": ["--model", "birth-death", "--m", m, "--up", up, "--down", down],
            "ring-periodic": ["--model", "lazy-ring", "--m", m, "--laziness", "0"],
            "ring-lazy": ["--model", "lazy-ring", "--m", m,
                          "--laziness", rng.uniform(0.3, 0.9)],
            "metropolis": ["--model", "metropolis", "--target-file", target,
                           "--proposal-file", proposal],
        }
        self.pairs = []
        for name, flags in models.items():
            chain_path = work / f"{name}.json"
            chain = _gen_chain(chain_path, *flags)
            pi = np.asarray(chain["pi"])
            raw = rng.standard_normal(m)
            for centered, values in ((True, raw - pi @ raw), (False, raw + 0.5)):
                obs_path = work / f"{name}-{'c' if centered else 'u'}.json"
                self.pairs.append({"chain": chain_path, "obs": obs_path, "Q": chain["Q"],
                                   "pi": pi, "f": _observable(obs_path, values),
                                   "centered": centered,
                                   "name": name})

    def round(self, r):
        commands = []
        for i in range(len(self.pairs) // 2):
            pair = self.pairs[2 * i + (i + r) % 2]
            stem = self.work / f"{pair['name']}-{'c' if pair['centered'] else 'u'}"
            spec, cond = f"{stem}-spectrum.csv", f"{stem}-conditions.json"
            commands.append(Command(["spectrum", str(pair["chain"]), str(pair["obs"]),
                                     "-o", spec], 1, [spec], {"pair": pair}))
            commands.append(Command(["check-conditions", str(pair["chain"]),
                                     str(pair["obs"]), "-o", cond], 1, [cond],
                                    {"pair": pair}))
        return commands

    def check(self, records):
        problems = []
        seen = set()
        for record in records:
            cmd = record.command
            key = (cmd.argv[0], cmd.outputs[0])
            if key in seen:
                continue  # repeats are compared byte for byte in run.py
            seen.add(key)
            pair = cmd.meta["pair"]
            label = f"{cmd.argv[0]} {pair['name']} {'centered' if pair['centered'] else 'uncentered'}"
            text = record.outputs[cmd.outputs[0]].decode("utf-8")
            if cmd.argv[0] == "spectrum":
                problems += self._check_spectrum(label, record, text, pair)
            else:
                problems += self._check_conditions(label, record, text, pair)
        return problems

    @staticmethod
    def _check_spectrum(label, record, text, pair):
        if record.rc != 0:
            return [f"{label}: exit {record.rc}"]
        lines = text.splitlines()
        if lines[0] != "lambda,mass":
            return [f"{label}: header {lines[0]!r}"]
        atoms = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        lam, mass = atoms[:, 0], atoms[:, 1]
        problems = []
        if np.any(lam < -1.0) or np.any(lam > 1.0):
            problems.append(f"{label}: eigenvalue outside [-1, 1]")
        acov = oracles.autocovariances(pair["Q"], pair["pi"], pair["f"], 20)
        for k, value in enumerate(acov):
            got = float((mass * lam ** k).sum())
            if not oracles.close(got, value, 1e-9, scale=acov[0]):
                problems.append(f"{label}: moment {k} is {got!r}, oracle {value!r}")
        return problems

    @staticmethod
    def _check_conditions(label, record, text, pair):
        report = json.loads(text)
        flags = [report[k] for k in ("a_bounded", "b_bounded", "c_finite", "d_finite",
                                     "e_member")]
        problems = []
        if record.rc != (0 if report["all_equivalent"] else 1):
            problems.append(f"{label}: exit {record.rc}")
        if flags != [pair["centered"]] * 5 or not report["all_equivalent"]:
            problems.append(f"{label}: conditions {flags}")
        if pair["centered"]:
            d_value, sigma2 = oracles.spectral_integrals(pair["Q"], pair["pi"], pair["f"])
            for key, value in (("d_integral", d_value), ("c_sigma2", sigma2)):
                got = report[key]
                if not isinstance(got, float) or not oracles.close(got, value, 1e-9):
                    problems.append(f"{label}: {key} {got!r}, oracle {value!r}")
        else:
            if report["d_integral"] != "inf" or report["c_sigma2"] != "inf":
                problems.append(f"{label}: d_integral {report['d_integral']!r},"
                                f" c_sigma2 {report['c_sigma2']!r}")
            mean = float(pair["pi"] @ pair["f"][:, 0])
            if not oracles.close(report["unit_mass"], mean ** 2, 1e-9):
                problems.append(f"{label}: unit_mass {report['unit_mass']!r},"
                                f" oracle {mean ** 2!r}")
        return problems

    def reference(self, speed):
        """Rescaled time of one untraced `spectrum` on a 200-state chain."""
        m = 200
        path = self.work / "reference-200.json"
        chain = _gen_chain(path, "--model", "weighted-graph", "--m", m, "--seed", self.seed)
        values = np.random.default_rng(self.seed).standard_normal(m)
        obs = self.work / "reference-200-f.json"
        _observable(obs, values - np.asarray(chain["pi"]) @ values)
        speed.rescale(0.0)
        start = perf_counter()
        rc = _run_cli(["spectrum", path, obs, "-o", self.work / "reference-200.csv"])
        elapsed = speed.rescale(perf_counter() - start)
        if rc != 0:
            raise RuntimeError(f"reference spectrum exited {rc}")
        return {"markov.spectrum_m200_ms": (elapsed * 1e3, "ms")}


class ChainMaxima(Workload):
    """`verify-markov` for all six chain checks on generated chains."""

    name = "chain-maxima"
    cycle = 16
    chains = 20
    checks = (
        ("weighted-power-max", "power:-0.5"),
        ("weighted-power-max", "constant:1.0"),
        ("unit-weight-power-max", None),
        ("inv-sqrt-power-max", None),
        ("paired-power-max", None),
        ("stein", None),
        ("sup-power-max", None),
    )
    oracle_commands = 70

    def round(self, r):
        commands = []
        for i, (check, weights) in enumerate(self.checks):
            out = str(self.work / f"markov-{i}.csv")
            seed = command_seed(self.seed, r, i, len(self.checks))
            argv = ["verify-markov", "--id", check, "--chains", str(self.chains),
                    "--seed", str(seed), *THREADS, "-o", out]
            if weights:
                argv += ["--weights", weights]
            commands.append(Command(argv, self.chains, [out],
                                    {"check": check, "weights": weights}))
        return commands

    def check(self, records):
        problems = []
        checked = 0
        for k, record in enumerate(records):
            cmd = record.command
            label = " ".join(cmd.argv[:3] + ([cmd.meta["weights"]] if cmd.meta["weights"] else []))
            found, rows = _check_verification(record, cmd.outputs[0], self.chains, label)
            problems += found
            for row in rows:
                if row["id"] != cmd.meta["check"]:
                    problems.append(f"{label}: row names {row['id']}")
            if k >= self.oracle_commands or not rows:
                continue
            row = rows[k % len(rows)]
            chain, f = random_chain_instance(int(row["seed"]), m_max=50)
            n = int(row["n"])
            weights = None
            if cmd.meta["weights"] == "power:-0.5":
                weights = np.arange(1, 2 * n + 1, dtype=float) ** -0.5
            elif cmd.meta["weights"] == "constant:1.0":
                weights = np.ones(2 * n)
            lhs = oracles.chain_check_lhs(cmd.meta["check"], chain.transition,
                                          chain.stationary, f.values, n, weights)
            if int(row["atoms"]) != chain.m or not oracles.close(lhs, float(row["lhs"]), 1e-10):
                problems.append(f"{label} seed {row['seed']}: lhs {row['lhs']}, oracle {lhs!r}")
            checked += 1
        if checked == 0:
            problems.append("no row was recomputed")
        return problems


class SimulatePaths(Workload):
    """`simulate` at 200 trials x 2^16 steps on two chains."""

    name = "simulate-paths"
    cycle = 1
    repeat_all = True
    # Its 100-210 MB path arrays make it bound by memory speed, which the
    # host-speed probe does not follow, so its command times stay wall time.
    host_rescaled = False
    trials = 200
    horizon = 2 ** 16

    def setup(self):
        rng = np.random.default_rng(self.seed)
        work = self.work
        bd = _gen_chain(work / "birth-death.json", "--model", "birth-death", "--m", 10,
                        "--up", 0.3, "--down", 0.3)
        values = np.arange(10.0)
        bd_f = _observable(work / "birth-death-f.json",
                           values - np.asarray(bd["pi"]) @ values)
        wg = _gen_chain(work / "graph.json", "--model", "weighted-graph", "--m", 50,
                        "--seed", self.seed)
        values = rng.standard_normal((50, 2))
        wg_f = _observable(work / "graph-f.json", values - np.asarray(wg["pi"]) @ values)
        self.inputs = [("birth-death", bd, bd_f), ("graph", wg, wg_f)]

    def round(self, r):
        commands = []
        for name, chain, f in self.inputs:
            osc = str(self.work / f"{name}-osc.csv")
            est = str(self.work / f"{name}-estimate.json")
            argv = ["simulate", "--chain", str(self.work / f"{name}.json"),
                    "--observable", str(self.work / f"{name}-f.json"),
                    "--weights", "power:-0.5", "--n", str(self.horizon),
                    "--trials", str(self.trials), "--master-seed", str(self.seed),
                    *THREADS, "--osc-out", osc, "--estimate-out", est]
            commands.append(Command(argv, self.trials * self.horizon, [osc, est],
                                    {"name": name, "Q": chain["Q"], "f": f}))
        return commands

    def check(self, records):
        problems = []
        weights = np.arange(1, self.horizon + 1, dtype=float) ** -0.5
        repeats = {}
        for record in records:
            name = record.command.meta["name"]
            repeats[name] = repeats.get(name, 0) + 1
            if repeats[name] > 1:
                continue  # repeats are compared byte for byte in run.py
            cmd = record.command
            osc_path, est_path = cmd.outputs
            est = json.loads(record.outputs[est_path])
            bound = oracles.series_sup_bound(cmd.meta["Q"], cmd.meta["f"], weights) ** 2
            if not 0.0 <= est["estimate"] <= bound:
                problems.append(f"{name}: estimate {est['estimate']!r} outside [0, {bound!r}]")
            if not est["standard_error"] > 0.0 or est["trials"] != self.trials:
                problems.append(f"{name}: standard error {est['standard_error']!r}")
            if record.rc != (0 if est["within_bound"] else 1):
                problems.append(f"{name}: exit {record.rc}, within_bound {est['within_bound']}")
            lines = record.outputs[osc_path].decode("utf-8").splitlines()
            expected = [str(2 ** k) for k in range(3, 16)]
            if lines[0] != "checkpoint,median_osc,q95_osc" or \
                    [line.split(",")[0] for line in lines[1:]] != expected:
                problems.append(f"{name}: oscillation table rows {lines[:2]}")
            for line in lines[1:]:
                _, median, q95 = (float(x) for x in line.split(","))
                if not 0.0 <= median <= q95:
                    problems.append(f"{name}: oscillation row {line}")
        if sorted(repeats) != ["birth-death", "graph"] or min(repeats.values()) < 2:
            problems.append(f"commands ran {repeats} times; each needs two runs")
        return problems + self._check_small_horizon()

    def _check_small_horizon(self):
        """Monte Carlo at horizon 8 on the two-state chain vs path enumeration."""
        n, trials = 8, 400
        chain = _gen_chain(self.work / "two-state.json", "--model", "two-state",
                           "--p", 0.25, "--q", 0.25)
        f = _observable(self.work / "two-state-f.json", [1.0, -1.0])
        est_path = self.work / "two-state-estimate.json"
        rc = _run_cli(["simulate", "--chain", self.work / "two-state.json",
                       "--observable", self.work / "two-state-f.json",
                       "--weights", "power:-0.5", "--n", n, "--trials", trials,
                       "--master-seed", 10, "--estimate-out", est_path])
        if rc != 0:
            return [f"two-state simulate exited {rc}"]
        est = json.loads(est_path.read_text(encoding="utf-8"))
        weights = np.arange(1, n + 1, dtype=float) ** -0.5
        exact = oracles.path_enumeration_max_moment(chain["Q"], chain["pi"], f, weights)
        if not abs(est["estimate"] - exact) <= 3.0 * est["standard_error"]:
            return [f"two-state: estimate {est['estimate']!r} (se {est['standard_error']!r})"
                    f" vs enumeration {exact!r}"]
        return []


WORKLOADS = {w.name: w for w in (FiltrationVerify, ChainSpectra, ChainMaxima, SimulatePaths)}
