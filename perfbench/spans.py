"""Per-layer timing of revmax, wrapped from outside the package.

``Tracer.install`` replaces each traced function in every ``revmax.*``
module namespace that binds it (so ``revmax.inequalities.cond_expect`` and
``revmax.finite_prob.cond_expect`` are both wrapped) and each traced method
on its class; ``uninstall`` puts the originals back.  No file under ``src/``
changes.

A wrapper opens a span on entry and closes it on return.  Spans nest on one
stack; a span's self time is its duration minus the durations of the spans
it directly contains.  Spans are aggregated per function name in memory
(calls, total, self) and written out once, when the benchmark ends: the
simulate workload closes hundreds of thousands of spans per command, too
many to keep one record each.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# Function or method -> per-layer group.  A group's time is the summed self
# time of its spans.  Public functions not named here are not wrapped.
GROUPS = {
    "finite_prob.DecreasingFiltration.__init__": "finite_prob.filtration_build",
    "finite_prob.cond_expect": "finite_prob.cond_expect",
    "finite_prob.exact_max_moment": "finite_prob.max_moment",
    "finite_prob.reverse_mart_diff": "finite_prob.other",
    "finite_prob.adapted_partial_sums": "finite_prob.other",
    "finite_prob.decomposition_residual": "finite_prob.other",
    "finite_prob.orthogonality_gap": "finite_prob.other",
    "finite_prob.load_problem": "finite_prob.other",
    "inequalities.random_instance": "inequalities.instance",
    "inequalities.verify": "inequalities.verify",
    "inequalities.verify_batch": "inequalities.other",
    "inequalities.traced_constant": "inequalities.other",
    "inequalities.doob_factor": "inequalities.other",
    "inequalities.triangle_factor": "inequalities.other",
    "inequalities.smoothness_factor": "inequalities.other",
    "inequalities.series_criterion": "inequalities.other",
    "weights.compute_stats": "weights.stats",
    "weights.parse_weight_spec": "weights.stats",
    "weights.WeightSequence.eval_range": "weights.stats",
    "markov.ReversibleChain.__init__": "markov.chain_build",
    "markov.two_state": "markov.chain_build",
    "markov.birth_death": "markov.chain_build",
    "markov.lazy_ring": "markov.chain_build",
    "markov.weighted_graph": "markov.chain_build",
    "markov.metropolis_chain": "markov.chain_build",
    "markov.make_chain": "markov.chain_build",
    "markov.random_chain_instance": "markov.chain_build",
    "markov.load_chain": "markov.chain_build",
    "markov.dump_chain": "markov.chain_build",
    "markov.load_observable": "markov.chain_build",
    "markov.dump_observable": "markov.chain_build",
    "markov.jacobi_eigendecomposition": "markov.jacobi",
    "markov.spectral_measure": "markov.spectral",
    "markov.check_conditions": "markov.conditions",
    "markov.dl_integral": "markov.conditions",
    "markov.variance_growth": "markov.conditions",
    "markov.ChainPowers.get": "markov.powers",
    "markov.ChainPowers.second_moment": "markov.powers",
    "markov.apply_power": "markov.powers",
    "markov.autocovariance": "markov.powers",
    "markov.weighted_series": "markov.series",
    "markov.verify_markov_inequality": "markov.check",
    "markov.markov_traced_constant": "markov.check",
    "markov.even_odd_split_residual": "markov.check",
    "markov.inspect_growth_weights": "markov.check",
    "simulate.derive_trial_seed": "simulate.sample",
    "simulate.sample_trajectories": "simulate.sample",
    "simulate.sample_trajectory": "simulate.sample",
    "simulate.series_paths": "simulate.paths",
    "simulate.series_path": "simulate.paths",
    "simulate.mc_max_moment": "simulate.paths",
    "simulate.enumerate_max_moment": "simulate.paths",
    "simulate.as_convergence_diagnostic": "simulate.diagnostic",
    "cli.run": "cli.self",
}

# Counted, never spanned: called up to 8n times per command, where a span
# would cost more than the call.
COUNTED = ("weights.WeightSequence.eval",)

# Called by the CLI for every output file; counted in bytes, its time stays
# in ``cli.self``.
BYTES = ("cli._write_text",)


def _lookup(name: str):
    module, *path = name.split(".")
    owner = sys.modules[f"revmax.{module}"]
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


class Tracer:
    """Span stack plus per-name aggregates for one traced phase or more."""

    def __init__(self):
        self.stack = [0.0]
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.counts = {name: 0 for name in COUNTED}
        self.bytes_written = 0
        self.steps = 0
        self.paths_bytes = 0
        self._patches = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        stack = self.stack
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        observe = {
            "simulate.sample_trajectories": self._observe_steps,
            "simulate.series_paths": self._observe_paths,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = stack.pop()
                stack[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - inner
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _observe_steps(self, states):
        self.steps += states.shape[0] * (states.shape[1] - 1)

    def _observe_paths(self, paths):
        self.paths_bytes = max(self.paths_bytes, paths.nbytes)

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _byte_counter(self, fn):
        @functools.wraps(fn)
        def wrapper(path, text):
            self.bytes_written += len(text.encode("utf-8"))
            return fn(path, text)

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self):
        for name in GROUPS:
            self._replace(name, functools.partial(self._span, name))
        for name in COUNTED:
            self._replace(name, functools.partial(self._counter, name))
        for name in BYTES:
            self._replace(name, self._byte_counter)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _replace(self, name, wrap):
        """Bind ``wrap(original)`` wherever revmax binds the original."""
        owner, attr = _lookup(name)
        original = getattr(owner, attr)
        wrapper = wrap(original)
        if isinstance(owner, type):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for modname, module in list(sys.modules.items()):
            if modname != "revmax" and not modname.startswith("revmax."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)

    # -- results ------------------------------------------------------------

    def layer_metrics(self, cycles: int, scale: float) -> dict:
        """Per-layer figures per traced cycle, as {name: (value, unit)}.

        Times are multiplied by ``scale``, the host-speed rescaling of the
        traced cycles.
        """
        self_ms = {}
        for name, (_, _, self_s) in self.stats.items():
            group = GROUPS[name]
            self_ms[group] = self_ms.get(group, 0.0) + self_s * 1e3 * scale
        calls = {name: c for name, (c, _, _) in self.stats.items()}

        def ms(group):
            return (self_ms.get(group, 0.0) / cycles, "ms")

        def count(value):
            return (value // cycles, "count")

        sample_s = self.stats.get("simulate.sample_trajectories", [0, 0.0, 0.0])[2]
        return {
            "finite_prob.filtration_build_ms": ms("finite_prob.filtration_build"),
            "finite_prob.filtrations": count(
                calls.get("finite_prob.DecreasingFiltration.__init__", 0)),
            "finite_prob.cond_expect_ms": ms("finite_prob.cond_expect"),
            "finite_prob.cond_expect_calls": count(calls.get("finite_prob.cond_expect", 0)),
            "finite_prob.max_moment_ms": ms("finite_prob.max_moment"),
            "finite_prob.other_ms": ms("finite_prob.other"),
            "inequalities.instance_ms": ms("inequalities.instance"),
            "inequalities.instances": count(calls.get("inequalities.random_instance", 0)),
            "inequalities.verify_ms": ms("inequalities.verify"),
            "inequalities.other_ms": ms("inequalities.other"),
            "weights.stats_ms": ms("weights.stats"),
            "weights.evals": count(self.counts["weights.WeightSequence.eval"]),
            "markov.chain_build_ms": ms("markov.chain_build"),
            "markov.jacobi_ms": ms("markov.jacobi"),
            "markov.jacobi_calls": count(calls.get("markov.jacobi_eigendecomposition", 0)),
            "markov.spectral_ms": ms("markov.spectral"),
            "markov.conditions_ms": ms("markov.conditions"),
            "markov.powers_ms": ms("markov.powers"),
            "markov.powers_calls": count(calls.get("markov.ChainPowers.get", 0)),
            "markov.series_ms": ms("markov.series"),
            "markov.check_ms": ms("markov.check"),
            "simulate.sample_ms": ms("simulate.sample"),
            "simulate.steps_per_s": (self.steps / (sample_s * scale) if sample_s else 0.0,
                                     "steps/s"),
            "simulate.paths_ms": ms("simulate.paths"),
            "simulate.diagnostic_ms": ms("simulate.diagnostic"),
            "simulate.paths_mb": (self.paths_bytes / 1e6, "MB"),
            "cli.self_ms": ms("cli.self"),
            "cli.bytes_written": (self.bytes_written // cycles, "bytes"),
        }

    def dump(self, path):
        """Write the per-name span aggregates as JSON."""
        spans = {
            name: {"calls": c, "total_ms": t * 1e3, "self_ms": s * 1e3,
                   "group": GROUPS[name]}
            for name, (c, t, s) in sorted(self.stats.items()) if c
        }
        payload = {"spans": spans, "counts": self.counts,
                   "bytes_written": self.bytes_written, "steps": self.steps}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
