"""What each check declares about itself, and what a batch reads once.

Every ``InequalityId`` declares its exponent range and whether it reads a
weight sequence; every ``MarkovCheck`` whether it takes only a scalar
observable.  These tests hold the library to those declarations, to one
traced-constant read per batch, and to refusing a negative seed by name.
"""

import collections
import math
import re

import numpy as np
import pytest

from revmax import (
    InequalityId,
    MarkovCheck,
    ValidationError,
    WeightSequence,
    inequalities,
    markov,
    random_chain_instance,
    random_instance,
    traced_constant,
    verify,
    verify_batch,
    verify_markov_inequality,
)
from revmax.markov import make_chain, verify_markov_batch

# what each declared range means, stated here independently of the library
RANGES = {
    "1 < p < inf": lambda p: 1 < p < math.inf,
    "1 < p <= 2": lambda p: 1 < p <= 2,
    "p = 2": lambda p: p == 2,
}


@pytest.mark.parametrize("p", [1.0, 1.0 + 1e-9, 1.5, 2.0, 2.0 + 1e-9, 3.0, math.inf, math.nan])
@pytest.mark.parametrize("check", list(InequalityId))
def test_traced_constant_accepts_exactly_the_declared_range(check, p):
    if RANGES[check.p_range](p):
        constant = traced_constant(check, p)
        assert constant.p == p and math.isfinite(constant.value)
    else:
        message = f"{check.value} needs {check.p_range}, got {p}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            traced_constant(check, p)


def test_the_declared_ranges_and_weight_use():
    assert {check.value: (check.p_range, check.weighted) for check in InequalityId} == {
        "max-vs-endpoint": ("1 < p < inf", False),
        "max-vs-projections": ("1 < p <= 2", False),
        "weighted-max-vs-endpoint": ("1 < p < inf", True),
        "weighted-max-vs-projections": ("1 < p <= 2", True),
        "dyadic-weighted-max": ("1 < p < inf", True),
        "second-moment-series": ("p = 2", True),
        "smoothness": ("1 < p <= 2", False),
    }


@pytest.mark.parametrize("check", list(InequalityId))
def test_only_the_weighted_checks_need_weights(check):
    instance = random_instance(5, atoms=6, levels=4, n=3, dim=2)
    if check.weighted:
        with pytest.raises(ValidationError, match=f"{check.value} needs a weight sequence"):
            verify(check, instance, p=2.0)
    else:
        record = verify(check, instance, p=2.0)
        assert record == verify(check, instance, p=2.0, weights=WeightSequence.power(-0.5))


@pytest.mark.parametrize("check", list(MarkovCheck))
def test_scalar_only_checks_alone_refuse_a_vector_observable(check):
    chain, f = random_chain_instance(3, m_max=6, dim=2)
    if check.scalar_only:
        with pytest.raises(ValidationError, match=f"{check.value} takes a scalar observable"):
            verify_markov_inequality(check, chain, f, 4)
    else:
        assert verify_markov_inequality(check, chain, f, 4).descriptor["dim"] == 2


BATCHES = [
    (check.value, lambda count, check=check: verify_batch(
        check, 2.0, count, 1, atoms_max=8, n_max=4, dim_max=2))
    for check in InequalityId
] + [
    (check.value, lambda count, check=check: verify_markov_batch(check, count, 1, None, 6, 6))
    for check in MarkovCheck
]


@pytest.mark.parametrize("batch", [batch for _, batch in BATCHES],
                         ids=[name for name, _ in BATCHES])
def test_a_batch_reads_its_constant_as_often_at_ten_items_as_at_one(batch, monkeypatch):
    calls = collections.Counter()
    for module, name in ((inequalities, "traced_constant"), (markov, "markov_traced_constant")):
        def counted(*args, original=getattr(module, name), name=name):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    counts = []
    for size in (1, 10):
        calls.clear()
        assert len(batch(size)) == size
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 0


SEEDED = {
    "random_instance": lambda seed: random_instance(seed, 4, 3, 2, 1),
    "verify_batch": lambda seed: verify_batch(InequalityId.SMOOTHNESS, 2.0, 2, seed),
    "verify_markov_batch": lambda seed: verify_markov_batch(MarkovCheck.STEIN, 2, seed, None, 6, 6),
    "random_chain_instance": lambda seed: random_chain_instance(seed),
    "make_chain": lambda seed: make_chain("weighted-graph", {"m": 3}, seed=seed),
}


@pytest.mark.parametrize("call", list(SEEDED.values()), ids=list(SEEDED))
def test_a_negative_seed_is_refused_by_name_before_any_draw(call, monkeypatch):
    def no_generator(*args, **kwargs):
        raise AssertionError("made a generator before the seed was checked")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    with pytest.raises(ValidationError, match=re.escape("seed must be >= 0, got -1")):
        call(-1)


@pytest.mark.parametrize("check", list(MarkovCheck))
def test_only_the_weighted_chain_check_reads_weights(check):
    chain, f = random_chain_instance(3, m_max=6)
    unit = verify_markov_inequality(check, chain, f, 4)
    decaying = verify_markov_inequality(check, chain, f, 4, weights=WeightSequence.power(-0.5))
    assert check.weighted == (check is MarkovCheck.WEIGHTED_POWER_MAX)
    assert (unit != decaying) == check.weighted
