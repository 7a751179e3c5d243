"""Seeded randomized campaigns checking rule-level EF1 guarantees.

A campaign draws seeded random instances from one instance class, enumerates
the full argmax set of the chosen rule on each, and checks the expected
verdict: either every maximizer is EF1 across all trials, or a non-EF1
maximizer exists.  Expected-failure campaigns fall back to the deterministic
construction when random search does not stumble on a counterexample, since
the guaranteed witnesses may need structured parameters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .conditions import ConditionId, find_witness_adaptive
from .constructions import (
    binary_overlap_instance,
    offset_good_instance,
    uniform_goods_instance,
)
from .functions import WelfareFunction, parse_welfare
from .model import Allocation, Instance, random_instance, serialize_instance
from .solver import chosen_all_ef1


@dataclass(frozen=True)
class CampaignSpec:
    theorem: str
    trials: int = 100
    seed: int = 0
    welfare: WelfareFunction | None = None
    n_min: int = 2
    n_max: int = 3
    m_min: int = 1
    m_max: int = 6
    max_value: int = 5


@dataclass(frozen=True)
class CampaignResult:
    theorem: str
    welfare: str
    expected_all_ef1: bool
    passed: bool
    trials: int
    violations: int
    counterexample: dict | None
    inconclusive: bool
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        out = {
            "theorem": self.theorem,
            "welfare": self.welfare,
            "expected_all_ef1": self.expected_all_ef1,
            "passed": self.passed,
            "trials": self.trials,
            "violations": self.violations,
            "inconclusive": self.inconclusive,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def _counterexample(trial: int | None, inst: Instance, alloc: Allocation) -> dict:
    return {
        "trial": trial,
        "instance": serialize_instance(inst),
        "allocation": alloc.bundles(inst.n),
    }


def _witness(fn: WelfareFunction, cond: ConditionId) -> dict:
    """The witness of the adaptive search for a violation of ``cond`` from its default box."""
    report = find_witness_adaptive(fn, cond)
    if report.verdict != "Violated":
        raise ValueError(f"no bounded {cond.value} witness found for {fn.label()}")
    return report.witness


def _chain_gadget(fn: WelfareFunction) -> Instance:
    w = _witness(fn, ConditionId.C3B)
    return uniform_goods_instance(2, w["k"], w["a"], 1)


def _harmonic_general_gadget(fn: WelfareFunction) -> Instance:
    w = _witness(fn, ConditionId.C6A)
    return offset_good_instance(2, w["k"], w["a"], w["b"])


def _pmean_binary_gadget(fn: WelfareFunction) -> Instance:
    return binary_overlap_instance(2, _witness(fn, ConditionId.C4)["k"])


@dataclass(frozen=True)
class _Theorem:
    default_welfare: str | None
    instance_class: str
    expect_all_ef1: bool
    fallback: object = None  # callable(fn) -> Instance for expected failures


THEOREMS: dict[str, _Theorem] = {
    # the log rule keeps every maximizer EF1 on all positive-admitting instances
    "mnw-all-classes": _Theorem("log", "unrestricted", True),
    "mnw-integer": _Theorem("log", "integer", True),
    # shifted logs with 0 <= c <= 1 keep the guarantee on integer instances
    "modlog-integer": _Theorem("modlog:1", "integer", True),
    "modlog-integer-fails": _Theorem("modlog:2", "integer", False, _chain_gadget),
    # modified harmonics up to 1/log2 - 1 cover integer identical-good/two-value
    "harmonic-identical": _Theorem("harmonic:0", "integer+identical_good", True),
    "harmonic-identical-fails": _Theorem(
        "harmonic:1", "integer+identical_good", False, _chain_gadget
    ),
    "harmonic-twovalue": _Theorem("harmonic:0", "integer+two_value", True),
    # harmonics with c < -1/2 break on general integer instances
    "harmonic-integer-fails": _Theorem(
        "harmonic:-3/4", "integer", False, _harmonic_general_gadget
    ),
    # power means with p < 1 cover binary instances; p >= 1 fails
    "pmean-binary": _Theorem("pmean:1/2", "binary", True),
    "pmean-binary-fails": _Theorem("pmean:1", "binary", False, _pmean_binary_gadget),
}


def run_campaign(spec: CampaignSpec) -> CampaignResult:
    if spec.theorem not in THEOREMS:
        raise ValueError(f"unknown theorem id {spec.theorem!r}; known: {sorted(THEOREMS)}")
    if spec.trials < 0:
        raise ValueError(f"trials must be >= 0, got {spec.trials}")
    theorem = THEOREMS[spec.theorem]
    fn = spec.welfare or parse_welfare(theorem.default_welfare)
    violations = 0
    counterexample = None
    inconclusive = False
    notes: list[str] = []
    for trial in range(spec.trials):
        rng = random.Random(spec.seed * 1_000_003 + trial)
        n = rng.randint(spec.n_min, spec.n_max)
        m_lo = max(spec.m_min, n)  # positive-admitting needs one good per agent
        if m_lo > spec.m_max:
            raise ValueError("m_max too small for positive-admitting instances")
        m = rng.randint(m_lo, spec.m_max)
        inst = random_instance(
            n,
            m,
            theorem.instance_class,
            spec.max_value,
            seed=rng.randint(0, 2**30),
            require_positive_admitting=True,
        )
        ok, bad = chosen_all_ef1(inst, fn)
        inconclusive |= ok is None
        if bad is not None:
            violations += 1
            if counterexample is None:
                counterexample = _counterexample(trial, inst, bad)
    if theorem.expect_all_ef1:
        passed = violations == 0 and not inconclusive
    elif violations > 0:
        passed = True
    else:
        notes.append("random search found no counterexample; using the construction")
        try:
            inst = theorem.fallback(fn)
        except ValueError as exc:
            notes.append(f"construction unavailable: {exc}")
            bad = None
        else:
            ok, bad = chosen_all_ef1(inst, fn)
            inconclusive |= ok is None
        passed = bad is not None
        if passed:
            violations += 1
            counterexample = _counterexample(None, inst, bad)
    return CampaignResult(
        theorem=spec.theorem,
        welfare=fn.label(),
        expected_all_ef1=theorem.expect_all_ef1,
        passed=passed,
        trials=spec.trials,
        violations=violations,
        counterexample=counterexample,
        inconclusive=inconclusive,
        notes=tuple(notes),
    )
