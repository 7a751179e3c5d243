"""Randomized theorem campaigns and their fallback constructions."""

from fractions import Fraction
from math import ceil

import pytest

from welfarist import solver
from welfarist.campaigns import THEOREMS, CampaignSpec, _chain_gadget, run_campaign
from welfarist.constructions import uniform_goods_instance
from welfarist.fairness import is_ef1
from welfarist.functions import ModLog, parse_welfare
from welfarist.model import Allocation, parse_allocation, parse_instance
from welfarist.solver import Exactness, MaximizerSet, enumerate_maximizers
from welfarist.values import ExactValue


def test_unknown_theorem():
    with pytest.raises(ValueError):
        run_campaign(CampaignSpec(theorem="no-such-claim"))


@pytest.mark.parametrize(
    "theorem", ["mnw-all-classes", "modlog-integer", "harmonic-identical", "pmean-binary"]
)
def test_guarantee_campaigns_pass(theorem):
    result = run_campaign(CampaignSpec(theorem=theorem, trials=25, seed=5))
    assert result.passed and result.violations == 0 and not result.inconclusive


@pytest.mark.parametrize(
    "theorem", ["modlog-integer-fails", "harmonic-integer-fails", "pmean-binary-fails"]
)
def test_failure_campaigns_find_counterexamples(theorem):
    result = run_campaign(CampaignSpec(theorem=theorem, trials=10, seed=5))
    assert result.passed and result.violations >= 1
    assert result.counterexample is not None


def test_campaigns_are_deterministic():
    a = run_campaign(CampaignSpec(theorem="mnw-all-classes", trials=10, seed=3))
    b = run_campaign(CampaignSpec(theorem="mnw-all-classes", trials=10, seed=3))
    assert a == b


def test_counterexample_reproduces_through_solver_and_checker():
    result = run_campaign(CampaignSpec(theorem="harmonic-integer-fails", trials=4, seed=1))
    assert result.counterexample is not None
    inst = parse_instance(result.counterexample["instance"])
    alloc = parse_allocation(
        __import__("json").dumps({"bundles": result.counterexample["allocation"]}), inst
    )
    fn = parse_welfare(THEOREMS["harmonic-integer-fails"].default_welfare)
    assert alloc in enumerate_maximizers(inst, fn)
    assert not is_ef1(inst, alloc).holds


def test_expectation_mismatch_reported():
    # a failure campaign driven by a rule that actually keeps the guarantee
    spec = CampaignSpec(
        theorem="modlog-integer-fails", welfare=parse_welfare("modlog:1"), trials=8, seed=2
    )
    result = run_campaign(spec)
    assert not result.passed and result.violations == 0
    assert any("construction unavailable" in note for note in result.notes)


def test_an_undecided_argmax_set_gives_no_counterexample(monkeypatch):
    """An Inconclusive argmax set, in a trial or on the fallback gadget, sets
    the flag and never yields a counterexample, even with a non-EF1 member."""

    def undecided(inst, fn):
        lopsided = Allocation((0,) * inst.m)
        return MaximizerSet((lopsided,), ExactValue(), Exactness("Inconclusive", 256))

    monkeypatch.setattr(solver, "enumerate_maximizers", undecided)
    result = run_campaign(CampaignSpec(theorem="modlog-integer-fails", trials=3, seed=5))
    assert result.inconclusive and not result.passed
    assert result.violations == 0 and result.counterexample is None


@pytest.mark.parametrize("c", ["21/20", "3/2", "2", "7/3", "5"])
def test_chain_gadget_matches_the_shifted_log_closed_form(c):
    # for log(x + c), c > 1, the C3b chain first fails at k = 0, a = ceil(c / (c - 1))
    c = Fraction(c)
    assert _chain_gadget(ModLog(c)) == uniform_goods_instance(2, 0, ceil(c / (c - 1)), 1)
