"""Command-line surface: solve, check, classify, condition, construct, campaign, lemmas.

Machine-readable JSON goes to stdout; human-oriented notes go to stderr.
Exit codes are a stable contract: 0 pass/optimum, 1 violation/counterexample,
2 usage or parse error, 3 inconclusive at the precision ceiling.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import __version__
from .campaigns import THEOREMS, CampaignSpec, run_campaign
from .conditions import (
    DEFAULT_A_CAP,
    Bounds,
    ConditionId,
    check_condition,
    find_witness_adaptive,
    numeric_lemma_suite,
)
from .constructions import GENERATORS, flat_tie_gadget
from .fairness import DEFAULT_PARETO_BUDGET, is_ef, is_ef1, is_pareto_optimal
from .functions import parse_welfare
from .model import (
    ParseError,
    parse_allocation,
    parse_instance,
    parse_rational,
    classify,
    serialize_instance,
)
from .solver import EnumerationCapExceeded, enumerate_maximizers
from .values import DEFAULT_PRECISION_BITS, PrecisionPolicy, render_value

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n")


def _note(message: str) -> None:
    sys.stderr.write(message + "\n")


def _load_instance(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_instance(handle.read())


def _cmd_solve(args) -> int:
    inst = _load_instance(args.instance)
    fn = parse_welfare(args.welfare)
    policy = PrecisionPolicy(start_bits=args.precision_bits)
    maxima = enumerate_maximizers(inst, fn, policy=policy)
    chosen = maxima.allocations if args.all else maxima.allocations[:1]
    _emit(
        {
            "welfare": render_value(maxima.welfare),
            "allocations": [a.bundles(inst.n) for a in chosen],
            "count": len(maxima.allocations),
            "exactness": maxima.exactness.kind,
        }
    )
    if maxima.exactness.kind == "Inconclusive":
        _note("welfare comparisons hit the precision ceiling")
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_check(args) -> int:
    inst = _load_instance(args.instance)
    with open(args.allocation, "r", encoding="utf-8") as handle:
        alloc = parse_allocation(handle.read(), inst)
    if args.kind == "ef1":
        report = is_ef1(inst, alloc)
        _emit(
            {
                "property": "ef1",
                "holds": report.holds,
                "violations": [
                    {"envious": i, "envied": j, "margin": str(m)}
                    for i, j, m in report.violations
                ],
            }
        )
        return EXIT_OK if report.holds else EXIT_VIOLATION
    if args.kind == "ef":
        holds = is_ef(inst, alloc)
        _emit({"property": "ef", "holds": holds})
        return EXIT_OK if holds else EXIT_VIOLATION
    result = is_pareto_optimal(inst, alloc, budget=args.budget)
    payload = {"property": "po", "verdict": result.verdict}
    if result.dominator is not None:
        payload["dominated_by"] = result.dominator.bundles(inst.n)
    _emit(payload)
    if result.verdict == "PO":
        return EXIT_OK
    if result.verdict == "Dominated":
        return EXIT_VIOLATION
    return EXIT_INCONCLUSIVE


def _cmd_classify(args) -> int:
    inst = _load_instance(args.instance)
    _emit(classify(inst).as_dict())
    return EXIT_OK


def _parse_grid(text: str):
    return tuple(parse_rational(part.strip()) for part in text.split(",") if part.strip())


def _cmd_condition(args) -> int:
    fn = parse_welfare(args.welfare)
    cond = ConditionId.parse(args.cond)
    bounds = Bounds(
        k_max=args.k_max,
        a_max=args.a_max,
        b_max=args.b_max,
        x_max=args.x_max,
        real_grid=_parse_grid(args.grid) if args.grid else Bounds().real_grid,
    )
    if args.adaptive:
        report = find_witness_adaptive(fn, cond, bounds, a_cap=args.a_cap)
    else:
        report = check_condition(fn, cond, bounds)
    _emit(report.to_json_dict())
    if report.verdict == "Violated":
        return EXIT_VIOLATION
    if report.verdict == "Inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_construct(args) -> int:
    name = args.name
    if name == "flat-tie":
        if len(args.params) != 3:
            raise ParseError("flat-tie takes: n flat_lo flat_hi")
        n = int(args.params[0])
        inst, balanced, lopsided = flat_tie_gadget(n, args.params[1], args.params[2])
        sys.stdout.write(serialize_instance(inst) + "\n")
        if args.tie_allocations:
            _emit({"balanced": balanced.bundles(n), "lopsided": lopsided.bundles(n)})
        return EXIT_OK
    if name not in GENERATORS:
        raise ParseError(f"unknown construction {name!r}; known: {sorted(GENERATORS)} + ['flat-tie']")
    builder, params, integral = GENERATORS[name]
    if len(args.params) != len(params):
        raise ParseError(f"{name} takes parameters: {' '.join(params)}")
    converted = [
        int(raw) if as_int else Fraction(raw)
        for raw, as_int in zip(args.params, integral)
    ]
    inst = builder(*converted)
    sys.stdout.write(serialize_instance(inst) + "\n")
    return EXIT_OK


def _cmd_campaign(args) -> int:
    spec = CampaignSpec(
        theorem=args.theorem,
        trials=args.trials,
        seed=args.seed,
        welfare=parse_welfare(args.welfare) if args.welfare else None,
        n_min=args.n_min,
        n_max=args.n_max,
        m_min=args.m_min,
        m_max=args.m_max,
        max_value=args.max_value,
    )
    result = run_campaign(spec)
    _emit(result.to_json_dict())
    if result.inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_OK if result.passed else EXIT_VIOLATION


def _cmd_lemmas(_args) -> int:
    report = numeric_lemma_suite()
    _emit(
        {
            "passed": report.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in report.checks
            ],
        }
    )
    return EXIT_OK if report.passed else EXIT_VIOLATION


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later call.

    Parsing leaves the parser unchanged, so one build serves every ``main``
    call in a process; it is not built at import.
    """
    parser = argparse.ArgumentParser(
        prog="welfarist",
        description="Exact additive welfarist allocation rules and EF1 verification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="compute welfare-maximizing allocations")
    solve.add_argument("instance")
    solve.add_argument("--welfare", required=True)
    solve.add_argument("--all", action="store_true", help="print the full argmax set")
    solve.add_argument("--precision-bits", type=int, default=DEFAULT_PRECISION_BITS)
    solve.set_defaults(handler=_cmd_solve)

    check = sub.add_parser("check", help="verify a fairness/efficiency property")
    check.add_argument("kind", choices=["ef1", "ef", "po"])
    check.add_argument("instance")
    check.add_argument("allocation")
    check.add_argument(
        "--budget", type=int, default=DEFAULT_PARETO_BUDGET, help="search states a po check may enter"
    )
    check.set_defaults(handler=_cmd_check)

    cls = sub.add_parser("classify", help="evaluate instance-class predicates")
    cls.add_argument("instance")
    cls.set_defaults(handler=_cmd_classify)

    cond = sub.add_parser("condition", help="bounded check of one condition")
    cond.add_argument("cond")
    cond.add_argument("--welfare", required=True)
    cond.add_argument("--k-max", type=int, default=Bounds.k_max)
    cond.add_argument("--a-max", type=int, default=Bounds.a_max)
    cond.add_argument("--b-max", type=int, default=None)
    cond.add_argument("--x-max", type=int, default=None)
    cond.add_argument("--grid", default=None, help="comma-separated rationals")
    cond.add_argument("--adaptive", action="store_true", help="grow bounds until a witness appears")
    cond.add_argument("--a-cap", type=int, default=DEFAULT_A_CAP)
    cond.set_defaults(handler=_cmd_condition)

    construct = sub.add_parser("construct", help="emit a structured instance")
    construct.add_argument("name")
    construct.add_argument("params", nargs="*")
    construct.add_argument("--tie-allocations", action="store_true")
    construct.set_defaults(handler=_cmd_construct)

    campaign = sub.add_parser("campaign", help="seeded randomized theorem campaign")
    campaign.add_argument("--theorem", required=True, choices=sorted(THEOREMS))
    campaign.add_argument("--welfare", default=None)
    campaign.add_argument("--trials", type=int, default=CampaignSpec.trials)
    campaign.add_argument("--seed", type=int, default=CampaignSpec.seed)
    campaign.add_argument("--n-min", type=int, default=CampaignSpec.n_min)
    campaign.add_argument("--n-max", type=int, default=CampaignSpec.n_max)
    campaign.add_argument("--m-min", type=int, default=CampaignSpec.m_min)
    campaign.add_argument("--m-max", type=int, default=CampaignSpec.m_max)
    campaign.add_argument("--max-value", type=int, default=CampaignSpec.max_value)
    campaign.set_defaults(handler=_cmd_campaign)

    lemmas = sub.add_parser("lemmas", help="run the numeric lemma suite")
    lemmas.set_defaults(handler=_cmd_lemmas)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, ValueError, ZeroDivisionError, OSError, EnumerationCapExceeded) as exc:
        _note(f"error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
