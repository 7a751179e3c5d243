"""Instances, allocations, instance-class predicates, and bit-exact I/O.

An instance is ``n >= 2`` agents with additive non-negative rational
utilities over ``m`` indivisible goods.  All utilities are exact rationals;
every predicate in this module (normalization, class membership, bundle
sums) is decided without tolerances.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence


class ParseError(ValueError):
    """Malformed instance or allocation document."""


class InfeasibleConstraintError(ValueError):
    """Random generation cannot satisfy the requested class constraint."""


_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse an integer or ``p/q`` literal exactly; anything else is rejected."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ParseError(f"bad rational literal: {text!r}")
    return Fraction(text)


@dataclass(frozen=True)
class Instance:
    """n agents, m goods, and an exact utility matrix (rows = agents)."""

    n: int
    m: int
    utilities: tuple[tuple[Fraction, ...], ...]
    labels: tuple[str, ...] | None = None
    # d, the least common denominator of the utilities (1 when there are none), and d*u
    scale: int = field(init=False, compare=False, repr=False)
    scaled: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.n < 2:
            raise ParseError("an instance needs at least 2 agents")
        if len(self.utilities) != self.n:
            raise ParseError("one utility row per agent required")
        for row in self.utilities:
            if len(row) != self.m:
                raise ParseError("utility row length mismatch")
            for u in row:
                if u < 0:
                    raise ParseError("negative utility")
        if self.labels is not None and len(self.labels) != self.m:
            raise ParseError("one label per good required")
        d = lcm(*(u.denominator for row in self.utilities for u in row))
        object.__setattr__(self, "scale", d)
        object.__setattr__(self, "scaled", tuple(tuple(int(u * d) for u in row) for row in self.utilities))

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Instance":
        utilities = tuple(tuple(Fraction(u) for u in row) for row in rows)
        m = len(utilities[0]) if utilities else 0
        return Instance(len(utilities), m, utilities)

    def bundle_utility(self, agent: int, bundle: Iterable[int]) -> Fraction:
        """Exact additive utility of a set of goods; the empty bundle is 0."""
        if not 0 <= agent < self.n:
            raise IndexError("agent index out of range")
        row = self.utilities[agent]
        total = Fraction(0)
        for g in bundle:
            if not 0 <= g < self.m:
                raise IndexError("good index out of range")
            total += row[g]
        return total

    def utility_vector(self, assignment: Sequence[int]) -> list[Fraction]:
        """Exact per-agent utilities of one good -> agent assignment vector."""
        utilities = [Fraction(0)] * self.n
        for g, agent in enumerate(assignment):
            utilities[agent] += self.utilities[agent][g]
        return utilities


@dataclass(frozen=True)
class Allocation:
    """Ordered partition of goods encoded as a good -> agent assignment vector."""

    assignment: tuple[int, ...]

    @staticmethod
    def from_bundles(bundles: Sequence[Sequence[int]], m: int) -> "Allocation":
        seen: dict[int, int] = {}
        for agent, bundle in enumerate(bundles):
            for g in bundle:
                if g in seen:
                    raise ParseError(f"good {g} assigned twice")
                seen[g] = agent
        if sorted(seen) != list(range(m)):
            raise ParseError("bundles do not partition the goods")
        return Allocation(tuple(seen[g] for g in range(m)))

    def bundles(self, n: int) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(n)]
        for g, agent in enumerate(self.assignment):
            out[agent].append(g)
        return out

    def validate_for(self, inst: Instance) -> None:
        if len(self.assignment) != inst.m:
            raise ParseError("allocation covers the wrong number of goods")
        for agent in self.assignment:
            if not 0 <= agent < inst.n:
                raise ParseError("agent index out of range in allocation")

    def bundle_of(self, agent: int) -> list[int]:
        return [g for g, a in enumerate(self.assignment) if a == agent]


@dataclass(frozen=True)
class ClassProfile:
    integer_valued: bool
    identical_good: bool
    binary: bool
    two_value: bool
    normalized: bool
    positive_admitting: bool

    def as_dict(self) -> dict[str, bool]:
        return asdict(self)


# -- JSON I/O -----------------------------------------------------------------

def parse_instance(text: str) -> Instance:
    """Parse the instance JSON schema with exact rational utilities."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    if "agents" not in doc or "utilities" not in doc:
        raise ParseError("instance document needs 'agents' and 'utilities'")
    n = doc["agents"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParseError("'agents' must be an integer")
    if n < 2:
        raise ParseError("an instance needs at least 2 agents")
    rows = doc["utilities"]
    if not isinstance(rows, list) or len(rows) != n:
        raise ParseError("'utilities' must list one row per agent")
    widths = {len(row) for row in rows if isinstance(row, list)}
    if len(widths) > 1 or any(not isinstance(row, list) for row in rows):
        raise ParseError("utility rows must be lists of equal length")
    utilities = tuple(tuple(parse_rational(u) for u in row) for row in rows)
    m = len(utilities[0]) if utilities else 0
    labels = None
    if "goods" in doc and doc["goods"] is not None:
        goods = doc["goods"]
        if not isinstance(goods, list) or any(not isinstance(g, str) for g in goods):
            raise ParseError("'goods' must be a list of names")
        if len(goods) != m:
            raise ParseError("one good name per column required")
        labels = tuple(goods)
    return Instance(n, m, utilities, labels)


def serialize_instance(inst: Instance) -> str:
    """Canonical JSON text; parse(serialize(x)) == x bit-exactly."""
    doc: dict = {"agents": inst.n}
    if inst.labels is not None:
        doc["goods"] = list(inst.labels)
    doc["utilities"] = [[str(u) for u in row] for row in inst.utilities]
    return json.dumps(doc, separators=(",", ":"))


def parse_allocation(text: str, inst: Instance) -> Allocation:
    """Parse ``{"bundles": [[...], ...]}`` and validate it partitions the goods."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "bundles" not in doc:
        raise ParseError("allocation document needs 'bundles'")
    bundles = doc["bundles"]
    if not isinstance(bundles, list) or len(bundles) != inst.n:
        raise ParseError("exactly one bundle per agent required")
    for bundle in bundles:
        if not isinstance(bundle, list) or any(
            not isinstance(g, int) or isinstance(g, bool) for g in bundle
        ):
            raise ParseError("bundles must be lists of good indices")
    alloc = Allocation.from_bundles(bundles, inst.m)
    alloc.validate_for(inst)
    return alloc


def serialize_allocation(alloc: Allocation, n: int) -> str:
    return json.dumps({"bundles": alloc.bundles(n)}, separators=(",", ":"))


# -- class predicates ----------------------------------------------------------

def classify(inst: Instance) -> ClassProfile:
    """Evaluate every instance-class predicate exactly."""
    flat = [u for row in inst.utilities for u in row]
    integer_valued = all(u.denominator == 1 for u in flat)
    binary = all(u in (0, 1) for u in flat)
    two_value = len(set(flat)) <= 2
    identical_good = inst.m > 0 and all(
        len(set(row)) == 1 and row[0] > 0 for row in inst.utilities
    )
    totals = {sum(row, Fraction(0)) for row in inst.utilities}
    normalized = len(totals) == 1
    positive, _ = is_positive_admitting(inst)
    return ClassProfile(integer_valued, identical_good, binary, two_value, normalized, positive)


def is_positive_admitting(inst: Instance) -> tuple[bool, Allocation | None]:
    """Does some allocation give every agent positive utility?

    By additivity this holds iff agents can be matched to distinct goods they
    value positively, so it reduces to bipartite matching (augmenting paths).
    The witness gives each agent its matched good and dumps the rest on agent 0.
    """
    match_of_good: dict[int, int] = {}

    def augment(agent: int, seen: set[int]) -> bool:
        for g in range(inst.m):
            if inst.utilities[agent][g] > 0 and g not in seen:
                seen.add(g)
                if g not in match_of_good or augment(match_of_good[g], seen):
                    match_of_good[g] = agent
                    return True
        return False

    for agent in range(inst.n):
        if not augment(agent, set()):
            return False, None
    # the matching decides matched goods; everything unmatched goes to agent 0
    witness = Allocation(tuple(match_of_good.get(g, 0) for g in range(inst.m)))
    assert all(u > 0 for u in inst.utility_vector(witness.assignment))
    return True, witness


# -- seeded random instances -----------------------------------------------------

_MAX_ATTEMPTS = 2000  # draws before random_instance gives up on a constraint
_KNOWN_FLAGS = {"unrestricted", "integer", "binary", "two_value", "identical_good", "normalized"}


def random_instance(
    n: int,
    m: int,
    class_constraint: str = "unrestricted",
    max_value: int = 5,
    seed: int = 0,
    *,
    require_positive_admitting: bool = False,
) -> Instance:
    """Deterministic seeded instance satisfying a class constraint.

    ``class_constraint`` is a ``+``-joined set of flags from
    {unrestricted, integer, binary, two_value, identical_good, normalized}.
    Unsupported combinations raise :class:`InfeasibleConstraintError`.
    """
    if n < 2 or m < 0 or max_value < 1:
        raise InfeasibleConstraintError("need n >= 2, m >= 0, max_value >= 1")
    flags = {f.strip() for f in class_constraint.split("+") if f.strip()}
    unknown = flags - _KNOWN_FLAGS
    if unknown:
        raise InfeasibleConstraintError(f"unknown class flags: {sorted(unknown)}")
    rng = random.Random(seed)
    for _ in range(_MAX_ATTEMPTS):
        inst = _generate(n, m, flags, max_value, rng)
        if inst is None:
            continue
        if require_positive_admitting and not is_positive_admitting(inst)[0]:
            continue
        return inst
    raise InfeasibleConstraintError(
        f"could not satisfy {sorted(flags)} at n={n}, m={m}, max_value={max_value}"
    )


def _generate(n: int, m: int, flags: set[str], max_value: int, rng: random.Random):
    identical = "identical_good" in flags
    binary = "binary" in flags
    two_value = "two_value" in flags
    normalized = "normalized" in flags
    integer = "integer" in flags or binary

    if binary and (identical or normalized):
        raise InfeasibleConstraintError("binary cannot be combined with that flag here")
    if identical and two_value and n > 2:
        raise InfeasibleConstraintError("identical_good+two_value is only automatic for n=2")

    if identical:
        if m == 0:
            raise InfeasibleConstraintError("identical_good needs at least one good")
        if normalized:
            a = Fraction(rng.randint(1, max_value))
            rows = [[a] * m for _ in range(n)]
        else:
            rows = [[Fraction(rng.randint(1, max_value))] * m for _ in range(n)]
        return Instance.from_rows(rows)

    if binary:
        rows = [[Fraction(rng.randint(0, 1)) for _ in range(m)] for _ in range(n)]
        return Instance.from_rows(rows)

    if two_value:
        lo = rng.randint(0, max_value - 1)
        hi = rng.randint(lo + 1, max_value)
        if not integer:
            den = rng.randint(1, 4)
            lo, hi = Fraction(lo, den), Fraction(hi, den)
        rows = [[Fraction(rng.choice((lo, hi))) for _ in range(m)] for _ in range(n)]
        return Instance.from_rows(rows)

    if normalized and integer:
        rows = [[rng.randint(0, max_value) for _ in range(m)] for _ in range(n)]
        if m == 0:
            return Instance.from_rows([[] for _ in range(n)])
        target = max(sum(row) for row in rows)
        for row in rows:
            row[-1] += target - sum(row)
        return Instance.from_rows([[Fraction(u) for u in row] for row in rows])

    if normalized:
        rows = [[_random_rational(rng, max_value) for _ in range(m)] for _ in range(n)]
        if m == 0:
            return Instance.from_rows([[] for _ in range(n)])
        if any(sum(row, Fraction(0)) == 0 for row in rows):
            return None  # resample
        target = Fraction(max_value)
        rows = [[u * target / sum(row, Fraction(0)) for u in row] for row in rows]
        return Instance.from_rows(rows)

    if integer:
        rows = [[Fraction(rng.randint(0, max_value)) for _ in range(m)] for _ in range(n)]
        return Instance.from_rows(rows)

    rows = [[_random_rational(rng, max_value) for _ in range(m)] for _ in range(n)]
    return Instance.from_rows(rows)


def _random_rational(rng: random.Random, max_value: int) -> Fraction:
    den = rng.randint(1, 4)
    return Fraction(rng.randint(0, max_value * den), den)
