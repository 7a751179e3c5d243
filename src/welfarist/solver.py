"""Maximizers of the additive welfarist objective sum_i f(u_i(A_i)).

Three routes: exhaustive enumeration (the ground truth, returning the
complete argmax set in lexicographic assignment order), a pruned depth-first
search that returns a single maximizer, and the structured two-agent split
family, which shares the argmax loop of enumeration.  The argmax set matters
because the rule breaks ties arbitrarily, so a guarantee about "the chosen
allocation" must hold for every member.

Enumeration scores each distinct reachable utility vector once, since many
assignments share one (:func:`_distinct_survivors`): it builds them good by
good, each packed into one integer, and keeps a partial vector only while its
optimistic completion can still reach the best welfare found.  It refuses
before its states, the argmax set counted in, could pass ``_STATE_CAP``.

Enumeration and the depth-first search add integer utilities in units of
1/d, d the instance's least common denominator (``Instance.scaled``): scaling
by d > 0 keeps every order and equality.  They share one scoring setup
(:func:`_scoring`): f's scan (:meth:`~welfarist.functions.WelfareFunction.scan`)
at every reachable bundle utility (the subset sums of each agent's scaled
row) scores each utility vector u by bounds ``lo <= sum_i f(u_i/d) <= hi``.

- Where the scan gives integer order terms, the bounds are the point
  ``(key, key)``, the key the sum or product of u's terms.  Shifted logs,
  harmonic numbers at integer utilities, and power means with p = 0, integer
  p > 0 or half-integer p > 0 at perfect squares derive the terms from the
  integers; other families from their values, when these are all rational
  or all ``w*log(q)`` with one w > 0 (piecewise tables, p < 0).  The common
  rules then compare integers only.
- Otherwise (surds, intervals, mixed log and rational values) they are
  certified float bounds: per utility an outward-rounded ``(lo, hi)``, and
  their sums rounded outward once more.  Half-integer power means take them
  from integer square roots, and harmonic numbers off the integers from
  their float model widened by its proved per-point error, without a value;
  other families from :func:`~welfarist.values.float_bounds` of values read
  at ``SCAN_BITS``.

A vector holding f = -inf scores the point ``(-inf, -inf)``.  One scan drops
each final vector whose ``hi`` is below another's ``lo``.  Equal points are
equal welfare, so a survivor set of points is the argmax set as it stands; any
other goes through the exact/interval comparator, one candidate per multiset
of utilities, which confirms every maximizer and every tie.

Values of f are built, at the comparator's start precision (enumeration's
``policy.start()``, the default for branch-and-bound), only for the welfare
the comparator reads -- the survivors', and the two sides of a
branch-and-bound comparison -- so a high ``start_bits`` costs only there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, fsum, inf, nextafter
from operator import sub
from typing import Callable, Iterable

from .fairness import is_ef1
from .functions import OrderTerms, WelfareFunction
from .model import Allocation, Instance
from .values import EQUAL, ExtendedValue, PrecisionPolicy, Relation, compare, value_sum

# the most states enumeration keeps: a partial utility vector of its layers
# counts one (at most 115 bytes, CPython 3.11, 64-bit), and an assignment of
# the argmax set (its prefix, its tuple in good order and its Allocation: at
# most 450 + 16m bytes) ceil((450 + 16m) / 115); this bounds it to about 0.5 GB
_STATE_CAP = 1 << 22
# a smaller layer is kept whole, and no greedy assignment is scored for it:
# on campaign-sized instances scoring it costs more than pruning saves
_PRUNE_FROM = 64
# float bounds are used only while every finite one lies inside +-2**1000, so
# that no sum of n of them can overflow
_FLOAT_RANGE = 2.0**1000


class EnumerationCapExceeded(RuntimeError):
    """The states enumeration keeps, its answer included, would pass ``_STATE_CAP``."""


@dataclass(frozen=True)
class Exactness:
    kind: str  # "Exact" | "IntervalCertified" | "Inconclusive"
    bits: int | None = None


@dataclass(frozen=True)
class MaximizerSet:
    """All welfare-maximizing allocations, ordered by assignment vector."""

    allocations: tuple[Allocation, ...]
    welfare: ExtendedValue
    exactness: Exactness

    def __contains__(self, alloc: Allocation) -> bool:
        return alloc in self.allocations


class _ValueCache:
    """f at integer utilities x in units of 1/scale, at ``bits``, once per x.

    Each x is evaluated by ``value_at`` on its first read, so only the
    utilities a welfare sum reads are; the scan builds no value here.
    ``_cache`` holds the values.
    """

    def __init__(self, fn: WelfareFunction, bits: int, scale: int):
        self.fn = fn
        self.bits = bits
        self.scale = scale
        self._cache: dict[int, ExtendedValue] = {}

    def __call__(self, x: int) -> ExtendedValue:
        """f(x/scale) at ``bits``, evaluated on the first read of x."""
        if x not in self._cache:
            self._cache[x] = self.fn.value_at(Fraction(x, self.scale), self.bits)
        return self._cache[x]

    def welfare(self, utilities: list[int]) -> ExtendedValue:
        """sum_i f(u_i/scale) of one scaled utility vector at ``bits``; -inf as soon as any term is -inf."""
        return value_sum([self(u) for u in utilities])


def welfare_of(inst: Instance, fn: WelfareFunction, alloc: Allocation) -> ExtendedValue:
    """Welfare of one allocation at f's default precision; -inf as soon as any bundle hits f = -inf."""
    alloc.validate_for(inst)
    return value_sum([fn.value_at(u) for u in inst.utility_vector(alloc.assignment)])


def _argmax(
    candidates: Iterable[tuple[object, ExtendedValue]], policy: PrecisionPolicy
) -> tuple[list, ExtendedValue, Exactness]:
    """Keys of the (key, welfare) candidates that tie the maximum, in candidate order.

    A first pass keeps a running best, replaced only by a provably greater
    candidate.  A second compares every candidate with it, starts again from
    one provably above it (possible only after an undecided first-pass
    comparison), and keeps the keys not provably below it.  The candidates
    after the first pass's best were already compared with it there, so the
    second pass reuses those orderings until it starts again.  Its orderings
    alone set the label: ``Inconclusive`` when a kept key is undecided (the set
    may then be a superset of the true argmax), else ``IntervalCertified`` at
    the highest precision reached, else ``Exact``.
    """
    candidates = list(candidates)
    best, known = candidates[0][1], {}  # known: index -> its ordering against best
    for i, (_, welfare) in enumerate(candidates[1:], 1):
        ordering = compare(welfare, best, policy)
        if ordering.relation is Relation.GREATER:
            best, known = welfare, {}
        else:
            known[i] = ordering
    while True:  # the second pass, from the start again whenever the best moves up
        orderings = []
        for i, (_, welfare) in enumerate(candidates):
            orderings.append(EQUAL if welfare is best else known.get(i) or compare(welfare, best, policy))
            if orderings[-1].relation is Relation.GREATER:
                best, known = welfare, {}
                break
        else:
            break
    keys = [key for (key, _), ordering in zip(candidates, orderings) if ordering.relation is not Relation.LESS]
    bits = max(ordering.bits or 0 for ordering in orderings)
    if any(ordering.relation is Relation.INCONCLUSIVE for ordering in orderings):
        return keys, best, Exactness("Inconclusive", bits or None)
    return keys, best, Exactness("IntervalCertified", bits) if bits else Exactness("Exact")


def _scoring(inst: Instance, fn: WelfareFunction) -> Callable:
    """Scan f at every reachable bundle utility; returns ``score``.

    Utilities are integers in units of 1/d.  Every subset of a scaled row is
    that agent's bundle in some assignment, and so is each agent's field of
    every optimistic bound (u + the goods left) either search scores, so
    these are exactly the utilities ``fn.scan`` reads.
    ``score(u)`` gives ``(lo, hi)`` with ``lo <= sum_i f(u_i/d) <= hi``: the
    reduced order terms twice where the scan gives them, else outward-rounded
    doubles; ``(-inf, -inf)`` exactly when u holds -inf.  A finite bound
    outside +-2**1000 makes every float bound ``(-inf, inf)``, so every
    decision falls to the exact comparator.
    """
    reachable = set()
    for row in inst.scaled:
        sums = {0}
        for u in row:
            sums |= {s + u for s in sums}
        reachable |= sums
    scan = fn.scan(reachable, inst.scale, inst.n)
    if isinstance(scan, OrderTerms):
        terms, reduce, floor = scan

        def score(u):
            key = reduce(map(terms.__getitem__, u))
            return (key, key) if key >= floor else (-inf, -inf)

        return score
    if any(hi > -inf and max(-lo, hi) >= _FLOAT_RANGE for lo, hi in scan.values()):
        scan = dict.fromkeys(scan, (-inf, inf))
    bound = scan.__getitem__

    def score(u):
        lows, highs = zip(*map(bound, u))
        hi = fsum(highs)
        if hi == -inf:
            return hi, hi
        return nextafter(fsum(lows), -inf), nextafter(hi, inf)

    return score


def _placement(inst: Instance) -> tuple[list[int], list[list[int]]]:
    """The order both searches place the goods in, and each agent's value for the goods left.

    Largest value (to any agent) first: their optimistic bound gives every
    good not yet placed to every agent, so placing the large ones first
    tightens it soonest.  ``suffix[pos][i]`` is agent i's scaled value for
    the goods from position ``pos`` on.
    """
    rows = inst.scaled
    order = sorted(range(inst.m), key=list(map(max, zip(*rows))).__getitem__, reverse=True)
    suffix = [[0] * inst.n]
    for g in reversed(order):
        suffix.append([s + row[g] for s, row in zip(suffix[-1], rows)])
    return order, suffix[::-1]


def _distinct_survivors(inst: Instance, score) -> tuple[list[tuple[tuple[int, ...], tuple]], bool, bool]:
    """(assignment, utility vector) of each final vector still in the running, and two flags.

    A utility vector is one int with a field of ``width`` bits per agent, wide
    enough that no field carries.  Layer g holds distinct vectors of the first
    g goods in ``_placement`` order.  A layer below the last, of
    ``_PRUNE_FROM`` vectors or more, keeps v only if the ``hi`` of v + rest
    (every good left given to every agent) reaches the ``lo`` of a greedy
    assignment, which gives each good to the agent whose bound then scores
    highest.  f is non-decreasing, so v + rest bounds every completion of v,
    and no prefix of a maximizer goes.  A drop on bounds that are not a point
    is an interval decision; none is made while an agent is at f(0) = -inf,
    where every completion may hold -inf, which the final scan drops exactly.

    The final scan scores each vector of the last layer once and drops it if
    its ``hi`` is below the running maximum ``lo`` (from the greedy ``lo``, if
    one was scored) or the final one: a maximizer's ``hi`` is at least every
    ``lo``.  The flags: whether every survivor is a point (then all equal the
    maximum ``lo``, so they are the argmax set), and whether a drop was made
    on bounds that are not a point.

    The survivors' assignments come back in lexicographic order: each layer
    keeps only the vectors one step below a kept vector of the next (a
    difference that borrows across fields is no vector of the layer), each
    with its number of paths into the survivors, the forward pass extends each
    kept prefix, and the assignments are mapped back to good order and
    sorted.  Raises ``EnumerationCapExceeded`` before a layer could take the
    states past ``_STATE_CAP``, and before the forward pass when the paths
    from the empty vector (the survivors' assignments) would.
    """
    rows = inst.scaled
    n, m = inst.n, inst.m
    order, suffix = _placement(inst)
    width = max(map(sum, rows)).bit_length() + 1
    shifts = range(0, n * width, width)
    mask = (1 << width) - 1
    steps = [[row[g] << shift for row, shift in zip(rows, shifts)] for g in order]

    def fields(v: int) -> list[int]:
        return [v >> shift & mask for shift in shifts]

    rests = [sum(x << shift for x, shift in zip(s, shifts)) for s in suffix]

    def greedy_lo() -> float | int:
        """The ``lo`` of giving each good to the agent whose bound then scores highest."""
        lo, v = -inf, 0
        for step, rest in zip(steps, rests[1:]):
            lo, v = max((score(fields(v + s + rest))[0], v + s) for s in step)
        return lo

    layers = [{0}]
    states = 1
    best_lo, zero_is_finite = -inf, None  # None until the greedy lo is scored
    interval_drop = False
    for step, rest in zip(steps, rests[1:]):
        if states + n * len(layers[-1]) > _STATE_CAP:  # the most the next layer can add
            raise EnumerationCapExceeded(f"enumeration exceeds cap {_STATE_CAP} states")
        layer = {v + s for v in layers[-1] for s in step}
        if len(layers) < m and len(layer) >= _PRUNE_FROM:
            if zero_is_finite is None:
                best_lo, zero_is_finite = greedy_lo(), score([0] * n)[1] > -inf
            pruned = set()
            for v in layer:
                lo, hi = score(fields(v + rest))
                if hi >= best_lo or lo < hi and not zero_is_finite and 0 in fields(v):
                    pruned.add(v)
                elif lo < hi:
                    interval_drop = True
            layer = pruned  # frees the unpruned layer before the next is built
        layers.append(layer)
        states += len(layer)
    final = list(layers[-1])
    kept = []
    for start in range(0, len(final), 4096):  # a block at a time: the last layer is not pruned, so may be large
        block = final[start : start + 4096]
        for v, u in zip(block, zip(*([x >> shift & mask for x in block] for shift in shifts))):
            lo, hi = score(u)
            if hi >= best_lo:
                kept.append((v, lo, hi, u))
                if lo > best_lo:
                    best_lo = lo
            elif lo < hi:
                interval_drop = True
    vectors = {}
    points = True
    for v, lo, hi, u in kept:
        if hi >= best_lo:
            vectors[v] = u
            points = points and lo == hi
        elif lo < hi:
            interval_drop = True
    paths = dict.fromkeys(vectors, 1)  # per vector of a layer, its paths into the survivors
    layers[-1] = paths
    for g in range(m - 1, -1, -1):
        before = {}
        for t, count in paths.items():
            for s in steps[g]:
                if t - s in layers[g]:
                    before[t - s] = before.get(t - s, 0) + count
        layers[g] = paths = before
    cost = ceil((450 + 16 * m) / 115)  # the states an assignment counts as
    if states + cost * paths[0] > _STATE_CAP:  # the whole answer, before any prefix is built
        raise EnumerationCapExceeded(f"enumeration exceeds cap {_STATE_CAP} states: {paths[0]} surviving assignments")
    prefixes = [((), 0)]
    for step, reachable in zip(steps, layers[1:]):  # each kept prefix extends to a survivor: at most paths[0]
        prefixes = [(a + (i,), v + s) for a, v in prefixes for i, s in enumerate(step) if v + s in reachable]
    position = sorted(range(m), key=order.__getitem__)  # position[g]: where good g was placed
    assignments = sorted((tuple(a[p] for p in position), vectors[v]) for a, v in prefixes)
    return assignments, points, interval_drop


def enumerate_maximizers(
    inst: Instance,
    fn: WelfareFunction,
    *,
    policy: PrecisionPolicy | None = None,
) -> MaximizerSet:
    """The full argmax set, in lexicographic assignment order, each distinct utility vector scored once.

    The survivors of :func:`_distinct_survivors` are decided as the module
    docstring says.  A drop on bounds that are not a point counts as an
    interval decision at ``policy.start()``.  When no assignment is finite,
    the set is all n**m of them.  After an inconclusive comparison the set
    may be a superset of the true argmax, which the exactness label reports.
    Raises ``EnumerationCapExceeded`` when the kept vectors and the set
    itself could pass ``_STATE_CAP``.
    """
    policy = policy or PrecisionPolicy()
    value = _ValueCache(fn, policy.start(), inst.scale)
    score = _scoring(inst, fn)
    survivors, points, interval_drop = _distinct_survivors(inst, score)
    if points:
        best, best_value = [a for a, _ in survivors], value.welfare(survivors[0][1])
        exactness = Exactness("Exact")
    else:
        # welfare depends only on the multiset of utilities: one candidate per multiset
        multisets = {}
        for _, u in survivors:
            multisets.setdefault(tuple(sorted(u)), u)
        winners, best_value, exactness = _argmax(((s, value.welfare(u)) for s, u in multisets.items()), policy)
        winners = set(winners)
        best = [a for a, u in survivors if tuple(sorted(u)) in winners]
    if interval_drop and exactness.kind == "Exact":
        exactness = Exactness("IntervalCertified", policy.start())
    return MaximizerSet(tuple(Allocation(a) for a in best), best_value, exactness)


def solve_branch_bound(inst: Instance, fn: WelfareFunction) -> tuple[Allocation, ExtendedValue]:
    """One maximizer via depth-first search with an optimistic completion bound.

    The bound adds every unassigned good to every agent simultaneously; since
    f is non-decreasing this can only overestimate, so pruning on bound <=
    incumbent is safe: no completion beats the incumbent, and one that ties
    it is not needed.  Bounds and incumbent are scored like enumeration's
    vectors: bounds that do not overlap decide outright, as do overlapping
    points (equal keys) and equal multisets of utilities (equal welfare, so
    no gain); the exact/interval comparator decides the rest, at
    the default ``PrecisionPolicy``.  A bound holding -inf is pruned, as it
    equals or falls below any incumbent.  The incumbent starts at "all goods
    to agent 0".  The root is not scored: no leaf beats an incumbent that its
    bound does not.  The path is a stack, so m may pass the recursion limit.
    """
    policy = PrecisionPolicy()
    value = _ValueCache(fn, policy.start(), inst.scale)
    score = _scoring(inst, fn)
    rows = inst.scaled
    n, m = inst.n, inst.m
    order, suffix = _placement(inst)
    incumbent_assignment = tuple([0] * m)
    incumbent_vector = [sum(rows[0])] + [0] * (n - 1)
    incumbent_lo, incumbent_hi = score(incumbent_vector)
    assignment = [0] * m
    columns = [[row[g] for row in rows] for g in order]  # columns[pos][i]: agent i's value for the good at pos
    path = [(suffix[0], iter(range(n)))] if m else []  # per node on the path, its bound and the agents left to try
    while path:
        pos = len(path) - 1
        above, untried = path[-1]
        g, column = order[pos], columns[pos]
        for agent in untried:
            # the other agents lose the good from their bound; a leaf's bound is its welfare
            bound = list(map(sub, above, column))
            bound[agent] = above[agent]
            lo, hi = score(bound)
            if hi == -inf or hi < incumbent_lo:
                continue
            greater = lo > incumbent_hi
            if not greater:
                # equal keys or equal multisets: the bound has the incumbent's welfare, so nothing below it beats it
                if lo == hi == incumbent_lo == incumbent_hi or sorted(bound) == sorted(incumbent_vector):
                    continue
                relation = compare(value.welfare(bound), value.welfare(incumbent_vector), policy).relation
                if relation in (Relation.LESS, Relation.EQUAL):
                    continue
                greater = relation is Relation.GREATER
            assignment[g] = agent
            if pos + 1 < m:
                path.append((bound, iter(range(n))))
                break
            if greater:
                incumbent_assignment, incumbent_vector = tuple(assignment), bound
                incumbent_lo, incumbent_hi = lo, hi
        else:
            path.pop()
    return Allocation(incumbent_assignment), value.welfare(incumbent_vector)


def chosen_all_ef1(inst: Instance, fn: WelfareFunction) -> tuple[bool | None, Allocation | None]:
    """Is every welfare-maximizing allocation EF1?  Returns a violating maximizer
    if not, and ``(None, None)`` when the argmax set is undecided: an
    ``Inconclusive`` set may hold allocations that are not maximizers."""
    maxima = enumerate_maximizers(inst, fn)
    if maxima.exactness.kind == "Inconclusive":
        return None, None
    bad = next((a for a in maxima.allocations if not is_ef1(inst, a).holds), None)
    return bad is None, bad


def split_family_argmax(k: int, fn: WelfareFunction) -> int:
    """Welfare-maximizing x over the structured two-agent split family.

    For the doubling-pairs instance with parameter k, the candidate
    allocations give agent 1 exactly x of the first k goods (utility 4x) and
    agent 2 everything else (utility 4k+1-2x), with x ranging over
    [ceil(k/2), k].  The reduction itself is validated against full
    enumeration in the test suite for small k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not fn.strictly_increasing:
        raise ValueError("requires a strictly increasing function")
    candidates = (
        (x, value_sum([fn.value_at(Fraction(4 * x)), fn.value_at(Fraction(4 * k + 1 - 2 * x))]))
        for x in range(ceil(Fraction(k, 2)), k + 1)
    )
    best, _, exactness = _argmax(candidates, PrecisionPolicy())
    if exactness.kind == "Inconclusive":
        raise RuntimeError("inconclusive comparison in structured argmax")
    return best[0]
