"""Outside-in tracing of welfarist, used only by the benchmark's traced runs.

The tracer wraps public functions where one module calls another: every
module attribute bound to a target function (``welfarist.solver.compare``,
``welfarist.conditions.violates``, ``welfarist.cli.enumerate_maximizers``,
...) is replaced by one shared wrapper, and so is ``value_at`` on every
``WelfareFunction`` subclass and ``__call__`` on the solver's per-call value
cache (the lookups and misses behind ``solver.value_cache.hit_ratio``).
Nothing under ``src/`` changes, and ``uninstall`` puts every original back.

Item- and layer-level calls become spans (name, start, end, parent, item).
Calls made once per assignment, allocation or tuple are "hot": they are not
spans but counts and summed self time under their enclosing span, so memory
stays bounded.  Self time is a call's duration minus the time its traced
children cover; the wrapper's own bookkeeping is charged to neither, so it
shows up as the gap between item wall time and the summed layer self times.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

perf = time.perf_counter

# (module, attribute, metric key, hot)
TARGETS = [
    ("model", "random_instance", "model.random_instance", False),
    ("model", "parse_instance", "model.parse_instance", False),
    ("model", "serialize_instance", "model.serialize_instance", False),
    ("values", "compare", "values.compare", True),
    ("values", "value_sum", "values.value_sum", True),
    ("values", "render_value", "values.render_value", True),
    ("functions", "delta", "functions.delta", True),
    ("functions", "increment", "functions.increment", True),
    ("functions", "parse_welfare", "functions.parse_welfare", True),
    ("solver", "enumerate_maximizers", "solver.enumerate", False),
    ("solver", "solve_branch_bound", "solver.bb", False),
    ("solver", "welfare_of", "solver.welfare_of", True),
    ("fairness", "is_ef1", "fairness.is_ef1", True),
    ("fairness", "is_pareto_optimal", "fairness.pareto", False),
    ("conditions", "check_condition", "conditions.check", False),
    ("conditions", "violates", "conditions.confirm", True),
    ("conditions", "find_witness_adaptive", "conditions.adaptive", False),
    ("conditions", "threshold_bisect", "conditions.bisect", False),
    ("quadrature", "harmonic_integral", "quadrature.harmonic_integral", False),
    ("campaigns", "run_campaign", "campaigns.run_campaign", False),
    ("constructions", "uniform_goods_instance", "constructions.build", False),
    ("constructions", "offset_good_instance", "constructions.build", False),
    ("constructions", "binary_overlap_instance", "constructions.build", False),
    ("cli", "main", "cli.main", False),
]
VALUE_AT = "functions.value_at"
VALUE_CACHE = "solver.value_cache"
ITEM = "harness.item"
LAYERS = (
    "model", "values", "functions", "solver", "fairness", "conditions",
    "quadrature", "campaigns", "constructions", "cli",
)
TIERS = ("rational", "log", "surd", "interval", "infinite")  # indexed by Tracer._kind


class Tracer:
    def __init__(self):
        self.pkg = importlib.import_module("welfarist")
        self.mods = {name: importlib.import_module(f"welfarist.{name}") for name in LAYERS}
        # span record: [name, parent, item, start, end, self_s, {hot key: [calls, self_s]}]
        self.spans = [["outside", -1, None, 0.0, 0.0, 0.0, {}]]
        self.span_stack = [0]
        self.frames = []  # one [child_s] per open traced call
        self.item = None
        self.counters = defaultdict(float)
        self.enumerated = []  # instances handed to enumerate_maximizers inside items
        self._saved = []
        self._wrappers = self._build_wrappers()

    # -- installation -------------------------------------------------------

    def _build_wrappers(self):
        values = self.mods["values"]
        post = {
            "values.compare": self._post_compare,
            "solver.enumerate": self._post_enumerate,
            "solver.bb": self._post_bb,
            "fairness.pareto": self._post_pareto,
            "conditions.confirm": self._post_confirm,
        }
        names = {"conditions.check": lambda args, kwargs: f"conditions.check.{args[1].value}"}
        wrappers = []
        for mod, attr, key, hot in TARGETS:
            original = getattr(self.mods[mod], attr)
            if hot:
                wrapper = self._hot(original, key, post.get(key))
            else:
                wrapper = self._span(original, key, names.get(key), post.get(key))
            wrappers.append((original, attr, wrapper))
        self.Infinite = values.Infinite
        self.ExactValue = values.ExactValue
        self.IntervalValue = values.IntervalValue
        return wrappers

    def install(self):
        modules = [self.pkg, *self.mods.values()]
        for original, attr, wrapper in self._wrappers:
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
        pending = [self.mods["functions"].WelfareFunction]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            original = cls.__dict__.get("value_at")
            if original is not None and not getattr(original, "__isabstractmethod__", False):
                self._saved.append((cls, "value_at", original))
                setattr(cls, "value_at", self._hot(original, VALUE_AT, None))
        cache_cls = getattr(self.mods["solver"], "_ValueCache", None)
        if cache_cls is not None:
            self._saved.append((cache_cls, "__call__", cache_cls.__dict__["__call__"]))
            setattr(cache_cls, "__call__", self._cache_lookup(cache_cls.__dict__["__call__"]))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrappers -------------------------------------------------------------

    def _hot(self, fn, key, post):
        frames, spans, span_stack = self.frames, self.spans, self.span_stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                frames.pop()
                agg = spans[span_stack[-1]][6]
                entry = agg.get(key)
                if entry is None:
                    entry = agg[key] = [0, 0.0]
                entry[0] += 1
                entry[1] += t1 - t0 - frame[0]
                if frames:
                    frames[-1][0] += perf() - t0
            if post is not None:
                t2 = perf()
                post(args, kwargs, result, None)
                if frames:
                    frames[-1][0] += perf() - t2
            return result

        return wrapper

    def _span(self, fn, key, name_of, post):
        frames, spans, span_stack = self.frames, self.spans, self.span_stack

        def wrapper(*args, **kwargs):
            name = key if name_of is None else name_of(args, kwargs)
            record = [name, span_stack[-1], self.item, 0.0, 0.0, 0.0, {}]
            span_stack.append(len(spans))
            spans.append(record)
            frame = [0.0]
            frames.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                frames.pop()
                span_stack.pop()
                record[3], record[4], record[5] = t0, t1, t1 - t0 - frame[0]
            if post is not None:
                post(args, kwargs, result, record)
            if frames:
                frames[-1][0] += perf() - t0
            return result

        return wrapper

    def _cache_lookup(self, fn):
        """Hot wrapper of the value cache's lookup that also counts misses."""
        hot, counters = self._hot(fn, VALUE_CACHE, None), self.counters

        def lookup(cache, x):
            if x not in cache._cache:
                counters["solver.value_cache.misses"] += 1
            return hot(cache, x)

        return lookup

    def run_item(self, key, call, args):
        """Run one item as a root span; returns (output, wall seconds)."""
        self.item = key
        record = [ITEM, 0, key, 0.0, 0.0, 0.0, {}]
        self.span_stack.append(len(self.spans))
        self.spans.append(record)
        frame = [0.0]
        self.frames.append(frame)
        self.install()
        t0 = perf()
        try:
            output = call(*args)
        finally:
            t1 = perf()
            self.uninstall()
            self.frames.pop()
            self.span_stack.pop()
            record[3], record[4], record[5] = t0, t1, t1 - t0 - frame[0]
            self.item = None
        return output, t1 - t0

    # -- per-call counters (run after the call, charged to no layer) -----------

    def _kind(self, v) -> int:
        if isinstance(v, self.Infinite):
            return 4
        if isinstance(v, self.ExactValue):
            return 1 if v.logs else 2 if v.surds else 0
        if isinstance(v, self.IntervalValue):
            return 3
        if isinstance(v, (list, tuple)):
            return max((self._kind(x) for x in v), default=0)
        return 0

    def _post_compare(self, args, kwargs, ordering, record):
        c = self.counters
        if ordering.bits:
            tier = "interval"
            c["values.compare.max_bits"] = max(c["values.compare.max_bits"], ordering.bits)
        else:
            kinds = [self._kind(a) for a in args[:2]]
            tier = TIERS[4 if 4 in kinds else 1 if 1 in kinds else max(kinds)]
        c[f"values.compare.tier.{tier}"] += 1
        if ordering.relation.name == "INCONCLUSIVE":
            c["values.compare.inconclusive"] += 1

    def _post_enumerate(self, args, kwargs, maxima, record):
        inst = args[0]
        c = self.counters
        space = inst.n**inst.m
        c["solver.assignments"] += space
        c["solver.maximizers"] += len(maxima.allocations)
        c["solver.enumerate.incl_s"] += record[4] - record[3]
        if self.item is not None:
            self.enumerated.append(inst)

    def _post_bb(self, args, kwargs, result, record):
        self.counters["solver.bb.compares"] += record[6].get("values.compare", (0,))[0]

    def _post_pareto(self, args, kwargs, result, record):
        inst = args[0]
        if result.verdict == "PO":
            scanned = inst.n**inst.m
        elif result.verdict == "Dominated":
            scanned = int("".join(map(str, result.dominator.assignment)), inst.n) + 1
        else:
            scanned = kwargs.get("budget", args[2] if len(args) > 2 else 1_000_000)
        self.counters["fairness.pareto.assignments"] += scanned
        self.counters["fairness.pareto.incl_s"] += record[4] - record[3]

    def _post_confirm(self, args, kwargs, outcome, record):
        if outcome is True:
            self.counters["conditions.confirm.violations"] += 1

    # -- results --------------------------------------------------------------

    def totals(self):
        """{key: [calls, self_s, incl_s]} over every traced call made inside items."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for name, _parent, item, start, end, self_s, agg in self.spans:
            if item is None:
                continue
            entry = out[name]
            entry[0] += 1
            entry[1] += self_s
            entry[2] += end - start
            for key, (calls, hot_self) in agg.items():
                entry = out[key]
                entry[0] += calls
                entry[1] += hot_self
        return out

    def metrics(self, distinct_vectors, untraced_wall_s) -> dict:
        t = self.totals()
        c = self.counters

        def calls(key):
            return t[key][0] if key in t else 0

        def self_ms(key):
            return t[key][1] * 1e3 if key in t else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        m = {}
        m["model.random_instance.ms"] = 1e3 * sum(
            s[4] - s[3] for s in self.spans if s[0] == "model.random_instance"
        )
        for key in ("values.compare", "values.value_sum", "functions.value_at", "functions.delta",
                    "solver.enumerate", "solver.bb", "fairness.is_ef1",
                    "quadrature.harmonic_integral", "cli.main"):
            m[f"{key}.calls"] = calls(key)
            m[f"{key}.self_ms"] = self_ms(key)
        for tier in TIERS:
            m[f"values.compare.tier.{tier}"] = c[f"values.compare.tier.{tier}"]
        m["values.compare.max_bits"] = c["values.compare.max_bits"]
        m["values.compare.inconclusive"] = c["values.compare.inconclusive"]
        m["solver.enumerate.us_per_assignment"] = 1e6 * ratio(
            c["solver.enumerate.incl_s"], c["solver.assignments"]
        )
        m["solver.assignments"] = c["solver.assignments"]
        m["solver.distinct_vectors"] = distinct_vectors
        m["solver.assignments_per_vector"] = ratio(c["solver.assignments"], distinct_vectors)
        m["solver.maximizers"] = c["solver.maximizers"]
        lookups = calls(VALUE_CACHE)
        m["solver.value_cache.hit_ratio"] = 1.0 - ratio(
            c["solver.value_cache.misses"], lookups
        ) if lookups else 0.0
        m["solver.bb.compares"] = c["solver.bb.compares"]
        m["fairness.pareto.calls"] = calls("fairness.pareto")
        m["fairness.pareto.us_per_assignment"] = 1e6 * ratio(
            c["fairness.pareto.incl_s"], c["fairness.pareto.assignments"]
        )
        for cond in self.mods["conditions"].ConditionId:
            key = f"conditions.check.{cond.value}"
            m[f"{key}.ms"] = t[key][2] * 1e3 if key in t else 0.0
        m["conditions.confirm.calls"] = calls("conditions.confirm")
        m["conditions.confirm.hit_ratio"] = ratio(
            c["conditions.confirm.violations"], calls("conditions.confirm")
        )
        kind = {i: s[0] for i, s in enumerate(self.spans)}
        m["conditions.adaptive.boxes"] = sum(
            1 for s in self.spans
            if s[0].startswith("conditions.check.") and kind.get(s[1]) == "conditions.adaptive"
        )
        m["conditions.bisect.probes"] = sum(
            1 for s in self.spans
            if s[0] == "conditions.adaptive" and kind.get(s[1]) == "conditions.bisect"
        )
        m["conditions.bisect.self_ms"] = self_ms("conditions.bisect")
        m["campaigns.run_campaign.self_ms"] = self_ms("campaigns.run_campaign")
        m["constructions.calls"] = calls("constructions.build")

        layer_self = defaultdict(float)
        for key, (_calls, self_s, _incl) in t.items():
            layer_self[key.split(".", 1)[0]] += self_s
        for layer in LAYERS:
            m[f"layer.{layer}.self_ms"] = layer_self[layer] * 1e3
        item_wall = t[ITEM][2] if ITEM in t else 0.0
        named = sum(layer_self[layer] for layer in LAYERS)
        m["trace.items"] = calls(ITEM)
        m["trace.item_wall_ms"] = item_wall * 1e3
        m["trace.untraced_wall_ms"] = untraced_wall_s * 1e3
        m["trace.overhead_ms"] = (item_wall - untraced_wall_s) * 1e3
        m["trace.harness_self_ms"] = layer_self["harness"] * 1e3
        m["trace.layer_self_ms"] = named * 1e3
        # item wall time no span accounts for: the wrappers' own bookkeeping
        m["trace.unattributed_ms"] = (item_wall - named - layer_self["harness"]) * 1e3
        return m
