"""Out-of-tree tracer for weylkit: spans and counts at each layer's public calls.

The tracer patches every binding of a layer's public functions, including the
copies that ``from .x import y`` leaves in other modules, and a fixed set of
methods and properties on their classes.  Nothing inside ``weylkit`` knows it
is traced.  A span records (job, id, parent id, key, start, end); a span's
self time is its duration minus the durations of its direct children, so the
self times of one job add up to its root span.  Calls too small and too
frequent to bracket with a span (``Phase`` and ``GroupElement`` construction,
scalar multiplier calls, operator lookups and builds) are counted only, and
their time lands in the enclosing span.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("intmat", "groups", "multipliers", "isotropy", "models", "vacuum", "padic")

# Self-time metrics, in report order.  Every public function of a layer gets a
# span; those without a metric of their own go to "<layer>.other_s", except in
# intmat and isotropy, which are reported as one self time each.  The root
# span of a job is the ``cli.main`` call, whose self time is parsing and
# report emission.
SELF_TIMES = (
    "cli.self_s",
    "intmat.self_s",
    "groups.elements_s", "groups.transversal_s", "groups.quotient_s", "groups.other_s",
    "multipliers.check_s", "multipliers.antisym_s", "multipliers.split_s",
    "multipliers.table_build_s", "multipliers.other_s",
    "isotropy.self_s",
    "models.induced_model_s", "models.check_rep_law_s", "models.commutator_check_s",
    "models.commutant_d_s", "models.intertwiner_s", "models.other_s",
    "vacuum.sectors_s", "vacuum.labeled_s", "vacuum.basis_s", "vacuum.eigen_check_s",
    "vacuum.normalizer_check_s", "vacuum.permute_check_s", "vacuum.descend_s",
    "vacuum.clifford_s", "vacuum.other_s",
    "padic.window_group_s", "padic.profile_self_s", "padic.reducibility_self_s",
    "padic.slack_check_s", "padic.other_s",
)
ROOT_KEY = "cli.self_s"
FUNCTION_SPANS = {
    "groups.quotient": "groups.quotient_s",
    "groups.subquotient": "groups.quotient_s",
    "multipliers.check_multiplier": "multipliers.check_s",
    "multipliers.antisymmetrize": "multipliers.antisym_s",
    "multipliers.split_symmetric": "multipliers.split_s",
    "models.induced_model": "models.induced_model_s",
    "models.check_rep_law": "models.check_rep_law_s",
    "models.commutator_scalar_check": "models.commutator_check_s",
    "models.commutant_d": "models.commutant_d_s",
    "models.intertwiner": "models.intertwiner_s",
    "vacuum.sectors": "vacuum.sectors_s",
    "vacuum.normalizer_check": "vacuum.normalizer_check_s",
    "vacuum.permute_check": "vacuum.permute_check_s",
    "vacuum.descend": "vacuum.descend_s",
    "vacuum.clifford_basis": "vacuum.clifford_s",
    "padic.window_group": "padic.window_group_s",
    "padic.vacuum_profile": "padic.profile_self_s",
    "padic.window_reducibility_check": "padic.reducibility_self_s",
    "padic.representative_slack_check": "padic.slack_check_s",
}
WHOLE_LAYER = {"intmat": "intmat.self_s", "isotropy": "isotropy.self_s"}
# (module, class, attribute, metric) for methods and properties that get spans.
METHOD_SPANS = (
    ("groups", "Subgroup", "elements", "groups.elements_s"),
    ("groups", "Subgroup", "transversal", "groups.transversal_s"),
    ("groups", "Quotient", "project", "groups.quotient_s"),
    ("groups", "Quotient", "section", "groups.quotient_s"),
    ("multipliers", "TableMultiplier", "from_function", "multipliers.table_build_s"),
    ("vacuum", "SectorDecomposition", "__init__", "vacuum.sectors_s"),
    ("vacuum", "SectorDecomposition", "labeled", "vacuum.labeled_s"),
    ("vacuum", "SectorDecomposition", "basis_of", "vacuum.basis_s"),
    ("vacuum", "SectorDecomposition", "eigen_check", "vacuum.eigen_check_s"),
)

# Counts, in report order.  ProjectiveRep's operator lookups and builder calls
# are counted by _install_rep.
COUNTS = (
    "phases.new.count", "groups.element_new.count", "intmat.box_reduce.count",
    "multipliers.scalar_call.count", "multipliers.bichar_call.count", "isotropy.polar.count",
    "models.operator_call.count", "models.operator_build.count",
)
# (module, class, attribute, count) for methods that are counted, not spanned.
METHOD_COUNTS = (
    ("phases", "Phase", "__init__", "phases.new.count"),
    ("groups", "GroupElement", "__init__", "groups.element_new.count"),
    ("multipliers", "Multiplier", "__call__", "multipliers.scalar_call.count"),
    ("multipliers", "Bicharacter", "__call__", "multipliers.bichar_call.count"),
)
# Public functions that are counted as well as spanned.
FUNCTION_COUNTS = {
    "intmat.box_reduce": "intmat.box_reduce.count",
    "isotropy.polar": "isotropy.polar.count",
}


def span_key(layer: str, name: str) -> str:
    qual = f"{layer}.{name}"
    return FUNCTION_SPANS.get(qual) or WHOLE_LAYER.get(layer) or f"{layer}.other_s"


def public_functions(mod):
    """(name, function) for the functions a module defines and does not mark private."""
    return [(name, obj) for name, obj in vars(mod).items()
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__
            and not name.startswith("_")]


class Tracer:
    """Records spans and counts while installed; spans stay in memory."""

    def __init__(self):
        self.spans: list = []            # (job, span id, parent id, key, start, end)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list = []           # [span id, seconds covered by children]
        self._next_id = 0
        self._patches: list = []         # (owner, attribute, original raw value)

    # -- spans -------------------------------------------------------------
    def _enter(self):
        self._next_id += 1
        self._stack.append([self._next_id, 0.0])
        return time.perf_counter()

    def _exit(self, key, start):
        end = time.perf_counter()
        span_id, child = self._stack.pop()
        dur = end - start
        self.self_s[key] += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += dur
        self.spans.append((self.job, span_id, parent[0] if parent else None, key, start, end))
        return dur

    def _span(self, fn, key):
        tracer = self

        def traced(*args, **kwargs):
            start = tracer._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(key, start)

        traced.__wrapped__ = fn
        return traced

    def _count(self, fn, name):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def run_root(self, job: str, fn, *args):
        """Call fn(*args) as the root span of one job; returns (result, seconds)."""
        self.job = job
        start = self._enter()
        try:
            result = fn(*args)
        finally:
            dur = self._exit(ROOT_KEY, start)
            self.job = None
        return result, dur

    # -- patching ----------------------------------------------------------
    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        wrappers = {}                    # id(original) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"weylkit.{layer}")
            for name, fn in public_functions(mod):
                wrapped = self._span(fn, span_key(layer, name))
                count = FUNCTION_COUNTS.get(f"{layer}.{name}")
                wrappers[id(fn)] = self._count(wrapped, count) if count else wrapped
        for name, mod in sorted(sys.modules.items()):
            if name == "weylkit" or name.startswith("weylkit."):
                for attr, value in list(vars(mod).items()):
                    if id(value) in wrappers:
                        self._set(mod, attr, wrappers[id(value)])
        for layer, cls_name, attr, key in METHOD_SPANS:
            cls = getattr(importlib.import_module(f"weylkit.{layer}"), cls_name)
            raw = vars(cls)[attr]
            if isinstance(raw, property):
                self._set(cls, attr, property(self._span(raw.fget, key)))
            elif isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._span(raw.__func__, key)))
            else:
                self._set(cls, attr, self._span(raw, key))
        for layer, cls_name, attr, name in METHOD_COUNTS:
            cls = getattr(importlib.import_module(f"weylkit.{layer}"), cls_name)
            self._set(cls, attr, self._count(vars(cls)[attr], name))
        self._install_rep()

    def _install_rep(self):
        """Count operator lookups, builder calls and cache hits on ProjectiveRep."""
        from weylkit.models import ProjectiveRep
        counts = self.counts
        init, operator = vars(ProjectiveRep)["__init__"], vars(ProjectiveRep)["operator"]

        def count_builds(builder):
            def counted_builder(x):
                counts["models.operator_build.count"] += 1
                return builder(x)
            return counted_builder

        def traced_init(rep, group, multiplier, dim, builder, *args, **kwargs):
            init(rep, group, multiplier, dim, count_builds(builder), *args, **kwargs)

        def traced_operator(rep, x):
            counts["models.operator_call.count"] += 1
            before = counts["models.operator_build.count"]
            op = operator(rep, x)
            if counts["models.operator_build.count"] == before:
                counts["models.op_cache_hit.count"] += 1
            return op

        self._set(ProjectiveRep, "__init__", traced_init)
        self._set(ProjectiveRep, "operator", traced_operator)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def snapshot_bindings() -> dict:
    """Identity of every attribute of every loaded weylkit module and class."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if name != "weylkit" and not name.startswith("weylkit."):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = id(value)
            if inspect.isclass(value) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = id(cvalue)
    return out
