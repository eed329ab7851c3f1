"""Span tracing of qrmix's layers from outside the package.

`Tracer.install` replaces the layers' public functions, and the
`GroupTable` kernel methods, with wrappers that record one span per call:
(name, start, end, parent).  Each wrapper is put where the callers look the
function up: in every qrmix module namespace that holds the original
object, and on the class for methods.  Spans are kept in memory in
`Tracer.spans`; `layer_metrics` turns one round's spans into the per-layer
metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# (module, attribute): the public functions of each layer; the module is the layer.
FUNCTIONS = (
    ("groups", "build_group"),
    ("groups", "conjugacy_classes"),
    ("characters", "class_constants"),
    ("characters", "group_exponent"),
    ("characters", "character_degrees"),
    ("characters", "quasirandom_degree"),
    ("actions", "build_action"),
    ("actions", "cached_action"),
    ("actions", "invariant_projection"),
    ("actions", "koopman_apply"),
    ("mixing", "mixing_error"),
    ("mixing", "monte_carlo_mixing_error"),
    ("mixing", "mixing_bound_check"),
    ("recurrence", "triple_product_average"),
    ("recurrence", "triple_recurrence_error"),
    ("recurrence", "case_decomposition"),
    ("recurrence", "correlation_family"),
    ("recurrence", "gram_identity_check"),
    ("recurrence", "vdc_check"),
)

# (module, class, method): methods, wrapped on their class.
METHODS = (
    ("groups", "GroupTable", "mul"),
    ("groups", "GroupTable", "mul_vec"),
    ("groups", "GroupTable", "vec_mul"),
    ("groups", "GroupTable", "mul_pairs"),
    ("actions", "ActionTable", "act_row"),
    ("actions", "ActionTable", "inv_rows_matrix"),
)

KERNEL = frozenset("groups.GroupTable.%s" % m for m in ("mul", "mul_vec", "vec_mul", "mul_pairs"))

# Per-layer metric names, in BENCHMARK.json order, with their units.
LAYER_UNITS = {
    "groups.build_s": "s",
    "groups.classes_s": "s",
    "groups.kernel_calls": "count",
    "groups.kernel_elems": "count",
    "groups.kernel_s": "s",
    "groups.kernel_ns_per_elem": "ns",
    "characters.class_constants_s": "s",
    "characters.degrees_self_s": "s",
    "actions.inv_rows_s": "s",
    "actions.inv_rows_bytes": "B",
    "mixing.exact_ms_per_trial": "ms",
    "mixing.sampled_ms_per_g": "ms",
    "recurrence.exact_ms_per_trial": "ms",
    "recurrence.sampled_ms_per_g": "ms",
    "recurrence.sampled_self_ms_per_g": "ms",
    "recurrence.family_s": "s",
    "recurrence.family_bytes": "B",
    "recurrence.vdc_s": "s",
    "trace.wall_s": "s",
}


class Tracer:
    """Spans of one process, with times in seconds from `origin`."""

    def __init__(self, origin):
        self.origin = origin
        # span: [name, start, end, parent index (-1 for none), attrs]
        self.spans = []
        self._stack = []

    def open(self, name, start=None):
        parent = self._stack[-1] if self._stack else -1
        start = time.perf_counter() - self.origin if start is None else start
        self.spans.append([name, start, None, parent, {}])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, sid):
        if self._stack.pop() != sid:
            raise RuntimeError("span %s closed out of order" % self.spans[sid][0])
        self.spans[sid][2] = time.perf_counter() - self.origin

    def wrap(self, name, fn, attrs_of=None):
        """fn with a span around every call; attrs_of(args, kwargs, result) -> dict."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if attrs_of is not None:
                self.spans[sid][4] = attrs_of(args, kwargs, result)
            return result

        return traced

    def install(self, package):
        """Wrap the layer functions and methods of the imported qrmix package."""
        modules = [m for name, m in sys.modules.items()
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for mod_name, attr in FUNCTIONS:
            home = sys.modules["%s.%s" % (package.__name__, mod_name)]
            original = getattr(home, attr)
            traced = self.wrap("%s.%s" % (mod_name, attr), original, _attrs_for(attr, original))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(sys.modules["%s.%s" % (package.__name__, mod_name)], cls_name)
            name = "%s.%s.%s" % (mod_name, cls_name, meth)
            setattr(cls, meth, self.wrap(name, getattr(cls, meth), _attrs_for(meth, None)))


def _elems(args, kwargs, result):
    return {"elems": int(getattr(result, "size", 1))}


def _attrs_for(attr, original):
    """How to read a call's work from its arguments and result."""
    if attr in ("mul", "mul_vec", "vec_mul", "mul_pairs"):
        return _elems
    if attr == "monte_carlo_mixing_error":
        sig = inspect.signature(original)
        return lambda a, k, r: {"g": int(sig.bind(*a, **k).arguments["samples"])}
    if attr == "mixing_error":
        return lambda a, k, r: {"g": int(a[0].group.order)}
    if attr == "triple_recurrence_error":
        return lambda a, k, r: {"mode": r.mode, "g": int(r.samples or a[0].order)}
    if attr == "correlation_family":
        # bytes computed from the array's shape and dtype
        return lambda a, k, r: {"bytes": int(r.vectors.nbytes)}
    if attr == "inv_rows_matrix":
        # cached on the action: layer_metrics counts each matrix once
        return lambda a, k, r: {"matrix": id(r), "bytes": int(r.nbytes)}
    return None


def self_times(spans):
    """Duration of each span less the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans, wall_s):
    """Per-layer metrics of one traced round (see LAYER_UNITS)."""
    own = self_times(spans)
    total = {}
    selfs = {}
    for s, o in zip(spans, own):
        total[s[0]] = total.get(s[0], 0.0) + (s[2] - s[1])
        selfs[s[0]] = selfs.get(s[0], 0.0) + o

    def each(name):
        return [(s, o) for s, o in zip(spans, own) if s[0] == name]

    kernel = [s for s in spans if s[0] in KERNEL]
    kernel_s = sum(s[2] - s[1] for s in kernel)
    kernel_elems = sum(s[4]["elems"] for s in kernel)
    mix_exact = each("mixing.mixing_error")
    mix_mc = each("mixing.monte_carlo_mixing_error")
    rec = each("recurrence.triple_recurrence_error")
    rec_exact = [(s, o) for s, o in rec if s[4]["mode"] == "exact"]
    rec_mc = [(s, o) for s, o in rec if s[4]["mode"] != "exact"]
    mc_mix_g = sum(s[4]["g"] for s, _ in mix_mc)
    mc_rec_g = sum(s[4]["g"] for s, _ in rec_mc)

    def ratio(num, den, scale):
        return scale * num / den if den else 0.0

    return {
        "groups.build_s": total.get("groups.build_group", 0.0),
        "groups.classes_s": total.get("groups.conjugacy_classes", 0.0),
        "groups.kernel_calls": len(kernel),
        "groups.kernel_elems": kernel_elems,
        "groups.kernel_s": kernel_s,
        "groups.kernel_ns_per_elem": ratio(kernel_s, kernel_elems, 1e9),
        "characters.class_constants_s": total.get("characters.class_constants", 0.0),
        "characters.degrees_self_s": selfs.get("characters.character_degrees", 0.0),
        "actions.inv_rows_s": total.get("actions.ActionTable.inv_rows_matrix", 0.0),
        "actions.inv_rows_bytes": sum({s[4]["matrix"]: s[4]["bytes"] for s, _ in
                                       each("actions.ActionTable.inv_rows_matrix")}.values()),
        "mixing.exact_ms_per_trial": ratio(sum(s[2] - s[1] for s, _ in mix_exact), len(mix_exact), 1e3),
        "mixing.sampled_ms_per_g": ratio(sum(s[2] - s[1] for s, _ in mix_mc), mc_mix_g, 1e3),
        "recurrence.exact_ms_per_trial": ratio(sum(s[2] - s[1] for s, _ in rec_exact), len(rec_exact), 1e3),
        "recurrence.sampled_ms_per_g": ratio(sum(s[2] - s[1] for s, _ in rec_mc), mc_rec_g, 1e3),
        "recurrence.sampled_self_ms_per_g": ratio(sum(o for _, o in rec_mc), mc_rec_g, 1e3),
        "recurrence.family_s": total.get("recurrence.correlation_family", 0.0),
        "recurrence.family_bytes": sum(s[4]["bytes"] for s, _ in each("recurrence.correlation_family")),
        "recurrence.vdc_s": total.get("recurrence.vdc_check", 0.0),
        "trace.wall_s": wall_s,
    }
