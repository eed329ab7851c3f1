"""Experiment orchestration: config ingestion, family sweeps, CSV/JSON output.

Every output byte is a deterministic function of (config, master seed):
trial seeds are derived by a keyed 64-bit hash and rows are emitted in
canonical (group, experiment, action, trial) order.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field, fields

from .actions import BUILT_IN, ProbabilitySpace, random_observable
from .characters import CharacterError, character_degrees, quasirandom_degree
from .groups import (EXACT_MAX_ORDER, GroupConstructionError, build_group, canonical_descriptor,
                     check_samples, conjugacy_classes, group_order, plan)
from .mixing import mixing_bound_check
from .recurrence import correlation_family, triple_recurrence_error, vdc_check
from .seeding import derive_seed

EXPERIMENTS = ("degrees", "mixing", "recurrence", "vdc")

RESULT_COLUMNS = [
    "group", "order", "experiment", "action", "trial", "seed", "D", "epsilon",
    "bound", "measured", "ci",
    "bound_case_i", "measured_case_i", "bound_case_ii", "measured_case_ii", "pass",
]

PLOT_COLUMNS = ["group", "order", "D", "bound", "measured_max", "measured_mean"]


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    groups: list
    experiments: list
    trials: int = 10
    master_seed: int = 0
    actions: list = field(default_factory=lambda: list(BUILT_IN))
    exact_max_order: int = EXACT_MAX_ORDER
    mc_samples: int = 2000
    out_dir: str = "."

    def __post_init__(self):
        for key in ("trials", "master_seed", "exact_max_order", "mc_samples"):
            if type(getattr(self, key)) is not int:     # a bool is no count
                raise ConfigError("%s must be an integer, got %r" % (key, getattr(self, key)))
        for key, known in (("groups", None), ("experiments", EXPERIMENTS), ("actions", BUILT_IN)):
            value = getattr(self, key)
            if not (isinstance(value, list) and value and all(isinstance(v, str) for v in value)):
                raise ConfigError("%s must be a non-empty list of strings, got %r" % (key, value))
            for v in value:
                if known is not None and v not in known:
                    raise ConfigError("unknown %s %r" % (key[:-1], v))
        if not isinstance(self.out_dir, str):
            raise ConfigError("out_dir must be a string, got %r" % (self.out_dir,))
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError("master_seed must be in [0, 2^64)")
        if self.exact_max_order < 1:
            raise ConfigError("exact_max_order must be >= 1")
        checks = [e for e in self.experiments if e != "degrees"]
        try:
            check_samples("mixing", self.mc_samples, "mc_samples")   # its floor is the highest
            self.groups = [canonical_descriptor(g) for g in self.groups]  # raises on bad ones
            if len(set(self.groups)) < len(self.groups):
                raise ConfigError("groups name one group twice: %s" % ", ".join(self.groups))
            for g in self.groups if checks else []:
                try:
                    order = group_order(g)
                except GroupConstructionError:
                    continue    # run_sweep reports it as the group's error
                for exp in checks:
                    plan(exp, g, order, self.mc_samples, self.master_seed, self.exact_max_order)
        except ValueError as exc:
            raise ConfigError(str(exc))

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError("unknown config keys: %s" % ", ".join(sorted(unknown)))
        if "groups" not in data or "experiments" not in data:
            raise ConfigError("config needs 'groups' and 'experiments'")
        return cls(**data)

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError("config is not valid JSON: %s" % exc)
        return cls.from_dict(data)


def _fmt(x):
    if x is None or x == "":
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        if math.isinf(x):
            return "inf"
        return "%.17g" % x
    return str(x)


def _row(**kw):
    row = {c: "" for c in RESULT_COLUMNS}
    for k, v in kw.items():
        row[k] = _fmt(v)
    return row


def recurrence_trial(G, seed, samples=None):
    """Triple recurrence on observables drawn from seed: exact over every g,
    or over `samples` seeded g."""
    space = ProbabilitySpace.uniform(G.order)
    fs = [random_observable(space, derive_seed(seed, n)) for n in ("f1", "f2", "f3")]
    return triple_recurrence_error(G, *fs, mode="exact" if samples is None else "monte_carlo",
                                   samples=samples, seed=derive_seed(seed, "g"))


def vdc_trial(G, seed, samples):
    """van der Corput on a correlation family drawn from seed; vdc_check
    itself decides whether to sample (g, h) pairs."""
    space = ProbabilitySpace.uniform(G.order)
    f2, f3, f = (random_observable(space, derive_seed(seed, n)) for n in ("f2", "f3", "f"))
    return vdc_check(correlation_family(G, f2, f3), f, samples=samples,
                     seed=derive_seed(seed, "gh"))


def sweep_group(cfg, G):
    """Rows and per-group summary of the configured experiments on the group G."""
    desc = G.desc
    rows = []
    summary = {"order": G.order, "error": None, "experiments": {}}
    for exp in cfg.experiments:
        stats = {"trials": 0, "pass_count": 0, "fail_count": 0,
                 "max_measured": None, "bound": None, "max_ratio": None}

        def tally(bound, measured, passed):
            stats["trials"] += 1
            stats["pass_count" if passed else "fail_count"] += 1
            if measured is not None:
                if stats["max_measured"] is None or measured > stats["max_measured"]:
                    stats["max_measured"] = measured
                if bound and (stats["max_ratio"] is None or measured / bound > stats["max_ratio"]):
                    stats["max_ratio"] = measured / bound
            if bound is not None and (stats["bound"] is None or bound > stats["bound"]):
                stats["bound"] = bound

        if exp == "degrees":
            deg = character_degrees(G)
            ok = (sum(d * d for d in deg.degrees) == G.order
                  and len(deg.degrees) == conjugacy_classes(G).k)
            rows.append(_row(group=desc, order=G.order, experiment=exp, trial=0,
                             seed=derive_seed(cfg.master_seed, desc, exp, 0),
                             D=quasirandom_degree(G), **{"pass": ok}))
            tally(None, None, ok)
            summary["degrees"] = list(deg.degrees)
        elif exp == "mixing":
            for kind in cfg.actions:
                reports = mixing_bound_check(
                    G, kind, cfg.trials, cfg.master_seed,
                    mc_samples=cfg.mc_samples, exact_max_order=cfg.exact_max_order)
                for rep in reports:
                    rows.append(_row(group=desc, order=G.order, experiment=exp,
                                     action=kind, trial=rep.trial,
                                     seed=derive_seed(cfg.master_seed, desc, exp, kind, rep.trial),
                                     D=rep.D, epsilon=1.0 / math.sqrt(rep.D),
                                     bound=rep.bound, measured=rep.measured,
                                     ci=rep.ci_halfwidth, **{"pass": rep.passed}))
                    tally(rep.bound, rep.measured, rep.passed)
        elif exp == "recurrence":
            samples = plan(exp, desc, G.order, cfg.mc_samples, cfg.master_seed, cfg.exact_max_order)
            for t in range(cfg.trials):
                seed = derive_seed(cfg.master_seed, desc, exp, t)
                rep = recurrence_trial(G, seed, samples)
                rows.append(_row(group=desc, order=G.order, experiment=exp, trial=t,
                                 seed=seed, D=rep.D, epsilon=rep.epsilon,
                                 bound=rep.bound_total, measured=rep.measured_total,
                                 bound_case_i=rep.bound_case_i, measured_case_i=rep.measured_case_i,
                                 bound_case_ii=rep.bound_case_ii, measured_case_ii=rep.measured_case_ii,
                                 **{"pass": rep.passed}))
                tally(rep.bound_total, rep.measured_total, rep.passed)
        elif exp == "vdc":
            for t in range(cfg.trials):
                seed = derive_seed(cfg.master_seed, desc, exp, t)
                res = vdc_trial(G, seed, cfg.mc_samples)
                rows.append(_row(group=desc, order=G.order, experiment=exp, trial=t,
                                 seed=seed, epsilon=res.epsilon_lhs,
                                 bound=res.bound, measured=res.rhs_integral,
                                 **{"pass": res.passed}))
                tally(res.bound, res.rhs_integral, res.passed)
        summary["experiments"][exp] = stats
    return rows, summary


def run_sweep(cfg):
    """Execute the configured sweep; returns (rows, summary) and writes
    results.csv / summary.json under cfg.out_dir."""
    all_rows = []
    groups_summary = {}
    for desc in cfg.groups:
        try:
            G = build_group(desc)
            rows, entry = sweep_group(cfg, G)
            entry["D"] = quasirandom_degree(G)
        except (GroupConstructionError, CharacterError) as exc:
            groups_summary[desc] = {"error": str(exc)}
            continue
        groups_summary[desc] = entry
        all_rows.extend(rows)
    all_pass = all(r["pass"] != "false" for r in all_rows) and \
        all(s.get("error") is None for s in groups_summary.values())
    summary = {
        "master_seed": cfg.master_seed,
        "all_pass": all_pass,
        "groups": groups_summary,
    }
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_results(os.path.join(cfg.out_dir, "results.csv"), all_rows)
    write_summary(os.path.join(cfg.out_dir, "summary.json"), summary)
    return all_rows, summary


def write_csv(fh, columns, rows):
    writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)


def write_results(path, rows):
    with open(path, "w", newline="") as fh:
        write_csv(fh, RESULT_COLUMNS, rows)


def write_summary(path, summary):
    with open(path, "w") as fh:
        json.dump(_jsonable(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return x


def emit_plot_data(results_path, out_path=None):
    """Aggregate a results.csv into per-group (bound, measured) plot rows."""
    with open(results_path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or reader.fieldnames != RESULT_COLUMNS:
            raise ValueError("unexpected results schema in %s" % results_path)
        per_group = {}
        for row in reader:
            if row["measured"] == "":
                continue
            key = row["group"]
            entry = per_group.setdefault(key, {
                "order": int(row["order"]),
                "D": float(row["D"]) if row["D"] not in ("", "inf") else math.inf,
                "bound": 0.0, "measured": []})
            if row["bound"]:
                entry["bound"] = max(entry["bound"], float(row["bound"]))
            entry["measured"].append(float(row["measured"]))
    out_rows = []
    for group in sorted(per_group, key=lambda g: (per_group[g]["D"], g)):
        e = per_group[group]
        out_rows.append({
            "group": group, "order": str(e["order"]), "D": _fmt(e["D"]),
            "bound": _fmt(e["bound"]),
            "measured_max": _fmt(max(e["measured"])),
            "measured_mean": _fmt(sum(e["measured"]) / len(e["measured"])),
        })
    if out_path:
        with open(out_path, "w", newline="") as fh:
            write_csv(fh, PLOT_COLUMNS, out_rows)
    return out_rows
