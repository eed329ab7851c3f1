"""Experiment orchestration: config ingestion, family sweeps, CSV/JSON output.

Every experiment, here and in the verification battery (verify.py), yields
`Check` records with the library's report attached.  One row writer,
`check_row`, writes a check under any schema (RESULT_COLUMNS, verify's
CSV_COLUMNS, the CLI's), and one builder, `summarize`, makes a summary entry.

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
from .characters import (MAX_CLASSES, CharacterError, character_degrees, check_class_count,
                         quasirandom_degree)
from .groups import (EXACT_MAX_ORDER, PASS_TOL, GroupConstructionError, build_group,
                     canonical_descriptor, check_samples, class_count, conjugacy_classes,
                     group_order, plan)
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
            for key in ("groups", "experiments", "actions"):
                value = getattr(self, key)
                if len(set(value)) < len(value):
                    raise ConfigError("%s name one %s twice: %s"
                                      % (key, key[:-1], ", ".join(value)))
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
        return "%.17g" % x      # inf as "inf"
    return str(x)


@dataclass
class Check:
    """One checked quantity: where it was measured, its value against its
    bound, its verdict (by default: measured within the bound, if any), the
    library's report behind it, and the figures a row shows beside them."""
    name: str
    group: str
    action: str = ""
    trial: object = ""
    bound: float = None
    measured: float = None
    passed: bool = None
    ci: float = None
    report: object = None
    cells: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.passed is None:
            self.passed = self.bound is None or self.measured <= self.bound + PASS_TOL


def check_row(check, columns, **cells):
    """The check as one row of columns, each cell formatted by _fmt: a column
    takes the value given here, else the check's field or cell of that name,
    else its report's attribute of that name, else stays empty."""
    values = {**vars(check), "pass": bool(check.passed), **check.cells, **cells}
    return {c: _fmt(values[c] if c in values else getattr(check.report, c, None)) for c in columns}


def summarize(checks):
    """One experiment's summary entry: its counts, its largest measured value
    and bound, and its largest measured/bound ratio over nonzero bounds."""
    passed = sum(bool(c.passed) for c in checks)
    return {"trials": len(checks), "pass_count": passed, "fail_count": len(checks) - passed,
            "max_measured": max((c.measured for c in checks if c.measured is not None), default=None),
            "bound": max((c.bound for c in checks if c.bound is not None), default=None),
            "max_ratio": max((c.measured / c.bound for c in checks
                              if c.measured is not None and c.bound), default=None)}


def degrees_hold(G, degrees):
    """The invariants of G's ascending character degrees: their squares sum
    to |G|, there is one per conjugacy class, the first is 1, and D is the
    least degree after it (inf for |G| = 1)."""
    D = quasirandom_degree(G)
    return (sum(d * d for d in degrees) == G.order and len(degrees) == conjugacy_classes(G).k
            and degrees[0] == 1 and (D == math.inf or D == min(degrees[1:])))


def checked_class_count(desc, experiments):
    """desc's class count, from its descriptor; a CharacterError above
    MAX_CLASSES unless vdc runs alone, since every other experiment reads D."""
    k = class_count(desc)
    if set(experiments) != {"vdc"}:
        check_class_count(k)
    return k


def mixing_checks(G, kind, trials, master, **planned):
    """mixing_bound_check's reports on one action as checks."""
    return [Check("mixing_bound", G.desc, kind, rep.trial, rep.bound, rep.measured, rep.passed,
                  ci=rep.ci_halfwidth, report=rep)
            for rep in mixing_bound_check(G, kind, trials, master, **planned)]


def recurrence_trial(G, seed, samples=None):
    """Triple recurrence on observables drawn from seed: exact over every g,
    or over `samples` seeded g."""
    space = ProbabilitySpace.uniform(G.order)
    fs = [random_observable(space, derive_seed(seed, n)) for n in ("f1", "f2", "f3")]
    return triple_recurrence_error(G, *fs, mode="exact" if samples is None else "monte_carlo",
                                   samples=samples, seed=derive_seed(seed, "g"))


def vdc_trial(G, seed, samples, trial):
    """van der Corput on a correlation family drawn from seed, as a check;
    vdc_check itself decides whether to sample (g, h) pairs."""
    space = ProbabilitySpace.uniform(G.order)
    f2, f3, f = (random_observable(space, derive_seed(seed, n)) for n in ("f2", "f3", "f"))
    res = vdc_check(correlation_family(G, f2, f3), f, samples=samples,
                    seed=derive_seed(seed, "gh"))
    return Check("vdc_correlation", G.desc, trial=trial, bound=res.bound, measured=res.rhs_integral,
                 passed=res.passed, report=res,
                 cells={"seed": seed, "epsilon": res.epsilon_lhs, "bound_total": res.bound,
                        "measured_total": res.rhs_integral})


def experiment_checks(cfg, G, exp):
    """The checks of one sweep experiment on G in row order, with their
    reports attached and the seed each row records among their cells."""
    desc, master = G.desc, cfg.master_seed
    if exp == "degrees":
        deg = character_degrees(G)
        return [Check("degree_invariants", desc, trial=0, passed=degrees_hold(G, deg.degrees),
                      report=deg, cells={"seed": derive_seed(master, desc, exp, 0),
                                         "D": quasirandom_degree(G)})]
    if exp == "mixing":
        checks = [c for kind in cfg.actions for c in mixing_checks(
            G, kind, cfg.trials, master, mc_samples=cfg.mc_samples,
            exact_max_order=cfg.exact_max_order)]
        for c in checks:
            c.cells["seed"] = derive_seed(master, desc, exp, c.action, c.trial)
        return checks
    seeds = [derive_seed(master, desc, exp, t) for t in range(cfg.trials)]
    if exp == "vdc":
        return [vdc_trial(G, seed, cfg.mc_samples, t) for t, seed in enumerate(seeds)]
    samples = plan(exp, desc, G.order, cfg.mc_samples, master, cfg.exact_max_order)
    reports = [recurrence_trial(G, seed, samples) for seed in seeds]
    return [Check("triple_recurrence", desc, trial=t, bound=rep.bound_total,
                  measured=rep.measured_total, passed=rep.passed, report=rep,
                  cells={"seed": seeds[t]})
            for t, rep in enumerate(reports)]


def sweep_group(cfg, G):
    """Rows and per-group summary of the configured experiments on the group G."""
    rows, summary = [], {"order": G.order, "error": None, "experiments": {}}
    for exp in cfg.experiments:
        checks = experiment_checks(cfg, G, exp)
        rows += [check_row(c, RESULT_COLUMNS, order=G.order, experiment=exp) for c in checks]
        summary["experiments"][exp] = summarize(checks)
        if exp == "degrees":
            summary["degrees"] = list(checks[0].report.degrees)
    return rows, summary


def run_sweep(cfg):
    """Execute the configured sweep; returns (rows, summary) and writes
    results.csv / summary.json under cfg.out_dir."""
    all_rows = []
    groups_summary = {}
    for desc in cfg.groups:
        try:
            k = checked_class_count(desc, cfg.experiments)
            G = build_group(desc)
            rows, entry = sweep_group(cfg, G)
            entry["D"] = quasirandom_degree(G) if k <= MAX_CLASSES else None
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
    write_results(os.path.join(cfg.out_dir, "results.csv"), all_rows)
    write_summary(os.path.join(cfg.out_dir, "summary.json"), summary)
    return all_rows, summary


def write_csv(fh, columns, rows):
    writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)


def write_results(path, rows, columns=RESULT_COLUMNS):
    """rows as a CSV file at path, its directory made if missing."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        write_csv(fh, columns, rows)


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
        write_results(out_path, out_rows, PLOT_COLUMNS)
    return out_rows
