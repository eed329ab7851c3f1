"""Command-line front end.

Subcommands: degrees, mixing, recurrence, vdc, sweep, plotdata, verify.
Exit status: 0 all pass, 1 any bound violation or a closed output pipe,
2 usage/config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .characters import CharacterError, character_degrees, quasirandom_degree
from .groups import GroupConstructionError, build_group, conjugacy_classes
from .sweep import (BUILT_IN, PLOT_COLUMNS, ConfigError, ExperimentConfig, _jsonable,
                    check_row, checked_class_count, emit_plot_data, experiment_checks, run_sweep,
                    write_csv, write_results)
from .verify import PROFILES, run_verify

RECURRENCE_COLUMNS = ["group", "order", "D", "epsilon",
                      "bound_case_i", "measured_case_i",
                      "bound_case_ii", "measured_case_ii",
                      "bound_total", "measured_total", "pass"]
COLUMNS = {
    "mixing": ["group", "order", "action", "D", "trial", "bound", "measured", "ci", "pass"],
    "recurrence": RECURRENCE_COLUMNS,
    "vdc": RECURRENCE_COLUMNS,
}


def cmd_degrees(args):
    checked_class_count(args.group, ["degrees"])
    G = build_group(args.group)
    deg = character_degrees(G)
    out = {
        "group": G.desc,
        "order": G.order,
        "classes": conjugacy_classes(G).k,
        "degrees": list(deg.degrees),
        "D": quasirandom_degree(G),
    }
    print(json.dumps(_jsonable(out)))
    return 0


def cmd_check(args):
    """mixing, recurrence, vdc: a one-group sweep of that experiment, its
    checks written under the subcommand's CSV schema."""
    cfg = ExperimentConfig(groups=[args.group], experiments=[args.command], trials=args.trials,
                           master_seed=args.seed, actions=[getattr(args, "action", "left")],
                           mc_samples=args.mc)
    checked_class_count(cfg.groups[0], cfg.experiments)
    G = build_group(cfg.groups[0])      # the group once its inputs pass
    checks = experiment_checks(cfg, G, args.command)
    columns = COLUMNS[args.command]
    out = [check_row(c, columns, order=G.order) for c in checks]
    write_csv(sys.stdout, columns, out)
    if args.out:
        write_results(os.path.join(args.out, args.command + ".csv"), out, columns)
    return 0 if all(c.passed for c in checks) else 1


def cmd_sweep(args):
    cfg = ExperimentConfig.from_file(args.config)
    cfg = dataclasses.replace(cfg, out_dir=args.out or cfg.out_dir,   # validates the overrides
                              master_seed=cfg.master_seed if args.seed is None else args.seed)
    _, summary = run_sweep(cfg)
    print(json.dumps({"all_pass": summary["all_pass"],
                      "out_dir": cfg.out_dir}))
    return 0 if summary["all_pass"] else 1


def cmd_plotdata(args):
    out_path = os.path.join(args.out, "plot.csv") if args.out else None
    rows = emit_plot_data(args.results, out_path)
    write_csv(sys.stdout, PLOT_COLUMNS, rows)
    return 0


def cmd_verify(args):
    return run_verify(args.out or ".", master_seed=args.seed or 0, profile=args.profile)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qrmix",
        description="Quasirandomness degrees, mixing bounds, and recurrence "
                    "inequalities on concrete finite groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("degrees", help="character degree multiset and D as JSON")
    p.add_argument("--group", "-g", required=True)
    p.set_defaults(func=cmd_degrees)

    for name, text in (("mixing", "check the D^(-1/2) mixing bound"),
                       ("recurrence", "check the triple recurrence bounds"),
                       ("vdc", "check the quantitative van der Corput bound")):
        p = sub.add_parser(name, help=text + " (a one-group sweep)")
        p.add_argument("--group", "-g", required=True, help="family descriptor, "
                       "e.g. cyclic:8, symmetric:4, sl2:13, product:cyclic:2,sl2:5")
        p.add_argument("--seed", type=int, default=0, help="master seed (u64)")
        p.add_argument("--trials", type=int, default=10)
        p.add_argument("--mc", type=int, default=2000, help="Monte Carlo samples")
        p.add_argument("--out", help="output directory")
        if name == "mixing":
            p.add_argument("--action", default="left", choices=BUILT_IN)
        p.set_defaults(func=cmd_check)

    p = sub.add_parser("sweep", help="run a configured experiment sweep")
    p.add_argument("--config", required=True, help="JSON config path")
    p.add_argument("--seed", type=int, default=None, help="override master_seed")
    p.add_argument("--out", help="override out_dir")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("plotdata", help="aggregate a results.csv into plot rows")
    p.add_argument("--results", required=True, help="path to results.csv")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_plotdata)

    p = sub.add_parser("verify", help="run the verification battery")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output directory", default=".")
    p.add_argument("--profile", default="full", choices=sorted(PROFILES))
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()      # a closed pipe raises here, not at interpreter exit
        return status
    except BrokenPipeError:
        # the reader stopped reading (`| head`): point stdout at devnull so the
        # exit's own flush writes nowhere, and exit 1 as Python does on EPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (GroupConstructionError, ConfigError, CharacterError, FileNotFoundError,
            NotADirectoryError, IsADirectoryError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
