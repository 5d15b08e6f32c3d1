"""Batch experiment driver: generate instances, verify dictator-cut
completeness, run solvers and LPs, and emit gap tables.

Coordinates passed via --q are 1-based on the command line and converted
to the library's 0-based convention.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from fractions import Fraction

from . import approx, gadgets, lp, solvers
from .errors import CutLabError, ParamOutOfRange
from .graphs import (
    CutInstance,
    LengthBound,
    Multicut,
    Rmfc,
    Schedule,
    instance_from_json_str,
    instance_to_json_str,
    rational_str,
)

CSV_HEADER = "family,params,lp_value,integral_value,gap,wall_ms"

def parse_params(text: str, *, ranges: bool = False) -> dict:
    """Parse "r=3,k=2,eps=1/20"; with ranges, "r=2..4" expands later."""
    out: dict = {}
    if not text:
        return out
    for part in text.split(","):
        key, _, raw = part.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not key or not raw:
            raise ValueError(f"malformed parameter {part!r}")
        if ranges and ".." in raw:
            lo, hi = raw.split("..")
            out[key] = list(range(int(lo), int(hi) + 1))
        elif "/" in raw:
            out[key] = Fraction(raw)
        else:
            out[key] = int(raw)
    return out


def family_of(args: argparse.Namespace) -> gadgets.Family:
    if not args.family:
        raise ValueError("provide --instance or --family with --params")
    return gadgets.FAMILIES[args.family]


def build_instance(args: argparse.Namespace) -> CutInstance:
    family = family_of(args)
    return family.build(family.params(parse_params(args.params)), args.max_nodes)


def load_instance(args: argparse.Namespace) -> CutInstance:
    if getattr(args, "instance", None):
        with open(args.instance) as handle:
            return instance_from_json_str(handle.read())
    return build_instance(args)


def dictator_test(inst: CutInstance) -> tuple[gadgets.Family, gadgets.TestParams]:
    """The test family and params record named by the instance's provenance,
    which a --family build writes from its --params."""
    prov = inst.provenance or {}
    family = gadgets.dictator_family(prov.get("generator"))
    return family, family.params(prov.get("params"))


def emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def params_string(params: dict) -> str:
    return ";".join(f"{k}={params[k]}" for k in sorted(params))


# -- subcommands -----------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    emit(instance_to_json_str(build_instance(args)), args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    inst = load_instance(args)
    family, params = dictator_test(inst)
    cut = gadgets.dictator_cut(family.kind, params, args.q - 1, inst)
    if isinstance(cut, Schedule):
        cost, what = cut.max_day_cost(), "per-day cost"
        detail: dict = {"per_day": [rational_str(c) for c in cut.per_day_cost]}
    else:
        cost, what = cut.cost, "cut weight"
        detail = {"cost": rational_str(cut.cost)}
    if family.exact_cost is not None:
        expect = family.exact_cost(params)
        checks = [(f"{what} = {rational_str(expect)}", cost == expect)]
    else:
        bound = family.cost_bound(params, 0)
        checks = [(f"{what} <= {rational_str(bound)}", cost <= bound)]
    label, ok, found = family.check(params, inst, cut)
    checks.append((label, ok))
    if "dist" in found:
        detail["dist"] = found["dist"]

    passed = all(ok for _, ok in checks)
    lines = [f"{'PASS' if ok else 'FAIL'}  {label}" for label, ok in checks]
    payload = json.dumps(detail, sort_keys=True)
    emit("\n".join(lines) + "\n" + payload + "\n", args.out)
    return 0 if passed else 1


def cmd_lp(args: argparse.Namespace) -> int:
    inst = load_instance(args)
    if isinstance(inst.problem, Multicut):
        value, solution = lp.multicut_lp(inst)
    elif isinstance(inst.problem, LengthBound):
        value, solution = lp.short_path_cover_lp(inst)
    else:
        raise ValueError("LP relaxations cover multicut and length-bound instances")
    doc = {
        "lp_value": rational_str(value),
        "support": {
            str(k): rational_str(v) for k, v in sorted(solution.items(), key=lambda p: str(p[0])) if v > 0
        },
    }
    emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def cmd_exact(args: argparse.Namespace) -> int:
    inst = load_instance(args)
    if isinstance(inst.problem, Multicut):
        sol = solvers.exact_min_multicut(inst)
    elif isinstance(inst.problem, LengthBound):
        sol = solvers.exact_min_length_bounded_cut(inst)
    else:
        raise ValueError("exact cut solvers cover multicut and length-bound instances")
    doc = {
        "cost": rational_str(sol.cost),
        "elements": sorted(map(str, sol.elements)),
        "verified": True,
    }
    emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def cmd_approx(args: argparse.Namespace) -> int:
    inst = load_instance(args)
    if isinstance(inst.problem, Multicut):
        sol = approx.trivial_multicut(inst)
        doc = {"algorithm": "per-pair-cuts", "cost": rational_str(sol.cost)}
    elif isinstance(inst.problem, LengthBound):
        value, fractional = lp.short_path_cover_lp(inst)
        sol = approx.threshold_round_lbc(inst, None, fractional)
        doc = {
            "algorithm": "threshold-rounding",
            "lp_value": rational_str(value),
            "cost": rational_str(sol.cost),
        }
    else:
        raise ValueError("no baseline for this problem type")
    emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def cmd_interdict(args: argparse.Namespace) -> int:
    inst = load_instance(args)
    if not isinstance(inst.problem, LengthBound):
        raise ValueError("interdiction covers length-bound instances")
    best, sol = solvers.exact_interdiction(inst, Fraction(args.budget))
    doc = {
        "best_distance": best,
        "cut_cost": rational_str(sol.cost),
        "elements": sorted(map(str, sol.elements)),
    }
    emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def cmd_rmfc(args: argparse.Namespace) -> int:
    inst = load_instance(args)
    if not isinstance(inst.problem, Rmfc):
        raise ValueError("instance is not a fire-containment problem")
    if args.search_budget is not None:
        savable, schedule = solvers.exact_rmfc_decision(inst, Fraction(args.search_budget))
        doc: dict = {"savable": savable}
        if schedule is not None:
            doc["days"] = [sorted(day) for day in schedule.days]
            doc["per_day_cost"] = [rational_str(c) for c in schedule.per_day_cost]
        emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
        return 0
    if args.schedule:
        with open(args.schedule) as handle:
            raw = json.load(handle)
        days = tuple(frozenset(day) for day in raw["days"])
        costs = tuple(
            sum((inst.graph.node_weight(v) for v in day), Fraction(0)) for day in days
        )
        schedule = Schedule(days, costs)
    else:
        family, params = dictator_test(inst)
        schedule = gadgets.dictator_cut(family.kind, params, args.q - 1, inst)
    trace = solvers.rmfc_simulate(inst, schedule)
    doc = {
        "target_burnt": trace.target_burnt,
        "per_day_cost": [rational_str(c) for c in schedule.per_day_cost],
        "days_simulated": len(trace.burnt_by_day) - 1,
    }
    emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    return 0 if not trace.target_burnt else 1


def cmd_gap_table(args: argparse.Namespace) -> int:
    family = family_of(args)
    grid = parse_params(args.params, ranges=True)
    family.check_names(grid)
    names = sorted(grid)
    ranged = [k for k in names if isinstance(grid[k], list)]
    fixed = [k for k in names if not isinstance(grid[k], list)]
    combos = [
        dict(zip(ranged, values))
        for values in itertools.product(*(grid[k] for k in ranged))
    ]
    rows = []
    failures = 0
    for combo in combos:
        point = {k: grid[k] for k in fixed} | combo
        started = time.monotonic()
        try:
            inst = family.build(family.params(point), args.max_nodes)
            report = lp.gap_report(inst, params=point)
            cells = report.csv_cells()
        except CutLabError as exc:
            failures += 1
            cells = ["error", "error", f"error:{type(exc).__name__}"]
        wall = int((time.monotonic() - started) * 1000) if args.timings else 0
        rows.append(
            ",".join([args.family, params_string(point), *cells, str(wall)])
        )
    emit("\n".join([CSV_HEADER, *rows]) + "\n", args.out)
    return 0 if failures == 0 else 1


def cmd_gamma(args: argparse.Namespace) -> int:
    from .probspace import gamma_rho

    value = gamma_rho(args.rho, args.a, args.b)
    emit(json.dumps({"gamma": value}, sort_keys=True) + "\n", args.out)
    return 0


def cmd_correlation(args: argparse.Namespace) -> int:
    from .probspace import connectedness_bound, maximal_correlation

    params = parse_params(args.params)
    need = {"edge": ["r"], "star": ["r", "eps"], "fire": ["B", "eps"]}[args.family]
    missing = [name for name in need if name not in params]
    if missing:
        raise ParamOutOfRange(f"missing parameter(s) {', '.join(missing)}")
    if args.family == "edge":
        cs = gadgets.edge_noise_space(int(params["r"]))
    elif args.family == "star":
        cs = gadgets.star_noise_space(int(params["r"]), Fraction(params["eps"]))
    else:
        cs = gadgets.fire_noise_space(int(params["B"]), Fraction(params["eps"]))
    doc = {
        "rho": maximal_correlation(cs),
        "connectedness_bound": connectedness_bound(cs),
        "alpha": rational_str(cs.alpha),
    }
    emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    return 0


# -- argument wiring ----------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, *, family: bool = True) -> None:
    if family:
        sub.add_argument("--family", choices=sorted(gadgets.FAMILIES), default=None)
        sub.add_argument("--params", default="")
        sub.add_argument("--instance", default=None, help="instance JSON file")
    sub.add_argument("--out", default=None)
    sub.add_argument("--max-nodes", type=int, default=gadgets.DEFAULT_MAX_NODES)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutlab",
        description="generate, verify, and measure cut/interdiction/fire gadgets",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("generate", help="write an instance as canonical JSON")
    _add_common(gen)

    ver = subs.add_parser("verify", help="check a dictator cut's guarantees")
    _add_common(ver)
    ver.add_argument("--q", type=int, default=1, help="1-based coordinate")

    lps = subs.add_parser("lp", help="solve the covering LP relaxation")
    _add_common(lps)

    exact = subs.add_parser("exact", help="solve exactly by branch and bound")
    _add_common(exact)

    appr = subs.add_parser("approx", help="run the baseline approximation")
    _add_common(appr)

    inter = subs.add_parser("interdict", help="maximize distance under a budget")
    _add_common(inter)
    inter.add_argument("--budget", required=True)

    fire = subs.add_parser("rmfc", help="simulate or decide fire containment")
    _add_common(fire)
    fire.add_argument("--schedule", default=None, help="schedule JSON file")
    fire.add_argument("--search-budget", default=None)
    fire.add_argument("--q", type=int, default=1)

    table = subs.add_parser("gap-table", help="emit a CSV of gap reports")
    _add_common(table)
    table.add_argument("--timings", action="store_true")

    gamma = subs.add_parser("gamma", help="correlated Gaussian tail probability")
    gamma.add_argument("--rho", type=float, required=True)
    gamma.add_argument("--a", type=float, required=True)
    gamma.add_argument("--b", type=float, required=True)
    gamma.add_argument("--out", default=None)

    corr = subs.add_parser("correlation", help="maximal correlation of a test space")
    corr.add_argument("--family", choices=["edge", "star", "fire"], required=True)
    corr.add_argument("--params", default="")
    corr.add_argument("--out", default=None)

    return parser


COMMANDS = {
    "generate": cmd_generate,
    "verify": cmd_verify,
    "lp": cmd_lp,
    "exact": cmd_exact,
    "approx": cmd_approx,
    "interdict": cmd_interdict,
    "rmfc": cmd_rmfc,
    "gap-table": cmd_gap_table,
    "gamma": cmd_gamma,
    "correlation": cmd_correlation,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except CutLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
