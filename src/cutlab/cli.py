"""Batch experiment driver: generate instances, verify dictator-cut
completeness, run solvers and LPs, and emit gap tables.

Coordinates passed via --q are 1-based on the command line and converted
to the library's 0-based convention.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
import time
from fractions import Fraction

from . import approx, gadgets, lp, solvers
from .errors import (
    CoordinateOutOfRange, CutLabError, ParamOutOfRange, SizeGuard, WrongProblemType,
)
from .graphs import (
    CutInstance,
    LengthBound,
    MAX_DIGITS,
    Multicut,
    Rmfc,
    Schedule,
    instance_from_json_str,
    instance_to_json_str,
    parse_rational,
    past_digit_limit,
    rational_str,
    schedule_from_json,
)
from .probspace import gamma_rho

CSV_HEADER = "family,params,lp_value,integral_value,gap,wall_ms"
# gap-table rows, counted from the range lengths before any range is listed
GAP_TABLE_ROW_CAP = 1_000
# `correlation` family -> (its keys, the alphabet size first; its space's
# exact maximal correlation and least joint mass from the size and eps, the
# closed forms proved in `gadgets`, looked up there when called)
CORRELATION_SPACES = {
    "edge": (
        ("r",),
        lambda size, eps: gadgets.edge_noise_rho(size),
        lambda size, eps: gadgets.edge_noise_alpha(size),
    ),
    "star": (
        ("r", "eps"),
        lambda size, eps: gadgets.starred_noise_rho(size, eps),
        lambda size, eps: gadgets.starred_noise_alpha(size, eps),
    ),
    "fire": (
        ("B", "eps"),
        lambda size, eps: gadgets.starred_noise_rho(size, eps),
        lambda size, eps: gadgets.starred_noise_alpha(size, eps),
    ),
}


def parse_rational_arg(name: str, raw: str) -> Fraction:
    """``raw`` as a Fraction, or ParamOutOfRange naming ``name`` when it is
    not a rational (a zero denominator included); a value refused with
    more than ``MAX_DIGITS`` digits is named, not echoed."""
    try:
        return parse_rational(raw)
    except (ValueError, ZeroDivisionError):
        if past_digit_limit(raw):
            raise ParamOutOfRange(f"{name} has more than {MAX_DIGITS} digits") from None
        raise ParamOutOfRange(f"{name} = {raw} is not a rational") from None


def parse_params(text: str, *, ranges: bool = False) -> dict:
    """Parse "r=3,k=2,eps=1/20"; with ranges, "r=2..4" becomes [2, 3, 4],
    and a grid of more than ``GAP_TABLE_ROW_CAP`` points is refused first."""
    out: dict = {}
    if not text:
        return out
    for part in text.split(","):
        key, _, raw = part.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not key or not raw:
            raise ValueError(f"malformed parameter {part!r}")
        if key in out:
            raise ParamOutOfRange(f"parameter {key} given more than once")
        if ranges and ".." in raw:
            try:
                lo, hi = map(int, raw.split(".."))
            except ValueError:
                if past_digit_limit(raw):
                    raise ParamOutOfRange(
                        f"parameter {key} has more than {MAX_DIGITS} digits"
                    ) from None
                raise ParamOutOfRange(
                    f"range {key}={raw} needs integer endpoints lo..hi"
                ) from None
            if lo > hi:
                raise ParamOutOfRange(f"range {key}={raw} is empty")
            out[key] = range(lo, hi + 1)
        else:
            out[key] = parse_rational_arg(f"parameter {key}", raw)
    # stop - start, as len() overflows on a range longer than sys.maxsize
    rows = math.prod(v.stop - v.start for v in out.values() if isinstance(v, range))
    if rows > GAP_TABLE_ROW_CAP:
        raise SizeGuard(f"gap table would have {rows} rows (cap {GAP_TABLE_ROW_CAP})")
    return {k: list(v) if isinstance(v, range) else v for k, v in out.items()}


def family_of(args: argparse.Namespace) -> gadgets.Family:
    if not args.family:
        source = "--instance or " if "instance" in args else ""
        raise ValueError(f"provide {source}--family with --params")
    return gadgets.FAMILIES[args.family]


def build_instance(args: argparse.Namespace) -> CutInstance:
    family = family_of(args)
    return family.build(family.params(parse_params(args.params)))


def load_instance(args: argparse.Namespace) -> CutInstance:
    if args.instance:
        with open(args.instance, encoding="utf-8") as handle:
            return instance_from_json_str(handle.read())
    return build_instance(args)


def dictator_test(inst: CutInstance) -> tuple[gadgets.Family, gadgets.TestParams]:
    """The test family and params record named by the instance's provenance,
    which a --family build writes from its --params."""
    prov = inst.provenance or {}
    family = gadgets.dictator_family(prov.get("generator"))
    return family, family.params(prov.get("params"))


def dictator_cut(args: argparse.Namespace, inst: CutInstance):
    """The test family, its params and the dictator cut at the 1-based
    coordinate ``--q``, which must lie in 1..R."""
    family, params = dictator_test(inst)
    if not 1 <= args.q <= params.R:
        raise CoordinateOutOfRange(f"--q = {args.q} outside 1..{params.R}")
    return family, params, gadgets.dictator_cut(family.kind, params, args.q - 1, inst)


def emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def emit_json(doc: dict, out: str | None) -> None:
    emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", out)


def params_string(params: dict) -> str:
    return ";".join(f"{k}={params[k]}" for k in sorted(params))


# -- subcommands -----------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    emit(instance_to_json_str(build_instance(args)), args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    inst = load_instance(args)
    family, params, cut = dictator_cut(args, inst)
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
    emit_json(doc, args.out)
    return 0


def cmd_exact(args: argparse.Namespace) -> int:
    inst = load_instance(args)
    if isinstance(inst.problem, Multicut):
        sol = solvers.exact_min_multicut(inst, gadgets.declared_symmetries(inst))
    elif isinstance(inst.problem, LengthBound):
        sol = solvers.exact_min_length_bounded_cut(inst)
    else:
        raise ValueError("exact cut solvers cover multicut and length-bound instances")
    doc = {
        "cost": rational_str(sol.cost),
        "elements": sorted(map(str, sol.elements)),
        "verified": True,
    }
    emit_json(doc, args.out)
    return 0


def cmd_approx(args: argparse.Namespace) -> int:
    inst = load_instance(args)
    if isinstance(inst.problem, Multicut):
        sol = approx.trivial_multicut(inst)
        doc = {"algorithm": "per-pair-cuts", "cost": rational_str(sol.cost)}
    elif isinstance(inst.problem, LengthBound):
        value, fractional = lp.short_path_cover_lp(inst)
        sol = approx.threshold_round_lbc(inst, fractional)
        doc = {
            "algorithm": "threshold-rounding",
            "lp_value": rational_str(value),
            "cost": rational_str(sol.cost),
        }
    else:
        raise ValueError("no baseline for this problem type")
    emit_json(doc, args.out)
    return 0


def cmd_interdict(args: argparse.Namespace) -> int:
    inst = load_instance(args)
    if not isinstance(inst.problem, LengthBound):
        raise ValueError("interdiction covers length-bound instances")
    best, sol = solvers.exact_interdiction(
        inst, parse_rational_arg("--budget", args.budget)
    )
    doc = {
        "best_distance": best,
        "cut_cost": rational_str(sol.cost),
        "elements": sorted(map(str, sol.elements)),
    }
    emit_json(doc, args.out)
    return 0


def cmd_rmfc(args: argparse.Namespace) -> int:
    inst = load_instance(args)
    if not isinstance(inst.problem, Rmfc):
        raise ValueError("instance is not a fire-containment problem")
    if args.search_budget is not None:
        budget = parse_rational_arg("--search-budget", args.search_budget)
        savable, schedule = solvers.exact_rmfc_decision(inst, budget)
        doc: dict = {"savable": savable}
        if schedule is not None:
            doc["days"] = [sorted(day) for day in schedule.days]
            doc["per_day_cost"] = [rational_str(c) for c in schedule.per_day_cost]
        emit_json(doc, args.out)
        return 0
    if args.schedule:
        with open(args.schedule, encoding="utf-8") as handle:
            schedule = schedule_from_json(json.load(handle), inst.graph)
    else:
        _, _, schedule = dictator_cut(args, inst)
    trace = solvers.rmfc_simulate(inst, schedule)
    doc = {
        "target_burnt": trace.target_burnt,
        "per_day_cost": [rational_str(c) for c in schedule.per_day_cost],
        "days_simulated": len(trace.burnt_by_day) - 1,
    }
    emit_json(doc, args.out)
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
            params = family.params(point)
            # refuse what the exact search would refuse, before the build
            if not issubclass(family.problem, (Multicut, LengthBound)):
                raise WrongProblemType("gap tables cover multicut and length bound")
            if family.cuttable:
                limit = solvers.BB_ELEMENT_LIMIT
                gadgets.guard(family.cuttable(params), limit, "cuttable elements")
            inst = family.build(params)
            report = lp.gap_report(inst)
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
    value = gamma_rho(args.rho, args.a, args.b)
    emit(json.dumps({"gamma": value}, sort_keys=True) + "\n", args.out)
    return 0


def cmd_correlation(args: argparse.Namespace) -> int:
    names, rho, alpha = CORRELATION_SPACES[args.family]
    params = parse_params(args.params)
    gadgets.require_names(params, names)
    key = names[0]
    size = gadgets.param_value(key, int, params[key])
    if size < 1:
        raise ParamOutOfRange(f"need {key} >= 1")
    eps = params.get("eps")
    if eps is not None and not 0 < eps < 1:
        raise ParamOutOfRange("need 0 < eps < 1")
    least = alpha(size, eps)
    # every family's support is connected (see `gadgets`), so Mossel's
    # bound 1 - alpha^2/2 on rho holds
    try:
        doc = {
            "rho": rational_str(rho(size, eps)),
            "connectedness_bound": float(1 - least**2 / 2),
            "alpha": rational_str(least),
        }
    except ValueError:
        # an int past MAX_DIGITS does not convert to a string
        label = "parameter" if len(names) == 1 else "parameters"
        raise ParamOutOfRange(
            f"{label} {', '.join(names)}: alpha or rho has more than {MAX_DIGITS} digits"
        ) from None
    emit_json(doc, args.out)
    return 0


# -- argument wiring ----------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, *, instance: bool = True) -> None:
    """The family and output options; ``--instance`` only for the
    commands that read one through ``load_instance``."""
    sub.add_argument("--family", choices=sorted(gadgets.FAMILIES), default=None)
    sub.add_argument("--params", default="")
    if instance:
        sub.add_argument("--instance", default=None, help="instance JSON file")
    sub.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutlab",
        description="generate, verify, and measure cut/interdiction/fire gadgets",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("generate", help="write an instance as canonical JSON")
    _add_common(gen, instance=False)

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
    _add_common(table, instance=False)
    table.add_argument("--timings", action="store_true")

    gamma = subs.add_parser("gamma", help="correlated Gaussian tail probability")
    gamma.add_argument("--rho", type=float, required=True)
    gamma.add_argument("--a", type=float, required=True)
    gamma.add_argument("--b", type=float, required=True)
    gamma.add_argument("--out", default=None)

    corr = subs.add_parser("correlation", help="maximal correlation of a test space")
    corr.add_argument("--family", choices=tuple(CORRELATION_SPACES), required=True)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built at the first ``main`` call rather
    than at import, and reused: building it takes milliseconds, and
    parse_args leaves it unchanged. It holds no value that can change after
    it is built: the size caps are read from ``gadgets`` when a command runs."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
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
