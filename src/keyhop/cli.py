"""Command-line interface.

Subcommands: simulate (run a protocol and export its trace), analyze
(coalition secrecy verdicts, enumeration, truth-table cross-check), rate
(rate-versus-distance curves and anchor checks), attack (demonstrate a
concrete key recovery), wire (run the protocol over localhost TCP).

Exit codes: 0 success; 1 a requested attack does not exist; 2 protocol
abort on the wire; 3 usage or configuration error.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
from collections.abc import Callable

from .keyplan import Variant, cm_report, plan_keys
from .protocol import compile_schedule, run, trace_json, trace_text
from .topology import (
    ROW_CAP,
    NodeId,
    Shape,
    Topology,
    build_topology,
    check_runnable,
    parse_int,
    parse_layout_config,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for protocol
    # aborts, so usage problems become exit 3.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _add_layout_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shape", choices=[s.value for s in Shape])
    p.add_argument("--m", type=int, help="intermediaries on a chain")
    p.add_argument("--paths", help="comma-separated intermediary counts, one per path")
    p.add_argument("--t", type=int, help="relay reach in links minus one")
    p.add_argument("--config", help="topology config file (key = value lines)")
    p.add_argument("--variant", choices=[v.value for v in Variant])


def _add_key_flags(p: argparse.ArgumentParser) -> None:
    """The flags of a command that draws keys: their length and the seed.
    Each is None unless given, so a mode that draws no key can refuse it."""
    p.add_argument("--n", type=int, help="key length in bits")
    p.add_argument("--seed", type=int)


def _key_args(args: argparse.Namespace) -> tuple[int, int]:
    """--n and --seed, or their defaults 16 and 0."""
    return 16 if args.n is None else args.n, 0 if args.seed is None else args.seed


_SHAPE_FLAGS = ("m", "paths", "t")  # the layout keys build_topology reads
_LAYOUT_FLAGS = ("shape", "config", *_SHAPE_FLAGS, "variant")


def _refuse_ignored(args: argparse.Namespace, mode: str, names: tuple[str, ...]) -> None:
    """A usage error for each flag in names that was given but mode ignores."""
    given = [n for n in names if (v := getattr(args, n)) is not None and v is not False]
    if given:
        flags = ", ".join(f"--{n.replace('_', '-')}" for n in given)
        raise ValueError(f"{mode} ignores {flags}")


def _layout(
    args: argparse.Namespace, check: Callable[[int], None] = check_runnable
) -> tuple[Topology, Variant]:
    """The layout the flags or the config file name, and the variant to run
    on it: --variant, else the shape's default. check refuses the layout's
    intermediary count before the layout is built; every command is bound
    by the wire's hop limit, so an absurd --m fails at once, not in memory."""
    if args.config:
        _refuse_ignored(args, "--config", ("shape", *_SHAPE_FLAGS))
        with open(args.config, encoding="utf-8") as fh:
            shape, keys = parse_layout_config(fh.read())
    elif not args.shape:
        raise ValueError("give --shape or --config")
    else:
        shape = Shape(args.shape)
        keys = {k: str(v) for k in _SHAPE_FLAGS if (v := getattr(args, k)) is not None}
        if shape is Shape.MULTIPATH and args.paths is not None:
            for item in args.paths.split(","):  # here, so that an error names the flag
                parse_int(item, "--paths")
    topo = build_topology(shape, keys, check)
    variant = Variant(args.variant) if args.variant else Variant.default_for(topo.shape)
    return topo, variant


def _out_path(args: argparse.Namespace, name: str) -> str:
    os.makedirs(args.output_dir, exist_ok=True)
    return os.path.join(args.output_dir, name)


def _parse_coalition(topo: Topology, text: str) -> frozenset[NodeId]:
    labels = [part.strip() for part in text.split(",") if part.strip()]
    return frozenset(topo.node(lab) for lab in labels)


def cmd_simulate(args: argparse.Namespace) -> int:
    topo, variant = _layout(args)
    n, seed = _key_args(args)
    trace = run(topo, variant, n, random.Random(seed))
    text = trace_text(trace)
    with open(_out_path(args, "trace.txt"), "w", encoding="utf-8") as fh:
        fh.write(text)
    with open(_out_path(args, "trace.json"), "w", encoding="utf-8") as fh:
        fh.write(trace_json(trace))
    print(text, end="")
    print(f"K(A) == K(B): match ({trace.output_a.to_hex()})")  # execute checked it
    if args.hardware:
        print("hardware:")
        for line in cm_report(trace.schedule.plan):
            print(f"  {line}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from . import analysis

    if args.grid:
        _refuse_ignored(args, "--grid", ("coalition", "oracle", *_LAYOUT_FLAGS))
        path_counts = _grid_axis(args.grid_paths, "--grid-paths")
        reaches = _grid_axis(args.grid_reach, "--grid-reach")
        if not path_counts or not reaches:
            raise ValueError("--grid-paths and --grid-reach each need at least one number")
        rows = analysis.collusion_grid(path_counts, reaches)
        csv_text = analysis.grid_csv(rows)
        path = _out_path(args, "collusion_grid.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        print(csv_text, end="")
        print(f"wrote {path}")
        return 0
    _refuse_ignored(args, "analyze without --grid", ("grid_paths", "grid_reach"))
    if args.oracle and args.coalition is None:
        raise ValueError("--oracle checks one coalition; give --coalition")
    # coalitions.csv has 2^m rows; refuse before the layout is built
    topo, variant = _layout(
        args, analysis.check_enumerable if args.coalition is None else check_runnable
    )
    schedule = compile_schedule(plan_keys(topo, variant))  # every answer is read off it
    target = analysis.final_key_expr(schedule)
    if args.coalition is not None:
        coal = _parse_coalition(topo, args.coalition)
        if args.oracle:  # sweep first, so a refused sweep prints nothing
            oracle = analysis.brute_force_secrecy(schedule, coal, target)
        verdict = analysis.is_recoverable(schedule, coal, target)
        print(f"coalition {analysis.describe(coal)}: {verdict.status.value}")
        if verdict.recovery_labels:
            print("  recovery: " + " + ".join(verdict.recovery_labels))
        if args.oracle:
            agree = "agree" if oracle is verdict.status else "DISAGREE"
            print(f"  truth-table oracle: {oracle.value} ({agree})")
            if oracle is not verdict.status:
                return 1
        return 0
    # compile_schedule refuses a key between A and B, so some coalition
    # cuts every path and minimal is never empty
    minimal, rows = analysis.coalition_audit(schedule, target)
    smallest = min(map(len, minimal))
    print(f"minimal breaking coalitions (size {smallest} minimum):")
    for coal in minimal:
        print(f"  {analysis.describe(coal)} ({len(coal)} nodes)")
    path = _out_path(args, "coalitions.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(analysis.coalition_report_csv(rows))
    print(f"wrote {path} ({len(rows)} coalitions)")
    return 0


def _grid_axis(text: str | None, flag: str) -> list[int]:
    """A --grid axis: the flag's comma-separated numbers, else 1, 2 and 3."""
    return [1, 2, 3] if text is None else [parse_int(v, flag) for v in text.split(",") if v.strip()]


def cmd_rate(args: argparse.Namespace) -> int:
    from . import ratemodel

    # each distance and the reach's m become floats; refuse an int past their range
    for flag in ("--from-km", "--to-km", "--step-km", "--max-range-m"):
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and abs(value) > sys.float_info.max:
            raise ValueError(f"{flag}: the value exceeds the float range of {sys.float_info.max:g}")
    if args.from_km > args.to_km or args.step_km < 1:
        raise ValueError("rate needs --from-km <= --to-km and --step-km >= 1")
    if args.max_range_m is not None and args.max_range_m < 2:
        raise ValueError("--max-range-m: the scheme needs at least 2 intermediaries")
    if args.params:
        _refuse_ignored(args, "--params", ("alpha",))
        with open(args.params, encoding="utf-8") as fh:
            params = ratemodel.parse_rate_config(fh.read())
    elif args.alpha is None:
        params = ratemodel.RateParams.calibrated()
    else:
        params = ratemodel.RateParams.calibrated(args.alpha)
    if args.threshold is not None:
        params = params._replace(threshold_bps=args.threshold)
    reach = None if args.max_range_m is None else ratemodel.max_range(args.max_range_m, params)
    if reach is not None and not math.isfinite(reach):
        raise ValueError(
            f"--max-range-m: the reach of m={args.max_range_m} at these rate parameters is not finite"
        )
    families = (
        [f.strip() for f in args.families.split(",")]
        if args.families is not None
        else list(ratemodel.DEFAULT_FAMILIES)
    )
    # counted by arithmetic, as len() of a range past sys.maxsize overflows
    count = ((args.to_km - args.from_km) // args.step_km + 1) * len(families)
    if count > ROW_CAP:
        raise ValueError(f"the sweep has {count} rows; rates.csv holds at most {ROW_CAP}")
    distances = [float(d) for d in range(args.from_km, args.to_km + 1, args.step_km)]
    rows = ratemodel.emit_curves(distances, families, params)
    path = _out_path(args, "rates.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(ratemodel.curves_csv(rows))
    print(f"wrote {path} ({len(rows)} points)")

    checks = [
        ("single relay link at 300 km = 1000 bps", ratemodel.rate_tf(300, params), 1000.0),
        ("single relay link at 500 km close to 6 bps", ratemodel.rate_tf(500, params), 6.0),
        ("scheme m=2 at 600 km close to 100 bps", ratemodel.rate_scheme(600, 2, params), 100.0),
        ("scheme m=2 at 400 km close to 1000 bps", ratemodel.rate_scheme(400, 2, params), 1000.0),
    ]
    for label, got, want in checks:
        factor = max(got / want, want / got) if got > 0 else math.inf
        verdict = "PASS" if factor <= 2.5 else "FAIL"
        print(f"{verdict} {label}: {got:.6g} bps (reference {want:g}, factor {factor:.3g})")
    null600 = ratemodel.is_virtually_null(ratemodel.rate_tf(600, params), params)
    print(f"{'PASS' if null600 else 'FAIL'} single relay link at 600 km at or below threshold")
    if reach is not None:
        print(
            f"max range with m={args.max_range_m} at {params.threshold_bps:g} bps"
            f" threshold: {reach:.6g} km"
        )
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    from . import analysis

    if args.active:
        _refuse_ignored(args, "--active", ("coalition", *_LAYOUT_FLAGS, "n", "seed"))
        worst, per = analysis.max_active_attack_leakage()
        for name, bits in sorted(per.items()):
            print(f"substitution {name}: leakage {bits:.6g} bits")
        print(f"max leakage over deterministic substitutions: {worst:.6g} bits")
        return 0
    topo, variant = _layout(args)
    n, seed = _key_args(args)
    trace = run(topo, variant, n, random.Random(seed))
    schedule = trace.schedule
    coal = frozenset() if args.coalition is None else _parse_coalition(topo, args.coalition)
    targets = [analysis.final_key_expr(schedule), *(frozenset({nid}) for nid in schedule.nonce_ids)]
    verdict, *subs = analysis.recovery_verdicts(schedule, coal, targets)
    if verdict.status is analysis.Status.SECURE:
        print(f"coalition {analysis.describe(coal)}: no attack exists against the final key")
        return 1
    print(f"coalition {analysis.describe(coal)} recovers the final key:")
    for nid, sub in zip(schedule.nonce_ids, subs):
        if sub.status is analysis.Status.BROKEN and sub.recovery_labels:
            print(f"  {nid} = " + " + ".join(sub.recovery_labels))
    assert verdict.recovery_labels is not None
    print("  final key = " + " + ".join(verdict.recovery_labels))
    got = analysis.recover_bits(trace, verdict)
    match = "matches" if got == trace.output_a else "DOES NOT MATCH"
    print(f"  recovered {got.to_hex()}, {match} the honest endpoints' key")
    return 0


def cmd_wire(args: argparse.Namespace) -> int:
    from . import wire

    topo, variant = _layout(args)
    result = wire.orchestrate(
        topo,
        variant,
        *_key_args(args),
        args.base_port,
        args.output_dir,
        tamper_index=args.tamper,
        timeout=args.timeout,
    )
    print(result.report)
    if args.transcripts:
        for line in result.transcript():
            print(line)
    if result.code == 0:
        assert result.output_a is not None
        print(f"K(A) == K(B): match ({result.output_a.to_hex()})")
    return result.code


def _simulate_flags(p: argparse.ArgumentParser) -> None:
    _add_layout_flags(p)
    _add_key_flags(p)
    p.add_argument("--output-dir", default=".")
    p.add_argument("--hardware", action="store_true", help="print per-node hardware needs")


def _analyze_flags(p: argparse.ArgumentParser) -> None:
    _add_layout_flags(p)
    p.add_argument("--output-dir", default=".")
    p.add_argument("--coalition", help="comma-separated node labels")
    p.add_argument("--oracle", action="store_true", help="cross-check with the truth-table sweep")
    p.add_argument("--grid", action="store_true", help="minimum colluders over paths x reach")
    p.add_argument("--grid-paths")
    p.add_argument("--grid-reach")


def _rate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, help="fiber loss in dB/km")
    p.add_argument("--threshold", type=float, help="usefulness floor in bps")
    p.add_argument("--params", help="rate config file overriding the calibration")
    p.add_argument("--families", help="comma-separated curve families")
    p.add_argument("--from-km", type=int, default=0)
    p.add_argument("--to-km", type=int, default=2200)
    p.add_argument("--step-km", type=int, default=10)
    p.add_argument("--max-range-m", type=int, help="print the reach of the m-relay scheme")
    p.add_argument("--output-dir", default=".")


def _attack_flags(p: argparse.ArgumentParser) -> None:
    _add_layout_flags(p)
    _add_key_flags(p)
    p.add_argument("--coalition", help="comma-separated node labels (default: none corrupted)")
    p.add_argument("--active", action="store_true", help="active substitution leakage table")


def _wire_flags(p: argparse.ArgumentParser) -> None:
    _add_layout_flags(p)
    _add_key_flags(p)
    p.add_argument("--output-dir", default=".")
    p.add_argument("--base-port", type=int, default=9000)
    p.add_argument("--tamper", type=int, help="flip a bit in this hop's frame (test hook)")
    p.add_argument("--timeout", type=float, default=10.0)
    p.add_argument("--transcripts", action="store_true", help="print per-node transcripts")


# command -> (help, flag adder, handler)
_COMMANDS = {
    "simulate": ("run a protocol and export the trace", _simulate_flags, cmd_simulate),
    "analyze": ("coalition secrecy analysis", _analyze_flags, cmd_analyze),
    "rate": ("rate-versus-distance curves and anchors", _rate_flags, cmd_rate),
    "attack": ("demonstrate a concrete key recovery", _attack_flags, cmd_attack),
    "wire": ("run the protocol over localhost TCP", _wire_flags, cmd_wire),
}


def _listing_parser() -> _Parser:
    """The top-level parser: every command, with its help and its flags."""
    parser = _Parser(prog="keyhop", description=__doc__.split("\n\n")[1])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_flags, _) in _COMMANDS.items():
        add_flags(sub.add_parser(name, help=help_text))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # argparse hands argv[1:] to the subparser of the command argv[0] names,
    # a _Parser with prog "keyhop <name>", so that parser alone gives the
    # same Namespace, help, usage and errors. Extras it leaves, and any other
    # argv, go to the listing parser, which reports them with the top-level
    # usage. The parser stays referenced until main returns, as the listing
    # parser always has: dropping it before the handler runs moves CPython's
    # collections of argparse's cyclic garbage, which raised the analyze
    # benchmark's peak RSS by 0.35 MiB.
    args = extras = None
    if argv and argv[0] in _COMMANDS:
        parser = _Parser(prog=f"keyhop {argv[0]}")
        _COMMANDS[argv[0]][1](parser)
        args, extras = parser.parse_known_args(argv[1:])
        args.command = argv[0]
    if args is None or extras:
        parser = _listing_parser()
        args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command][2](args)
    except (ValueError, OSError) as exc:
        print(f"keyhop: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
