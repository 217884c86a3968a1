"""Command line front end.

Subcommands: eta, polytope, cocycle, mixing, sample, joining verify.
Every command prints one canonical JSON report to stdout (sorted keys,
"p/q" rationals, trailing newline) so identical invocations produce
byte-identical output; wall-clock time goes to stderr only.

Exit codes: 0 success, 1 a verification failed, 2 invalid input,
3 internal error (a failed internal cross-check).

Each input is checked once, by the library function that reads it.  A
handler wraps its library call in ``naming`` with a mapping from the
``param`` of each check to the flag that supplied it, so the exit-2
message names the flag; a handler checks only what no library function
reads, such as the flags a ``--stat`` takes.

A cold run pays only for the subcommand its argv names: each handler
imports the library functions it calls, and ``main`` builds the parser of
that one subcommand (``build_parser(command)``).
"""

from __future__ import annotations

import argparse
import functools
import gc
import math
import re
import sys
import time
from fractions import Fraction

from .errors import (
    InvalidInputError,
    JoinlabError,
    JoinlabInternalError,
    ResourceLimitError,
    naming,
)
from .rationals import parse_rational
from .report import input_digest, render_report


def _ascii_int(text: str) -> int:
    """The int that ``text`` spells as ``[+-]?[0-9]+``; ``int`` alone would
    also take spaces, underscores and the digits of other scripts."""
    if re.fullmatch("[+-]?[0-9]+", text) is not None:
        try:
            return int(text)
        except ValueError:  # more than 4,300 digits
            pass
    raise argparse.ArgumentTypeError(f"{text!r} is not an int")


def _int_list(text: str) -> tuple[int, ...]:
    parts = text.split(",")
    if "" in parts:
        raise InvalidInputError("expected a comma-separated list")
    try:
        return tuple(map(_ascii_int, parts))
    except argparse.ArgumentTypeError as exc:
        raise InvalidInputError(str(exc)) from None


def _name_list(text: str) -> list[str]:
    names = text.split(",")
    if "" in names:
        raise InvalidInputError("expected a comma-separated list of names")
    return names


def _cmd_eta(args):
    from .joinings import diagonal_invariance_defect, face_independence_defect
    from .torus import Z2kContext, full_action, triple_sum_joining

    with naming({"k": "--k"}):
        ctx = Z2kContext(args.k)
    v = triple_sum_joining(ctx)
    action = full_action(ctx)
    mass = Fraction(sum(v.numerators), v.denominator)
    edge = face_independence_defect(v, 1)
    three = face_independence_defect(v, 3)
    invariance = diagonal_invariance_defect(v, action)
    sup_product = face_independence_defect(v, v.order)
    passed = mass == 1 and edge == 0 and three == 0 and invariance == 0
    payload = {
        "command": "eta",
        "k": args.k,
        "mass": mass,
        "edge_marginal_defect": edge,
        "three_face_defect": three,
        "invariance_defect": invariance,
        "sup_distance_to_product": sup_product,
        "pass": passed,
    }
    return payload, (passed if args.verify else True), b""


def _lookup(cfg, section: str, flag: str, name: str):
    """``cfg.lookup(section, name)``, an unknown name refused under ``flag``."""
    with naming(flag):
        return cfg.lookup(section, name)


def _cmd_polytope(args):
    from .config import load_config
    from .polytope import PolytopeSpec, certify_triviality, optimize
    from .serialize import joining_to_data
    from .spaces import tuple_to_index

    cfg, blob = load_config(args.config)
    action = _lookup(cfg, "actions", "--action", args.action)
    # the shape cap carries no param; it grows with the order
    with naming({"order": "--order", "independence": "--independence", None: "--order"}):
        spec = PolytopeSpec(action, args.order, args.independence)
    payload = {
        "command": "polytope",
        "action": args.action,
        "order": args.order,
        "independence": args.independence,
    }
    if args.certify:
        if args.minimize:
            raise InvalidInputError("--minimize only applies with --objective")
        cert = certify_triviality(spec)
        payload.update(
            {
                "mode": "certify",
                "trivial": cert.trivial,
                "max_deviation": cert.max_deviation,
                "witness": joining_to_data(cert.witness) if cert.witness else None,
            }
        )
    else:
        pairs = _lookup(cfg, "objectives", "--objective", args.objective)
        dense = [Fraction(0)] * spec.size
        with naming(f"objective '{args.objective}'"):
            for tup, coeff in pairs:
                dense[tuple_to_index(spec.shape, tup)] = coeff
        sense = "min" if args.minimize else "max"
        outcome = optimize(spec, dense, sense=sense)
        payload.update(
            {
                "mode": "objective",
                "objective": args.objective,
                "sense": sense,
                "status": outcome.status,
                "optimum": outcome.optimum,
                "witness": joining_to_data(outcome.witness),
            }
        )
    return payload, True, blob


# the flags each cocycle --stat reads, in the order its messages name them
_STAT_FLAGS = {
    "rigidity": ("--set", "--sequence", "--n-param"),
    "fraction": ("--sequence", "--eps"),
    "average": ("--fiber-set-a", "--fiber-set-b", "--horizon"),
}


def _check_stat_flags(args) -> None:
    """Refuse a ``--stat`` missing a flag it reads or given one it does not."""
    flags = dict.fromkeys(f for stat_flags in _STAT_FLAGS.values() for f in stat_flags)
    given = [f for f in flags if getattr(args, f[2:].replace("-", "_")) is not None]
    reads = _STAT_FLAGS[args.stat]
    missing = [f for f in reads if f not in given]
    if missing:
        raise InvalidInputError(f"stat '{args.stat}' requires {', '.join(missing)}")
    ignored = [f for f in given if f not in reads]
    if ignored:
        raise InvalidInputError(f"stat '{args.stat}' does not take {', '.join(ignored)}")


def _cmd_cocycle(args):
    from .config import load_config
    from .skew import relative_mixing_fraction, relative_weak_mixing_average, rigidity_statistic

    cfg, blob = load_config(args.config)
    r = _lookup(cfg, "cocycles", "--cocycle", args.cocycle)
    _check_stat_flags(args)
    payload = {"command": "cocycle", "cocycle": args.cocycle, "stat": args.stat}
    if args.stat == "rigidity":
        a = _lookup(cfg, "sets", "--set", args.set)
        seq = _lookup(cfg, "sequences", "--sequence", args.sequence)
        with naming({"set": "--set", "n_param": "--n-param"}):
            stats = rigidity_statistic(r, a, args.n_param, seq.times)
        values = [[p, x] for p, x in zip(seq.times, stats)]
        payload.update(
            {"set": args.set, "sequence": args.sequence, "n_param": args.n_param,
             "values": values}
        )
    elif args.stat == "fraction":
        with naming("--eps"):
            eps = parse_rational(args.eps)
        seq = _lookup(cfg, "sequences", "--sequence", args.sequence)
        with naming({"eps": "--eps"}):
            values = [[p, relative_mixing_fraction(r, p, eps)] for p in seq.times]
        payload.update({"sequence": args.sequence, "eps": eps, "values": values})
    else:
        a = _lookup(cfg, "sets", "--fiber-set-a", args.fiber_set_a)
        b = _lookup(cfg, "sets", "--fiber-set-b", args.fiber_set_b)
        with naming({"a": "--fiber-set-a", "b": "--fiber-set-b", "horizon": "--horizon"}):
            value = relative_weak_mixing_average(r, a, b, args.horizon)
        payload.update(
            {
                "set_a": args.fiber_set_a,
                "set_b": args.fiber_set_b,
                "horizon": args.horizon,
                "value": value,
            }
        )
    return payload, True, blob


def _cmd_mixing(args):
    from .config import load_config
    from .mixing import correlation, mixing_deviation_sweep_detail

    cfg, blob = load_config(args.config)
    t = _lookup(cfg, "automorphisms", "--automorphism", args.automorphism)
    with naming("--sets"):
        set_names = _name_list(args.sets)
        if len(set_names) < 2:
            raise InvalidInputError("need at least two set names")
    sets = [_lookup(cfg, "sets", "--sets", name) for name in set_names]
    payload = {
        "command": "mixing",
        "automorphism": args.automorphism,
        "sets": set_names,
    }
    if args.offsets is not None:
        with naming({"sets": "--sets", None: "--offsets"}):
            offsets = _int_list(args.offsets)
            value = correlation(t, sets, offsets)
        product_value = math.prod((a.measure for a in sets), start=Fraction(1))
        payload.update(
            {
                "mode": "correlation",
                "offsets": list(offsets),
                "value": value,
                "product_value": product_value,
                "deviation": abs(value - product_value),
            }
        )
    else:
        with naming({"sets": "--sets", None: "--sweep"}):
            try:
                detail = mixing_deviation_sweep_detail(t, sets, args.sweep)
            except ResourceLimitError as exc:
                raise ResourceLimitError(f"offset grid {exc}") from exc
        payload.update(
            {
                "mode": "sweep",
                "k_range": args.sweep,
                "max_deviation": detail.max_deviation,
                "argmax_offsets": list(detail.argmax_offsets),
                "product_value": detail.product_value,
            }
        )
    return payload, True, blob


def _cmd_sample(args):
    from .config import load_config
    from .skew import (
        fiber_square_ergodic,
        sample_random_extension,
        skew_orbit_count,
        skew_to_data,
    )

    cfg, blob = load_config(args.config)
    s = _lookup(cfg, "automorphisms", "--base", args.base)
    fiber = _lookup(cfg, "spaces", "--fiber", args.fiber)
    with naming({"seed": "--seed", "mode": "--mode"}):
        r = sample_random_extension(s, fiber, args.seed, args.mode)
    payload = {
        "command": "sample",
        "base": args.base,
        "fiber": args.fiber,
        "seed": args.seed,
        "mode": args.mode,
        "skew": skew_to_data(r),
    }
    if args.analyze:
        with naming("--analyze"):
            count = skew_orbit_count(r)
            payload["analysis"] = {
                "orbit_count": count,
                "ergodic": count == 1,
                "fiber_square_ergodic": fiber_square_ergodic(r),
            }
    return payload, True, blob


def _cmd_joining_verify(args):
    from .config import load_config, parse_json, read_bytes
    from .joinings import diagonal_invariance_defect, face_independence_defect
    from .serialize import data_to_raw

    if args.action is not None and args.config is None:
        raise InvalidInputError("--action requires --config")
    if args.config is not None and args.action is None:
        raise InvalidInputError("--config requires --action")
    file_blob = read_bytes(args.file)
    raw = data_to_raw(parse_json(file_blob, args.file), path=args.file)
    invariance_defect, cfg_blob = None, b""
    if args.action is not None:
        cfg, cfg_blob = load_config(args.config)
        action = _lookup(cfg, "actions", "--action", args.action)
        with naming("--action"):  # a factor off the action's space is refused
            invariance_defect = diagonal_invariance_defect(raw, action)
    # every check reads the decoder's support
    cells, values, _ = raw.support
    mass = Fraction(sum(values), raw.denominator)
    low = min(values, default=0)
    if len(cells) < raw.size:  # a cell off the support holds 0
        low = min(low, 0)
    min_entry = Fraction(low, raw.denominator)
    marginals = face_independence_defect(raw, 1)
    passed = (
        mass == 1
        and min_entry >= 0
        and marginals == 0
        and (invariance_defect is None or invariance_defect == 0)
    )
    payload = {
        "command": "joining-verify",
        "file": args.file,
        "mass": mass,
        "mass_defect": abs(mass - 1),
        "min_entry": min_entry,
        "marginal_defect": marginals,
        "invariance_defect": invariance_defect,
        "pass": passed,
    }
    return payload, passed, file_blob + cfg_blob


def _add_out(p) -> None:
    p.add_argument("--out", metavar="PATH", help="also write the report here")


def _add_eta(p) -> None:
    _add_out(p)
    p.add_argument("--k", type=_ascii_int, required=True, help="number of bits")
    p.add_argument(
        "--verify", action="store_true", help="exit 1 unless all defects vanish"
    )


def _add_polytope(p) -> None:
    _add_out(p)
    p.add_argument("--config", required=True)
    p.add_argument("--action", required=True, metavar="NAME")
    p.add_argument("--order", type=_ascii_int, required=True)
    p.add_argument("--independence", type=_ascii_int, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--certify", action="store_true")
    mode.add_argument("--objective", metavar="NAME")
    p.add_argument("--minimize", action="store_true")


def _add_cocycle(p) -> None:
    _add_out(p)
    p.add_argument("--config", required=True)
    p.add_argument("--cocycle", required=True, metavar="NAME")
    p.add_argument(
        "--stat", required=True, choices=("rigidity", "fraction", "average")
    )
    p.add_argument("--set", metavar="NAME")
    p.add_argument("--sequence", metavar="NAME")
    p.add_argument("--n-param", type=_ascii_int, metavar="N")
    p.add_argument("--eps", metavar="P/Q")
    p.add_argument("--fiber-set-a", metavar="NAME")
    p.add_argument("--fiber-set-b", metavar="NAME")
    p.add_argument("--horizon", type=_ascii_int, metavar="N")


def _add_mixing(p) -> None:
    _add_out(p)
    p.add_argument("--config", required=True)
    p.add_argument("--automorphism", required=True, metavar="NAME")
    p.add_argument(
        "--sets", required=True, metavar="A0,A1,...", help="comma-separated set names"
    )
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--offsets", metavar="K1,K2,...")
    mode.add_argument("--sweep", type=_ascii_int, metavar="K")


def _add_sample(p) -> None:
    _add_out(p)
    p.add_argument("--config", required=True)
    p.add_argument("--base", required=True, metavar="NAME")
    p.add_argument("--fiber", required=True, metavar="NAME")
    p.add_argument("--seed", type=_ascii_int, required=True)
    p.add_argument(
        "--mode", required=True, choices=("iid-cocycle", "random-coboundary")
    )
    p.add_argument("--analyze", action="store_true")


def _add_joining(p) -> None:
    jsub = p.add_subparsers(dest="joining_command", required=True)
    pv = jsub.add_parser("verify", help="check the joining axioms of a tensor file")
    _add_out(pv)
    pv.add_argument("--file", required=True)
    pv.add_argument("--config", help="config defining the action for --action")
    pv.add_argument("--action", metavar="NAME")


# name: (help, argument adder, handler), in the order help lists them
_COMMANDS = {
    "eta": ("order-4 interdependence measure checks", _add_eta, _cmd_eta),
    "polytope": ("joining polytope linear programs", _add_polytope, _cmd_polytope),
    "cocycle": ("skew product statistics", _add_cocycle, _cmd_cocycle),
    "mixing": ("higher-order correlation sweeps", _add_mixing, _cmd_mixing),
    "sample": ("seed-deterministic random extensions", _add_sample, _cmd_sample),
    "joining": ("joining file operations", _add_joining, _cmd_joining_verify),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone: an argv
    that starts with a subcommand's name parses and fails alike in both."""
    parser = argparse.ArgumentParser(
        prog="joinlab",
        description="exact joining computations on finite systems",
    )
    # with one subcommand built, the metavar keeps every name in the root
    # usage that each error message repeats; the full parser needs none,
    # and its own errors name the argument "command", not the metavar
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        help_text, add_arguments, handler = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(handler=handler)
    return parser


@functools.cache
def _parser(command: str | None) -> argparse.ArgumentParser:
    """The parser ``main`` uses for ``command``, built once per process:
    ``parse_args`` keeps nothing between calls, so each call still sees a
    fresh parser."""
    return build_parser(command)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # help, an unknown name or an option before the name needs every subcommand
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = _parser(command).parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    start = time.perf_counter()
    try:
        payload, passed, digest_bytes = args.handler(args)
        payload["digest"] = input_digest(argv, digest_bytes)
        text = render_report(payload)
    except JoinlabInternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except JoinlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    elapsed = time.perf_counter() - start
    print(f"wall time: {elapsed:.3f} s", file=sys.stderr)
    return 0 if passed else 1


def run(argv=None) -> int:
    """``main`` for a fresh process: the entry of ``python -m joinlab`` and
    of the ``joinlab`` script.

    ``gc.freeze()`` moves every object the imports made into the permanent
    generation, which the run's collections and the interpreter's teardown
    collections skip; a cold run ends that much sooner.  ``__main__``
    disables the collector before its import, so no collection walks the
    heap the imports are still building; ``gc.enable()`` turns it back on.
    In-process callers call ``main``, which leaves the collector alone."""
    gc.freeze()
    gc.enable()
    return main(argv)
