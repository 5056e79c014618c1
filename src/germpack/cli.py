"""Command-line interface.

Sets are written "pre|rep" ("|10" is the evens, "111|0" is {0,1,2});
forbidden distances are a comma list like "3,5" (empty string allowed).
Exact rationals print as "num/den"; nothing is ever rounded.

Exit status: 0 on success, 2 when a winner search ends inconclusive,
1 on invalid input or a failed certificate check.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .germs import ORDER_NAMES, IntPolynomial, _term_sign, germ_gap, poly_germ_compare
from .local import sweep_to_fixpoint
from .oracle import brute_best, brute_best_periodic
from .search import Certificate, SearchBudget, best_string, find_winner
from .sets import (
    DistanceSet,
    RationalSet,
    generating_function,
    greedy_avoiding,
    valuation,
)

OK, INVALID, INCONCLUSIVE = 0, 1, 2


class _Parser(argparse.ArgumentParser):
    """argparse with the documented exit code for bad usage."""

    def error(self, message):
        self.exit(INVALID, f"{self.prog}: error: {message}\n")


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _set_dict(s: RationalSet) -> dict:
    return {"preperiod": s.preperiod, "repetend": s.repetend}


def _emit(args, payload: dict, text_lines) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_winner(args) -> int:
    distances = DistanceSet.from_text(args.d)
    budget = SearchBudget(max_window=args.m_max, max_block=args.block_max)
    result = find_winner(distances, budget)
    if result.certificate is not None:
        print(json.dumps(result.certificate.to_json_dict(), indent=2, sort_keys=True))
        return OK
    print(
        json.dumps(
            {"status": "inconclusive", "attempts": list(result.attempts)},
            indent=2,
            sort_keys=True,
        )
    )
    return INCONCLUSIVE


def _cmd_best(args) -> int:
    """`best` and `oracle best`: `args.best` is best_string or brute_best."""
    distances = DistanceSet.from_text(args.d)
    result = args.best(distances, args.len)
    _emit(
        args,
        {"distances": list(distances), "length": args.len, "best": result},
        [result],
    )
    return OK


def _cmd_greedy(args) -> int:
    distances = DistanceSet.from_text(args.d)
    bits, detected = greedy_avoiding(distances, args.horizon)
    payload = {
        "string": bits,
        "detected": _set_dict(detected) if detected else None,
    }
    lines = [bits]
    if detected:
        lines.append(f"detected: {detected.to_text()}")
    else:
        lines.append("detected: none within horizon")
    _emit(args, payload, lines)
    return OK


def _cmd_compare(args) -> int:
    a = RationalSet.from_text(args.a)
    b = RationalSet.from_text(args.b)
    gap = germ_gap(generating_function(a), generating_function(b))
    order = _term_sign(gap)
    payload = {
        "order": ORDER_NAMES[order],
        "gap": None if gap is None else {"order": gap[0], "value": _frac(gap[1])},
    }
    lines = [ORDER_NAMES[order]]
    if gap is not None:
        lines.append(f"gap: {_frac(gap[1])} at t^{gap[0]} (t = 1-q)")
    _emit(args, payload, lines)
    return OK


def _cmd_valuation(args) -> int:
    s = RationalSet.from_text(args.set)
    v = valuation(s)
    payload = {
        "preperiod": s.preperiod,
        "repetend": s.repetend,
        "density": _frac(v.density),
        "a0": _frac(v.a0),
    }
    _emit(
        args,
        payload,
        [f"density: {_frac(v.density)}", f"a0: {_frac(v.a0)}", f"class: {v.classify()}"],
    )
    return OK


def _cmd_improve(args) -> int:
    distances = DistanceSet.from_text(args.d)
    result = sweep_to_fixpoint(args.w, args.ell, distances)
    delta = poly_germ_compare(
        IntPolynomial.from_bits(result), IntPolynomial.from_bits(args.w)
    )
    payload = {
        "input": args.w,
        "result": result,
        "changed": result != args.w,
        "delta": ORDER_NAMES[delta],
    }
    _emit(args, payload, [result, f"delta: {ORDER_NAMES[delta]}"])
    return OK


def _cmd_certify(args) -> int:
    with open(args.file, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except RecursionError:
            raise ValueError("malformed certificate: JSON nested too deeply") from None
    cert = Certificate.from_json_dict(data)
    valid = cert.verify()
    payload = {"valid": valid, "kind": cert.kind, "winner": _set_dict(cert.winner)}
    _emit(args, payload, ["certificate verified" if valid else "certificate INVALID"])
    return OK if valid else INVALID


def _cmd_oracle_periodic(args) -> int:
    distances = DistanceSet.from_text(args.d)
    result = brute_best_periodic(distances, args.max_period)
    _emit(args, {"best": _set_dict(result)}, [result.to_text()])
    return OK


def _add_json_flag(parser) -> None:
    parser.add_argument("--json", action="store_true", help="machine-readable output")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="germpack", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("winner", help="search for and certify the winner")
    p.add_argument("--d", required=True, help="forbidden distances, e.g. 3,5")
    p.add_argument("--m-max", type=int, default=None, help="repeatable-window scan bound")
    p.add_argument("--block-max", type=int, default=None, help="two-block length bound")
    _add_json_flag(p)
    p.set_defaults(func=_cmd_winner)

    p = sub.add_parser("best", help="germ-maximal avoiding string of a length")
    p.add_argument("--d", required=True)
    p.add_argument("--len", type=int, required=True)
    _add_json_flag(p)
    p.set_defaults(func=_cmd_best, best=best_string)

    p = sub.add_parser("greedy", help="greedy avoiding string with period detection")
    p.add_argument("--d", required=True)
    p.add_argument("--horizon", type=int, required=True)
    _add_json_flag(p)
    p.set_defaults(func=_cmd_greedy)

    p = sub.add_parser("compare", help="germ order of two sets, with the leading gap")
    p.add_argument("--a", required=True, help="set as pre|rep")
    p.add_argument("--b", required=True, help="set as pre|rep")
    _add_json_flag(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("valuation", help="density and constant term of a set")
    p.add_argument("--set", required=True, help="set as pre|rep")
    _add_json_flag(p)
    p.set_defaults(func=_cmd_valuation)

    p = sub.add_parser("improve", help="sweep local patch rewrites to a fixpoint")
    p.add_argument("--d", required=True)
    p.add_argument("--w", required=True, help="avoiding indicator string")
    p.add_argument("--ell", type=int, required=True, help="patch length")
    _add_json_flag(p)
    p.set_defaults(func=_cmd_improve)

    p = sub.add_parser("certify", help="re-verify a stored certificate")
    p.add_argument("--file", required=True, help="certificate JSON path")
    _add_json_flag(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("oracle", help="brute-force ground truth")
    orc = p.add_subparsers(dest="oracle_command", required=True)
    q = orc.add_parser("best", help="exhaustive germ-maximal avoiding string")
    q.add_argument("--d", required=True)
    q.add_argument("--len", type=int, required=True)
    _add_json_flag(q)
    q.set_defaults(func=_cmd_best, best=brute_best)
    q = orc.add_parser("periodic", help="exhaustive germ-maximal periodic set")
    q.add_argument("--d", required=True)
    q.add_argument("--max-period", type=int, required=True)
    _add_json_flag(q)
    q.set_defaults(func=_cmd_oracle_periodic)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INVALID


if __name__ == "__main__":
    sys.exit(main())
