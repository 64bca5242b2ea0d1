"""Command line front end.

Every subcommand prints a single report: JSON (one object, fixed key
order) with --json, aligned text otherwise.  All rationals are echoed
exactly as fractions.  Exit codes: 0 success, 2 verification failure,
3 invalid input, 4 cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from fractions import Fraction

from .cartier_mod import CartierModule, CartierStructure
from .errors import (
    CartierError,
    ExponentOverflowError,
    FptDivergenceError,
    LevelCapExceededError,
    NonDegenerateError,
    NotFRegularError,
    NotPrimeError,
    ParseError,
    RankMismatchError,
    RingMismatchError,
    StabilizationCapExceededError,
)
from .field_poly import Poly, Ring
from .groebner import FreeSubmodule, QuotientPresentation, full_module, zero_module
from .suites import REPROS, SUITES, run_repro, run_suites
from .testmod import CONVENTIONS, fpt, jumping_numbers, tau
from .vfilt import GR_CONVENTIONS, compute_vfiltration, gr_is_crystal_zero, gr_piece, verify_axioms

EXIT_OK = 0
EXIT_VERIFICATION = 2
EXIT_INVALID = 3
EXIT_CAP = 4


# One match per token; whitespace is skipped.  Groups: a natural (decimal
# digits), a word, an operator, any other character.
_TOKEN = re.compile(r"(\d+)|(\w+)|([-+*^])|(\S)")
_NAT, _WORD, _STRAY = 1, 2, 4


def parse_polynomial(text: str, ring: Ring) -> Poly:
    """Parse the expression grammar in one pass, adding each term mod p.

    expr := term (('+'|'-') term)*
    term := coeff ('*' factor)* | factor ('*' factor)*
    factor := ident ('^' nat)? ; coeff := nat

    An ident starts with a letter or '_'.  A stray character is reported
    before any grammar error; every error names its 1-based column.
    """
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastindex
        tok = m[kind]
        if kind == _STRAY or (kind == _WORD and not (tok[0].isalpha() or tok[0] == "_")):
            raise ParseError(f"unexpected character {tok[0]!r}", m.start() + 1)
        tokens.append((kind, tok, m.start() + 1))
    if not tokens:
        raise ParseError("empty input", 1)
    tokens.append((None, None, len(text) + 1))  # the end of the input
    names, p = ring.names, ring.p
    terms = {}
    i, sign = 0, 1
    while True:
        kind, tok, col = tokens[i]
        if kind is None:
            raise ParseError("expected term", col)
        exps, coeff, more = [0] * ring.n, 1, True
        if kind == _NAT:
            coeff = int(tok)
            more = tokens[i + 1][1] == "*"
            i += 1 + more
        while more:
            kind, tok, col = tokens[i]
            if kind != _WORD:
                raise ParseError("expected identifier", col)
            if tok not in names:
                raise ParseError(f"unknown identifier {tok}", col)
            if tokens[i + 1][1] == "^":
                kind, nat, _ = tokens[i + 2]
                if kind != _NAT:
                    raise ParseError("malformed exponent", tokens[i + 1][2] + 1)
                exps[names.index(tok)] += int(nat)
                i += 3
            else:
                exps[names.index(tok)] += 1
                i += 1
            more = tokens[i][1] == "*"
            i += more
        coeff = sign * coeff % p
        if coeff:
            mon = tuple(exps)
            v = (terms.get(mon, 0) + coeff) % p
            if v:
                terms[mon] = v
            else:
                del terms[mon]
        kind, tok, col = tokens[i]
        if kind is None:
            return Poly(ring, terms)
        if tok != "+" and tok != "-":
            raise ParseError(f"unexpected token {tok!r}", col)
        sign = 1 if tok == "+" else -1
        i += 1


def parse_fraction(text: str) -> Fraction:
    """Exact rationals only: 'a' or 'a/b' with natural numbers."""
    body = text.strip()
    num, slash, den = body.partition("/")
    if not num.isdigit() or (slash and not den.isdigit()):
        raise ParseError(f"malformed rational {text!r}; use a/b with naturals", 1)
    if slash and int(den) == 0:
        raise ParseError("zero denominator", 1)
    return Fraction(int(num), int(den)) if slash else Fraction(int(num))


def parse_range(text: str) -> tuple[Fraction, Fraction]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ParseError(f"malformed range {text!r}; use lo..hi", 1)
    return parse_fraction(lo), parse_fraction(hi)


def _build_ring(args) -> Ring:
    names = tuple(v.strip() for v in args.vars.split(","))
    if any(not nm for nm in names):
        raise ParseError("empty variable name", 1)
    return Ring(args.p, names)


def _parse_rows(option: str, text: str, ring: Ring, width: int | None = None):
    """The ';'-separated rows of ','-separated polynomials in an option's
    text, each row `width` long (as long as the row count when None); a row
    of another length is reported before any polynomial.  An error names the
    option and counts its column from the start of the text."""
    rows, starts, start = [], [], 0
    for part in text.split(";"):
        rows.append(part.split(","))
        starts.append(start)
        start += len(part) + 1
    for row, start in zip(rows, starts):
        if len(row) != (len(rows) if width is None else width):
            what = "twist matrix must be square" if width is None else f"vector needs {width} entries"
            raise ParseError(f"{option}: {what}", start + 1)
    out = []
    for row, start in zip(rows, starts):
        polys = []
        for e in row:
            try:
                polys.append(parse_polynomial(e, ring))
            except ParseError as exc:
                raise ParseError(f"{option}: {exc.message}", start + exc.column) from None
            start += len(e) + 1
        out.append(tuple(polys))
    return out


def _build_module(args, ring: Ring) -> CartierModule:
    if args.twist:
        U = _parse_rows("--twist", args.twist, ring)
        rank = len(U)
        structure = CartierStructure(ring, rank, U)
    else:
        structure = CartierStructure.scalar(ring)
        rank = 1
    if not (args.gens or args.rels):
        return CartierModule.free(ring, structure)  # R^r and 0 are stable under any twist
    W = (FreeSubmodule(ring, rank, _parse_rows("--gens", args.gens, ring, rank))
         if args.gens else full_module(ring, rank))
    N = (FreeSubmodule(ring, rank, _parse_rows("--rels", args.rels, ring, rank))
         if args.rels else zero_module(ring, rank))
    try:
        return CartierModule(QuotientPresentation(W, N), structure)
    except (ExponentOverflowError, StabilizationCapExceededError):
        raise
    except CartierError as exc:
        raise NonDegenerateError(f"module rejected: {exc}") from exc


def _sub_payload(sub: FreeSubmodule):
    basis = sub.groebner()
    if sub.rank == 1:
        return [v[0].to_str() for v in basis]
    return [[e.to_str() for e in v] for v in basis]


def _axioms_payload(report):
    return {
        "ok": report.ok,
        "failures": [{"axiom": f.axiom, "t": str(f.t), "detail": f.detail}
                     for f in report.failures],
    }


def _parse_pair(args, ring, parse_own, own_text: str):
    """M, f, the subcommand's own argument and c, parsed in that order, so
    the first malformed one is the one reported."""
    M = _build_module(args, ring)
    f = parse_polynomial(args.f, ring)
    own = parse_own(own_text)
    c = parse_polynomial(args.c, ring) if args.c else None
    return M, f, own, c


def cmd_tau(args, ring, timings):
    M, f, t, c = _parse_pair(args, ring, parse_fraction, args.t)
    query = {"subcommand": "tau", "f": f.to_str(), "t": str(t),
             "convention": args.convention}
    with _timed(timings, "compute"):
        res = tau(M, f, t, c, convention=args.convention, e_cap=args.max_e)
    result = {"generators": _sub_payload(res.value)}
    return query, result, res.stabilized_at_e, True


def cmd_fpt(args, ring, timings):
    f = parse_polynomial(args.f, ring)
    query = {"subcommand": "fpt", "f": f.to_str()}
    with _timed(timings, "compute"):
        res = fpt(ring, f, max_denominator=args.max_denominator, e_nu=args.e_nu,
                  e_cap=args.max_e)
    result = {"fpt": str(res.value),
              "nu_interval": [str(res.nu_lower), str(res.nu_upper)],
              "nu_level": res.nu_level}
    return query, result, res.nu_level, True


def cmd_jumps(args, ring, timings):
    M, f, (lo, hi), c = _parse_pair(args, ring, parse_range, args.range)
    query = {"subcommand": "jumps", "f": f.to_str(), "range": f"{lo}..{hi}",
             "max_denominator": args.max_denominator}
    with _timed(timings, "compute"):
        table = jumping_numbers(M, f, lo, hi, args.max_denominator, c, e_cap=args.max_e)
    result = {"jumps": [str(j) for j in table.jumps],
              "values": [_sub_payload(v) for v in table.values],
              "baseline": _sub_payload(table.v0)}
    return query, result, None, True


def cmd_vfilt(args, ring, timings):
    M, f, t_max, c = _parse_pair(args, ring, parse_fraction, args.t_max)
    query = {"subcommand": "vfilt", "f": f.to_str(), "t_max": str(t_max),
             "max_denominator": args.max_denominator}
    with _timed(timings, "compute"):
        table = compute_vfiltration(M, f, t_max, args.max_denominator, c,
                                    e_cap=args.max_e)
    with _timed(timings, "verify"):
        report = verify_axioms(M, table, c)
    result = {"v0": _sub_payload(table.v0),
              "jumps": [str(j) for j in table.jumps],
              "values": [_sub_payload(v) for v in table.values],
              "left_limits": [_sub_payload(v) for v in table.left_limits],
              "axioms": _axioms_payload(report)}
    return query, result, None, report.ok


def _parse_open_range(text: str) -> tuple[Fraction, Fraction]:
    lo, hi = parse_range(text)
    if lo >= hi:
        raise ValueError(f"empty range {lo}..{hi}; need lo < hi")
    return lo, hi


def cmd_gr(args, ring, timings):
    M, f, (lo, hi), c = _parse_pair(args, ring, _parse_open_range, args.range)
    query = {"subcommand": "gr", "f": f.to_str(), "range": f"{lo}..{hi}",
             "convention": args.convention,
             "max_denominator": args.max_denominator}
    with _timed(timings, "compute"):
        table = compute_vfiltration(M, f, hi, args.max_denominator, c,
                                    e_cap=args.max_e)
        pieces = []
        for j in table.jumps:
            if j <= lo:
                continue
            piece = gr_piece(M, table, j, args.convention)
            pieces.append({
                "t": str(j),
                "twist_exponent": piece.twist_exponent,
                "zero_piece": piece.is_zero_piece(),
                "crystal_zero": gr_is_crystal_zero(piece),
                "numerator": _sub_payload(piece.module.pres.W),
                "denominator": _sub_payload(piece.module.pres.N),
            })
    result = {"convention": args.convention, "pieces": pieces}
    return query, result, None, True


def cmd_check(args, ring, timings):
    names = args.suites if args.suites else list(SUITES)
    query = {"subcommand": "check", "suites": names, "seed": args.seed,
             "cases": args.cases}
    with _timed(timings, "compute"):
        results = run_suites(names, seed=args.seed, cases=args.cases)
    ok = all(r.ok for r in results)
    result = {"suites": [{"name": r.name, "cases": r.cases, "ok": r.ok,
                          "failures": list(r.failures)} for r in results],
              "ok": ok}
    return query, result, None, ok


def cmd_repro(args, ring, timings):
    query = {"subcommand": "repro", "scenario": args.scenario}
    with _timed(timings, "compute"):
        res = run_repro(args.scenario)
    result = {"scenario": res.scenario,
              "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail}
                         for c in res.checks],
              "ok": res.ok}
    return query, result, None, res.ok


class _timed:
    def __init__(self, sink, label):
        self.sink = sink
        self.label = label

    def __enter__(self):
        self.start = time.perf_counter()

    def __exit__(self, *exc):
        if self.sink is not None:
            ms = int(round(1000 * (time.perf_counter() - self.start)))
            self.sink[self.label] = self.sink.get(self.label, 0) + ms
        return False


def _render_human(report) -> str:
    lines = []

    def emit(key, value, indent=0):
        pad = " " * indent
        if isinstance(value, dict):
            if not value:
                lines.append(f"{pad}{key}: -")
                return
            lines.append(f"{pad}{key}:")
            for k, v in value.items():
                emit(k, v, indent + 2)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            cols = list(value[0].keys())
            rows = [[_flat(item.get(c)) for c in cols] for item in value]
            widths = [max(len(c), *(len(r[i]) for r in rows))
                      for i, c in enumerate(cols)]
            lines.append(pad + "  " + "  ".join(
                c.ljust(w) for c, w in zip(cols, widths)))
            for r in rows:
                lines.append(pad + "  " + "  ".join(
                    cell.ljust(w) for cell, w in zip(r, widths)))
        else:
            lines.append(f"{pad}{key}: {_flat(value)}")

    for key, value in report.items():
        emit(key, value)
    return "\n".join(lines)


def _flat(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, list):
        return "[" + ", ".join(_flat(v) for v in value) + "]"
    if value is None:
        return "-"
    return str(value)


def _render_repro_human(result) -> str:
    lines = []
    for check in result["checks"]:
        verdict = "PASS" if check["ok"] else "FAIL"
        lines.append(f"{check['name']}: {verdict}")
        if check["detail"]:
            lines.append(f"  note: {check['detail']}")
    verdict = "PASS" if result["ok"] else "FAIL"
    lines.append(f"scenario {result['scenario']}: {verdict}")
    return "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_INVALID, f"{self.prog}: error [usage] {message}\n")


def _add_ring_args(sub, module=True):
    sub.add_argument("--p", type=int, required=True, help="prime characteristic")
    sub.add_argument("--vars", required=True,
                     help="comma-separated variable names")
    if module:
        sub.add_argument("--twist",
                         help="structure twist: scalar polynomial, or matrix "
                              "rows separated by ';' with ',' between entries")
        sub.add_argument("--gens", help="module generators, ';'-separated "
                                        "vectors of ','-separated polynomials")
        sub.add_argument("--rels", help="module relations, same syntax as --gens")
        sub.add_argument("--c", help="test element (required for subquotients)")


def _add_output_args(sub, max_e=True):
    sub.add_argument("--json", action="store_true", help="JSON report on stdout")
    sub.add_argument("--timings", action="store_true",
                     help="include wall-clock phase timings in the report")
    if max_e:
        sub.add_argument("--max-e", type=int, default=None,
                         help="level cap N: the ceil_pe_minus_1 series runs at most N levels "
                              "and ladder rungs (p-1) p^k have k <= N (default 6)")


SCAN_DENOMINATOR_HELP = ("a jump is answered when its denominator divides some n up to "
                         "this value, or a ladder denominator (p-1) p^k up to p times it "
                         "with k at most the level cap; any other jump exits 2 (default 12)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and shared by every later
    `main` call in the process."""
    parser = _Parser(prog="cartierv",
                     description="Exact test-module and V-filtration "
                                 "computations over F_p[x_1..x_n].")
    subs = parser.add_subparsers(dest="command", required=True)

    p_tau = subs.add_parser("tau", help="test module of a principal pair")
    _add_ring_args(p_tau)
    p_tau.add_argument("--f", required=True, help="principal element")
    p_tau.add_argument("--t", required=True, help="exponent, a/b")
    p_tau.add_argument("--convention", choices=CONVENTIONS,
                       default="ceil_pe")
    _add_output_args(p_tau)
    p_tau.set_defaults(func=cmd_tau, needs_ring=True)

    p_fpt = subs.add_parser("fpt", help="F-pure threshold")
    _add_ring_args(p_fpt, module=False)
    p_fpt.add_argument("--f", required=True)
    p_fpt.add_argument("--max-denominator", type=int, default=None,
                       help="the threshold is answered when its denominator divides some "
                            "n up to this value, or a ladder denominator (p-1) p^k with k at "
                            "most the level cap; otherwise exit 4 (default p^2 (p-1))")
    p_fpt.add_argument("--e-nu", type=int, default=None,
                       help="level e for the Frobenius bracketing interval; "
                            "above 1, p^e must be at most 2^14")
    _add_output_args(p_fpt)
    p_fpt.set_defaults(func=cmd_fpt, needs_ring=True)

    p_jumps = subs.add_parser("jumps", help="jumping numbers in a range")
    _add_ring_args(p_jumps)
    p_jumps.add_argument("--f", required=True)
    p_jumps.add_argument("--range", required=True, help="lo..hi, exact fractions")
    p_jumps.add_argument("--max-denominator", type=int, default=12,
                         help=SCAN_DENOMINATOR_HELP)
    _add_output_args(p_jumps)
    p_jumps.set_defaults(func=cmd_jumps, needs_ring=True)

    p_vf = subs.add_parser("vfilt", help="tabulate the filtration and "
                                         "verify its axioms")
    _add_ring_args(p_vf)
    p_vf.add_argument("--f", required=True)
    p_vf.add_argument("--t-max", required=True)
    p_vf.add_argument("--max-denominator", type=int, default=12, help=SCAN_DENOMINATOR_HELP)
    _add_output_args(p_vf)
    p_vf.set_defaults(func=cmd_vfilt, needs_ring=True)

    p_gr = subs.add_parser("gr", help="graded pieces at the jumps")
    _add_ring_args(p_gr)
    p_gr.add_argument("--f", required=True)
    p_gr.add_argument("--range", default="0..1")
    p_gr.add_argument("--max-denominator", type=int, default=12, help=SCAN_DENOMINATOR_HELP)
    p_gr.add_argument("--convention", choices=GR_CONVENTIONS, default="a")
    _add_output_args(p_gr)
    p_gr.set_defaults(func=cmd_gr, needs_ring=True)

    p_check = subs.add_parser("check", help="run named property suites")
    p_check.add_argument("suites", nargs="*",
                         help=f"suites to run (default all): {', '.join(SUITES)}")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--cases", type=int, default=None)
    _add_output_args(p_check, max_e=False)
    p_check.set_defaults(func=cmd_check, needs_ring=False)

    p_repro = subs.add_parser("repro", help="reproduce a worked example "
                                            "against its expected outcome")
    p_repro.add_argument("scenario", choices=sorted(REPROS))
    _add_output_args(p_repro, max_e=False)
    p_repro.set_defaults(func=cmd_repro, needs_ring=False)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    timings = {} if args.timings else None
    try:
        with _timed(timings, "parse"):
            ring = _build_ring(args) if args.needs_ring else None
        query, result, stabilized, ok = args.func(args, ring, timings)
    except ParseError as exc:
        return _fail(EXIT_INVALID, "parse", exc)
    except (NotPrimeError, NonDegenerateError, NotFRegularError,
            RingMismatchError, RankMismatchError, ValueError) as exc:
        return _fail(EXIT_INVALID, _code(exc), exc)
    except (StabilizationCapExceededError, LevelCapExceededError,
            FptDivergenceError, ExponentOverflowError) as exc:
        return _fail(EXIT_CAP, _code(exc), exc)
    except CartierError as exc:
        return _fail(EXIT_VERIFICATION, _code(exc), exc)

    report = {
        "p": args.p if args.needs_ring else None,
        "vars": list(ring.names) if ring is not None else [],
        "query": query,
        "result": result,
        "certified": ok,
        "stabilized_at_e": stabilized,
        "timings_ms": timings if timings is not None else {},
    }
    if args.json:
        print(json.dumps(report, separators=(",", ":")))
    elif args.command == "repro":
        print(_render_repro_human(result))
    else:
        print(_render_human(report))
    return EXIT_OK if ok else EXIT_VERIFICATION


def _code(exc) -> str:
    name = type(exc).__name__
    if name.endswith("Error"):
        name = name[:-5]
    out = []
    for ch in name:
        if ch.isupper() and out:
            out.append("-")
        out.append(ch.lower())
    return "".join(out)


def _fail(code: int, label: str, exc) -> int:
    print(f"cartierv: error [{label}] {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
