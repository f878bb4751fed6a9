"""
Command-line surface: braid-word utilities, link invariants, certificate
generation and verification, and the bound tables.

Braid words come from --strands/--word (comma-separated signed letters) or
from a JSON file {"n": <int>, "w": [<letters>]}. Machine-readable output via
--json. Exit codes: 0 success, 1 validation or verification failure, 2
malformed input file.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .alexander import alexander
from .certificates import (
    MAX_WIRE_STEPS,
    CertificateError,
    CobordismCertificate,
    StepError,
    verify,
)
from .garside import equal, normal_form
from .replication import (
    clover_bound,
    coxeter_certificate,
    fourstrand_certificate,
    gg_estimate,
    sixstrand_certificate,
    sixstrand_step_count,
    theorem_table,
    trefoil_stack_certificate,
)
from .signature import (
    PrecisionError,
    Sigma6Error,
    sigma6,
    signature_at,
)
from .words import (MAX_WIRE_LETTERS, MAX_WIRE_STRANDS, BraidWord,
                    WordError, make_word, parse_letters)

# the most bits --theta's numerator and denominator may have; text longer
# than p/q with both at the cap, or with an exponent, is refused unparsed
THETA_MAX_BITS = 1024
_THETA_MAX_CHARS = 2 * len(str(1 << THETA_MAX_BITS)) + 1
# the most rows one paper table computes or prints: theorem-table's
# len(grid)^2 times len(offsets), and gg-table's mmax times nmax; the grid
# 1,...,256 with offset 0 takes about 2 s on a 2-vCPU machine, and gg-table
# at 256 x 256 about 0.2 s
THEOREM_TABLE_MAX_ROWS = 65_536


class CliError(Exception):
    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


def _load_word(args, attr_word="word") -> BraidWord:
    path = getattr(args, "file", None)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            return BraidWord.from_json(data)
        except (OSError, ValueError, KeyError, TypeError,
                RecursionError) as exc:
            raise CliError(f"cannot read word file {path}: {exc}", 2)
    text = getattr(args, attr_word, None)
    if text is None or args.strands is None:
        raise CliError("need --strands and --word, or --file", 1)
    if args.strands > MAX_WIRE_STRANDS:  # the cap a word file meets
        raise CliError(f"--strands {args.strands} exceeds MAX_WIRE_STRANDS "
                       f"= {MAX_WIRE_STRANDS}", 1)
    try:
        letters = parse_letters(text)
        if len(letters) > MAX_WIRE_LETTERS:  # the cap a word file meets
            raise CliError(f"--{attr_word} has {len(letters)} letters, "
                           f"exceeds MAX_WIRE_LETTERS = {MAX_WIRE_LETTERS}", 1)
        return make_word(args.strands, letters)
    except WordError as exc:
        raise CliError(str(exc), 1)


def _emit(args, human: str, payload: dict):
    if args.json:
        print(json.dumps(payload, separators=(",", ":")))
    else:
        print(human)


def _cmd_braid_nf(args):
    w = _load_word(args)
    nf = normal_form(w)
    perms = [[i + 1 for i in f] for f in nf.factors]
    _emit(
        args,
        f"infimum {nf.infimum}, {len(nf.factors)} factors: {perms}",
        {"n": w.strands, "infimum": nf.infimum, "factors": perms},
    )


def _cmd_braid_eq(args):
    same = equal(_load_word(args), _load_word(args, "word2"))
    _emit(args, "equal" if same else "not equal", {"equal": same})


def _parse_theta(text: str) -> Fraction:
    """--theta as p/q or a decimal, held to THETA_MAX_BITS."""
    text = text.strip()
    cap = (f"theta needs a numerator and denominator of at most "
           f"THETA_MAX_BITS = {THETA_MAX_BITS} bits")
    if len(text) > _THETA_MAX_CHARS or "e" in text.lower():
        raise CliError(f"{cap}, written without an exponent", 1)
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            theta = Fraction(int(num), int(den))
        else:
            theta = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"cannot parse theta {text!r}: {exc}", 1)
    if max(theta.numerator.bit_length(),
           theta.denominator.bit_length()) > THETA_MAX_BITS:
        raise CliError(cap, 1)
    return theta


def _cmd_link_sigma(args):
    w = _load_word(args)
    try:
        if args.sigma6:
            value = sigma6(w)
            _emit(args, str(value), {"sigma6": value})
        else:
            if not args.theta:
                raise CliError("need --theta p/q or --sigma6", 1)
            prof = signature_at(w, _parse_theta(args.theta))
            _emit(
                args,
                f"signature {prof.signature}, nullity {prof.nullity}",
                {
                    "theta": str(prof.theta),
                    "signature": prof.signature,
                    "nullity": prof.nullity,
                    "precision_bits": prof.precision_bits,
                },
            )
    except (Sigma6Error, PrecisionError, ValueError) as exc:
        raise CliError(str(exc), 1)


def _cmd_link_alexander(args):
    w = _load_word(args)
    poly = alexander(w)
    _emit(
        args, str(poly), {"coefficients": list(poly.coefficients)}
    )


def _cmd_cert_gen(args):
    if args.kind == "sixstrand" and args.l is None:
        raise CliError("cert gen sixstrand needs --l", 1)
    if args.kind == "trefoils" and (args.n is None or args.nprime is None):
        raise CliError("cert gen trefoils needs --n and --nprime", 1)
    # Refuse, before generating, what cert verify would refuse to read. The
    # step cap binds sixstrand first (its longest word has 60l + 30 letters)
    # and the strand cap binds trefoils (3n' letters, 3(n' - n) steps).
    steps = sixstrand_step_count(args.l) if args.kind == "sixstrand" else 0
    if steps > MAX_WIRE_STEPS:
        raise CliError(f"--l {args.l} gives {steps} steps, which exceeds "
                       f"MAX_WIRE_STEPS = {MAX_WIRE_STEPS}", 1)
    if args.kind == "trefoils" and args.nprime + 1 > MAX_WIRE_STRANDS:
        raise CliError(f"--nprime {args.nprime} needs {args.nprime + 1} "
                       f"strands, which exceeds MAX_WIRE_STRANDS = "
                       f"{MAX_WIRE_STRANDS}", 1)
    generate = {
        "fourstrand": fourstrand_certificate,
        "coxeter": coxeter_certificate,
        "sixstrand": lambda: sixstrand_certificate(args.l),
        "trefoils": lambda: trefoil_stack_certificate(args.n, args.nprime),
    }[args.kind]
    try:
        cert = generate()
    except ValueError as exc:
        raise CliError(str(exc), 1)
    print(cert.dumps())


def _cmd_cert_verify(args):
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            cert = CobordismCertificate.from_json(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        raise CliError(f"cannot read certificate {args.file}: {exc}", 2)
    try:
        report = verify(cert)
    except (StepError, CertificateError, WordError) as exc:
        raise CliError(f"verification failed: {exc}", 1)
    if args.json:
        print(json.dumps(report.to_json(), separators=(",", ":")))
    else:
        ok = report.bound_ok
        verdict = "PASS" if ok in (True, None) else "FAIL"
        print(
            f"cost {report.total_cost}, sigma6 {report.sigma6_start} -> "
            f"{report.sigma6_end}, lower bound {report.lower_bound}, "
            f"{verdict}"
        )
    if report.bound_ok is False:
        raise CliError("signature lower bound exceeds realized cost", 1)


def _check_table_rows(rows: int) -> None:
    if rows > THEOREM_TABLE_MAX_ROWS:
        raise CliError(
            f"the table has {rows} rows, which exceeds "
            f"THEOREM_TABLE_MAX_ROWS = {THEOREM_TABLE_MAX_ROWS}", 1)


def _cmd_paper_gg_table(args):
    _check_table_rows(max(0, args.mmax) * max(0, args.nmax))
    rows = [(m, n, *gg_estimate(m, n)) for m in range(1, args.mmax + 1)
            for n in range(1, args.nmax + 1)]
    if args.json:
        print(json.dumps(
            [{"m": m, "n": n, "estimate": str(e), "tolerance": t}
             for m, n, e, t in rows]))
    else:
        print("m,n,estimate,tolerance")
        for m, n, e, t in rows:
            print(f"{m},{n},{e},{t}")


def _cmd_paper_theorem_table(args):
    try:
        grid = [int(x) for x in args.grid.split(",")]
        offsets = [int(x) for x in args.offsets.split(",")]
        _check_table_rows(len(grid) ** 2 * len(offsets))
        reports = theorem_table(grid, grid, offsets)
    except ValueError as exc:
        raise CliError(f"bad grid: {exc}", 1)
    if args.json:
        print(json.dumps([r.to_json() for r in reports]))
    else:
        print("m,n,N,upper,lower,slack,window,pass")
        for r in reports:
            print(
                f"{r.m},{r.n},{r.N},{r.upper},{r.lower},{r.slack},"
                f"{r.window},{r.passed}"
            )
    if not all(r.passed for r in reports):
        raise CliError("theorem bound audit failed on the grid", 1)


def _cmd_paper_clover(args):
    try:
        value = clover_bound(args.m, args.n)
    except ValueError as exc:
        raise CliError(str(exc), 1)
    _emit(args, str(value), {"m": args.m, "n": args.n, "bound": str(value)})


def _add_word_args(p):
    p.add_argument("--strands", type=int, help="strand count")
    p.add_argument("--word", help="comma-separated signed letters")
    p.add_argument("--file", help="JSON word file {n, w}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidcob",
        description="braid words, link signatures, cobordism certificates",
    )
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    braid = sub.add_parser("braid", help="braid word utilities")
    bsub = braid.add_subparsers(dest="subcommand", required=True)
    nf = bsub.add_parser("nf", help="left greedy normal form")
    _add_word_args(nf)
    nf.set_defaults(func=_cmd_braid_nf)
    eq = bsub.add_parser("eq", help="decide word equality")
    eq.add_argument("--strands", type=int, required=True)
    eq.add_argument("--word", required=True)
    eq.add_argument("--word2", required=True)
    eq.set_defaults(func=_cmd_braid_eq)

    link = sub.add_parser("link", help="link invariants of closures")
    lsub = link.add_subparsers(dest="subcommand", required=True)
    sig = lsub.add_parser("sigma", help="Levine-Tristram signature")
    _add_word_args(sig)
    sig.add_argument("--theta", help="rational p/q in (0,1); --json gives "
                     "precision_bits 0 when the count is exact, as it is "
                     "off the jumps")
    sig.add_argument("--sigma6", action="store_true",
                     help="the limit invariant at the sixth root")
    sig.set_defaults(func=_cmd_link_sigma)
    alex = lsub.add_parser("alexander", help="Alexander polynomial")
    _add_word_args(alex)
    alex.set_defaults(func=_cmd_link_alexander)

    cert = sub.add_parser("cert", help="cobordism certificates")
    csub = cert.add_subparsers(dest="subcommand", required=True)
    gen = csub.add_parser("gen", help="emit a built-in certificate")
    gen.add_argument(
        "kind", choices=["fourstrand", "coxeter", "sixstrand", "trefoils"]
    )
    gen.add_argument("--l", type=int, help="cable parameter for sixstrand")
    gen.add_argument("--n", type=int, help="trefoils: target count")
    gen.add_argument("--nprime", type=int, help="trefoils: source count")
    gen.set_defaults(func=_cmd_cert_gen)
    ver = csub.add_parser("verify", help="replay and check a certificate")
    ver.add_argument("file")
    ver.set_defaults(func=_cmd_cert_verify)

    paper = sub.add_parser("paper", help="bound tables")
    psub = paper.add_subparsers(dest="subcommand", required=True)
    gg = psub.add_parser("gg-table", help="quasimorphism estimates")
    gg.add_argument("--mmax", type=int, default=6)
    gg.add_argument("--nmax", type=int, default=6)
    gg.set_defaults(func=_cmd_paper_gg_table)
    tt = psub.add_parser("theorem-table", help="upper/lower bound audit")
    tt.add_argument("--grid", default="6,12,18")
    tt.add_argument("--offsets", default="0,5,10")
    tt.set_defaults(func=_cmd_paper_theorem_table)
    cl = psub.add_parser("clover", help="clover invariant lower bound")
    cl.add_argument("--m", type=int, required=True)
    cl.add_argument("--n", type=int, required=True)
    cl.set_defaults(func=_cmd_paper_clover)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """
    The argument parser, built once per process: parsing leaves it as it
    was, and building it costs more than most commands do.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    return 0


if __name__ == "__main__":
    sys.exit(main())
