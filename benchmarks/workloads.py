"""
The four benchmark workloads: seeded, fixed-size lists of self-checking
operations against the public API of braidcob.

Each workload function takes the seed and a scratch directory and returns:
an ordered list of operations and one warm-up call. An operation's `run`
calls into braidcob through module attributes looked up at call time, so the
tracer's rebinding reaches it; its `check` compares the result with a value
from an independent source and returns None or a reason for failure.

Sizes are fixed per workload and only the content is seeded, so every seed
costs about the same. Each workload repeats four to six operations of one
shape at its heavy end, so that the tail latency (about the third-slowest
operation of a pass, see worker.tail) falls inside one cluster of like
operations on every seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracles

NAMES = ("certify", "invariants", "word_problem", "bound_tables")


@dataclasses.dataclass(frozen=True)
class Op:
    kind: str
    spec: str  # every input of the operation, as stable text
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    warmup: Callable[[], object]

    def digest(self) -> str:
        """Hash of the generated operation list; equal seeds give equal hashes."""
        h = hashlib.sha256()
        for op in self.ops:
            h.update(f"{op.kind}|{op.spec}\n".encode())
        return h.hexdigest()


class Modules:
    """The braidcob modules, looked up by attribute so rebinding shows."""

    def __init__(self):
        for layer in ("words", "garside", "seifert", "alexander", "signature",
                      "links", "certificates", "replication", "cli"):
            setattr(self, layer, importlib.import_module(f"braidcob.{layer}"))


def build(name: str, seed: int, workdir: Path, bc: Modules) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    make_ops = {
        "certify": _certify,
        "invariants": _invariants,
        "word_problem": _word_problem,
        "bound_tables": _bound_tables,
    }[name]
    ops, warmup = make_ops(rng, workdir, bc)
    return Workload(name, tuple(ops), warmup)


def _digest(data) -> str:
    return hashlib.sha256(repr(data).encode()).hexdigest()[:16]


def cli_call(bc: Modules, argv: list[str]):
    """In-process CLI run; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = bc.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _expect_exit(want: int, report_check=None):
    def check(result):
        code, out, err = result
        if code != want:
            return f"exit {code}, expected {want}: {err.strip()[:200]}"
        if report_check is not None:
            return report_check(json.loads(out.strip().splitlines()[-1]))
        return None
    return check


def _expect_report(**want):
    """Exact fields of a verify report plus bound_ok and lower <= cost."""
    def check(report):
        for key, value in want.items():
            if report.get(key) != value:
                return f"{key} = {report.get(key)!r}, expected {value!r}"
        if report.get("bound_ok") is not True:
            return f"bound_ok = {report.get('bound_ok')!r}, expected true"
        if report["lower_bound"] != abs(
            report["sigma6_start"] - report["sigma6_end"]
        ):
            return "lower_bound is not |sigma6_start - sigma6_end|"
        if report["lower_bound"] > report["total_cost"]:
            return "lower bound exceeds the realized cost"
        return None
    return check


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

TAMPERED_PER_KIND = 2  # copies of each base per kind of tampering

# steps whose "pos" field addresses a letter of the current word
_POSITIONAL = ("saddle_del", "saddle_ins", "tcube", "crossing")


def _shift_position(rng, cert: dict) -> dict:
    """Move one positional step far past the end of any word: exit 1."""
    idx = rng.choice([i for i, s in enumerate(cert["steps"])
                      if s["op"] in _POSITIONAL])
    cert["steps"][idx]["pos"] += 10_000 + rng.randrange(10_000)
    return cert


def _change_end(rng, cert: dict) -> dict:
    """
    Declare a different end: more trefoil summands, or one more letter on a
    closure, which changes its exponent sum. Replay succeeds and the end
    comparison fails: exit 1.
    """
    closures = [c for c in cert["end"]["closures"] if c["n"] >= 2]
    if closures and rng.random() < 0.5:
        c = rng.choice(closures)
        c["w"].append(rng.randrange(1, c["n"]))
    else:
        cert["end"]["tpos"] += 1 + rng.randrange(3)
    return cert


def _corrupt_field(rng, cert: dict) -> dict:
    """Make the file unreadable as a certificate: exit 2."""
    kind = rng.randrange(4)
    step = rng.choice(cert["steps"])
    if kind == 0:
        step["op"] = f"bogus{rng.randrange(100)}"
    elif kind == 1:
        del step["closure"]
    elif kind == 2:
        word = cert["start"]["closures"][0]
        word["w"][rng.randrange(len(word["w"]))] = word["n"] + rng.randrange(3)
    else:
        cert["end"]["tpos"] = "x" * (1 + rng.randrange(3))
    return cert


def _with_detour(rng, cert: dict) -> dict:
    """
    An honest variant: two free equivalence steps that leave the start word
    for a seeded braid-relation rewriting of it and come back.
    """
    start = cert["start"]["closures"][0]
    other = oracles.rewrite(rng, start["n"], start["w"], 40)
    detour = [
        {"op": "equiv", "closure": 0,
         "target": {"n": start["n"], "w": other}},
        {"op": "equiv", "closure": 0,
         "target": {"n": start["n"], "w": list(start["w"])}},
    ]
    cert["steps"] = detour + cert["steps"]
    return cert


def _certify(rng, workdir: Path, bc: Modules):
    rep = bc.replication
    honest = []  # (label, certificate json, report check)
    for l in (2, 3):
        # cost layout: 90 cable saddles, 10(2l-2) cubes, 7 tail saddles and
        # 4 per closing trefoil summand; the end is the unknot plus 20l
        # trefoil counters, so its sigma6 is 40l
        honest.append((f"sixstrand l={l}",
                       rep.sixstrand_certificate(l).to_json(),
                       _expect_report(total_cost=157 + 20 * l,
                                      sigma6_end=40 * l)))
    for i in range(3):
        honest.append((f"sixstrand l=2 detour {i}",
                       _with_detour(rng, rep.sixstrand_certificate(2).to_json()),
                       _expect_report(total_cost=197, sigma6_end=80)))
    honest.append(("fourstrand", rep.fourstrand_certificate().to_json(),
                   _expect_report(total_cost=10, sigma6_end=20)))
    honest.append(("coxeter", rep.coxeter_certificate().to_json(),
                   _expect_report(total_cost=12, sigma6_end=24)))
    for _ in range(4):
        nprime = rng.randrange(8, 21)
        n = rng.randrange(1, nprime)
        cost = 2 * (nprime - n)
        honest.append((
            f"trefoils {n} {nprime}",
            rep.trefoil_stack_certificate(n, nprime).to_json(),
            _expect_report(total_cost=cost, lower_bound=cost,
                           sigma6_start=2 * nprime, sigma6_end=2 * n),
        ))

    files = []  # (kind, label, certificate json, check)
    for label, cert, check in honest:
        files.append(("verify-honest", label, cert, _expect_exit(0, check)))
    # every base but the detour variants (which would only repeat the plain
    # l=2 copies) gets each kind of tampering TAMPERED_PER_KIND times
    bases = [(label, cert) for label, cert, _ in honest if "detour" not in label]
    for tamper, code in ((_shift_position, 1), (_change_end, 1),
                         (_corrupt_field, 2)):
        for label, cert in bases * TAMPERED_PER_KIND:
            bad = tamper(rng, json.loads(json.dumps(cert)))
            files.append((f"verify-{tamper.__name__[1:]}", label, bad,
                          _expect_exit(code)))

    rng.shuffle(files)
    ops = []
    for i, (kind, label, cert, check) in enumerate(files):
        path = workdir / f"cert{i:03d}.json"
        text = json.dumps(cert, separators=(",", ":"))
        path.write_text(text, encoding="utf-8")
        argv = ["--json", "cert", "verify", str(path)]
        ops.append(Op(kind, f"{label} sha={_digest(text)}",
                      lambda argv=argv: cli_call(bc, argv), check))

    warm = workdir / "warmup.json"
    warm.write_text(rep.fourstrand_certificate().dumps(), encoding="utf-8")
    return ops, lambda: cli_call(bc, ["--json", "cert", "verify", str(warm)])


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def _random_knot(rng, strands: int, length: int) -> list[int]:
    """Mixed-sign word whose closure is a knot using every generator."""
    if (length - (strands - 1)) % 2:
        length += 1  # a single cycle on n strands has the parity of n-1
    while True:
        w = oracles.random_letters(rng, strands, length)
        perm = oracles.permutation(strands, w)
        p, steps = perm[0], 1
        while p != 0:
            p, steps = perm[p], steps + 1
        if steps == strands and len({abs(k) for k in w}) == strands - 1:
            return w


def _theta(rng) -> Fraction:
    # a prime denominator keeps omega off every root of the Alexander
    # polynomials here (their degrees stay far below 1008), so the nullity
    # is zero and both twins are evaluated off the jumps
    return Fraction(rng.randrange(1, 1009), 1009)


def _invariants(rng, workdir: Path, bc: Modules):
    rep, words = bc.replication, bc.words
    twins = []  # (label, word, isotopic word)
    for l in (1, 2):
        twins.append((f"bbl {l}", rep.bbl_word(l), rep.torus_word(3, 6 * l + 3)))
    cable = ("cable 1", rep.cabled_torus_word(1), rep.torus_word(6, 18))
    # many small random knots rather than a few large ones: the cost of a
    # random word varies, and a sum over more of them varies less by seed
    for strands, length in ((3, 10), (4, 12), (4, 12), (5, 14), (5, 14),
                            (6, 14), (6, 16), (7, 16)):
        w = _random_knot(rng, strands, length)
        g = oracles.random_letters(rng, strands, 3)
        twin = g + w + [-k for k in reversed(g)]
        twins.append((f"knot {strands} {_digest(w)} conj {_digest(g)}",
                      words.make_word(strands, w),
                      words.make_word(strands, twin)))

    ops = []

    def twin_op(kind, label, a, b, fn, spec=""):
        ops.append(Op(
            kind, f"{label} {spec}".strip(),
            lambda: (fn(a), fn(b)),
            lambda r: None if r[0] == r[1]
            else f"twins disagree: {r[0]} vs {r[1]}",
        ))

    alexander = lambda w: bc.alexander.alexander(w).coefficients
    sigma6 = lambda w: bc.signature.sigma6(w)

    def signature(theta):
        def fn(w):
            prof = bc.signature.signature_at(w, theta)
            return prof.signature, prof.nullity
        return fn

    for label, a, b in twins:
        twin_op("alexander-twin", label, a, b, alexander)
        twin_op("sigma6-twin", label, a, b, sigma6)
        theta = _theta(rng)
        twin_op("signature-twin", label, a, b, signature(theta), str(theta))
    # the 6-strand cable is the heavy end of this workload: four
    # signatures and a sigma6 of the same pair, no Alexander (h = 85)
    for _ in range(4):
        theta = _theta(rng)
        twin_op("signature-twin", cable[0], cable[1], cable[2],
                signature(theta), str(theta))
    twin_op("sigma6-twin", *cable, sigma6)

    for p, q in ((2, 7), (2, 11), (3, 7), (3, 10), (4, 7), (5, 6)):
        w = rep.torus_word(p, q)
        theta = _theta(rng)
        ops.append(Op(
            "signature-oracle", f"T({p},{q}) {theta}",
            lambda w=w, theta=theta: bc.signature.signature_at(w, theta).signature,
            lambda got, p=p, q=q, theta=theta: _against_oracle(
                got, bc.signature.torus_signature_oracle(p, q, theta)),
        ))
        ops.append(Op(
            "sigma6-oracle", f"T({p},{q})",
            lambda w=w: bc.signature.sigma6(w),
            lambda got, p=p, q=q: _against_oracle(got, oracles.torus_sigma6(p, q)),
        ))
    for n in (8, 12, 16, 20):
        w = rep.trefoil_sum_word(n)
        ops.append(Op(
            "sigma6-trefoils", f"3_1^{n}",
            lambda w=w: bc.signature.sigma6(w),
            lambda got, n=n: None if got == 2 * n
            else f"sigma6(3_1^{n}) = {got}, expected {2 * n}",
        ))

    rng.shuffle(ops)
    trefoil = words.make_word(2, (1, 1, 1))
    return ops, lambda: (bc.signature.sigma6(trefoil),
                         bc.alexander.alexander(trefoil))


def _against_oracle(got, want) -> "str | None":
    return None if got == want else f"got {got}, lattice count gives {want}"


# ---------------------------------------------------------------------------
# word_problem
# ---------------------------------------------------------------------------

# (strands, letters) sized so that one normal form costs about the same on
# every shape, which keeps the median operation a like one on every seed;
# the heavy shape is repeated as the tail cluster
_WORD_SHAPES = ((3, 800), (4, 600), (6, 450), (8, 420), (12, 330),
                (16, 270), (24, 200), (36, 140))
_HEAVY_SHAPE = (36, 300)


def _word_problem(rng, workdir: Path, bc: Modules):
    make = bc.words.make_word
    ops = []
    for strands, length in _WORD_SHAPES + (_HEAVY_SHAPE,) * 3:
        w = oracles.random_letters(rng, strands, length)
        same = oracles.rewrite(rng, strands, w, length // 4)
        other = oracles.unequal_twin(rng, strands, w)
        a, b, c = make(strands, w), make(strands, same), make(strands, other)
        spec = f"n={strands} w={_digest(w)}"
        ops.append(Op(
            "equal-rewritten", f"{spec} twin={_digest(same)}",
            lambda a=a, b=b: bc.garside.equal(a, b),
            lambda got: None if got is True else "rewritten twin unequal",
        ))
        ops.append(Op(
            "equal-permuted", f"{spec} twin={_digest(other)}",
            lambda a=a, c=c: bc.garside.equal(a, c),
            lambda got: None if got is False
            else "words with different permutations called equal",
        ))
        ops.append(Op(
            "normal-form", spec,
            lambda a=a: bc.garside.normal_form(a),
            lambda nf, strands=strands, w=w: _check_normal_form(nf, strands, w),
        ))
    rng.shuffle(ops)
    x = make(4, (1, 2, 3) * 4)
    y = make(4, (1, 1, 3, 2, 1, 1, 1, 3, 2))
    return ops, lambda: bc.garside.equal(x, y)


def _check_normal_form(nf, strands: int, letters) -> "str | None":
    """
    Delta^inf A_1 ... A_k must have the word's exponent sum (each factor
    contributes its inversions, Delta contributes n(n-1)/2) and permutation.
    """
    half_twist = tuple(range(strands - 1, -1, -1))
    inversions = sum(
        sum(1 for i in range(strands) for j in range(i + 1, strands)
            if f[i] > f[j])
        for f in nf.factors
    )
    if nf.infimum * strands * (strands - 1) // 2 + inversions != \
            oracles.exponent_sum(letters):
        return "normal form changes the exponent sum"
    perm = list(range(strands)) if nf.infimum % 2 == 0 else list(half_twist)
    for f in nf.factors:
        if f == tuple(range(strands)) or f == half_twist:
            return "normal form keeps an identity or Delta factor"
        perm = [f[p] for p in perm]
    if tuple(perm) != oracles.permutation(strands, letters):
        return "normal form changes the permutation"
    return None


# ---------------------------------------------------------------------------
# bound_tables
# ---------------------------------------------------------------------------

# (m, n) with (m-1)n <= 250 is exact (signature lower bound); beyond it the
# program may use the quasimorphism estimate, checked only by the theorem's
# window. Each grid pairs a small value with one past that cut, so a table
# crosses it; the "5,7" grids are all exact and form the heavy cluster.
_SMALL_WITH_FAR = ((2, 251, 400), (3, 126, 200), (4, 84, 150), (6, 51, 90))
_EXACT_GRIDS = ((5, 7),) * 5 + ((6,), (7,))


def _bound_tables(rng, workdir: Path, bc: Modules):
    grids = [list(g) for g in _EXACT_GRIDS]
    for small, lo, hi in _SMALL_WITH_FAR:
        for _ in range(2):
            grids.append([small, rng.randrange(lo, hi)])
    ops = []
    for grid in grids:
        offsets = sorted(rng.sample(range(0, 21), 3))
        argv = ["--json", "paper", "theorem-table",
                "--grid", ",".join(map(str, grid)),
                "--offsets", ",".join(map(str, offsets))]
        ops.append(Op(
            "theorem-table", " ".join(argv[3:]),
            lambda argv=argv: cli_call(bc, argv),
            lambda r, grid=grid, offsets=offsets: _check_table(r, grid, offsets),
        ))
    rng.shuffle(ops)
    return ops, lambda: cli_call(
        bc, ["--json", "paper", "theorem-table", "--grid", "2",
             "--offsets", "0"])


def _check_table(result, grid, offsets) -> "str | None":
    code, out, err = result
    if code != 0:
        return f"exit {code}, expected 0: {err.strip()[:200]}"
    rows = json.loads(out)
    want = [(m, n, oracles.theorem_base(m, n) + off)
            for m in grid for n in grid for off in offsets]
    if [(r["m"], r["n"], r["N"]) for r in rows] != want:
        return "table rows are not the requested grid"
    for r in rows:
        m, n, N = r["m"], r["n"], r["N"]
        if r["window"] != 20 * m + 20 * n + 200:
            return f"window {r['window']} at ({m},{n})"
        if not (r["pass"] and r["lower"] <= r["upper"]
                and 0 <= r["slack"] <= r["window"]
                and r["slack"] == r["upper"] - r["lower"]):
            return f"bound audit fails at ({m},{n},{N})"
        if (m - 1) * n <= 250 and \
                r["lower"] != 2 * N - oracles.torus_sigma6(m, n):
            return (f"lower {r['lower']} at ({m},{n},{N}), lattice count "
                    f"gives {2 * N - oracles.torus_sigma6(m, n)}")
    return None
