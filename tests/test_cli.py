"""
CLI behavior: outputs, exit codes, JSON modes, and the generate/verify
round trip for every built-in certificate.
"""

import hashlib
import json
import time
from fractions import Fraction

import pytest
from test_sigma6 import _row_count

import braidcob.cli as cli
from braidcob.certificates import MAX_WIRE_STEPS
from braidcob.cli import THEOREM_TABLE_MAX_ROWS, main
from braidcob.words import MAX_WIRE_LETTERS, MAX_WIRE_STRANDS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_braid_eq_equal(capsys):
    code, out, _ = run(
        capsys, "braid", "eq", "--strands", "4",
        "--word", ",".join(["1,2,3"] * 12),
        "--word2", ",".join(["1,1,3,2,1,1,1,3,2"] * 4),
    )
    assert code == 0
    assert out.strip() == "equal"


def test_braid_eq_not_equal(capsys):
    code, out, _ = run(
        capsys, "braid", "eq", "--strands", "3",
        "--word", "1,2", "--word2", "2,1",
    )
    assert code == 0
    assert out.strip() == "not equal"


def test_braid_eq_bad_letters(capsys):
    code, _, err = run(
        capsys, "braid", "eq", "--strands", "3",
        "--word", "1,7", "--word2", "1",
    )
    assert code == 1
    assert "exceeds" in err


def test_braid_nf_letter_zero(capsys):
    code, out, err = run(
        capsys, "braid", "nf", "--strands", "3", "--word", "0"
    )
    assert code == 1 and out == ""
    assert "letter 0 at position 0" in err and "1 <= |k| <= n-1=2" in err
    assert "exceeds" not in err


def test_braid_nf(capsys):
    code, out, _ = run(
        capsys, "--json", "braid", "nf", "--strands", "3", "--word", "1,1"
    )
    assert code == 0
    data = json.loads(out)
    assert data["infimum"] == 0 and len(data["factors"]) == 2


def test_link_sigma6_trefoil(capsys):
    code, out, _ = run(
        capsys, "link", "sigma", "--sigma6",
        "--strands", "2", "--word", "1,1,1",
    )
    assert code == 0
    assert out.strip() == "2"


def test_link_sigma_theta(capsys):
    code, out, _ = run(
        capsys, "--json", "link", "sigma", "--theta", "1/2",
        "--strands", "2", "--word", "1,1,1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["signature"] == -2 and data["nullity"] == 0


def test_link_sigma_from_file(tmp_path, capsys):
    path = tmp_path / "word.json"
    path.write_text('{"n": 2, "w": [1, 1, 1]}')
    code, out, _ = run(capsys, "link", "sigma", "--sigma6",
                       "--file", str(path))
    assert code == 0 and out.strip() == "2"


def test_malformed_word_file_exits_2(tmp_path, capsys):
    path = tmp_path / "word.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "link", "sigma", "--sigma6",
                       "--file", str(path))
    assert code == 2
    assert "cannot read" in err


def test_link_alexander(capsys):
    code, out, _ = run(
        capsys, "link", "alexander", "--strands", "3", "--word", "1,-2,1,-2"
    )
    assert code == 0
    assert out.strip() == "1-3*t+t^2"


@pytest.mark.parametrize(
    "argv",
    [
        ("cert", "gen", "fourstrand"),
        ("cert", "gen", "coxeter"),
        ("cert", "gen", "trefoils", "--n", "1", "--nprime", "4"),
        ("cert", "gen", "sixstrand", "--l", "2"),
    ],
)
def test_cert_round_trip(tmp_path, capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    path = tmp_path / "cert.json"
    path.write_text(out)
    code, out, _ = run(capsys, "cert", "verify", str(path))
    assert code == 0
    assert "PASS" in out


def test_cert_verify_json_reparses(tmp_path, capsys):
    code, out, _ = run(capsys, "cert", "gen", "fourstrand")
    path = tmp_path / "cert.json"
    path.write_text(out)
    code, out, _ = run(capsys, "--json", "cert", "verify", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["total_cost"] == 10
    assert report["bound_ok"] is True


def test_cert_verify_rejects_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"start": {}, "steps": [{"op": "teleport"}], "end": {}}')
    code, _, err = run(capsys, "cert", "verify", str(path))
    assert code == 2
    assert "unknown step op" in err


@pytest.mark.parametrize("steps", ['"xx"', '["xx"]', '[1]', '[[]]', "{}"])
def test_cert_verify_rejects_steps_that_are_not_objects(
        tmp_path, capsys, steps):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"start": {"closures": [{"n": 2, "w": [1, 1, 1]}]}, '
        f'"steps": {steps}, "end": {{}}}}'
    )
    code, _, err = run(capsys, "cert", "verify", str(path))
    assert code == 2
    assert "cannot read certificate" in err


@pytest.mark.parametrize("start, end", [
    ('"x"', "{}"),
    ("{}", "[1]"),
    ('{"asserted": [1]}', "{}"),
])
def test_cert_verify_rejects_links_that_are_not_objects(
        tmp_path, capsys, start, end):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"start": {start}, "steps": [], "end": {end}}}')
    code, _, err = run(capsys, "cert", "verify", str(path))
    assert code == 2
    assert "cannot read certificate" in err


def test_cert_verify_reports_broken_certificate(tmp_path, capsys):
    cert = {
        "start": {"closures": [{"n": 2, "w": [1, 1, 1]}],
                  "tpos": 0, "tneg": 0, "asserted": []},
        "steps": [{"op": "tcube", "closure": 0, "pos": 1, "gen": 1,
                   "sign": 1}],
        "end": {"closures": [{"n": 2, "w": []}],
                "tpos": 1, "tneg": 0, "asserted": []},
        "meta": "",
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(cert))
    code, _, err = run(capsys, "cert", "verify", str(path))
    assert code == 1
    assert "step 0" in err


def test_paper_clover(capsys):
    code, out, _ = run(capsys, "paper", "clover", "--m", "6", "--n", "6")
    assert code == 0
    assert out.strip() == "-430"


@pytest.mark.parametrize("m, n", [("0", "3"), ("-2", "6"), ("6", "0")])
def test_paper_clover_refuses_m_or_n_below_one(capsys, m, n):
    code, out, err = run(capsys, "paper", "clover", "--m", m, "--n", n)
    assert code == 1 and out == ""
    assert f"clover_bound needs m, n >= 1, got {m},{n}" in err
    assert "Traceback" not in err


def test_paper_gg_table(capsys):
    code, out, _ = run(capsys, "paper", "gg-table", "--mmax", "6",
                       "--nmax", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,n,estimate,tolerance"
    assert "6,6,10,12" in lines


@pytest.mark.parametrize("mmax, nmax", [(257, 256), (256, 257),
                                        (100000, 100000)])
def test_paper_gg_table_refuses_past_the_row_cap(capsys, monkeypatch,
                                                 mmax, nmax):
    def never(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(cli, "gg_estimate", never)
    start = time.perf_counter()
    code, out, err = run(capsys, "paper", "gg-table", "--mmax", str(mmax),
                         "--nmax", str(nmax))
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err == (f"error: the table has {mmax * nmax} rows, which exceeds "
                   f"THEOREM_TABLE_MAX_ROWS = {THEOREM_TABLE_MAX_ROWS}\n")


@pytest.mark.parametrize("argv, text, as_json", [
    ((), "f02f1d1153ba9be8f0537ebf209d5c9af38ca58d0316c9b9f12d95da101475bb",
     "7307d04b1d4ced3913cd767835a2a51892bb47681651e1680e89d903f0fc2013"),
    (("--mmax", "256", "--nmax", "256"),
     "3f8fca534973a3742ac76b146c0cc594a0497da127b36d952d7d66a775c318da",
     "881e6eac663c0d9c6eb1ddcbca2f48b1a579b7e69f45f597353324b4ebbe0431"),
    (("--mmax", "-3", "--nmax", "100000"),
     hashlib.sha256(b"m,n,estimate,tolerance\n").hexdigest(),
     hashlib.sha256(b"[]\n").hexdigest()),
], ids=["6x6", "256x256", "empty"])
def test_paper_gg_table_under_the_row_cap_runs(capsys, argv, text, as_json):
    # the SHA-256 of the output before the cap was added
    for prefix, digest in (((), text), (("--json",), as_json)):
        code, out, _ = run(capsys, *prefix, "paper", "gg-table", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_paper_theorem_table(capsys):
    code, out, _ = run(
        capsys, "paper", "theorem-table", "--grid", "6", "--offsets", "0,5"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,n,N,upper,lower,slack,window,pass"
    assert all(line.endswith("True") for line in lines[1:])


@pytest.mark.parametrize("n", [1000000007, 10**400], ids=["1e9+7", "1e400"])
def test_paper_theorem_table_at_a_far_grid_point_is_bounded(capsys, n):
    # the lattice count takes O(log mn) steps, so n past 10^9 costs nothing;
    # past 10^308, n / 6 would overflow a float
    start = time.perf_counter()
    code, out, _ = run(capsys, "--json", "paper", "theorem-table",
                       "--grid", f"6,{n}", "--offsets", "0")
    assert code == 0 and time.perf_counter() - start < 2
    rows = {(r["m"], r["n"]): r for r in json.loads(out)}
    count = _row_count(6, n, Fraction(1, 6) + Fraction(1, 12 * 6 * n))
    six_n, n_six = rows[6, n], rows[n, 6]
    assert six_n["lower"] - 2 * six_n["N"] == count
    assert n_six["lower"] - 2 * n_six["N"] == count
    assert all(r["pass"] for r in rows.values())


@pytest.mark.parametrize("grid, offsets", [
    (257, 1), (129, 4), (1000, 21), (10 ** 5, 1)])
def test_paper_theorem_table_refuses_past_the_row_cap(
        capsys, monkeypatch, grid, offsets):
    def never(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(cli, "theorem_table", never)
    rows = grid * grid * offsets
    start = time.perf_counter()
    code, out, err = run(capsys, "paper", "theorem-table",
                         "--grid", ",".join(map(str, range(1, grid + 1))),
                         "--offsets", ",".join(map(str, range(offsets))))
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err == (f"error: the table has {rows} rows, which exceeds "
                   f"THEOREM_TABLE_MAX_ROWS = {THEOREM_TABLE_MAX_ROWS}\n")


@pytest.mark.parametrize("grid, offsets", [
    ("5,7", "0,5,10"), ("6", "2,9,20"), ("2,399", "0,10,20")])
def test_paper_theorem_table_under_the_row_cap_runs(capsys, grid, offsets):
    code, out, _ = run(capsys, "--json", "paper", "theorem-table",
                       "--grid", grid, "--offsets", offsets)
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == len(grid.split(",")) ** 2 * len(offsets.split(","))
    assert all(r["pass"] for r in rows)


@pytest.mark.parametrize("text", [
    '{"n": 2, "w": "111"}',
    '{"n": 2.9, "w": [1.7, 1.2, 1]}',
    '{"n": true, "w": []}',
    '{"n": 1e999, "w": [1]}',
    '{"n": 2, "w": [1, 1e999, 1]}',
    '{"n": "2", "w": [1, 1, 1]}',
])
def test_word_file_needs_json_integers(tmp_path, capsys, text):
    path = tmp_path / "word.json"
    path.write_text(text)
    code, _, err = run(capsys, "link", "sigma", "--sigma6",
                       "--file", str(path))
    assert code == 2
    assert "cannot read" in err


# a trefoil and a positive t3-cube down to the unknot plus one trefoil
# counter; each case swaps one integer of it for a value that is not one
TREFOIL_CERT = (
    '{"start": {"closures": [{"n": 2, "w": [1, 1, 1]}]},'
    ' "steps": [{"op": "tcube", "closure": 0, "pos": 0, "gen": 1,'
    ' "sign": 1}],'
    ' "end": {"closures": [{"n": 2, "w": []}], "tpos": 1}}'
)


def test_trefoil_certificate_text_verifies(tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text(TREFOIL_CERT)
    code, out, _ = run(capsys, "cert", "verify", str(path))
    assert code == 0 and "PASS" in out


@pytest.mark.parametrize("old, new", [
    ('"closure": 0', '"closure": "0"'),
    ('"pos": 0', '"pos": 0.9'),
    ('"gen": 1', '"gen": true'),
    ('"sign": 1', '"sign": 1.0'),
    ('"closure": 0', '"closure": 1e999'),
    ('"tpos": 1', '"tpos": 1e999'),
    ('"n": 2, "w": [1, 1, 1]', '"n": 1e999, "w": [1, 1, 1]'),
    ('"w": [1, 1, 1]', '"w": [1, 1e999, 1]'),
    ('"w": [1, 1, 1]', '"w": "111"'),
])
def test_cert_verify_needs_json_integers(tmp_path, capsys, old, new):
    assert old in TREFOIL_CERT
    path = tmp_path / "cert.json"
    path.write_text(TREFOIL_CERT.replace(old, new, 1))
    code, _, err = run(capsys, "cert", "verify", str(path))
    assert code == 2
    assert "cannot read" in err


def test_asserted_sigma6_needs_a_json_integer(tmp_path, capsys):
    # read as 2, a start asserting 2.5 would pass as the end asserting 2
    summand = '{{"label": "k", "components": 1, "sigma6": {}}}'
    path = tmp_path / "cert.json"
    path.write_text(
        f'{{"start": {{"asserted": [{summand.format("2.5")}]}}, '
        f'"steps": [], "end": {{"asserted": [{summand.format("2")}]}}}}'
    )
    code, _, err = run(capsys, "cert", "verify", str(path))
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize("argv", [
    ("cert", "verify"),
    ("link", "sigma", "--sigma6", "--file"),
])
def test_deeply_nested_json_exits_2(tmp_path, capsys, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, _, err = run(capsys, *argv, str(path))
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize("argv, text", [
    (("link", "sigma", "--sigma6", "--file"), '{"n": 1000000000, "w": []}'),
    (("cert", "verify"), TREFOIL_CERT.replace('"n": 2', '"n": 1000000000')),
], ids=["link-sigma", "cert-verify"])
def test_strand_count_past_the_wire_limit_exits_2(tmp_path, capsys, argv,
                                                  text):
    path = tmp_path / "huge.json"
    path.write_text(text)
    code, _, err = run(capsys, *argv, str(path))
    assert code == 2
    assert "cannot read" in err and "exceeds 1024" in err


def _trefoil_cert_with_steps(count):
    # TREFOIL_CERT padded with empty conjugations to count steps
    cert = json.loads(TREFOIL_CERT)
    conj = {"op": "conj", "closure": 0, "g": {"n": 2, "w": []}}
    cert["steps"] += [conj] * (count - 1)
    return json.dumps(cert)


@pytest.mark.parametrize("extra, code", [(0, 0), (1, 2)], ids=["cap", "past"])
def test_certificate_step_count_cap(tmp_path, capsys, extra, code):
    path = tmp_path / "long.json"
    path.write_text(_trefoil_cert_with_steps(MAX_WIRE_STEPS + extra))
    got, out, err = run(capsys, "cert", "verify", str(path))
    assert got == code
    if code:
        assert f"steps: {MAX_WIRE_STEPS + 1} exceeds {MAX_WIRE_STEPS}" in err
    else:
        assert "PASS" in out


@pytest.mark.parametrize("extra, code", [(0, 0), (1, 2)], ids=["cap", "past"])
def test_word_file_letter_count_cap(tmp_path, capsys, extra, code):
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"n": 2, "w": [1] * (MAX_WIRE_LETTERS + extra)}))
    got, _, err = run(capsys, "braid", "nf", "--file", str(path))
    assert got == code
    if code:
        assert "cannot read" in err
        assert f"{MAX_WIRE_LETTERS + 1} letters exceeds" in err


@pytest.mark.parametrize("flag", ["--word", "--word2"])
def test_word_argument_letter_count_cap(capsys, flag):
    at_cap = ",".join(["1"] * MAX_WIRE_LETTERS)
    argv = ["braid", "eq", "--strands", "2", "--word", at_cap,
            "--word2", at_cap]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.strip() == "equal"
    argv[argv.index(flag) + 1] += ",1"
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert (f"{flag} has {MAX_WIRE_LETTERS + 1} letters, exceeds "
            f"MAX_WIRE_LETTERS = {MAX_WIRE_LETTERS}") in err


@pytest.mark.parametrize("argv", [
    ("link", "sigma", "--strands", "2000000", "--word", "1,1,1",
     "--theta", "1/3"),
    ("braid", "eq", "--strands", "2000000", "--word", "1", "--word2", "1"),
], ids=["link-sigma", "braid-eq"])
def test_strands_argument_past_the_wire_limit_exits_1(capsys, argv):
    # the cap a word file meets holds for --strands too
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert "--strands 2000000 exceeds MAX_WIRE_STRANDS = 1024" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("theta, parsed", [
    ("1e-99999", False),
    ("1E-3", False),
    ("3/" + "0" * 700 + "7", False),
    ("1/" + str(1 << 1024), True),
    ("0." + "0" * 400 + "1", True),
], ids=["exponent", "capital-exponent", "long-text", "1025-bit-ratio",
        "1329-bit-decimal"])
def test_theta_past_the_bit_cap_exits_1_at_once(capsys, theta, parsed):
    # 1e-99999 would build a 100000-digit denominator; an exponent or a
    # text longer than p/q at the cap is refused before any big integer
    # exists, the rest once parsed
    start = time.perf_counter()
    code, out, err = run(capsys, "link", "sigma", "--strands", "2",
                         "--word", "1,1,1", "--theta", theta)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert "THETA_MAX_BITS = 1024" in err and "Traceback" not in err
    assert parsed == ("exponent" not in err), err


def test_theta_at_the_bit_cap_is_accepted(capsys):
    code, out, _ = run(capsys, "link", "sigma", "--strands", "2",
                       "--word", "1,1,1", "--theta", "1/" + str(1 << 1023))
    assert code == 0 and out.strip() == "signature 0, nullity 0"


@pytest.mark.parametrize("argv", [
    ("paper", "theorem-table", "--grid", "0"),
    ("paper", "theorem-table", "--grid", "-3"),
    ("cert", "gen", "sixstrand", "--l", "1"),
    ("cert", "gen", "trefoils", "--n", "5", "--nprime", "2"),
])
def test_out_of_range_arguments_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ") and out == ""


@pytest.mark.parametrize("argv, cap", [
    # 28 * 580 + 152 = 16392 steps
    (("sixstrand", "--l", "580"), f"MAX_WIRE_STEPS = {MAX_WIRE_STEPS}"),
    (("sixstrand", "--l", str(10 ** 12)), f"MAX_WIRE_STEPS = {MAX_WIRE_STEPS}"),
    (("trefoils", "--n", "0", "--nprime", "1100"),
     f"MAX_WIRE_STRANDS = {MAX_WIRE_STRANDS}"),
    (("trefoils", "--n", "0", "--nprime", str(MAX_WIRE_STRANDS)),
     f"MAX_WIRE_STRANDS = {MAX_WIRE_STRANDS}"),
])
def test_cert_gen_refuses_what_verify_would_refuse(capsys, argv, cap):
    # refused before anything is generated, so at once
    start = time.perf_counter()
    code, out, err = run(capsys, "cert", "gen", *argv)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert cap in err and "Traceback" not in err


def test_cert_gen_trefoils_at_the_strand_cap_verifies(tmp_path, capsys):
    nprime = str(MAX_WIRE_STRANDS - 1)
    code, out, _ = run(capsys, "cert", "gen", "trefoils", "--n", nprime,
                       "--nprime", nprime)
    assert code == 0
    path = tmp_path / "cert.json"
    path.write_text(out)
    code, out, _ = run(capsys, "cert", "verify", str(path))
    assert code == 0 and "PASS" in out


def test_cached_parser_gives_what_fresh_parsers_give(capsys):
    from braidcob import cli

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits on a usage error
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    sequence = [
        ["braid", "eq", "--strands", "3", "--word", "1"],  # no --word2
        ["--json", "link", "sigma", "--strands", "2", "--word", "1,1,1",
         "--theta", "1/2"],
        ["paper", "clover", "--m", "6", "--n", "6"],
        ["link", "alexander", "--strands", "2", "--word", "1,1,1"],
    ]
    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(outcome(argv))
    cli._parser.cache_clear()
    cached = [outcome(argv) for argv in sequence]
    assert cli._parser.cache_info().misses == 1
    assert cached == fresh
    assert [code for code, _, _ in cached] == [2, 0, 0, 0]
    assert "--word2" in cached[0][2]
    assert json.loads(cached[1][1])["signature"] == -2
    assert cached[2][1].strip() == "-430"
