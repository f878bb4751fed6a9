"""
CLI behavior: outputs, exit codes, JSON modes, and the generate/verify
round trip for every built-in certificate.
"""

import json

import pytest

from braidcob.cli import main


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


def test_paper_gg_table(capsys):
    code, out, _ = run(capsys, "paper", "gg-table", "--mmax", "6",
                       "--nmax", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,n,estimate,tolerance"
    assert "6,6,10,12" in lines


def test_paper_theorem_table(capsys):
    code, out, _ = run(
        capsys, "paper", "theorem-table", "--grid", "6", "--offsets", "0,5"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,n,N,upper,lower,slack,window,pass"
    assert all(line.endswith("True") for line in lines[1:])
