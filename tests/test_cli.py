"""End-to-end CLI runs: golden bytes, exit codes, and determinism."""

import importlib.resources
import json
import os
import pathlib
import subprocess
import sys

import pytest

from omlkit import cli, modal

DATA = importlib.resources.files("omlkit") / "data"
MO2 = str(DATA / "mo2.gd")
BOWTIE = str(DATA / "bowtie.gd")
PENTAGON = str(DATA / "pentagon.gd")
CABELLO = str(DATA / "cabello18.ksv")
BENZENE = str(pathlib.Path(__file__).parent / "data" / "benzene.oml")


def run(*argv, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "omlkit.cli", *argv],
                          capture_output=True, text=True, env=full_env)


def test_check_greechie():
    r = run("check", BOWTIE)
    assert r.returncode == 0
    assert r.stdout == ("input: greechie\nblocks: 2\natoms: 5\nelements: 12\n"
                        "center: 0 c ~c 1\nok\n")


def test_check_vectors():
    r = run("check", CABELLO)
    assert r.returncode == 0
    assert r.stdout == ("input: vectors\ndim: 4\nrays: 18\ncontexts: 9\n"
                        "submaximal-dropped: 15\nok\n")


def test_check_interchange(tmp_path):
    from omlkit import render_interchange
    from omlkit.corpus import mo
    path = tmp_path / "mo2.oml"
    path.write_text(render_interchange(mo(2)), encoding="utf-8")
    r = run("check", str(path))
    assert r.returncode == 0
    assert r.stdout == "input: interchange\nelements: 6\ncenter: 0 1\nok\n"


def test_blocks_and_center():
    r = run("blocks", BOWTIE)
    assert r.returncode == 0
    assert r.stdout == "B0: a b c\nB1: c d e\n"
    r = run("center", BOWTIE)
    assert r.stdout == "0\nc\n~c\n1\n"
    r = run("blocks", CABELLO)
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert len(lines) == 9
    assert lines[0] == "C0: 0,0,0,1 0,0,1,0 1,1,0,0 1,-1,0,0"


def test_solve_enumerate_golden():
    r = run("solve", MO2, "--enumerate-all", "10")
    assert r.returncode == 0
    assert r.stdout == (
        "SAT\nsections: 4\n"
        "section 0:\n{1}: 1\n{a,a2}: a\n{b,b2}: b\n"
        "section 1:\n{1}: 1\n{a,a2}: a\n{b,b2}: b2\n"
        "section 2:\n{1}: 1\n{a,a2}: a2\n{b,b2}: b\n"
        "section 3:\n{1}: 1\n{a,a2}: a2\n{b,b2}: b2\n")


def test_solve_unsat():
    r = run("solve", CABELLO)
    assert r.returncode == 0  # an UNSAT verdict is an answer, not an error
    assert r.stdout == "UNSAT\ncertificate: C0 C1 C2 C3 C4 C5 C6 C7 C8\n"


def test_solve_first_only():
    r = run("solve", BOWTIE)
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "SAT"


def test_modal_golden():
    r = run("modal", MO2)
    assert r.returncode == 0
    assert r.stdout == (
        "elements: 6\ncenter: 0 1\n"
        "box:\n0: 0\na: 0\na2: 0\nb: 0\nb2: 0\n1: 1\n"
        "diamond:\n0: 0\na: 1\na2: 1\nb: 1\nb2: 1\n1: 1\n"
        "axioms:\n"
        "S1 pass orthomodular lattice axioms\n"
        "S2 pass box(x) <= x\n"
        "S3 pass box(1) = 1\n"
        "S4 pass box(box(x)) = box(x)\n"
        "S5 pass box(x ^ y) = box(x) ^ box(y)\n"
        "S6 pass y = (y ^ box(x)) v (y ^ ~box(x))\n"
        "S7 pass box(x v box(y)) = box(x) v box(y)\n"
        "S8 pass box(~x v (y ^ x)) <= ~box(x) v box(y)\n"
        "possibility-space: 0 1\nsections: 1\n")


def test_modal_evaluates_the_axioms_once(monkeypatch, capsys):
    calls = []
    check = modal.check_modal_axioms
    counting = lambda M: calls.append(M) or check(M)  # noqa: E731
    monkeypatch.setattr(modal, "check_modal_axioms", counting)
    # a CLI that imported the function itself would call it by this name
    monkeypatch.setattr(cli, "check_modal_axioms", counting, raising=False)
    for fmt in ("text", "structured"):
        assert cli.main(["modal", BOWTIE, "--format", fmt]) == 0
        assert capsys.readouterr().out == run("modal", BOWTIE, "--format", fmt).stdout
    assert len(calls) == 2  # one per run: saturate's own audit


def test_modal_diagonal_extension():
    r = run("modal", MO2, "--extend", "diagonal:2")
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "elements: 36"
    assert "sections: 1" in r.stdout


def test_actualize_golden():
    r = run("actualize", BOWTIE, "--context", "0", "--prop", "c", "--nu", "0")
    assert r.returncode == 0
    assert r.stdout == (
        "section:\n{1}: 1\n{a,~a}: ~a\n{b,~b}: ~b\n{c,~c}: c\n{a,b,c}: c\n"
        "values:\n0: 0\na: 0\nb: 0\nc: 1\n~c: 0\n~b: 1\n~a: 1\n1: 1\n")


def test_export_golden():
    r = run("export", MO2)
    assert r.returncode == 0
    assert r.stdout == (
        'graph greechie {\n  node [shape=circle];\n'
        '  "a";\n  "a2";\n  "b";\n  "b2";\n'
        '  "a" -- "a2" [color="#1b9e77"];\n'
        '  "b" -- "b2" [color="#d95f02"];\n}\n')
    assert run("export", CABELLO).returncode == 0


def test_structured_output():
    r = run("check", MO2, "--format", "structured")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["command"] == "check"
    assert doc["elements"] == 6 and doc["ok"] is True
    assert list(doc) == sorted(doc)
    r = run("solve", MO2, "--format", "structured", "--enumerate-all", "5")
    doc = json.loads(r.stdout)
    assert doc["verdict"] == "SAT" and len(doc["sections"]) == 4
    r = run("solve", CABELLO, "--format", "structured")
    doc = json.loads(r.stdout)
    assert doc["verdict"] == "UNSAT"
    assert doc["certificate"] == [f"C{i}" for i in range(9)]


def test_kind_override(tmp_path):
    mystery = tmp_path / "mystery.txt"
    mystery.write_text(pathlib.Path(MO2).read_text(encoding="utf-8"),
                       encoding="utf-8")
    assert run("check", str(mystery)).returncode == 2
    r = run("check", str(mystery), "--kind", "gd")
    assert r.returncode == 0


def test_usage_errors_exit_2(tmp_path):
    assert run("check", MO2, "--seedless").returncode == 2
    assert run("center", CABELLO).returncode == 2
    from omlkit import render_interchange
    from omlkit.corpus import mo
    good_oml = tmp_path / "mo2.oml"
    good_oml.write_text(render_interchange(mo(2)), encoding="utf-8")
    assert run("export", str(good_oml)).returncode == 2
    assert run("modal", MO2, "--extend", "spiral").returncode == 2
    assert run("modal", MO2, "--extend", "diagonal:0").returncode == 2
    assert run("actualize", BOWTIE, "--context", "9", "--prop", "c",
               "--nu", "0").returncode == 2
    assert run("actualize", BOWTIE, "--context", "0", "--prop", "zebra",
               "--nu", "0").returncode == 2
    assert run("actualize", BOWTIE, "--context", "0", "--prop", "c",
               "--nu", "99").returncode == 2
    assert run("check", str(tmp_path / "missing.gd")).returncode == 2
    assert run("frobnicate", MO2).returncode == 2
    bad = tmp_path / "bad.gd"
    bad.write_text("a\n", encoding="utf-8")
    r = run("check", str(bad))
    assert r.returncode == 2
    assert "error:" in r.stderr


def test_validation_errors_exit_3():
    r = run("check", BENZENE)
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr == ("error: orthomodular: a <= b but b != a v (b ^ ~a) "
                        "[witness: 1, 2]\n")
    # nu 1 makes diamond(c) false, so c cannot be actualized
    r = run("actualize", BOWTIE, "--context", "0", "--prop", "c", "--nu", "1")
    assert r.returncode == 3
    assert "possibility" in r.stderr


def test_caps_exit_4():
    r = run("solve", MO2, "--enumerate-all", "3")
    assert r.returncode == 4
    assert "more than 3" in r.stderr
    r = run("check", PENTAGON, env={"OMLKIT_ELEMENT_CAP": "8"})
    assert r.returncode == 4


def test_repeat_runs_are_byte_identical():
    for argv in (("solve", PENTAGON, "--enumerate-all", "16"),
                 ("modal", BOWTIE),
                 ("blocks", CABELLO),
                 ("check", MO2, "--format", "structured")):
        a, b = run(*argv), run(*argv)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout


def test_worker_count_does_not_change_bytes():
    base = ("solve", PENTAGON, "--enumerate-all", "16")
    one = run(*base, "--workers", "1")
    two = run(*base, "--workers", "4")
    assert one.returncode == two.returncode == 0
    assert one.stdout == two.stdout
    u1 = run("solve", CABELLO, "--workers", "1")
    u2 = run("solve", CABELLO, "--workers", "4")
    assert u1.stdout == u2.stdout


def run_pooled(*argv):
    """The CLI with the solver's pool budget at 0, so that every search
    with more than one worker runs in the process pool."""
    code = ("import sys; from omlkit import cli, sheaf; "
            "sheaf._POOL_BUDGET = 0; sys.exit(cli.main(sys.argv[1:]))")
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True)


def test_pool_path_does_not_change_bytes():
    pentagon = ("solve", PENTAGON, "--enumerate-all", "16")
    for argv, workers in ((pentagon, "2"), (pentagon, "4"),
                          (("solve", CABELLO), "4"),
                          (("solve", CABELLO, "--format", "structured"), "2")):
        one = run(*argv, "--workers", "1")
        many = run_pooled(*argv, "--workers", workers)
        assert one.returncode == many.returncode == 0
        assert (one.stdout, one.stderr) == (many.stdout, many.stderr)


def test_bad_worker_and_cap_flags():
    assert run("solve", MO2, "--workers", "0").returncode == 2
    assert run("solve", MO2, "--enumerate-all", "0").returncode == 2
