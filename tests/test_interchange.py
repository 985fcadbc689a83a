"""Order-table interchange format: render/parse and rejection paths."""

import pathlib

import pytest

from omlkit import NotOrthomodular, ParseError, parse_interchange, render_interchange
from omlkit.corpus import CORPUS


def test_roundtrip_whole_corpus():
    for name, make in CORPUS.items():
        if name == "cabello":
            continue
        L = make()
        back = parse_interchange(render_interchange(L))
        assert back.names == L.names, name
        assert (back.leq == L.leq).all(), name
        assert (back.neg == L.neg).all(), name


def test_cover_and_leq_forms_agree():
    text_cover = (
        "oml 1\n"
        "elements 0 a a2 b b2 1\n"
        "cover 0 a\ncover 0 a2\ncover 0 b\ncover 0 b2\n"
        "cover a 1\ncover a2 1\ncover b 1\ncover b2 1\n"
        "neg 0 1\nneg 1 0\nneg a a2\nneg a2 a\nneg b b2\nneg b2 b\n"
    )
    rows = ["111111", "010001", "001001", "000101", "000011", "000001"]
    text_leq = (
        "oml 1\n"
        "elements 0 a a2 b b2 1\n"
        + "".join(f"leq {r}\n" for r in rows)
        + "neg 0 1\nneg 1 0\nneg a a2\nneg a2 a\nneg b b2\nneg b2 b\n"
    )
    L1 = parse_interchange(text_cover)
    L2 = parse_interchange(text_leq)
    assert (L1.leq == L2.leq).all() and (L1.neg == L2.neg).all()
    assert L1.names == L2.names == ("0", "a", "a2", "b", "b2", "1")


def test_comments_and_blank_lines_ignored():
    L = parse_interchange(
        "# two-element chain\noml 1\n\nelements 0 1\ncover 0 1  # bottom under top\n"
        "neg 0 1\nneg 1 0\n")
    assert L.n == 2


BAD_TEXTS = [
    ("elements 0 1\n", "version"),
    ("oml 2\nelements 0 1\n", "version"),
    ("oml 1\noml 1\nelements 0 1\n", "duplicate version"),
    ("oml 1\n", "elements"),
    ("oml 1\nelements 0 0\n", "unique"),
    ("oml 1\nelements\n", "empty"),
    ("oml 1\nelements 0 1\nelements 0 1\n", "duplicate elements"),
    ("oml 1\ncover 0 1\n", "cover before"),
    ("oml 1\nelements 0 1\ncover 0\nneg 0 1\nneg 1 0\n", "two element names"),
    ("oml 1\nelements 0 1\ncover 0 x\nneg 0 1\nneg 1 0\n", "unknown element"),
    ("oml 1\nelements 0 1\nleq 1\nleq 01\nneg 0 1\nneg 1 0\n", "digits"),
    ("oml 1\nelements 0 1\nleq 11\nneg 0 1\nneg 1 0\n", "rows"),
    ("oml 1\nelements 0 1\ncover 0 1\nleq 11\nleq 01\nneg 0 1\nneg 1 0\n", "mix"),
    ("oml 1\nelements 0 1\ncover 0 1\nneg 0 1\n", "each"),
    ("oml 1\nelements 0 1\ncover 0 1\nneg 0 1\nneg 0 0\nneg 1 0\n", "duplicate neg"),
    ("oml 1\nelements 0 1\nfrobnicate 0 1\n", "unknown directive"),
]


def test_rejections():
    for text, why in BAD_TEXTS:
        with pytest.raises(ParseError) as e:
            parse_interchange(text)
        assert e.value.line >= 1, why


def test_parse_runs_full_verification():
    # hexagon: a lattice with complements that is not orthomodular
    path = pathlib.Path(__file__).parent / "data" / "benzene.oml"
    with pytest.raises(NotOrthomodular):
        parse_interchange(path.read_text(encoding="utf-8"))


def test_cap_forwarded():
    from omlkit import SizeCap
    text = render_interchange(CORPUS["boolean3"]())
    with pytest.raises(SizeCap):
        parse_interchange(text, cap=4)


def mo_cover_text(k):
    """MO(k) in cover form: 2k atoms between 0 and 1, a_i and b_i complements."""
    atoms = [f"a{i}" for i in range(k)] + [f"b{i}" for i in range(k)]
    lines = ["oml 1", "elements 0 " + " ".join(atoms) + " 1"]
    lines += [f"cover 0 {x}" for x in atoms] + [f"cover {x} 1" for x in atoms]
    lines += ["neg 0 1", "neg 1 0"]
    lines += [f"neg a{i} b{i}" for i in range(k)] + [f"neg b{i} a{i}" for i in range(k)]
    return "\n".join(lines) + "\n"


def test_mo_round_trips_past_256_atoms():
    # 0 <= x <= 1 through 2k atoms: a product in a wrapping 8-bit type
    # counts the 256 paths of MO(128) as none, so the closure lost 0 <= 1
    # and the renderer wrote a cover 0 1
    for k in (127, 128, 129):
        L = parse_interchange(mo_cover_text(k))
        assert L.n == 2 * k + 2
        assert L.leq[L.index("0"), L.index("1")]
        text = render_interchange(L)
        assert sum(line.startswith("cover ") for line in text.splitlines()) == 4 * k
        back = parse_interchange(text)
        assert back.names == L.names
        assert (back.leq == L.leq).all() and (back.neg == L.neg).all()
