"""Greechie diagram parsing, pasting, loop legality, and DOT export."""

import pytest

from omlkit import (BlockSubsumed, GreechieDiagram, LoopViolation, ParseError,
                    SingletonBlock, SizeCap, enumerate_blocks, export_dot,
                    parse_greechie, paste, render_greechie)
from omlkit.corpus import cabello18

DIAGRAMS = {
    "mo2": "a a2\nb b2\n",
    "bowtie": "a b c\nc d e\n",
    "pentagon": "a b c\nc d e\ne f g\ng h i\ni j a\n",
    "boolean4": "p1 p2 p3 p4\n",
}
PASTE_SIZES = {"mo2": 6, "bowtie": 12, "pentagon": 22, "boolean4": 16}

MO2_DOT = """graph greechie {
  node [shape=circle];
  "a";
  "a2";
  "b";
  "b2";
  "a" -- "a2" [color="#1b9e77"];
  "b" -- "b2" [color="#d95f02"];
}
"""


def test_parse_basic():
    d = parse_greechie("a b c\nc d e\n")
    assert d.atoms == ("a", "b", "c", "d", "e")  # first-appearance order
    assert d.blocks == ((0, 1, 2), (2, 3, 4))
    assert d.block_names(1) == ("c", "d", "e")


def test_parse_comments_and_blanks():
    d = parse_greechie("# two blocks\n\na a2   # first\n\nb b2\n")
    assert d.blocks == ((0, 1), (2, 3))


def test_parse_errors_carry_positions():
    with pytest.raises(SingletonBlock) as e:
        parse_greechie("a\n")
    assert (e.value.line, e.value.col) == (1, 1)
    with pytest.raises(ParseError) as e:
        parse_greechie("a b a\n")
    assert (e.value.line, e.value.col) == (1, 5)
    with pytest.raises(BlockSubsumed) as e:
        parse_greechie("a b\na b c\n")
    assert e.value.line == 2
    with pytest.raises(BlockSubsumed):
        parse_greechie("a b c\na b\n")
    with pytest.raises(ParseError):
        parse_greechie("# nothing\n")


def test_render_roundtrip():
    for text in DIAGRAMS.values():
        d = parse_greechie(text)
        assert parse_greechie(render_greechie(d)) == d


def test_paste_sizes_match_formula():
    # inclusion-exclusion over blocks, duplicate bounds, shared atoms
    from oracles import paste_size_oracle
    for name, text in DIAGRAMS.items():
        d = parse_greechie(text)
        L = paste(d)
        assert L.n == paste_size_oracle(d) == PASTE_SIZES[name], name


def test_paste_single_block_is_boolean():
    L = paste(parse_greechie("a b c\n"))
    assert L.n == 8
    assert L.atoms() == tuple(L.index(s) for s in ("a", "b", "c"))
    assert L.names[int(L.neg[L.index("a")])] == "~a"


def test_paste_element_names():
    L = paste(parse_greechie("p1 p2 p3 p4\n"))
    assert L.names[0] == "0" and L.names[-1] == "1"
    # rank-2 elements are named by their atom sum, rank-3 by complement
    assert "p1+p2" in L.names
    assert "~p1" in L.names


def test_paste_blocks_are_diagram_blocks():
    for text in DIAGRAMS.values():
        d = parse_greechie(text)
        L = paste(d)
        got = sorted(tuple(sorted(L.names[a] for a in b.atoms))
                     for b in enumerate_blocks(L))
        want = sorted(tuple(sorted(d.block_names(i)))
                      for i in range(len(d.blocks)))
        assert got == want


def test_paste_shared_atom_identified():
    L = paste(parse_greechie("a b c\nc d e\n"))
    # one c, one ~c; the complement is shared through both blocks
    c, nc = L.index("c"), L.index("~c")
    assert int(L.neg[c]) == nc
    assert int(L.join[L.index("a"), L.index("b")]) == nc
    assert int(L.join[L.index("d"), L.index("e")]) == nc


def test_loop_legality():
    with pytest.raises(LoopViolation) as e:
        paste(parse_greechie("a b c\nc d e\ne f a\n"))
    assert e.value.law == "loop-3" and e.value.witness == (0, 1, 2)
    with pytest.raises(LoopViolation) as e:
        paste(parse_greechie("a b c\nc d e\ne f g\ng h a\n"))
    assert e.value.law == "loop-4"
    with pytest.raises(LoopViolation) as e:
        paste(parse_greechie("a b c\na b d\n"))
    assert e.value.law == "shared-pair" and e.value.witness == (0, 1)
    # a 5-loop is legal
    paste(parse_greechie(DIAGRAMS["pentagon"]))


def test_atom_equal_to_join_rejected():
    # a two-atom block makes its second atom the complement of the first;
    # where another block splits that complement into several atoms, an
    # atom becomes a join of other atoms, which no block's order says
    cases = {
        "a8 a3\na5 a3 a1\na8 a4 a2\n": "atom a8 of block 0 equals a1+a5 in block 1",
        "x y\ny z w\nx p q\n": "atom x of block 0 equals w+z in block 1",
        "a b\nb c d\n": "atom a of block 0 equals c+d in block 1",
    }
    for text, message in cases.items():
        with pytest.raises(LoopViolation) as e:
            paste(parse_greechie(text))
        assert e.value.law == "atom-join" and e.value.witness == (0, 1), text
        assert str(e.value).startswith(message), text


def test_paste_cap():
    with pytest.raises(SizeCap):
        paste(parse_greechie(DIAGRAMS["pentagon"]), cap=10)


def test_export_dot_golden():
    d = parse_greechie(DIAGRAMS["mo2"])
    assert export_dot(d) == MO2_DOT
    assert export_dot(d) == export_dot(d)


def test_export_dot_hypergraph():
    dot = export_dot(cabello18())
    assert dot.count(";") >= 18 + 9  # 18 vertex nodes, 9 context chains
    # a 4-vertex context renders as a 3-edge chain
    assert dot.count(" -- ") == 9 * 3


def test_diagram_equality():
    d1 = parse_greechie("a b\nc d\n")
    d2 = GreechieDiagram(atoms=("a", "b", "c", "d"), blocks=((0, 1), (2, 3)))
    assert d1 == d2
