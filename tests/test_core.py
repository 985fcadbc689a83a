"""Order verification, commutation, triples, centre, and products."""

import random
import time

import numpy as np
import pytest

from omlkit import (InternalError, NotALattice, NotOrtho, NotOrthomodular,
                    OmlkitError, SizeCap, center, commutes, enumerate_blocks,
                    parse_greechie, paste, product, triple_check, verify_oml)
from omlkit import core
from omlkit.core import (FiniteOML, element_cap, lex_maximal_cliques,
                         maximal_cliques)
from omlkit.corpus import CORPUS, boolean, bowtie, mo, pentagon

from oracles import center_oracle, maximal_cliques_oracle, meet_join_oracle


def loop3(k):
    """k three-atom blocks in a ring, neighbours sharing one atom."""
    return paste(parse_greechie("".join(f"a{i} b{i} a{(i + 1) % k}\n"
                                        for i in range(k))))


GENERATED = {
    **{f"loop3_{k}": (lambda k=k: loop3(k)) for k in range(5, 9)},
    **{f"boolean{k}": (lambda k=k: boolean(k)) for k in range(5, 8)},
    "mo8": lambda: mo(8),
    "b2xpentagon": lambda: product(boolean(2), pentagon()),
}

CENTER_SIZES = {
    "chain2": 2, "boolean2": 4, "boolean3": 8, "boolean4": 16,
    "mo2": 2, "mo3": 2, "mo4": 2, "bowtie": 4, "pentagon": 2,
    "b2xmo2": 8, "mo2xmo2": 4,
    "loop3_5": 2, "loop3_6": 2, "loop3_7": 2, "loop3_8": 2,
    "boolean5": 32, "boolean6": 64, "boolean7": 128, "mo8": 2,
    "b2xpentagon": 8,
}


def chain_order(n):
    leq = np.zeros((n, n), dtype=bool)
    for i in range(n):
        leq[i, i:] = True
    return leq


def transitive_closure(leq):
    while True:
        grown = leq | ((leq.astype(np.int64) @ leq.astype(np.int64)) > 0)
        if np.array_equal(grown, leq):
            return leq
        leq = grown


def test_verify_roundtrips_corpus_tables():
    for make in CORPUS.values():
        L = make()
        again = verify_oml(np.array(L.leq), np.array(L.neg), L.names)
        assert again.names == L.names
        assert np.array_equal(again.meet, L.meet)
        assert np.array_equal(again.join, L.join)
        assert (again.zero, again.one) == (L.zero, L.one)


def test_tables_are_read_only():
    L = mo(2)
    with pytest.raises(ValueError):
        L.leq[0, 0] = False
    with pytest.raises(ValueError):
        L.meet[0, 0] = 1
    # the type freezes its tables, whichever constructor built them
    tables = ("leq", "neg", "meet", "join")
    for K in (product(boolean(2), L),
              FiniteOML(**{t: np.array(getattr(L, t)) for t in tables},
                        names=L.names, zero=L.zero, one=L.one)):
        for t in tables:
            assert not getattr(K, t).flags.writeable, t


def test_accessors():
    L = mo(2)
    assert L.n == 6
    assert list(L.elements) == [0, 1, 2, 3, 4, 5]
    assert L.atoms() == (1, 2, 3, 4)
    assert L.le(L.zero, L.one) and not L.le(L.one, L.zero)
    assert L.index("a2") == 2
    with pytest.raises(KeyError):
        L.index("nope")


def test_degenerate_rejected():
    with pytest.raises(NotALattice) as e:
        verify_oml(np.ones((1, 1), dtype=bool), [0])
    assert e.value.law == "degenerate"


def test_bad_complement_shape_and_permutation():
    leq = chain_order(2)
    with pytest.raises(NotOrtho) as e:
        verify_oml(leq, [1])
    assert e.value.law == "shape"
    with pytest.raises(NotOrtho) as e:
        verify_oml(leq, [1, 1])
    assert e.value.law == "permutation"


def test_name_validation():
    leq = chain_order(2)
    with pytest.raises(NotALattice):
        verify_oml(leq, [1, 0], names=("x",))
    with pytest.raises(NotALattice):
        verify_oml(leq, [1, 0], names=("x", "x"))


def test_order_axioms_rejected():
    bad = chain_order(2)
    bad[1, 1] = False
    with pytest.raises(NotALattice) as e:
        verify_oml(bad, [1, 0])
    assert e.value.law == "reflexivity"

    bad = np.ones((2, 2), dtype=bool)
    with pytest.raises(NotALattice) as e:
        verify_oml(bad, [1, 0])
    assert e.value.law == "antisymmetry"

    bad = np.eye(3, dtype=bool)
    bad[0, 1] = bad[1, 2] = True  # 0<1<2 stated, 0<2 missing
    with pytest.raises(NotALattice) as e:
        verify_oml(bad, [2, 1, 0])
    assert e.value.law == "transitivity"
    assert e.value.witness == (0, 1, 2)


def test_transitivity_witness_past_256_intermediates():
    # 0 < 2 < j < 3 < 1 for the 256 elements j = 4..259, with 2 <= 3
    # missing: a product in a wrapping 8-bit type counts 256 paths as 0
    n = 260
    leq = np.eye(n, dtype=bool)
    leq[0, :] = leq[:, 1] = True
    leq[2, 4:] = leq[4:, 3] = True
    with pytest.raises(NotALattice) as e:
        verify_oml(leq, np.arange(n)[::-1])
    assert (e.value.law, e.value.witness) == ("transitivity", (2, 4, 3))


def test_compose_equals_the_integer_product(monkeypatch):
    # the bitset relation product against an int64 matmul, on empty,
    # rectangular and word-straddling shapes, in one block and in many
    rng = np.random.default_rng(7)
    shapes = ((0, 0, 0), (1, 1, 1), (3, 5, 2), (2, 0, 3), (5, 5, 0), (70, 130, 65))
    for block in (core._BLOCK, 1, 7):
        monkeypatch.setattr(core, "_BLOCK", block)
        for p, q, t in shapes:
            for density in (0.0, 0.05, 0.5):
                r, s = rng.random((p, q)) < density, rng.random((q, t)) < density
                got = core.compose(r, s)
                assert got.dtype == bool
                assert np.array_equal(got, (r.astype(np.int64) @ s.astype(np.int64)) > 0)


def test_bounds_required():
    # two maximal elements
    leq = np.eye(3, dtype=bool)
    leq[0, 1] = leq[0, 2] = True
    with pytest.raises(NotALattice) as e:
        verify_oml(leq, [0, 1, 2])
    assert e.value.law == "bounds"


def test_missing_meet_rejected():
    # 0 < a,b < c,d < 1: c and d have two maximal lower bounds
    n = 6
    leq = np.eye(n, dtype=bool)
    order = {(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)}
    for a, b in order:
        leq[a, b] = True
    leq = transitive_closure(leq)
    with pytest.raises(NotALattice) as e:
        verify_oml(leq, [5, 4, 3, 2, 1, 0])
    # a and b, the first pair, have two minimal upper bounds
    assert (e.value.law, e.value.witness) == ("join", (1, 2))

    # 0 < p,q < x,y < r,s < 1 numbered x, y first: x and y have neither a
    # meet nor a join, and the meet is reported
    leq = np.eye(8, dtype=bool)
    for a, b in ((0, 3), (0, 4), (3, 1), (3, 2), (4, 1), (4, 2),
                 (1, 5), (1, 6), (2, 5), (2, 6), (5, 7), (6, 7)):
        leq[a, b] = True
    with pytest.raises(NotALattice) as e:
        verify_oml(transitive_closure(leq), np.arange(8)[::-1])
    assert (e.value.law, e.value.witness) == ("meet", (1, 2))


def test_complement_axioms_rejected():
    # involution: a 4-cycle is not an involution
    B = boolean(2)
    with pytest.raises(NotOrtho) as e:
        verify_oml(np.array(B.leq), [1, 2, 3, 0])
    assert e.value.law == "involution"

    # order-reversing: two parallel chains 0 < a < c < 1, 0 < b < d < 1
    # with neg swapping a-b and c-d maps the chain the wrong way round
    n = 6
    leq = np.eye(n, dtype=bool)
    for a, b in ((0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5)):
        leq[a, b] = True
    leq = transitive_closure(leq)
    with pytest.raises(NotOrtho) as e:
        verify_oml(leq, [5, 2, 1, 4, 3, 0])
    assert e.value.law == "order-reversing"

    # self-complementary middle of a 3-chain meets itself above 0
    leq = chain_order(3)
    with pytest.raises(NotOrtho) as e:
        verify_oml(leq, [2, 1, 0])
    assert e.value.law == "complement-meet"


def test_orthomodular_law_rejected_with_witness():
    # hexagon: 0 < a < b < 1, 0 < c < d < 1, neg(a) = d
    n = 6
    leq = np.eye(n, dtype=bool)
    for a, b in ((0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5)):
        leq[a, b] = True
    leq = transitive_closure(leq)
    with pytest.raises(NotOrthomodular) as e:
        verify_oml(leq, [5, 4, 3, 2, 1, 0], names=("0", "a", "b", "c", "d", "1"))
    assert e.value.witness == (1, 2)
    assert "a <= b" in str(e.value)

    # products with the hexagon, renumbered: the witness is the first
    # comparable pair in row-major order where the law fails
    rng = random.Random(6)
    hexagon = (leq, np.array([5, 4, 3, 2, 1, 0]))
    for L in (boolean(2), mo(2), pentagon()):
        factor = (np.array(L.leq), np.array(L.neg))
        for (l1, n1), (l2, n2) in ((factor, hexagon), (hexagon, factor)):
            big, neg = np.kron(l1, l2), (n1[:, None] * len(n2) + n2[None, :]).ravel()
            perm = np.array(rng.sample(range(len(neg)), len(neg)))
            big, neg = big[np.ix_(perm, perm)], np.argsort(perm)[neg[perm]]
            meet, join, _ = meet_join_oracle(big)
            want = next((a, b) for a, b in zip(*np.nonzero(big))
                        if join[a][meet[b][neg[a]]] != b)
            with pytest.raises(NotOrthomodular) as e:
                verify_oml(big, neg)
            assert e.value.witness == want


def test_element_cap(monkeypatch):
    with pytest.raises(SizeCap):
        verify_oml(chain_order(4), [3, 2, 1, 0], cap=3)
    monkeypatch.setenv("OMLKIT_ELEMENT_CAP", "4")
    assert element_cap() == 4
    L = boolean(2)
    with pytest.raises(SizeCap):
        product(L, L)
    monkeypatch.setenv("OMLKIT_ELEMENT_CAP", "zebra")
    with pytest.raises(ValueError):
        element_cap()
    monkeypatch.setenv("OMLKIT_ELEMENT_CAP", "1")
    with pytest.raises(ValueError):
        element_cap()


def test_commutes():
    L = mo(2)
    a, a2, b = L.index("a"), L.index("a2"), L.index("b")
    assert commutes(L, a, a2)
    assert not commutes(L, a, b)
    assert commutes(L, L.zero, b) and commutes(L, L.one, b)
    # the table matches the defining arithmetic, is read-only, and is
    # symmetric (an orthomodular theorem, not enforced by construction)
    for name, make in {**CORPUS, **GENERATED}.items():
        K = make()
        assert not K.commute.flags.writeable, name
        assert (K.commute == K.commute.T).all(), name
        for x in K.elements:
            for y in K.elements:
                assert commutes(K, x, y) == (
                    int(K.join[K.meet[x, y], K.meet[x, K.neg[y]]]) == x), name


def test_triple_check():
    L = mo(2)
    a, a2, b, b2 = (L.index(s) for s in ("a", "a2", "b", "b2"))
    # (a, b, a) satisfies both laws under every permutation
    rep = triple_check(L, a, b, a)
    assert rep.holds_d and rep.holds_dstar and rep.holds_t
    # (b, b2, a) breaks D: (b v b2) ^ a = a but (b^a) v (b2^a) = 0
    rep = triple_check(L, b, b2, a)
    assert not rep.holds_d
    assert not rep.holds_t
    # in a Boolean algebra every triple passes
    B = boolean(3)
    for x in B.elements:
        for y in B.elements:
            assert triple_check(B, x, y, 5).holds_t


def test_center_matches_oracle():
    for name, make in {**CORPUS, **GENERATED}.items():
        L = make()
        z = center(L)
        assert z == center_oracle(L), name
        assert len(z) == CENTER_SIZES[name], name


def test_center_self_check_fires_on_a_corrupted_commute_table():
    L = mo(2)
    commute = np.array(L.commute)
    commute[L.index("a")] = True  # a now commutes with everything, ~a does not
    L.__dict__["commute"] = commute  # replace the cached table
    with pytest.raises(InternalError, match="complement of each member"):
        center(L)


def test_center_of_bowtie_names():
    L = bowtie()
    assert [L.names[z] for z in center(L)] == ["0", "c", "~c", "1"]


def test_product_structure():
    A, B = boolean(2), mo(2)
    P = product(A, B)
    assert P.n == A.n * B.n
    assert P.names[0] == "(0,0)"
    assert P.zero == 0 and P.one == P.n - 1
    for x in range(A.n):
        for y in range(B.n):
            for u in range(A.n):
                for v in range(B.n):
                    i, j = x * B.n + y, u * B.n + v
                    m = int(A.meet[x, u]) * B.n + int(B.meet[y, v])
                    assert int(P.meet[i, j]) == m
    assert [P.names[z] for z in center(P)][:2] == ["(0,0)", "(0,1)"]


def test_product_tables_equal_the_audit():
    # product builds its tables by index arithmetic and skips verify_oml;
    # the audit of its order and complement must re-derive the same
    # tables.  Each unordered pair of factors runs once (two distinct
    # factors exercise both sides of the index arithmetic), up to the
    # 1296 elements of mo2xmo2 squared.
    # mo(2) numbered backwards puts 0 and 1 away from the ends
    L, back = mo(2), np.arange(6)[::-1]
    flipped = verify_oml(L.leq[np.ix_(back, back)], back[L.neg[back]])
    factors = [make() for make in CORPUS.values()] + [boolean(5), mo(6), flipped]
    pairs = [(A, B) for i, A in enumerate(factors) for B in factors[i:]
             if A.n * B.n <= 1300]
    assert len(pairs) == 105
    for A, B in pairs:
        P = product(A, B)
        V = verify_oml(np.array(P.leq), np.array(P.neg), P.names)
        assert P.names == V.names
        assert (P.zero, P.one) == (V.zero, V.one)
        assert type(P.zero) is int and type(P.one) is int
        for table in ("leq", "neg", "meet", "join"):
            got, want = getattr(P, table), getattr(V, table)
            assert got.dtype == want.dtype and np.array_equal(got, want), table
            assert not got.flags.writeable, table


def _meet_join_cases():
    """Lattices and seeded corruptions of their orders and complements:
    one pair added or dropped, one pair added and the order closed again
    (also turned upside down, which swaps missing joins for missing
    meets), or two complements swapped."""
    lattices = ([make() for make in CORPUS.values()]
                + [loop3(k) for k in range(5, 17)]
                + [boolean(k) for k in range(2, 9)]
                + [mo(k) for k in range(2, 17)]
                + [product(mo(3), loop3(5)), product(pentagon(), boolean(3)),
                   product(bowtie(), mo(2))])
    rng = random.Random(20260418)
    for L in lattices:
        yield np.array(L.leq), np.array(L.neg)
        for kind in ("add", "drop", "add-close", "add-close-dual", "swap-neg"):
            leq, neg = np.array(L.leq), np.array(L.neg)
            a, b = rng.randrange(L.n), rng.randrange(L.n)
            if kind == "swap-neg":
                neg[[a, b]] = neg[[b, a]]
            else:
                leq[a, b] = kind != "drop"
                if kind.startswith("add-close"):
                    leq = transitive_closure(leq)
                if kind == "add-close-dual":
                    leq = leq.T.copy()
            yield leq, neg


def _outcome(call):
    try:
        return call()
    except OmlkitError as e:
        return e.law, e.witness


def test_meet_join_tables_equal_the_oracle(monkeypatch):
    # verify_oml's down-set-count kernel against the lookup loop it
    # replaced: the same tables, or the same first failing law and
    # witness; small blocks put that pair in a later block
    order_laws = {"reflexivity", "antisymmetry", "transitivity", "bounds", "degenerate"}
    seen = {"ok": 0, "meet": 0, "join": 0}
    default = core._BLOCK
    for leq, neg in _meet_join_cases():
        try:
            verify_oml(leq, neg)
            law = None
        except OmlkitError as e:
            law = e.law
        if law in order_laws:
            continue
        meet, join, failed = meet_join_oracle(leq)
        names = tuple(map(str, range(len(leq))))
        for block in (default, 1, 97) if len(leq) <= 100 else (default,):
            monkeypatch.setattr(core, "_BLOCK", block)
            got = _outcome(lambda: core._meet_join(leq, names))
            if failed is None:
                assert np.array_equal(got[0], meet) and np.array_equal(got[1], join)
                assert got[0].dtype == got[1].dtype == np.int64
            else:
                assert got == failed
        if failed is not None:
            assert law == failed[0]
        seen["ok" if failed is None else failed[0]] += 1
    assert min(seen.values()) >= 10, seen


def test_verify_boolean10_is_fast():
    L = boolean(10)
    leq, neg = np.array(L.leq), np.array(L.neg)
    t0 = time.perf_counter()
    again = verify_oml(leq, neg)
    assert time.perf_counter() - t0 < 2.0
    assert np.array_equal(again.meet, L.meet) and np.array_equal(again.join, L.join)


def test_maximal_cliques_matches_oracle():
    rng = random.Random(20061222)
    for _ in range(200):
        n = rng.randint(0, 10)
        density = rng.random()
        adj = np.zeros((n, n), dtype=bool)
        for a in range(n):
            for b in range(a + 1, n):
                adj[a, b] = adj[b, a] = rng.random() < density
        assert list(maximal_cliques(adj)) == maximal_cliques_oracle(adj)
        assert lex_maximal_cliques(adj) == maximal_cliques(adj)
    # a triangle plus an isolated vertex; the edgeless graph; no vertices
    triangle = np.zeros((4, 4), dtype=bool)
    triangle[:3, :3] = True
    for adj, expected in ((triangle, [(0, 1, 2), (3,)]),
                          (np.zeros((5, 5), dtype=bool), [(v,) for v in range(5)]),
                          (np.zeros((0, 0), dtype=bool), [])):
        assert maximal_cliques_oracle(adj) == expected
        assert list(maximal_cliques(adj)) == expected
        assert list(lex_maximal_cliques(adj)) == expected


def test_center_of_boolean8_is_fast():
    L = boolean(8)
    t0 = time.perf_counter()
    assert center(L) == tuple(range(256))
    assert time.perf_counter() - t0 < 1.0


def test_enumerate_blocks_of_boolean8_is_fast():
    L = boolean(8)
    t0 = time.perf_counter()
    (block,) = enumerate_blocks(L)
    assert block.carrier == tuple(range(256))
    assert time.perf_counter() - t0 < 1.0
