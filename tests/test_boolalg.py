"""Boolean subalgebras, blocks, filters, and two-valued homomorphisms."""

import random

import pytest

from omlkit import (CapExceeded, Filter, ImproperInput,
                    NonCommutingGenerators, TwoValuedHom, ValidationError,
                    enumerate_blocks, enumerate_subalgebras, extend_hom,
                    extend_to_maximal, filter_generate, generated_subalgebra,
                    homs_to_2, product, subalgebra, subalgebras_within)
from omlkit.corpus import CORPUS, boolean, bowtie, chain2, mo, pentagon

from oracles import maximal_carriers_oracle, subalgebra_carriers_oracle
from test_core import loop3

SUBALGEBRA_COUNTS = {
    "chain2": 1, "boolean2": 2, "boolean3": 5, "boolean4": 15,
    "mo2": 3, "mo3": 4, "mo4": 5, "bowtie": 8, "pentagon": 16,
    "b2xmo2": 25, "mo2xmo2": 42,
}
BLOCK_COUNTS = {
    "chain2": 1, "boolean2": 1, "boolean3": 1, "boolean4": 1,
    "mo2": 2, "mo3": 3, "mo4": 4, "bowtie": 2, "pentagon": 5,
    "b2xmo2": 2, "mo2xmo2": 4,
}


def block_of(L, *names):
    return subalgebra(L, tuple(sorted(L.index(s) for s in names)))


def test_subalgebra_accepts_blocks():
    L = mo(2)
    W = block_of(L, "0", "a", "a2", "1")
    assert W.atoms == (L.index("a"), L.index("a2"))
    assert len(W) == 4
    assert L.index("a") in W and L.index("b") not in W
    assert W.label() == "{a,a2}"


def test_subalgebra_rejects_bad_carriers():
    L = mo(2)
    with pytest.raises(ValidationError):
        subalgebra(L, (0, 1, 2))  # no complement of a
    with pytest.raises(ValidationError):
        subalgebra(L, (1, 2, 5))  # missing bottom
    with pytest.raises(ValidationError):
        subalgebra(L, (0, 99, 5))  # out of range
    # the full MO2 carrier is operation-closed but not Boolean
    with pytest.raises(ValidationError) as e:
        subalgebra(L, tuple(range(6)))
    assert e.value.law == "commutation"


def test_subalgebra_identity_semantics():
    L = mo(2)
    W1 = block_of(L, "0", "a", "a2", "1")
    W2 = block_of(L, "0", "a", "a2", "1")
    assert W1 == W2 and hash(W1) == hash(W2)
    assert W1 != block_of(L, "0", "b", "b2", "1")


def test_generated_subalgebra():
    L = mo(2)
    g = generated_subalgebra(L, (L.index("a"),))
    assert g.carrier == (0, 1, 2, 5)
    # 0 and 1 come for free
    g = generated_subalgebra(L, ())
    assert g.carrier == (0, 5)
    with pytest.raises(NonCommutingGenerators) as e:
        generated_subalgebra(L, (L.index("b"), L.index("a")))
    # witness pair reported in element order
    assert e.value.witness == (L.index("a"), L.index("b"))
    # out-of-range generators are validation errors, not index errors
    for bad in (-1, L.n):
        with pytest.raises(ValidationError) as e:
            generated_subalgebra(L, (L.index("a"), bad))
        assert (e.value.law, e.value.witness) == ("range", (bad,))
    # seeded pairwise-commuting generator sets: the generated carrier is
    # the smallest oracle carrier containing them
    rng = random.Random(20260314)
    for name, make in CORPUS.items():
        L = make()
        carriers = subalgebra_carriers_oracle(L)
        for _ in range(30):
            gens, size = [], rng.randint(1, 3)
            for x in rng.sample(range(L.n), L.n):
                if len(gens) < size and all(
                        int(L.join[L.meet[x, y], L.meet[x, L.neg[y]]]) == x for y in gens):
                    gens.append(x)
            expected = next(c for c in carriers if set(gens) <= set(c))
            assert generated_subalgebra(L, gens).carrier == expected, (name, gens)


def test_generated_within():
    L = bowtie()
    W = generated_subalgebra(L, (L.index("a"), L.index("b")))
    inner = generated_subalgebra(L, (L.index("a"),), within=W)
    assert set(inner.carrier) <= set(W.carrier)
    with pytest.raises(ValidationError):
        generated_subalgebra(L, (L.index("d"),), within=W)


def test_enumerate_blocks_matches_oracle_and_diagrams():
    for name, make in CORPUS.items():
        L = make()
        got = [b.carrier for b in enumerate_blocks(L)]
        assert sorted(got) == sorted(map(tuple, maximal_carriers_oracle(L))), name
        assert len(got) == BLOCK_COUNTS[name], name


def test_enumerate_subalgebras_matches_oracle():
    generated = {"loop3_5": lambda: loop3(5), "loop3_6": lambda: loop3(6),
                 "boolean5": lambda: boolean(5), "mo6": lambda: mo(6),
                 "b2xpentagon": lambda: product(boolean(2), pentagon())}
    for name, make in {**CORPUS, **generated}.items():
        L = make()
        got = [s.carrier for s in enumerate_subalgebras(L)]
        assert got == subalgebra_carriers_oracle(L), name
        if name in SUBALGEBRA_COUNTS:
            assert len(got) == SUBALGEBRA_COUNTS[name], name
        # canonical order: by size then carrier
        assert got == sorted(got, key=lambda c: (len(c), c))


def test_enumerate_subalgebras_cap():
    with pytest.raises(CapExceeded) as e:
        enumerate_subalgebras(boolean(4), cap=10)
    assert e.value.count == 11
    # the trivial subalgebra counts too: the cap trips at cap + 1 always
    with pytest.raises(CapExceeded) as e:
        enumerate_subalgebras(chain2(), cap=0)
    assert e.value.count == 1


def test_subalgebras_within_block():
    L = bowtie()
    W = enumerate_blocks(L)[0]
    inner = subalgebras_within(W)
    # a 2^3 block contains Bell(3) = 5 Boolean subalgebras
    assert len(inner) == 5
    assert all(set(s.carrier) <= set(W.carrier) for s in inner)
    assert inner[-1].carrier == W.carrier
    # the subalgebras of 2^k are the Bell(k) set partitions of its atoms
    for k, bell in enumerate((1, 2, 5, 15, 52, 203, 877), start=1):
        B = boolean(k)
        assert len(subalgebras_within(subalgebra(B, B.elements))) == bell, k


def test_producers_agree_with_validation():
    # every subalgebra built from its atoms passes the public validation
    # unchanged
    for name, make in CORPUS.items():
        L = make()
        blocks = enumerate_blocks(L)
        produced = [*blocks, *enumerate_subalgebras(L),
                    *(s for b in blocks for s in subalgebras_within(b))]
        for s in produced:
            checked = subalgebra(L, s.carrier)
            assert (s.carrier, s.atoms) == (checked.carrier, checked.atoms), name
            assert s.member_set == frozenset(s.carrier), name


def test_filters():
    L = boolean(2)
    B = subalgebra(L, tuple(range(4)))
    f = filter_generate(B, ())
    assert f.members == (L.one,)
    assert f.proper and not f.is_ultra()
    with pytest.raises(ImproperInput):
        f.two_valued_hom()
    g = filter_generate(B, (1,))
    assert g.is_ultra()
    assert g.two_valued_hom().true_atom == 1
    # complementary generators collapse the filter
    h = filter_generate(B, (1, int(L.neg[1])))
    assert not h.proper
    with pytest.raises(ImproperInput):
        extend_to_maximal(h)
    with pytest.raises(ValidationError):
        filter_generate(subalgebra(mo(2), (0, 1, 2, 5)), (3,))


def test_extend_to_maximal_tie_break():
    # extending {1} scans elements in index order, so the first atom wins
    L = boolean(2)
    B = subalgebra(L, tuple(range(4)))
    out = extend_to_maximal(filter_generate(B, ()))
    assert out.is_ultra()
    assert out.two_valued_hom().true_atom == B.atoms[0]


def test_two_valued_hom():
    L = mo(2)
    W = block_of(L, "0", "a", "a2", "1")
    with pytest.raises(ValidationError):
        TwoValuedHom(domain=W, true_atom=L.one)  # not an atom
    v = TwoValuedHom(domain=W, true_atom=L.index("a"))
    assert v.value(L.index("a")) == 1
    assert v.value(L.index("a2")) == 0
    assert v.value(L.one) == 1 and v.value(L.zero) == 0
    with pytest.raises(ValidationError):
        v.value(L.index("b"))
    assert v.ultrafilter().members == (L.index("a"), L.one)
    trivial = subalgebra(L, (L.zero, L.one))
    assert v.restrict(trivial).true_atom == L.one


def test_homs_to_2_one_per_atom():
    for make in (lambda: boolean(3), lambda: mo(3)):
        L = make()
        for W in enumerate_blocks(L):
            homs = homs_to_2(W)
            assert tuple(h.true_atom for h in homs) == W.atoms


def test_extend_hom():
    L = mo(2)
    trivial = subalgebra(L, (L.zero, L.one))
    W = block_of(L, "0", "a", "a2", "1")
    base = TwoValuedHom(domain=trivial, true_atom=L.one)
    out = extend_hom(base, W)
    # deterministic tie-break extends along the first atom
    assert out.true_atom == L.index("a")
    with pytest.raises(ValidationError):
        extend_hom(TwoValuedHom(domain=W, true_atom=L.index("a")),
                   block_of(L, "0", "b", "b2", "1"))


def test_filter_members_are_upward_closed():
    L = bowtie()
    for W in enumerate_blocks(L):
        for g in W.carrier:
            f = filter_generate(W, (g,))
            for x in f.members:
                for y in W.carrier:
                    if L.leq[x, y]:
                        assert y in f
