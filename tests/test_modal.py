"""Modal saturation, embeddings into larger hosts, and actualization."""

import time

import numpy as np
import pytest

from omlkit import (AxiomResult, EmbeddingInvalid, IncompatibleGlobalSection,
                    InternalError, ModalAxiomReport, ModalStructure,
                    NotInW, PreconditionPossibility, Section, actualize,
                    born_extend, build_poset, center, check_modal_axioms,
                    check_section, enumerate_blocks, global_actualization_check,
                    modal, modal_extend, possibility_sections, possibility_space,
                    paste, parse_greechie, principal_section, product, saturate,
                    solve_global)
from omlkit.corpus import CORPUS, boolean, mo

from oracles import center_oracle


def test_saturate_mo2_profile():
    M = saturate(mo(2))
    L = M.lattice
    assert M.central == (0, L.n - 1)
    # non-central elements crush to the bounds
    for x in range(1, L.n - 1):
        assert int(M.box[x]) == 0
        assert int(M.diamond[x]) == L.n - 1
    assert int(M.box[0]) == 0 and int(M.box[L.n - 1]) == L.n - 1


def test_saturate_boolean_is_identity():
    for k in (1, 2, 3):
        M = saturate(boolean(k))
        assert (M.box == np.arange(M.lattice.n)).all()
        assert (M.diamond == np.arange(M.lattice.n)).all()


def test_saturate_product_acts_componentwise():
    A, B = boolean(2), mo(2)
    L = product(A, B)
    M = saturate(L)
    MB = saturate(B)
    for a in range(A.n):
        for b in range(B.n):
            x = L.index(f"({A.names[a]},{B.names[b]})")
            want = L.index(f"({A.names[a]},{B.names[int(MB.box[b])]})")
            assert int(M.box[x]) == want


def test_diamond_is_least_central_above():
    loop3_6 = paste(parse_greechie("".join(f"a{i} b{i} a{(i + 1) % 6}\n"
                                           for i in range(6))))
    lattices = [CORPUS[name]() for name in ("mo3", "bowtie", "pentagon", "b2xmo2")]
    lattices += [loop3_6, modal_extend(CORPUS["bowtie"](), "diagonal:2").host]
    for L in lattices:
        M = saturate(L)
        central = set(M.central)
        assert central == {int(z) for z in center(L)}
        assert central == set(center_oracle(L))
        for x in range(L.n):
            d = int(M.diamond[x])
            assert d in central and L.leq[x, d]
            for z in central:
                if L.leq[x, z]:
                    assert L.leq[d, z]
            # box(x) is the largest central element below x
            below = [z for z in central if L.leq[z, x]]
            (largest,) = [z for z in below if all(L.leq[c, z] for c in below)]
            assert int(M.box[x]) == largest


def test_saturated_box_satisfies_all_axioms():
    for name, make in CORPUS.items():
        if name == "cabello":
            continue
        report = check_modal_axioms(saturate(make()))
        assert report.ok, name
        assert [r.name for r in report.results] == [f"S{i}" for i in range(1, 9)]
        assert all(r.witness is None for r in report.results)


def test_saturate_raises_when_its_audit_fails(monkeypatch):
    crushed = ModalAxiomReport((AxiomResult("S3", "box(1) = 1", False, {"x": "1"}),))
    monkeypatch.setattr(modal, "check_modal_axioms", lambda M: crushed)
    with pytest.raises(InternalError, match="fails S3"):
        saturate(mo(2))


def test_diamond_distributes_over_join():
    # the dual distribution law is checked, not assumed
    for name in ("mo2", "bowtie", "pentagon", "mo2xmo2"):
        L = CORPUS[name]()
        M = saturate(L)
        dia = M.diamond
        assert (dia[L.join] == L.join[np.ix_(dia, dia)]).all()


def test_identity_box_on_mo2_fails_exactly_s6():
    L = mo(2)
    idx = np.arange(L.n)
    M = ModalStructure(lattice=L, box=idx, diamond=idx, central=tuple(range(L.n)))
    report = check_modal_axioms(M)
    assert not report.ok
    failed = {r.name: r for r in report.results if not r.passed}
    assert set(failed) == {"S6"}
    assert failed["S6"].witness == {"x": "a", "y": "b"}


def test_crushed_box_fails_exactly_s3():
    L = boolean(2)
    box = np.zeros(L.n, dtype=np.intp)  # send everything to 0
    dia = np.full(L.n, L.n - 1, dtype=np.intp)
    M = ModalStructure(lattice=L, box=box, diamond=dia, central=(0, L.n - 1))
    report = check_modal_axioms(M)
    failed = {r.name: r for r in report.results if not r.passed}
    assert set(failed) == {"S3"}
    assert failed["S3"].witness == {"x": "1"}


def test_modal_extend_identity():
    L = CORPUS["bowtie"]()
    E = modal_extend(L, "identity")
    assert E.host is L and E.spec == "identity"
    assert E.embed == tuple(range(L.n))


def test_modal_extend_diagonal():
    E = modal_extend(mo(2), "diagonal:2")
    assert E.host.n == 36
    a = E.base.index("a")
    assert E.host.names[E.embed[a]] == "(a,a)"
    # every nonzero diagonal element has diamond (1,1), so the space is tiny
    S = possibility_space(E)
    assert sorted(E.host.names[x] for x in S.algebra.carrier) == ["(0,0)", "(1,1)"]
    assert len(possibility_sections(S)) == 1


def test_modal_extend_product_spec():
    # x -> (x, keep-p1(x)) is a genuine embedding of 2^2 into 2^2 x 2
    L = boolean(2)
    F = boolean(1)
    host = product(L, F)
    keep_p1 = {"0": "0", "p1": "1", "p2": "0", "1": "1"}
    embed = [host.index(f"({L.names[x]},{keep_p1[L.names[x]]})")
             for x in range(L.n)]
    E = modal_extend(L, "product", factor=F, embed=embed)
    assert E.host.n == L.n * F.n
    S = possibility_space(E)
    assert len(S.algebra) == L.n  # Boolean base: the space is the image


def test_modal_extend_rejects_non_embedding():
    L = mo(2)
    F = boolean(1)
    host = product(L, F)
    # x -> (x, 1) preserves meets and joins but not complements
    bad = [host.index(f"({L.names[x]},1)") for x in range(L.n)]
    with pytest.raises(EmbeddingInvalid) as e:
        modal_extend(L, "product", factor=F, embed=bad)
    assert e.value.law == "complement"
    # patching only the bottom breaks meets of incomparable atoms
    bad[0] = host.index("(0,0)")
    with pytest.raises(EmbeddingInvalid) as e:
        modal_extend(L, "product", factor=F, embed=bad)
    assert e.value.law == "meet"
    # collapsing 2^2 onto a chain is a hom but not one-to-one
    B = boolean(2)
    bhost = product(B, F)
    collapse = {"0": "(0,0)", "p1": "(1,1)", "p2": "(0,0)", "1": "(1,1)"}
    with pytest.raises(EmbeddingInvalid) as e:
        modal_extend(B, "product", factor=F,
                     embed=[bhost.index(collapse[B.names[x]]) for x in range(B.n)])
    assert e.value.law == "injective"
    with pytest.raises(EmbeddingInvalid) as e:
        modal_extend(L, "product", factor=F, embed=[0])
    assert e.value.law == "shape"
    # indices outside the host, past its end or negative, are rejected
    # before any table lookup
    for stray in (99, -1):
        with pytest.raises(EmbeddingInvalid) as e:
            modal_extend(B, "product", factor=F, embed=[0, 1, 2, stray])
        assert e.value.law == "range" and e.value.witness == (stray,)


def test_modal_extend_diagonal_of_boolean5_is_fast():
    L = boolean(5)
    t0 = time.perf_counter()
    E = modal_extend(L, "diagonal:2")
    assert time.perf_counter() - t0 < 2.0
    assert E.host.n == 1024 and len(E.structure.central) == 1024


def test_modal_extend_bad_specs():
    with pytest.raises(ValueError):
        modal_extend(mo(2), "diagonal:0")
    with pytest.raises(ValueError):
        modal_extend(mo(2), "diagonal:x")
    with pytest.raises(ValueError):
        modal_extend(mo(2), "frobnicate")
    with pytest.raises(ValueError):
        modal_extend(mo(2), "product")  # needs factor and embed
    # arity one is just the identity again
    E = modal_extend(mo(2), "diagonal:1")
    assert E.host.n == 6 and E.embed == tuple(range(6))


def test_possibility_space_identity_bowtie():
    L = CORPUS["bowtie"]()
    E = modal_extend(L, "identity")
    S = possibility_space(E)
    assert sorted(L.names[x] for x in S.algebra.carrier) == ["0", "1", "c", "~c"]
    secs = possibility_sections(S)
    assert len(secs) == 2
    assert sorted(s.value(L.index("c")) for s in secs) == [0, 1]


def test_possibility_space_sizes():
    sizes = {"mo2": 2, "bowtie": 4, "pentagon": 2, "b2xmo2": 8, "boolean3": 8}
    for name, want in sizes.items():
        E = modal_extend(CORPUS[name](), "identity")
        assert len(possibility_space(E).algebra) == want, name


def test_actualize_roundtrip_bowtie():
    L = CORPUS["bowtie"]()
    E = modal_extend(L, "identity")
    S = possibility_space(E)
    c = L.index("c")
    W = enumerate_blocks(L)[0]  # {a, b, c}
    assert c in W
    nu = next(s for s in possibility_sections(S) if s.value(c) == 1)
    out = actualize(E, W, c, nu)
    assert check_section(out).ok
    # q is actual and the possibility values survive
    top = out.domain[-1]
    hom = out.hom_at(top)
    assert hom.value(c) == 1
    for x in S.algebra.carrier:
        assert hom.value(x) == nu.value(x)


def test_actualize_every_block_choice_mo3():
    L = mo(3)
    E = modal_extend(L, "identity")
    S = possibility_space(E)
    (nu,) = possibility_sections(S)
    for W in enumerate_blocks(L):
        for q in W.carrier:
            if q == 0:
                continue
            out = actualize(E, W, q, nu)
            assert out.hom_at(out.domain[-1]).value(q) == 1


def test_actualize_preconditions():
    L = CORPUS["bowtie"]()
    E = modal_extend(L, "identity")
    S = possibility_space(E)
    c, a = L.index("c"), L.index("a")
    W0 = enumerate_blocks(L)[0]
    with pytest.raises(NotInW):
        actualize(E, enumerate_blocks(L)[1], a, possibility_sections(S)[0])
    nu_no = next(s for s in possibility_sections(S) if s.value(c) == 0)
    with pytest.raises(PreconditionPossibility):
        actualize(E, W0, c, nu_no)
    # diamond(0) = 0 can never be made actual
    with pytest.raises(PreconditionPossibility):
        actualize(E, W0, 0, possibility_sections(S)[0])


def test_actualize_boolean_is_identity():
    # with a Boolean base the possibility space is everything, so the
    # actualized valuation is nu itself
    L = boolean(3)
    E = modal_extend(L, "identity")
    S = possibility_space(E)
    assert len(S.algebra) == L.n
    W = enumerate_blocks(L)[0]
    for nu in possibility_sections(S):
        q = nu.hom.true_atom
        out = actualize(E, W, q, nu)
        assert out.hom_at(out.domain[-1]).true_atom == nu.hom.true_atom


def test_actualize_diagonal_extension():
    E = modal_extend(mo(2), "diagonal:2")
    L = E.base
    S = possibility_space(E)
    a = L.index("a")
    nu = next(s for s in possibility_sections(S)
              if s.value(int(E.structure.diamond[E.embed[a]])) == 1)
    W = enumerate_blocks(L)[0]
    out = actualize(E, W, a, nu)
    assert out.hom_at(out.domain[-1]).value(E.embed[a]) == 1


def test_born_extend_agrees_on_context():
    L = CORPUS["bowtie"]()
    E = modal_extend(L, "identity")
    P = build_poset(L, mode="all")
    for w in P.maximal_nodes():
        node = P.nodes[w]
        for atom in node.atom_labels:
            s = principal_section(P, w, atom)
            out = born_extend(E, s)
            hom = out.hom_at(out.domain[-1])
            for x in node.subalg.carrier:
                assert hom.value(E.embed[x]) == s.hom_at(w).value(x)


def test_born_extend_diagonal():
    E = modal_extend(mo(2), "diagonal:2")
    L = E.base
    P = build_poset(L, mode="all")
    w = P.node_index("{a,a2}")
    out = born_extend(E, principal_section(P, w, "a"))
    hom = out.hom_at(out.domain[-1])
    assert hom.value(E.embed[L.index("a")]) == 1
    assert hom.value(E.embed[L.index("a2")]) == 0
    # the possibility space is inside the span, so it gets a value too
    for x in possibility_space(E).algebra.carrier:
        assert hom.value(x) in (0, 1)


def test_born_extend_requires_principal_section():
    L = mo(2)
    E = modal_extend(L, "identity")
    P = build_poset(L, mode="all")
    full = solve_global(P).sections[0]
    with pytest.raises(ValueError):
        born_extend(E, full)  # two maximal nodes, not principal
    other = modal_extend(CORPUS["bowtie"](), "identity")
    s = principal_section(P, P.node_index("{a,a2}"), "a")
    with pytest.raises(ValueError):
        born_extend(other, s)  # section lives over a different base


def test_global_actualization_roundtrip():
    for name in ("mo2", "bowtie", "pentagon", "b2xmo2"):
        L = CORPUS[name]()
        E = modal_extend(L, "identity")
        S = possibility_space(E)
        P = build_poset(L, mode="all")
        for tau in solve_global(P, enumerate_all=True).sections:
            nu = global_actualization_check(E, tau)
            assert nu.space.algebra == S.algebra
            for x in S.algebra.carrier:
                got = nu.value(x)
                want = tau.hom_at(tau.domain[-1]).value(x) if (
                    x in P.nodes[tau.domain[-1]].subalg) else None
                if want is not None:
                    assert got == want


def test_global_actualization_values_match_sections():
    L = CORPUS["bowtie"]()
    E = modal_extend(L, "identity")
    P = build_poset(L, mode="all")
    c = L.index("c")
    for tau in solve_global(P, enumerate_all=True).sections:
        nu = global_actualization_check(E, tau)
        # every node that sees c agrees with the compressed valuation
        for pos, w in enumerate(tau.domain):
            sub = P.nodes[w].subalg
            if c in sub:
                assert tau.hom_at(w).value(c) == nu.value(c)


def test_global_actualization_rejects_incompatible():
    L = CORPUS["bowtie"]()
    E = modal_extend(L, "identity")
    P = build_poset(L, mode="all")
    tau = solve_global(P, enumerate_all=True).sections[0]
    i, j = (P.node_index("{a,b,c}"), P.node_index("{c,~c}"))
    broken = list(tau.choice)
    # force the two c-seeing nodes to disagree about c
    broken[list(tau.domain).index(i)] = "c"
    broken[list(tau.domain).index(j)] = "~c"
    bad = Section(poset=P, domain=tau.domain, choice=tuple(broken))
    with pytest.raises(IncompatibleGlobalSection):
        global_actualization_check(E, bad)
