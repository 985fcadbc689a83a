"""Base posets, sections, restriction, and the global-section solver."""

import random
import time
from concurrent.futures import ProcessPoolExecutor
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from omlkit import (CapExceeded, IncompatibleGlobalSection, Section, build_poset,
                    canonical_ray, check_section, enumerate_blocks, homs_to_2,
                    hypergraph_from_rays, principal_poset, principal_section,
                    render_answer, section_eval, sheaf, solve_global, subalgebra)
from omlkit.corpus import CORPUS, boolean, cabello18, mo
from omlkit.sheaf import _compatibility, _family_to_section

from oracles import (exact_one_sat_oracle, hypergraph_valuation_count_oracle,
                     lattice_valuation_count_oracle)
from test_core import loop3

# solver counts frozen from the independent valuation oracles
GLOBAL_SECTIONS = {
    "chain2": 1,
    "boolean2": 2,
    "boolean3": 3,
    "boolean4": 4,
    "mo2": 4,
    "mo3": 8,
    "mo4": 16,
    "bowtie": 5,
    "pentagon": 11,
    "b2xmo2": 6,
    "mo2xmo2": 8,
}


def sample_posets():
    """The corpus in both modes, loop3(5..8) in both modes and cabello18."""
    lattices = [make() for name, make in CORPUS.items() if name != "cabello"]
    lattices += [loop3(k) for k in range(5, 9)]
    return ([build_poset(L, mode) for L in lattices for mode in ("all", "blocks")]
            + [build_poset(cabello18(), mode="blocks")])


def rays01(d):
    """The rays of {0,+1,-1}^d, one per sign class, first nonzero entry +1."""
    return [v for v in product((0, 1, -1), repeat=d) if next((x for x in v if x), 0) == 1]


def permuted(rays, seed):
    """One seeded coordinate permutation and sign flip of every ray, then
    the rays shuffled; orthogonality is preserved."""
    rng = random.Random(seed)
    perm = rng.sample(range(len(rays[0])), len(rays[0]))
    signs = [rng.choice((1, -1)) for _ in perm]
    out = [tuple(sign * r[c] for sign, c in zip(signs, perm)) for r in rays]
    rng.shuffle(out)
    return out


def ray_hypergraph(rays):
    return hypergraph_from_rays(len(rays[0]), [canonical_ray(r) for r in rays])


def test_poset_all_mode_mo2():
    P = build_poset(mo(2), mode="all")
    assert P.n == 3
    assert sorted(n.label for n in P.nodes) == ["{1}", "{a,a2}", "{b,b2}"]
    t = P.node_index("{1}")
    assert P.down(P.node_index("{a,a2}")) == (t, P.node_index("{a,a2}"))
    assert set(P.maximal_nodes()) == {P.node_index("{a,a2}"), P.node_index("{b,b2}")}


def test_poset_blocks_mode_adds_pairwise_meets():
    L = CORPUS["bowtie"]()
    P = build_poset(L, mode="blocks")
    # two blocks plus their intersection {0, c, ~c, 1}
    assert P.n == 3
    assert P.nodes[0].label == "{c,~c}"
    assert P.maximal_nodes() == (1, 2)


def test_maximal_nodes_are_the_nodes_below_no_other():
    for P in sample_posets() + [build_poset(ray_hypergraph(rays01(5)), mode="blocks")]:
        strict = P.leq & ~np.eye(P.n, dtype=bool)
        want = tuple(i for i in range(P.n) if not strict[i].any())
        got = P.maximal_nodes()
        assert got == want and all(type(i) is int for i in got)


def test_poset_modes_and_errors():
    with pytest.raises(ValueError):
        build_poset(mo(2), mode="spanning")
    with pytest.raises(ValueError):
        build_poset(cabello18(), mode="all")
    with pytest.raises(TypeError):
        build_poset("not a lattice")
    with pytest.raises(CapExceeded):
        build_poset(mo(2), mode="all", cap=0)


def test_poset_order_is_carrier_inclusion():
    posets = [principal_poset(enumerate_blocks(boolean(7))[0])]
    posets += [build_poset(make(), mode="all") for name, make in CORPUS.items()
               if name != "cabello"]
    for P in posets:
        want = [[a.subalg.member_set <= b.subalg.member_set for b in P.nodes]
                for a in P.nodes]
        assert P.leq.dtype == bool and not P.leq.flags.writeable
        assert (P.leq == np.array(want)).all()
    assert posets[0].n == 877 and int(posets[0].leq.sum()) == 19302


def test_hypergraph_poset_shape():
    P = build_poset(cabello18(), mode="blocks")
    kinds = [n.kind for n in P.nodes]
    assert kinds.count("trivial") == 1
    assert kinds.count("context") == 9
    assert kinds.count("overlap") == 18
    assert P.n == 28
    # every overlap node holds the shared ray plus the lumped remainder
    for node in P.nodes:
        if node.kind == "overlap":
            assert node.has_rest and node.atom_labels[-1] == "rest"
            assert len(node.atom_labels) == 2


def test_restrict_label_lattice():
    L = CORPUS["bowtie"]()
    P = build_poset(L, mode="all")
    parent = P.node_index("{a,b,c}")
    child = P.node_index("{c,~c}")
    assert P.restrict_label(parent, "a", child) == "~c"
    assert P.restrict_label(parent, "c", child) == "c"
    assert P.restrict_label(parent, "a", parent) == "a"
    with pytest.raises(ValueError, match=r"\{a,b,c\} is not below node \{c,~c\}"):
        P.restrict_label(child, "c", parent)


def test_restriction_maps_agree_with_hom_restriction():
    for P in sample_posets():
        for parent, pnode in enumerate(P.nodes):
            for child in P.down(parent):
                cnode, row = P.nodes[child], P.restriction(parent, child)
                assert len(row) == len(pnode.atom_labels)
                if P.kind == "lattice":
                    assert row == tuple(cnode.subalg.atoms.index(
                        f.restrict(cnode.subalg).true_atom) for f in homs_to_2(pnode.subalg))
                else:
                    # a vertex both nodes hold stays; the others lump into "rest" or "1"
                    labels = cnode.atom_labels
                    assert [labels[k] for k in row] == [
                        a if a in labels else labels[-1] for a in pnode.atom_labels]
                for grandchild in P.down(child):  # restriction composes
                    below = P.restriction(child, grandchild)
                    assert P.restriction(parent, grandchild) == tuple(below[k] for k in row)


def test_compatibility_tables_match_brute_force():
    for P in sample_posets():
        tops = P.maximal_nodes()
        tables = _compatibility(P, tops)
        for ii in range(len(tops)):
            for jj in range(ii + 1, len(tops)):
                ni, nj = P.nodes[tops[ii]], P.nodes[tops[jj]]
                if P.kind == "lattice":
                    host = P.host
                    shared = (ni.subalg.member_set & nj.subalg.member_set) - {host.zero, host.one}
                    want = [[all(host.leq[a, x] == host.leq[b, x] for x in shared)
                             for b in nj.subalg.atoms] for a in ni.subalg.atoms]
                else:
                    shared = set(ni.atom_labels) & set(nj.atom_labels)
                    want = [[all((a == v) == (b == v) for v in shared)
                             for b in nj.atom_labels] for a in ni.atom_labels]
                if not shared:
                    assert (ii, jj) not in tables
                    continue
                pair, si, sj = tables[(ii, jj)], len(ni.atom_labels), len(nj.atom_labels)
                assert len(pair.fwd) == si and len(pair.bwd) == sj
                assert all(row >> sj == 0 for row in pair.fwd)
                assert all(row >> si == 0 for row in pair.bwd)
                assert [[bool(pair.fwd[a] >> b & 1) for b in range(sj)]
                        for a in range(si)] == want
                assert [[bool(pair.bwd[b] >> a & 1) for a in range(si)]
                        for b in range(sj)] == [list(col) for col in zip(*want)]
                assert pair.weight == sum(not ok for row in want for ok in row)


def test_principal_section_and_eval():
    L = mo(2)
    P = build_poset(L, mode="all")
    w = P.node_index("{a,a2}")
    s = principal_section(P, w, homs_to_2(subalgebra(L, (0, 1, 2, 5)))[0])
    assert check_section(s).ok
    assert s.domain == P.down(w)
    assert section_eval(s, "a") == 1
    assert section_eval(s, "a2") == 0
    assert section_eval(s, "1") == 1
    assert section_eval(s, "b") is None  # outside the section's scope
    with pytest.raises(ValueError):
        principal_section(P, w, "b")


def test_principal_poset_matches_down_set():
    L = CORPUS["boolean3"]()
    A = subalgebra(L, tuple(range(L.n)))
    P = principal_poset(A)
    assert P.n == 5  # 2^3 has five Boolean subalgebras
    assert P.maximal_nodes() == (P.n - 1,)
    assert P.nodes[-1].subalg == A


def test_check_section_violation_kinds():
    P = build_poset(mo(2), mode="all")
    a_node, t = P.node_index("{a,a2}"), P.node_index("{1}")
    good = principal_section(P, a_node, "a")
    assert check_section(good).ok

    holey = Section(poset=P, domain=(a_node,), choice=("a",))
    report = check_section(holey)
    assert [v.law for v in report.violations] == ["domain"]

    wrong_atom = Section(poset=P, domain=(t, a_node), choice=("1", "b"))
    assert [v.law for v in check_section(wrong_atom).violations] == ["choice"]

    # hypergraph continuity: overlap must repeat the context's choice
    H = build_poset(cabello18(), mode="blocks")
    w = H.maximal_nodes()[0]
    s = principal_section(H, w, H.nodes[w].atom_labels[0])
    broken = list(s.choice)
    overlap_pos = next(
        pos for pos, node in enumerate(s.domain)
        if H.nodes[node].kind == "overlap"
        and s.choice[pos] == H.nodes[node].atom_labels[0]
    )
    broken[overlap_pos] = "rest"
    bad = Section(poset=H, domain=s.domain, choice=tuple(broken))
    assert any(v.law == "continuity" for v in check_section(bad).violations)


def test_solver_counts_match_frozen_table():
    generated = {**{f"loop3_{k}": (lambda k=k: loop3(k)) for k in range(5, 9)},
                 **{f"mo{k}": (lambda k=k: mo(k)) for k in range(5, 9)}}
    for name, make in {**CORPUS, **generated}.items():
        if name == "cabello":
            continue
        L = make()
        P = build_poset(L, mode="all")
        result = solve_global(P, enumerate_all=True)
        assert result.sat and result.enumerated
        want = GLOBAL_SECTIONS.get(name) or lattice_valuation_count_oracle(L)
        assert len(result.sections) == want, name
        keys = [s.key() for s in result.sections]
        assert len(set(keys)) == len(keys)
        again = solve_global(P, enumerate_all=True)
        assert [s.key() for s in again.sections] == keys  # stable order
        for s in result.sections:
            assert s.domain == tuple(range(P.n))
            assert check_section(s).ok


def test_enumerate_mo14_is_fast():
    start = time.perf_counter()
    result = solve_global(build_poset(mo(14), mode="blocks"), enumerate_all=True)
    assert time.perf_counter() - start < 2.0
    assert len(result.sections) == 2 ** 14


def test_section_extension_checks_itself():
    P = build_poset(CORPUS["bowtie"](), mode="all")
    s = solve_global(P).sections[0]
    # owners that rebuild s from a one-atom family, then one wrong at {c,~c}
    owners = [(0, (node.atom_labels.index(s.choice_at(w)),), node.atom_labels)
              for w, node in enumerate(P.nodes)]
    assert _family_to_section(P, owners, (0,)).choice == s.choice
    c = P.node_index("{c,~c}")
    owners[c] = (0, (1 - owners[c][1][0],), owners[c][2])
    with pytest.raises(IncompatibleGlobalSection) as e:
        _family_to_section(P, owners, (0,))
    assert e.value.law == "continuity"


def test_blocks_mode_counts_agree_with_all_mode():
    for name in ("mo2", "bowtie", "pentagon", "boolean3"):
        L = CORPUS[name]()
        full = solve_global(build_poset(L, mode="all"), enumerate_all=True)
        blocks = solve_global(build_poset(L, mode="blocks"), enumerate_all=True)
        assert len(full.sections) == len(blocks.sections), name


def test_cabello_unsat_with_certificate():
    P = build_poset(cabello18(), mode="blocks")
    result = solve_global(P)
    assert not result.sat
    assert result.verdict == "UNSAT"
    assert result.sections == ()
    # the parity argument needs every context; nothing can be deleted
    assert result.certificate == tuple(f"C{i}" for i in range(9))
    assert render_answer(result).splitlines()[0] == "UNSAT"


def test_solution_cap():
    P = build_poset(mo(4), mode="all")
    with pytest.raises(CapExceeded) as e:
        solve_global(P, enumerate_all=True, solution_cap=7)
    assert e.value.cap == 7 and e.value.what == "global sections"


def worker_cases():
    """(poset, enumerate_all) inputs whose answers must not depend on the
    worker count; every search among them stays below the pool budget."""
    cases = [(build_poset(CORPUS[name](), mode="all"), True) for name in ("pentagon", "mo3")]
    cases += [(build_poset(h, mode="blocks"), False)
              for h in (cabello18(), ray_hypergraph(rays01(4)))]
    return cases


def test_workers_do_not_change_output():
    for P, enumerate_all in worker_cases():
        one = solve_global(P, enumerate_all=enumerate_all, workers=1)
        two = solve_global(P, enumerate_all=enumerate_all, workers=2)
        assert one.sat == enumerate_all
        assert render_answer(one) == render_answer(two)


def search_args(P):
    """The solver's (sizes, tables, order) for the maximal nodes of P."""
    tops = P.maximal_nodes()
    tables = _compatibility(P, tops)
    return ([len(P.nodes[w].atom_labels) for w in tops], tables,
            sheaf._order_blocks(len(tops), tables))


@pytest.fixture
def pool_starts(monkeypatch):
    """Stand in for the solver's process pool and record every start."""
    starts = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(sheaf, "ProcessPoolExecutor", CountingPool)
    return starts


def test_pool_path_does_not_change_output(monkeypatch, pool_starts):
    monkeypatch.setattr(sheaf, "_POOL_BUDGET", 0)  # every search outgrows it
    cases = worker_cases()
    for P, enumerate_all in cases:
        one = solve_global(P, enumerate_all=enumerate_all, workers=1)
        two = solve_global(P, enumerate_all=enumerate_all, workers=2)
        assert render_answer(one) == render_answer(two)
    assert pool_starts == [2] * len(cases)


def test_pool_starts_only_past_the_budget(pool_starts):
    for P, enumerate_all in worker_cases():  # pentagon, mo(3), cabello18, rays01(4)
        solve_global(P, enumerate_all=enumerate_all, workers=2)
    assert pool_starts == []
    # mo(12) in blocks mode: twelve free two-atom blocks, 2^13 - 1 = 8191 nodes
    P = build_poset(mo(12), mode="blocks")
    assert sheaf._backtrack(*search_args(P), 2 ** 12, budget=8190) is None
    assert len(sheaf._backtrack(*search_args(P), 2 ** 12, budget=8191)[0]) == 2 ** 12
    one = solve_global(P, enumerate_all=True, workers=1)
    assert pool_starts == []
    two = solve_global(P, enumerate_all=True, workers=2)
    assert pool_starts == [2]
    assert len(two.sections) == 2 ** 12
    assert render_answer(one) == render_answer(two)


def test_pooled_core_and_certificate_equal_the_in_process_ones(monkeypatch):
    hypergraphs = [cabello18(), ray_hypergraph(rays01(4)),
                   ray_hypergraph(random.Random(4).sample(rays01(5), 118))]
    for h in hypergraphs:
        P = build_poset(h, mode="blocks")
        solutions, core = sheaf._backtrack(*search_args(P), 1)
        assert not solutions and core
        # the union of the pinned-branch cores, from a real pool
        assert sheaf._pooled_search(*search_args(P), 1, 2) == ([], core)
        in_process = solve_global(P, workers=2)
        with monkeypatch.context() as m:
            m.setattr(sheaf, "_POOL_BUDGET", 0)
            assert solve_global(P, workers=2).certificate == in_process.certificate


def test_exact_one_oracle_agrees_with_brute_force():
    rng = random.Random(5)
    for _ in range(150):
        n = rng.randint(3, 9)
        contexts = [tuple(rng.sample(range(n), rng.randint(2, 3)))
                    for _ in range(rng.randint(1, 6))]
        h = SimpleNamespace(vertices=tuple(range(n)), contexts=contexts)
        assert exact_one_sat_oracle(contexts) == (hypergraph_valuation_count_oracle(h) > 0)
    assert not exact_one_sat_oracle(cabello18().contexts)
    assert exact_one_sat_oracle(ray_hypergraph(rays01(3)).contexts)


def test_certificate_is_plain_deletion_and_irreducible():
    r5 = rays01(5)
    hypergraphs = {
        "cabello18": cabello18(),
        "rays01(4)#1": ray_hypergraph(permuted(rays01(4), 1)),
        "rays01(4)#2": ray_hypergraph(permuted(rays01(4), 2)),
        "rays01(5)-2:112": ray_hypergraph(random.Random(2).sample(r5, 112)),
        "rays01(5)-5:112": ray_hypergraph(random.Random(5).sample(r5, 112)),
    }
    for name, h in hypergraphs.items():
        result = solve_global(build_poset(h, mode="blocks"))
        assert not result.sat, name
        contexts = {f"C{i}": ctx for i, ctx in enumerate(h.contexts)}
        keep = list(contexts)  # plain deletion in canonical order, by the oracle
        for label in contexts:
            trial = [x for x in keep if x != label]
            if not exact_one_sat_oracle([contexts[x] for x in trial]):
                keep = trial
        assert result.certificate == tuple(keep), name
        for label in keep:  # dropping any one context makes it SAT
            assert exact_one_sat_oracle([contexts[x] for x in keep if x != label]), name


def test_certificate_re_solves_only_core_deletions(monkeypatch):
    searches = []
    backtrack = sheaf._backtrack
    monkeypatch.setattr(sheaf, "_backtrack",
                        lambda *args, **kw: searches.append(args) or backtrack(*args, **kw))
    result = solve_global(build_poset(ray_hypergraph(rays01(4)), mode="blocks"))
    assert len(result.certificate) == 11
    # the first search, then a re-solve for 24 of the 32 deletions
    assert len(searches) == 1 + 24


def test_certificate_of_124_contexts_is_fast():
    P = build_poset(ray_hypergraph(random.Random(4).sample(rays01(5), 118)), mode="blocks")
    assert len(P.maximal_nodes()) == 124
    start = time.perf_counter()
    result = solve_global(P)
    assert time.perf_counter() - start < 0.5
    assert not result.sat and len(result.certificate) == 17


def test_first_solution_mode():
    P = build_poset(mo(2), mode="all")
    result = solve_global(P)
    assert result.sat and not result.enumerated
    assert len(result.sections) == 1
    enum = solve_global(P, enumerate_all=True)
    assert result.sections[0].key() in {s.key() for s in enum.sections}


def test_section_eval_hypergraph():
    H = build_poset(cabello18(), mode="blocks")
    w = H.maximal_nodes()[0]
    chosen = H.nodes[w].atom_labels[0]
    s = principal_section(H, w, chosen)
    assert section_eval(s, chosen) == 1
    assert section_eval(s, H.nodes[w].atom_labels[1]) == 0
    missing = next(v for v in cabello18().vertices
                   if all(v not in H.nodes[n].atom_labels for n in s.domain
                          if H.nodes[n].kind != "trivial"))
    assert section_eval(s, missing) is None
