"""Seeded op lists over omlkit's public functions: four parts (build,
enumerate, decide, modal), paired into the two workloads at the bottom.

An op is one closed-loop request: ``run(call, *inputs)`` does the timed
work, calling every library function through ``call`` so a traced run can
put a span around it.  ``inputs`` holds the objects built at set-up that
the op works on; the runner hands each timed run a fresh deep copy of them,
so no two runs share an object and a result remembered on one cannot make
a later run cheaper.  ``check`` judges the result outside the timed region; ``check`` judges the result outside the timed region;
``digest`` summarises it so later passes can be compared with the first
one cheaply.  Every part fixes how many ops of each size a pass holds;
the seed only renames, reorders, permutes or samples inside a size class,
so the cost of a pass does not depend on the seed.
"""

from __future__ import annotations

import copy
import hashlib
import random
from dataclasses import dataclass
from importlib import resources
from typing import Callable

import numpy as np

from omlkit import boolalg, core, corpus, greechie, interchange, modal, sheaf, vectors
from oracles import center_oracle, paste_size_oracle

import gen
from checks import (check_boolean_tables, check_certificate, check_hypergraph_section,
                    check_lattice_section, check_meet_join, diagram_blocks, expect,
                    lattice_blocks, loop_valuations, ray_contexts)


@dataclass
class Op:
    kind: str
    label: str
    run: Callable
    check: Callable
    digest: Callable
    inputs: tuple = ()
    # untimed work after set-up, before the timed run (reference answers)
    prepare: Callable | None = None


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


BOWTIE = [["a", "b", "c"], ["c", "d", "e"]]


def _paste_text(text: str):
    return greechie.paste(greechie.parse_greechie(text))


# -- build: parse, paste, verify, centre, blocks; no solving -------------------

def _diagram_op(kind, label, text):
    def run(call):
        d = call(greechie.parse_greechie, text)
        L = call(greechie.paste, d)
        return d, L, call(core.center, L), call(boolalg.enumerate_blocks, L)

    def check(res):
        d, L, z, blocks = res
        expect(L.n == paste_size_oracle(d), f"{label}: {L.n} elements")
        expect(tuple(z) == center_oracle(L), f"{label}: wrong centre")
        expect(lattice_blocks(L, blocks) == diagram_blocks(text), f"{label}: wrong blocks")

    return Op(kind, label, run, check, _lattice_digest)


def _lattice_digest(res):
    L, z, blocks = res[-3], res[-2], res[-1]
    return (L.n, tuple(z), tuple(b.carrier for b in blocks))


def _product_op(label, text1, text2):
    def run(call):
        d1 = call(greechie.parse_greechie, text1)
        d2 = call(greechie.parse_greechie, text2)
        L = call(core.product, call(greechie.paste, d1), call(greechie.paste, d2))
        return d1, d2, L, call(core.center, L), call(boolalg.enumerate_blocks, L)

    def check(res):
        d1, d2, L, z, blocks = res
        expect(L.n == paste_size_oracle(d1) * paste_size_oracle(d2), f"{label}: size")
        expect(tuple(z) == center_oracle(L), f"{label}: wrong centre")
        # blocks of a product are the products of blocks
        want = sorted(len(b1) + len(b2) for b1 in d1.blocks for b2 in d2.blocks)
        expect(sorted(len(b.atoms) for b in blocks) == want, f"{label}: wrong blocks")

    return Op("product", label, run, check, _lattice_digest)


def _arrays_op(label, leq, neg, boolean_k=None):
    def run(call, leq, neg):
        return call(core.verify_oml, leq, neg)

    def check(L):
        expect(np.array_equal(L.leq, leq), f"{label}: order changed")
        if boolean_k is not None:
            check_boolean_tables(L, boolean_k)
        else:
            check_meet_join(L.leq, L.meet, L.join)

    return Op("verify_oml", label, run, check, lambda L: _sha(L.meet.tobytes().hex()),
              inputs=(leq, neg))


def _interchange_op(label, text, boolean_k=None, want_leq=None):
    def run(call):
        return call(interchange.parse_interchange, text)

    def check(L):
        if boolean_k is not None:
            check_boolean_tables(L, boolean_k)
        else:
            expect(np.array_equal(L.leq, want_leq), f"{label}: order differs")
            check_meet_join(L.leq, L.meet, L.join)

    return Op("interchange", label, run, check, lambda L: _sha(L.join.tobytes().hex()))


def _vectors_op(label, rays, rng):
    text = gen.vectors_text(rays, rng)

    def run(call):
        return call(vectors.parse_vectors, text)

    def check(h):
        names, contexts = ray_contexts(rays)
        expect(set(h.vertices) == names, f"{label}: wrong rays")
        got = {frozenset(h.vertices[v] for v in c) for c in h.contexts}
        expect(got == contexts and len(h.contexts) == len(contexts),
               f"{label}: wrong contexts")

    return Op("vectors", label, run, check, lambda h: (h.vertices, h.contexts))


def _r5_subset(m: int):
    """Subset number m of rays01(5), 100-110 rays.  The seed only permutes
    coordinates, flips signs and rescales (and reorders, where the search
    does not depend on it), so contexts, verdicts and search effort are the
    same for every seed."""
    pick = random.Random(m)
    return pick.sample(gen.rays01(5), pick.randint(100, 110))


def build(rng: random.Random) -> list[Op]:
    """About 25 ops above 20 ms, 50 parses of 100-110-ray subsets of rays01(5)
    (about 20 ms each, so the median sits inside them) and 25 cheaper ops."""
    ops = []
    for k in (*range(5, 13), 16):
        ops.append(_diagram_op("loop", f"loop3({k})", gen.loop_text(k, 3, rng)))
    ops.append(_diagram_op("loop", "loop4(5)", gen.loop_text(5, 4, rng)))
    for sizes in ((3, 4, 3), (4, 3, 3, 4), (3, 3, 4, 3, 3), (3, 4, 3, 4, 3)):
        ops.append(_diagram_op("tree", f"tree{sizes}", gen.tree_text(sizes, rng)))
    for k in range(2, 9):
        ops.append(_diagram_op("mo", f"mo({k})", gen.mo_text(k, rng)))
    # boolean(6) and up stay out: centre alone takes seconds there
    for k in range(2, 6):
        ops.append(_diagram_op("boolean", f"boolean({k})", gen.boolean_text(k, rng)))
    ops.append(_product_op("b2xmo2", gen.boolean_text(2, rng), gen.mo_text(2, rng)))
    ops.append(_product_op("mo2xmo2", gen.mo_text(2, rng), gen.mo_text(2, rng)))

    for k in range(3, 7):
        ops.append(_arrays_op(f"arrays boolean({k})", *gen.boolean_arrays(k), boolean_k=k))
    for k in (4, 8, 12, 16):
        ops.append(_arrays_op(f"arrays mo({k})", *gen.mo_arrays(k)))
    for k in range(5, 9):
        L = _paste_text(gen.loop_text(k, 3, rng))
        ops.append(_arrays_op(f"arrays loop3({k})", np.array(L.leq), np.array(L.neg)))

    # boolean(9), n=512, stays out: one parse takes 2 s
    for k in range(5, 9):
        ops.append(_interchange_op(f"cover boolean({k})", gen.boolean_cover_text(k),
                                   boolean_k=k))
    for k in (5, 6):
        L = _paste_text(gen.loop_text(k, 3, rng))
        ops.append(_interchange_op(f"cover loop3({k})", interchange.render_interchange(L),
                                   want_leq=np.array(L.leq)))

    r4 = gen.rays01(4)
    for i in range(5):
        ops.append(_vectors_op(f"rays01(4)#{i}", gen.permute_rays(r4, rng), rng))
    for m in range(1000, 1050):
        ops.append(_vectors_op(f"rays01(5)-sub{m}", gen.permute_rays(_r5_subset(m), rng), rng))
    return ops


# -- enumerate: every global section of pre-pasted lattices --------------------

def _enumerate_op(label, L, mode, want):
    def run(call, L):
        P = call(sheaf.build_poset, L, mode)
        r = call(sheaf.solve_global, P, enumerate_all=True, workers=1)
        return P, r, call(sheaf.render_answer, r)

    def check(res):
        P, r, text = res
        expect(r.sat and len(r.sections) == want,
               f"{label}: {len(r.sections)} sections, want {want}")
        expect(len({s.choice for s in r.sections}) == want, f"{label}: repeated section")
        for s in r.sections:
            check_lattice_section(P, s)

    return Op(f"enumerate-{mode}", f"{label}/{mode}", run, check, lambda res: _sha(res[2]),
              inputs=(L,))


def enumerate_(rng: random.Random) -> list[Op]:
    """Five heavy ops, thirteen loop(9)/loop(10) ops around the 90th
    percentile, 20 mid-size ops, thirty ~20 ms ops around the median and
    32 small ones."""
    ops = []

    def add(label, text, mode, want, times):
        L = _paste_text(text)
        ops.extend(_enumerate_op(label, L, mode, want) for _ in range(times))

    def loop(k, mode, times, size=3):
        add(f"loop{size}({k})", gen.loop_text(k, size, rng), mode,
            loop_valuations(k, size), times)

    def mo(k, mode, times):
        add(f"mo({k})", gen.mo_text(k, rng), mode, 2 ** k, times)

    # valuations of a product: pick the factor that gets the 1
    b2xmo2 = core.product(_paste_text(gen.boolean_text(2, rng)),
                          _paste_text(gen.mo_text(2, rng)))
    mo2xmo2 = core.product(_paste_text(gen.mo_text(2, rng)),
                           _paste_text(gen.mo_text(2, rng)))

    loop(12, "blocks", 1)
    mo(10, "blocks", 1)
    loop(6, "blocks", 1, size=4)
    ops.append(_enumerate_op("mo2xmo2", mo2xmo2, "all", 8))
    ops.append(_enumerate_op("b2xmo2", b2xmo2, "all", 6))

    loop(9, "blocks", 12)

    loop(10, "blocks", 1)

    mo(8, "blocks", 6)
    loop(8, "blocks", 5)
    loop(8, "all", 2)
    ops.extend(_enumerate_op("mo2xmo2", mo2xmo2, "blocks", 8) for _ in range(2))
    mo(7, "all", 1)

    loop(7, "blocks", 15)
    mo(7, "blocks", 15)

    for k in (5, 6):
        loop(k, "all", 3)
        loop(k, "blocks", 3)
    for k in range(3, 7):
        mo(k, "all", 2)
    for k in range(3, 6):
        mo(k, "blocks", 2)
    mo(6, "blocks", 1)
    # a Boolean algebra has one valuation per atom
    for k in (3, 4):
        for mode in ("all", "blocks"):
            add(f"boolean({k})", gen.boolean_text(k, rng), mode, k, 1)
    add("bowtie", gen.render_blocks(BOWTIE, rng), "all", 5, 2)
    add("pentagon", gen.loop_text(5, 3, rng), "all", 11, 2)
    ops.append(_enumerate_op("b2xmo2", b2xmo2, "blocks", 6))
    return ops


# -- decide: first solution or certificate, two workers -------------------------

# subsets of rays01(5) with the verdicts they have
R5_SAT = (2, 3, 4, 7)
R5_UNSAT = (1,)


def _decide_op(kind, label, source, want_sat=False, want_cert=None):
    """``source`` is a vector file (parsed inside the op) or a pasted lattice."""
    ref = []

    def solve(call, workers, source):
        h = call(vectors.parse_vectors, source) if isinstance(source, str) else source
        P = call(sheaf.build_poset, h, "blocks")
        r = call(sheaf.solve_global, P, workers=workers)
        return h, P, r, call(sheaf.render_answer, r)

    def check(res):
        h, P, r, out = res
        expect(ref and out == ref[0], f"{label}: workers=2 bytes differ from workers=1")
        expect(r.sat == want_sat, f"{label}: verdict {r.verdict}")
        if not r.sat:
            if want_cert is not None:
                expect(len(r.certificate) == want_cert,
                       f"{label}: certificate keeps {len(r.certificate)} contexts")
            check_certificate(h, r.certificate)
        elif P.kind == "lattice":
            check_lattice_section(P, r.sections[0])
        else:
            check_hypergraph_section(P, r.sections[0])

    return Op(kind, label, lambda call, source: solve(call, 2, source), check,
              lambda res: _sha(res[3]), inputs=(source,),
              prepare=lambda: ref.append(solve(plain_call, 1, copy.deepcopy(source))[3]))


def plain_call(fn, *args, **kwargs):
    return fn(*args, **kwargs)


def decide(rng: random.Random) -> list[Op]:
    cab = gen.parse_ray_lines(
        (resources.files("omlkit") / "data" / "cabello18.ksv").read_text(encoding="utf-8"))
    r4 = gen.rays01(4)
    ops = []
    for i in range(58):
        text = gen.vectors_text(gen.permute_rays(cab, rng), rng)
        ops.append(_decide_op("cabello18", f"cabello18#{i}", text, want_cert=9))
    # kept in vertex order, so the deletion certificate is the same for every seed
    for i in range(12):
        text = gen.vectors_text(gen.permute_rays(r4, rng, shuffle=False), rng)
        ops.append(_decide_op("rays01(4)", f"rays01(4)#{i}", text))
    for m in R5_SAT + R5_UNSAT:
        rays = gen.permute_rays(_r5_subset(m), rng, shuffle=False)
        ops.append(_decide_op("rays01(5)", f"rays01(5)-sub{m}", gen.vectors_text(rays, rng),
                              want_sat=m in R5_SAT))
    lattices = [(f"loop3({k})", gen.loop_text(k, 3, rng)) for k in range(5, 13)]
    lattices += [(f"mo({k})", gen.mo_text(k, rng)) for k in range(3, 8)]
    lattices += [("bowtie", gen.render_blocks(BOWTIE, rng))]
    for label, text in lattices * 2:
        ops.append(_decide_op("lattice", label, _paste_text(text), want_sat=True))
    for i in range(3):
        L = core.product(_paste_text(gen.boolean_text(2, rng)), _paste_text(gen.mo_text(2, rng)))
        ops.append(_decide_op("lattice", f"b2xmo2#{i}", L, want_sat=True))
    return ops


# -- modal: saturation, possibility space, actualization ------------------------

def _extend_op(label, L, spec):
    def run(call, L):
        E = call(modal.modal_extend, L, spec)
        return E, call(modal.check_modal_axioms, E.structure), call(modal.possibility_space, E)

    def check(res):
        E, report, S = res
        M = E.structure
        host = M.lattice
        expect(report.ok, f"{label}: axioms fail")
        z = center_oracle(host)
        expect(tuple(M.central) == z, f"{label}: wrong centre")
        zs = np.asarray(z)
        for a in host.elements:
            below = zs[host.leq[zs, a]]
            b = int(M.box[a])
            # box(a) is the largest central element below a
            expect(b in z and host.leq[b, a] and host.leq[below, b].all(),
                   f"{label}: box({host.names[a]}) is wrong")
        expect(set(S.algebra.carrier) <= set(z), f"{label}: possibility space leaves the centre")

    def digest(res):
        E, _, S = res
        return (E.structure.box.tobytes(), S.algebra.carrier)

    return Op("extend", f"{label}/{spec}", run, check, digest, inputs=(L,))


def _actualize_op(label, E, S, W, q, nu):
    def run(call, E, W, nu):
        return call(modal.actualize, E, W, q, nu)

    def check(out):
        hom = out.hom_at(out.domain[-1])
        expect(hom.value(E.embed[q]) == 1, f"{label}: q is not made actual")
        for x in S.algebra.carrier:
            expect(hom.value(x) == nu.value(x), f"{label}: does not restrict back to nu")

    return Op("actualize", label, run, check, lambda out: out.choice, inputs=(E, W, nu))


def _born_op(label, E, s, w, node):
    def run(call, E, s):
        return call(modal.born_extend, E, s)

    def check(out):
        hom = out.hom_at(out.domain[-1])
        f = s.hom_at(w)
        for x in node.subalg.carrier:
            expect(hom.value(E.embed[x]) == f.value(x), f"{label}: does not restrict back")

    return Op("born_extend", label, run, check, lambda out: out.choice, inputs=(E, s))


def _gac_op(label, E, S, tau):
    P = tau.poset

    def run(call, E, tau):
        return call(modal.global_actualization_check, E, tau)

    def check(nu):
        for pos, w in enumerate(tau.domain):
            hom = tau.hom_at(w)
            for x in P.nodes[w].subalg.carrier:
                if x in S.algebra:
                    expect(hom.value(x) == nu.value(x), f"{label}: disagrees at node {w}")

    return Op("global_check", label, run, check, lambda nu: nu.hom.true_atom,
              inputs=(E, tau))


def _modal_lattices(rng):
    """The corpus, rebuilt from renamed and shuffled diagrams."""
    def b(k):
        return _paste_text(gen.boolean_text(k, rng))

    def m(k):
        return _paste_text(gen.mo_text(k, rng))

    bowtie = gen.render_blocks(BOWTIE, rng)
    return {
        "chain2": corpus.chain2(), "boolean2": b(2), "boolean3": b(3), "boolean4": b(4),
        "mo2": m(2), "mo3": m(3), "mo4": m(4),
        "bowtie": _paste_text(bowtie), "pentagon": _paste_text(gen.loop_text(5, 3, rng)),
        "b2xmo2": core.product(b(2), m(2)), "mo2xmo2": core.product(m(2), m(2)),
    }


# extensions whose sweep entries cost ~70 ms each; a pass samples them
SAMPLED = {"boolean4", "b2xmo2", "mo2xmo2"}
SAMPLE_PER_EXTENSION = 8


def modal_(rng: random.Random) -> list[Op]:
    lattices = _modal_lattices(rng)
    ops = []
    for name, L in lattices.items():
        ops.append(_extend_op(name, L, "identity"))
    for name in ("chain2", "boolean2", "mo2"):
        ops.append(_extend_op(name, lattices[name], "diagonal:2"))
    ops.append(_extend_op("chain2", lattices["chain2"], "diagonal:3"))

    # the actualize / born_extend sweeps of acceptance criteria 4 and 5
    sweep = [(name, modal.modal_extend(L, "identity")) for name, L in lattices.items()]
    sweep.append(("mo2-diagonal2", modal.modal_extend(lattices["mo2"], "diagonal:2")))
    # second, renamed copies of the ~5 ms sweeps, so the median lands inside them
    for name, text in (("bowtie#2", gen.render_blocks(BOWTIE, rng)),
                       ("boolean3#2", gen.boolean_text(3, rng))):
        sweep.append((name, modal.modal_extend(_paste_text(text), "identity")))
    for name, E in sweep:
        L = E.base
        S = modal.possibility_space(E)
        nus = modal.possibility_sections(S)
        dia = E.structure.diamond
        act = []
        for W in boolalg.enumerate_blocks(L):
            for q in W.carrier:
                if q == L.zero:
                    continue
                for i, nu in enumerate(nus):
                    if nu.value(int(dia[E.embed[q]])) == 1:
                        act.append(_actualize_op(f"actualize {name} q={L.names[q]} nu={i}",
                                                 E, S, W, q, nu))
        P = sheaf.build_poset(L, "all")
        born = [_born_op(f"born {name} {node.label}:{atom}", E,
                         sheaf.principal_section(P, w, atom), w, node)
                for w, node in enumerate(P.nodes) for atom in node.atom_labels]
        if name in SAMPLED:
            act = rng.sample(act, SAMPLE_PER_EXTENSION)
            born = rng.sample(born, SAMPLE_PER_EXTENSION)
        ops += act + born
        if E.spec == "identity":
            for i, tau in enumerate(sheaf.solve_global(P, enumerate_all=True).sections):
                ops.append(_gac_op(f"global {name}#{i}", E, S, tau))
    return ops


def lattice(rng: random.Random) -> list[Op]:
    """The build and modal parts: parsing, pasting, the centre, saturation
    and actualization; no global-section solving."""
    return build(rng) + modal_(rng)


def solve(rng: random.Random) -> list[Op]:
    """The enumerate and decide parts: the global-section solver, all
    sections on one core or first section and certificate on two workers;
    no centre and no saturation."""
    return enumerate_(rng) + decide(rng)


# Two workloads of two parts each: a run must hold 40 s of passes so that
# its per-op minima reach a quiet phase of a shared host (see README.md).
WORKLOADS = {"lattice": lattice, "solve": solve}


def selfcheck() -> None:
    """The generators against known facts, before any timed run."""
    for k in (5, 8, 12, 16):
        d = greechie.parse_greechie(gen.loop_text(k, 3, random.Random(k)))
        expect(paste_size_oracle(d) == greechie.paste(d).n == 4 * k + 2,
               f"loop({k}) does not paste to {4 * k + 2} elements")
    for d, n_rays, n_contexts in ((4, 40, 32), (5, 121, 136)):
        names, contexts = ray_contexts(gen.rays01(d))
        expect(len(names) == n_rays and len(contexts) == n_contexts,
               f"rays01({d}) gives {len(names)} rays and {len(contexts)} contexts")
