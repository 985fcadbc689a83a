"""Output checks that do not trust the code they judge.

They run outside the timed region.  Each raises ``CheckFailed`` with a
reason; the benchmark counts such an op as failed.  Where a fact has a
closed form (Lucas numbers for loops, 2^k for MO(k)) the form is used;
otherwise the check recomputes the answer from the raw order matrix or
from the integer rays with its own small search.
"""

from __future__ import annotations

from math import gcd

import numpy as np


class CheckFailed(Exception):
    """An op returned a wrong answer."""


def expect(cond, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# -- closed forms --------------------------------------------------------------

def loop_valuations(k: int, block_size: int) -> int:
    """Global valuations of a k-loop of blocks with ``block_size`` atoms.

    Transfer matrix over the shared atom between consecutive blocks: a block
    whose two shared atoms are both false picks one of its private atoms.
    For three-atom blocks this is the Lucas number L_k.
    """
    private = block_size - 2
    t = [[private, 1], [1, 0]]
    m = [[1, 0], [0, 1]]
    for _ in range(k):
        m = [[sum(m[i][x] * t[x][j] for x in range(2)) for j in range(2)]
             for i in range(2)]
    return m[0][0] + m[1][1]


# -- lattices --------------------------------------------------------------------

def check_meet_join(leq: np.ndarray, meet: np.ndarray, join: np.ndarray) -> None:
    """meet/join tables are the greatest lower and least upper bounds of
    ``leq``, checked over all triples (O(n^3) booleans; keep n small)."""
    n = len(leq)
    idx = np.arange(n)
    expect(leq[meet, idx[:, None]].all() and leq[meet, idx[None, :]].all(),
           "meet is not a lower bound")
    low = leq[:, :, None] & leq[:, None, :]
    expect(not (low & ~leq[:, meet]).any(), "meet is not the greatest lower bound")
    expect(leq[idx[:, None], join].all() and leq[idx[None, :], join].all(),
           "join is not an upper bound")
    high = leq.T[:, :, None] & leq.T[:, None, :]
    expect(not (high & ~leq.T[:, join]).any(), "join is not the least upper bound")


def check_boolean_tables(L, k: int) -> None:
    """A power set in bitmask order: meet is AND, join is OR, neg is XOR."""
    n = 1 << k
    idx = np.arange(n)
    expect(L.n == n, f"expected {n} elements, got {L.n}")
    expect(np.array_equal(L.meet, idx[:, None] & idx[None, :]), "meet is not AND")
    expect(np.array_equal(L.join, idx[:, None] | idx[None, :]), "join is not OR")
    expect(np.array_equal(L.neg, (n - 1) ^ idx), "complement is not XOR")


def diagram_blocks(text: str) -> list[list[str]]:
    """Blocks of a diagram text as sorted atom-name lists, read directly."""
    rows = [sorted(line.split()) for line in text.splitlines() if line.strip()]
    return sorted(rows)


def lattice_blocks(L, blocks) -> list[list[str]]:
    return sorted(sorted(L.names[a] for a in b.atoms) for b in blocks)


def check_lattice_section(P, s) -> None:
    """A global section over a lattice poset is one two-valued valuation:
    every node's chosen atom is one of its atoms, and the values it gives
    (x is true when atom <= x in ``host.leq``) agree on every shared element."""
    host = P.host
    expect(tuple(s.domain) == tuple(range(P.n)), "section does not cover every node")
    value = np.full(host.n, -1, dtype=np.int8)
    for pos, w in enumerate(s.domain):
        node = P.nodes[w]
        label = s.choice[pos]
        expect(label in node.atom_labels, f"{label!r} is not an atom of {node.label}")
        carrier = np.asarray(node.subalg.carrier)
        got = host.leq[host.index(label), carrier].astype(np.int8)
        seen = value[carrier]
        clash = (seen >= 0) & (seen != got)
        expect(not clash.any(), f"node {node.label} disagrees on a shared element")
        value[carrier] = got
    expect(value[host.zero] == 0 and value[host.one] == 1, "valuation misses 0 or 1")


# -- context hypergraphs -------------------------------------------------------

def ray_name(r) -> str:
    """omlkit's vertex name for an integer ray: primitive, first nonzero > 0."""
    g = 0
    for x in r:
        g = gcd(g, x)
    r = [x // g for x in r]
    if next(x for x in r if x) < 0:
        r = [-x for x in r]
    return ",".join(str(x) for x in r)


def ray_contexts(rays) -> tuple[set[str], set[frozenset]]:
    """Vertex names and the d-sets of pairwise orthogonal rays (the
    contexts), by plain clique search over the integer rays."""
    d = len(rays[0])
    names = sorted({ray_name(r) for r in rays})
    vec = [tuple(int(x) for x in v.split(",")) for v in names]
    n = len(names)
    adj = [{j for j in range(n) if j != i
            and sum(a * b for a, b in zip(vec[i], vec[j])) == 0} for i in range(n)]
    out = set()

    def grow(clique, cands):
        if len(clique) == d:
            out.add(frozenset(names[i] for i in clique))
            return
        for j in sorted(cands):
            if j > clique[-1]:
                grow(clique + [j], cands & adj[j])

    for i in range(n):
        grow([i], adj[i])
    return set(names), out


def exact_one_sat(contexts) -> bool:
    """Is there a vertex set meeting every context in exactly one vertex?

    ``contexts`` is a list of vertex-name collections.  Plain DFS that
    always branches on the context with the fewest open vertices.
    """
    contexts = [tuple(c) for c in contexts]
    by_vertex: dict[str, list[int]] = {}
    for i, c in enumerate(contexts):
        for v in c:
            by_vertex.setdefault(v, []).append(i)

    def solve(false, done):
        best = None
        for i, c in enumerate(contexts):
            if i in done:
                continue
            open_ = [v for v in c if v not in false]
            if not open_:
                return False
            if best is None or len(open_) < len(best[1]):
                best = (i, open_)
        if best is None:
            return True
        for v in best[1]:
            kill = {u for j in by_vertex[v] for u in contexts[j] if u != v}
            if solve(false | kill, done | set(by_vertex[v])):
                return True
        return False

    return solve(frozenset(), frozenset())


def check_hypergraph_section(P, s) -> None:
    """Exactly one true vertex in every context."""
    h = P.hypergraph
    true = {s.choice[pos] for pos, w in enumerate(s.domain)
            if P.nodes[w].kind == "context"}
    for ctx in h.contexts:
        hits = sum(h.vertices[v] in true for v in ctx)
        expect(hits == 1, f"context has {hits} true vertices")


def check_certificate(h, certificate) -> None:
    """The certificate's contexts alone admit no exact-one assignment."""
    picked = []
    for label in certificate:
        expect(label.startswith("C") and label[1:].isdigit(),
               f"certificate names {label!r}, not a context")
        picked.append([h.vertices[v] for v in h.contexts[int(label[1:])]])
    expect(not exact_one_sat(picked), "certificate contexts are satisfiable")
