"""The poset of Boolean subalgebras and sections over it.

Each node of the poset carries a finite Boolean algebra: for a lattice
these are its Boolean subalgebras (all of them, or the maximal blocks
plus their pairwise intersections); for a context hypergraph they are
the contexts, one overlap node per context pair with shared vertices,
and a common trivial node.  A section assigns a two-valued homomorphism
to every node of a downward-closed domain so that restriction along
inclusions commutes; a global section is one defined everywhere, and
deciding whether any exists is the solver's job.

A two-valued hom is named by its true atom, the one atom it sends to 1,
so the homs on a node are its atom labels.  The presheaf lives on the
poset: each inclusion carries a restriction map, one table from the
parent's atom ordinals to the child's, computed once per inclusion.
Two homs on different nodes are compatible when they agree on the meet
of the nodes, that is when they restrict to the same atom there.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .boolalg import (DEFAULT_SUBALGEBRA_CAP, BooleanSubalgebra, TwoValuedHom,
                      _atoms_of, _boolean, enumerate_blocks, enumerate_subalgebras,
                      subalgebras_within)
from .core import FiniteOML
from .errors import CapExceeded, IncompatibleGlobalSection
from .vectors import ContextHypergraph

REST_LABEL = "rest"
DEFAULT_SOLUTION_CAP = 100000
# Search nodes a run with workers may spend in-process before it starts
# its pool: about one pool start-up and shutdown (~10 ms for two
# workers) at the 400-500 nodes per ms of searches this size.
_POOL_BUDGET = 4000


@dataclass(frozen=True, eq=False)
class PosetNode:
    """One Boolean algebra in the base poset."""

    label: str
    kind: str  # "lattice" | "context" | "overlap" | "trivial"
    atom_labels: tuple[str, ...]
    subalg: BooleanSubalgebra | None = None
    has_rest: bool = False

    def __repr__(self) -> str:
        return f"PosetNode({self.label})"


@dataclass(frozen=True, eq=False)
class SubalgebraPoset:
    """Nodes in canonical order with their inclusion relation; down-sets
    and restriction maps are computed on first use and kept."""

    kind: str  # "lattice" | "hypergraph"
    host: FiniteOML | None
    hypergraph: ContextHypergraph | None
    mode: str
    nodes: tuple[PosetNode, ...]
    leq: np.ndarray  # bool, node inclusion
    _down: dict = field(default_factory=dict, init=False, repr=False)
    _maps: dict = field(default_factory=dict, init=False, repr=False)
    _below: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.nodes)

    def down(self, i: int) -> tuple[int, ...]:
        if i not in self._down:
            self._down[i] = tuple(np.flatnonzero(self.leq[:, i]).tolist())
        return self._down[i]

    def maximal_nodes(self) -> tuple[int, ...]:
        strict = self.leq & ~np.eye(self.n, dtype=bool)
        return tuple(np.flatnonzero(~strict.any(axis=1)).tolist())

    def node_index(self, label: str) -> int:
        for i, node in enumerate(self.nodes):
            if node.label == label:
                return i
        raise KeyError(f"no node labelled {label!r}")

    def restriction(self, parent: int, child: int) -> tuple[int, ...]:
        """The restriction map of the inclusion child <= parent: for each
        atom ordinal of the parent, the ordinal of the child atom that a
        hom true at that parent atom is true at."""
        key = (parent, child)
        if key not in self._maps:
            pnode, cnode = self.nodes[parent], self.nodes[child]
            if not self.leq[child, parent]:
                raise ValueError(f"node {cnode.label} is not below node {pnode.label}; "
                                 "restriction runs down the order")
            if self.kind == "lattice":
                # each parent atom lies below exactly one child atom
                leq, atoms = self.host.leq, cnode.subalg.atoms
                self._maps[key] = tuple(next(k for k, b in enumerate(atoms) if leq[a, b])
                                        for a in pnode.subalg.atoms)
            else:
                # a shared vertex keeps its label; every other one lumps
                # into the last atom ("rest", or the trivial node's "1")
                labels, last = cnode.atom_labels, len(cnode.atom_labels) - 1
                self._maps[key] = tuple(labels.index(a) if a in labels else last
                                        for a in pnode.atom_labels)
        return self._maps[key]

    def inclusions(self, i: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(child, restriction map) for every node strictly below node i,
        in node order."""
        if i not in self._below:
            self._below[i] = tuple((child, self.restriction(i, child))
                                   for child in self.down(i) if child != i)
        return self._below[i]

    def restrict_label(self, parent: int, atom_label: str, child: int) -> str:
        """Push a hom (named by its true atom) down an inclusion."""
        row = self.restriction(parent, child)
        return self.nodes[child].atom_labels[row[self.nodes[parent].atom_labels.index(atom_label)]]

    def __repr__(self) -> str:
        return f"SubalgebraPoset({self.kind}/{self.mode}, nodes={self.n})"


def _assemble_lattice_poset(L: FiniteOML, subs, mode: str) -> SubalgebraPoset:
    nodes = tuple(
        PosetNode(label=s.label(), kind="lattice",
                  atom_labels=tuple(L.names[a] for a in s.atoms), subalg=s)
        for s in subs
    )
    member = np.zeros((len(subs), L.n), dtype=bool)
    for i, s in enumerate(subs):
        member[i, list(s.carrier)] = True
    leq = ~(member @ ~member.T)  # i <= j when no member of i lies outside j
    leq.setflags(write=False)
    return SubalgebraPoset(kind="lattice", host=L, hypergraph=None, mode=mode,
                           nodes=nodes, leq=leq)


def _lattice_poset(L: FiniteOML, mode: str, cap: int) -> SubalgebraPoset:
    if mode == "all":
        subs = list(enumerate_subalgebras(L, cap=cap))
    else:
        blocks = enumerate_blocks(L)
        by_carrier = {b.carrier: b for b in blocks}
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                inter = tuple(sorted(blocks[i].member_set & blocks[j].member_set))
                if inter not in by_carrier:
                    by_carrier[inter] = _boolean(L, _atoms_of(L, inter))
        subs = [by_carrier[c] for c in sorted(by_carrier, key=lambda c: (len(c), c))]
    return _assemble_lattice_poset(L, subs, mode)


def principal_poset(A: BooleanSubalgebra) -> SubalgebraPoset:
    """The down-set of one Boolean subalgebra as its own poset.

    The nodes below A in the full poset are exactly the Boolean
    subalgebras contained in A, so no global enumeration is needed.
    """
    return _assemble_lattice_poset(A.host, subalgebras_within(A), "down")


def _hypergraph_poset(h: ContextHypergraph) -> SubalgebraPoset:
    nodes = [PosetNode(label="{1}", kind="trivial", atom_labels=("1",))]
    overlap_at: dict[tuple[int, int], int] = {}
    m = len(h.contexts)
    for i in range(m):
        for j in range(i + 1, m):
            shared = sorted(set(h.contexts[i]) & set(h.contexts[j]))
            if not shared:
                continue
            overlap_at[(i, j)] = len(nodes)
            labels = tuple(h.vertices[v] for v in shared) + (REST_LABEL,)
            nodes.append(PosetNode(label=f"C{i}^C{j}", kind="overlap",
                                   atom_labels=labels, has_rest=True))
    context_at = {}
    for i, ctx in enumerate(h.contexts):
        context_at[i] = len(nodes)
        nodes.append(PosetNode(label=f"C{i}", kind="context",
                               atom_labels=tuple(h.vertices[v] for v in ctx)))
    n = len(nodes)
    leq = np.eye(n, dtype=bool)
    leq[0, :] = True
    for (i, j), o in overlap_at.items():
        leq[o, context_at[i]] = True
        leq[o, context_at[j]] = True
    leq.setflags(write=False)
    return SubalgebraPoset(kind="hypergraph", host=None, hypergraph=h, mode="blocks",
                           nodes=tuple(nodes), leq=leq)


def build_poset(obj, mode: str = "all", cap: int | None = None) -> SubalgebraPoset:
    """Base poset of a lattice (modes: all, blocks) or hypergraph (blocks)."""
    if mode not in ("all", "blocks"):
        raise ValueError(f"unknown poset mode {mode!r}")
    if isinstance(obj, FiniteOML):
        return _lattice_poset(obj, mode,
                              DEFAULT_SUBALGEBRA_CAP if cap is None else cap)
    if isinstance(obj, ContextHypergraph):
        if mode != "blocks":
            raise ValueError("a context hypergraph only supports blocks mode; "
                             "there is no host lattice to enumerate subalgebras of")
        return _hypergraph_poset(obj)
    raise TypeError(f"cannot build a poset over {type(obj).__name__}")


class SheafPoint(NamedTuple):
    """A node together with a two-valued hom on it, named by its true atom."""

    node_index: int
    node_label: str
    atom_label: str


@dataclass(frozen=True, eq=False)
class Section:
    """Atom-label choices over a downward-closed set of nodes."""

    poset: SubalgebraPoset
    domain: tuple[int, ...]
    choice: tuple[str, ...]  # parallel to domain

    def choice_at(self, node_index: int) -> str:
        return self.choice[self.domain.index(node_index)]

    def point(self, node_index: int) -> SheafPoint:
        return SheafPoint(node_index, self.poset.nodes[node_index].label,
                          self.choice_at(node_index))

    def hom_at(self, node_index: int) -> TwoValuedHom:
        """The hom itself; only lattice-backed nodes carry one."""
        node = self.poset.nodes[node_index]
        if node.subalg is None:
            raise ValueError(f"node {node.label} is not backed by a host lattice")
        return TwoValuedHom(domain=node.subalg,
                            true_atom=node.subalg.host.index(self.choice_at(node_index)))

    def key(self) -> tuple[str, ...]:
        return self.choice

    def __repr__(self) -> str:
        return f"Section(domain={len(self.domain)} nodes)"


@dataclass(frozen=True)
class SectionViolation:
    law: str  # "domain" | "choice" | "continuity"
    witness: tuple
    message: str


@dataclass(frozen=True)
class SectionReport:
    ok: bool
    violations: tuple[SectionViolation, ...]


def principal_section(P: SubalgebraPoset, w: int, f) -> Section:
    """The section induced below one node by a hom on it.

    ``f`` is a TwoValuedHom (lattice mode) or a true-atom label.
    """
    atom_label = P.host.names[f.true_atom] if isinstance(f, TwoValuedHom) else str(f)
    if atom_label not in P.nodes[w].atom_labels:
        raise ValueError(f"{atom_label!r} is not an atom of node {P.nodes[w].label}")
    domain = P.down(w)
    choice = tuple(P.restrict_label(w, atom_label, child) for child in domain)
    return Section(poset=P, domain=domain, choice=choice)


def check_section(s: Section) -> SectionReport:
    """Verify domain decreasingness, choice validity, and continuity."""
    P = s.poset
    violations = []
    in_domain = set(s.domain)
    if len(s.domain) != len(in_domain) or list(s.domain) != sorted(in_domain):
        violations.append(SectionViolation(
            "domain", tuple(s.domain), "domain must be sorted and duplicate-free"))
        return SectionReport(ok=False, violations=tuple(violations))
    if s.domain != tuple(range(P.n)):  # a domain of every node is downward closed
        for w in s.domain:
            for child in P.down(w):
                if child not in in_domain:
                    violations.append(SectionViolation(
                        "domain", (P.nodes[w].label, P.nodes[child].label),
                        f"domain holds {P.nodes[w].label} but not the smaller "
                        f"{P.nodes[child].label}"))
    ordinal = {}  # node -> atom ordinal of its valid choice, in domain order
    for w, label in zip(s.domain, s.choice):
        labels = P.nodes[w].atom_labels
        if label in labels:
            ordinal[w] = labels.index(label)
        else:
            violations.append(SectionViolation(
                "choice", (P.nodes[w].label, label),
                f"{label!r} names no atom of {P.nodes[w].label}"))
    for w, k in ordinal.items():
        for child, row in P.inclusions(w):
            if child in ordinal and row[k] != ordinal[child]:
                labels = P.nodes[child].atom_labels
                violations.append(SectionViolation(
                    "continuity", (P.nodes[child].label, P.nodes[w].label),
                    f"restriction of {P.nodes[w].label} gives {labels[row[k]]!r} "
                    f"but the section holds {labels[ordinal[child]]!r} at {P.nodes[child].label}"))
    return SectionReport(ok=not violations, violations=tuple(violations))


def section_eval(s: Section, a) -> int | None:
    """Value of the section at one element, or None when out of scope.

    For lattice posets ``a`` is an element index or name; for hypergraph
    posets it is a vertex name.  Continuity makes the value independent
    of the witnessing node.
    """
    P = s.poset
    if P.kind == "lattice":
        idx = P.host.index(a) if isinstance(a, str) else int(a)
        for w in s.domain:
            if idx in P.nodes[w].subalg:
                return s.hom_at(w).value(idx)
        return None
    name = str(a)
    for pos, w in enumerate(s.domain):
        node = P.nodes[w]
        if name in node.atom_labels and name != REST_LABEL and node.kind != "trivial":
            return 1 if s.choice[pos] == name else 0
    return None


@dataclass(frozen=True)
class SolveResult:
    """Outcome of the global-section search."""

    sat: bool
    sections: tuple[Section, ...]
    certificate: tuple[str, ...] | None
    enumerated: bool

    @property
    def verdict(self) -> str:
        return "SAT" if self.sat else "UNSAT"


def render_answer(result: SolveResult) -> str:
    """Stable text: SAT/UNSAT, then the section lines or the certificate."""
    lines = [result.verdict]
    if not result.sat:
        lines.append("certificate: " + " ".join(result.certificate))
    elif result.enumerated:
        lines.append(f"sections: {len(result.sections)}")
        for k, s in enumerate(result.sections):
            lines.append(f"section {k}:")
            for pos, w in enumerate(s.domain):
                lines.append(f"{s.poset.nodes[w].label}: {s.choice[pos]}")
    else:
        s = result.sections[0]
        for pos, w in enumerate(s.domain):
            lines.append(f"{s.poset.nodes[w].label}: {s.choice[pos]}")
    return "\n".join(lines) + "\n"


# -- solver -----------------------------------------------------------------

class _Pair(NamedTuple):
    """The constraint between two tops i < j, as bitmasks over atom ordinals:
    ``fwd[a]`` holds the values of j that agree with value a of i, ``bwd[b]``
    the values of i that agree with value b of j, and ``weight`` counts the
    value pairs that disagree."""

    fwd: tuple[int, ...]
    bwd: tuple[int, ...]
    weight: int


def _compatibility(P: SubalgebraPoset, tops: tuple[int, ...]) -> dict[tuple[int, int], _Pair]:
    """Per-pair bitmask rows saying which hom choices agree on overlap.

    Two homs agree when they restrict to the same atom of the meet of
    their nodes: the common lower node with the most nodes below it.  A
    pair whose meet has one atom constrains nothing and gets no entry.
    """
    top_ordinal = {w: k for k, w in enumerate(tops)}
    size = P.leq.sum(axis=0)
    meet = {}
    for m, node in enumerate(P.nodes):
        if len(node.atom_labels) < 2:
            continue
        above = [top_ordinal[w] for w in np.flatnonzero(P.leq[m]).tolist() if w in top_ordinal]
        for pair in combinations(above, 2):
            if pair not in meet or size[m] > size[meet[pair]]:
                meet[pair] = m
    tables = {}
    for (ii, jj), m in sorted(meet.items()):
        ri = P.restriction(tops[ii], m)
        rj = P.restriction(tops[jj], m)
        to_i, to_j = _preimages(ri), _preimages(rj)
        fwd = tuple(to_j.get(x, 0) for x in ri)
        bwd = tuple(to_i.get(y, 0) for y in rj)
        weight = len(ri) * len(rj) - sum(row.bit_count() for row in fwd)
        tables[(ii, jj)] = _Pair(fwd, bwd, weight)
    return tables


def _preimages(row) -> dict[int, int]:
    """For each atom ``row`` reaches, the bitmask of the ordinals sent there."""
    masks = {}
    for k, atom in enumerate(row):
        masks[atom] = masks.get(atom, 0) | 1 << k
    return masks


def _order_blocks(count: int, tables) -> list[int]:
    """Assignment order: most-constrained first, index as tie-break."""
    degree = [0] * count
    for (i, j), pair in tables.items():
        degree[i] += pair.weight
        degree[j] += pair.weight
    return sorted(range(count), key=lambda i: (-degree[i], i))


class _OverBudget(Exception):
    """A budgeted search visited more nodes than it was allowed."""


def _backtrack(sizes, tables, order, limit, pin=None, budget=None):
    """Enumerate up to ``limit`` compatible choice tuples, depth-first.

    Each block's candidates are an int bitmask over its atom ordinals.
    Assigning a block masks the candidates of its neighbours later in
    ``order`` (forward checking) and gives up on the value when one of them
    runs empty, so the candidates left to a block always agree with every
    assigned neighbour.  Values are tried in ascending ordinal order, so
    the output order is deterministic.  ``pin`` optionally fixes one block
    to one value before the search.

    Returns the solutions and a bitmask of the blocks the search assigned
    or emptied.  When there is no solution those blocks are an UNSAT core:
    no other block ever changed the search's course, so any family
    compatible on the core would have walked a branch to the bottom.

    With a ``budget`` the search gives up, returning None, once it has
    entered more than that many search nodes, leaves included.  Only a
    budgeted search counts nodes.
    """
    count = len(sizes)
    rank = {i: depth for depth, i in enumerate(order)}
    later = [[] for _ in range(count)]  # (neighbour, its rows) further down the order
    for (i, j), pair in tables.items():
        if rank[i] < rank[j]:
            later[i].append((j, pair.fwd))
        else:
            later[j].append((i, pair.bwd))
    domains = [(1 << k) - 1 for k in sizes]
    if pin is not None:
        domains[pin[0]] = 1 << pin[1]
    assignment = [None] * count
    solutions = []
    core = 0

    def walk(depth):
        nonlocal core
        if depth == count:
            solutions.append(tuple(assignment))
            return
        i = order[depth]
        core |= 1 << i
        rest, neighbours = domains[i], later[i]
        while rest and len(solutions) < limit:
            low = rest & -rest
            rest ^= low
            value = low.bit_length() - 1
            assignment[i] = value
            saved = []
            for j, rows in neighbours:
                old = domains[j]
                new = old & rows[value]
                if new != old:
                    saved.append((j, old))
                    domains[j] = new
                    if not new:
                        core |= 1 << j
                        break
            else:
                descend(depth + 1)
            for j, old in saved:
                domains[j] = old
        assignment[i] = None

    if budget is None:
        descend = walk
    else:
        nodes = 0

        def descend(depth):
            nonlocal nodes
            nodes += 1
            if nodes > budget:
                raise _OverBudget
            walk(depth)

    try:
        descend(0)
    except _OverBudget:
        return None
    return solutions, core


def solve_global(P: SubalgebraPoset, enumerate_all: bool = False,
                 solution_cap: int = DEFAULT_SOLUTION_CAP,
                 workers: int = 1) -> SolveResult:
    """Search for global sections over the maximal nodes and extend down.

    A compatible family of homs on the maximal nodes determines a global
    section, so the search runs there: most-constrained-first backtracking
    with forward propagation.  With ``enumerate_all`` every compatible
    family is produced (CapExceeded past ``solution_cap``), otherwise the
    first in deterministic order.

    ``workers`` > 1 lets a long search split the top-level branch fan-out
    across processes.  The search first runs in this process; only if it
    enters more than ``_POOL_BUDGET`` nodes, about what one pool start-up
    costs, is that attempt dropped and the search rerun in a pool, one
    branch per value of the first block.  Most searches finish well
    before that and never pay for a pool.  Branch results merge in value
    order, which is the order the in-process search visits them, so the
    output is identical for any worker count.
    """
    tops = P.maximal_nodes()
    sizes = [len(P.nodes[w].atom_labels) for w in tops]
    tables = _compatibility(P, tops)
    order = _order_blocks(len(tops), tables)
    limit = solution_cap + 1 if enumerate_all else 1

    pooled = workers > 1 and sizes[order[0]] > 1
    found = _backtrack(sizes, tables, order, limit,
                       budget=_POOL_BUDGET if pooled else None)
    if found is None:  # the search outgrew the budget: rerun it in the pool
        found = _pooled_search(sizes, tables, order, limit, workers)
    solutions, core = found

    if enumerate_all and len(solutions) > solution_cap:
        raise CapExceeded(len(solutions), solution_cap, "global sections")

    if not solutions:
        certificate = _greedy_certificate(P, tops, sizes, tables, core)
        return SolveResult(sat=False, sections=(), certificate=certificate,
                           enumerated=enumerate_all)
    # every node is extended from its owner, the first top above it
    first = P.leq[:, list(tops)].argmax(axis=1).tolist()
    owners = [(k, P.restriction(tops[k], node), P.nodes[node].atom_labels)
              for node, k in enumerate(first)]
    sections = tuple(_family_to_section(P, owners, sol) for sol in solutions)
    return SolveResult(sat=True, sections=sections, certificate=None,
                       enumerated=enumerate_all)


def _pooled_search(sizes, tables, order, limit, workers):
    """The search as one pinned branch per value of the first block, run in
    a process pool; solutions and cores merge in value order."""
    first_block = order[0]
    payloads = [(sizes, tables, order, first_block, v, limit)
                for v in range(sizes[first_block])]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        branches = list(pool.map(_run_pinned, payloads))
    solutions = [sol for sols, _ in branches for sol in sols][:limit]
    core = 0  # every branch assigned the pinned block, so the union is a core
    for _, branch_core in branches:
        core |= branch_core
    return solutions, core


def _run_pinned(payload):
    sizes, tables, order, pinned_block, pinned_value, limit = payload
    return _backtrack(sizes, tables, order, limit, pin=(pinned_block, pinned_value))


def _family_to_section(P: SubalgebraPoset, owners, sol) -> Section:
    """Extend a compatible family on the maximal nodes to every node."""
    s = Section(poset=P, domain=tuple(range(P.n)),
                choice=tuple(labels[row[sol[k]]] for k, row, labels in owners))
    report = check_section(s)
    if not report.ok:
        v = report.violations[0]
        raise IncompatibleGlobalSection(v.law, v.witness, v.message)
    return s


def _greedy_certificate(P, tops, sizes, tables, core) -> tuple[str, ...]:
    """Shrink the UNSAT set of tops by deletion in canonical order.

    Each top in turn is dropped when the tops left without it are still
    UNSAT, so the result is irreducible: dropping any one of its tops
    makes it SAT.  ``core`` is a bitmask of tops that are UNSAT on their
    own, the blocks the last failed search assigned or emptied.  A trial
    that keeps the whole core is UNSAT without a search, so only dropping
    a core block costs a re-solve, and the certificate is exactly the one
    that plain deletion gives.
    """

    def failed_core(subset):
        """The core of a failed search over ``subset``; None when SAT."""
        idx = {b: k for k, b in enumerate(subset)}
        sub_tables = {(idx[i], idx[j]): pair for (i, j), pair in tables.items()
                      if i in idx and j in idx}
        found, sub_core = _backtrack([sizes[b] for b in subset], sub_tables,
                                     _order_blocks(len(subset), sub_tables), 1)
        return None if found else sum(1 << b for k, b in enumerate(subset) if sub_core >> k & 1)

    keep = list(range(len(tops)))
    for b in range(len(tops)):
        trial = [x for x in keep if x != b]
        if not trial:
            continue
        if core >> b & 1:
            trial_core = failed_core(trial)
            if trial_core is None:
                continue
            core = trial_core
        keep = trial
    return tuple(P.nodes[tops[b]].label for b in keep)
