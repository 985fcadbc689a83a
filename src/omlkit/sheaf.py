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

    @property
    def n(self) -> int:
        return len(self.nodes)

    def down(self, i: int) -> tuple[int, ...]:
        if i not in self._down:
            self._down[i] = tuple(np.flatnonzero(self.leq[:, i]).tolist())
        return self._down[i]

    def maximal_nodes(self) -> tuple[int, ...]:
        strict = self.leq & ~np.eye(self.n, dtype=bool)
        return tuple(int(i) for i in range(self.n) if not strict[i].any())

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
    for w in s.domain:
        for child in P.down(w):
            if child not in in_domain:
                violations.append(SectionViolation(
                    "domain", (P.nodes[w].label, P.nodes[child].label),
                    f"domain holds {P.nodes[w].label} but not the smaller "
                    f"{P.nodes[child].label}"))
    ordinal = {}  # node -> atom ordinal of its valid choice
    for w, label in zip(s.domain, s.choice):
        if label in P.nodes[w].atom_labels:
            ordinal[w] = P.nodes[w].atom_labels.index(label)
        else:
            violations.append(SectionViolation(
                "choice", (P.nodes[w].label, label),
                f"{label!r} names no atom of {P.nodes[w].label}"))
    for w in s.domain:
        if w not in ordinal:
            continue
        for child in P.down(w):
            if child == w or child not in ordinal:
                continue
            got = P.restriction(w, child)[ordinal[w]]
            if got != ordinal[child]:
                labels = P.nodes[child].atom_labels
                violations.append(SectionViolation(
                    "continuity", (P.nodes[child].label, P.nodes[w].label),
                    f"restriction of {P.nodes[w].label} gives {labels[got]!r} "
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

def _compatibility(P: SubalgebraPoset, tops: tuple[int, ...]):
    """Per-pair boolean tables saying which hom choices agree on overlap.

    Two homs agree when they restrict to the same atom of the meet of
    their nodes: the common lower node with the most nodes below it.  A
    pair whose meet has one atom constrains nothing and gets no table.
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
        ri = np.array(P.restriction(tops[ii], m))
        rj = np.array(P.restriction(tops[jj], m))
        tables[(ii, jj)] = ri[:, None] == rj[None, :]
    return tables


def _order_blocks(count: int, tables) -> list[int]:
    """Assignment order: most-constrained first, index as tie-break."""
    degree = [0] * count
    for (i, j), table in tables.items():
        weight = int(table.size - table.sum())
        degree[i] += weight
        degree[j] += weight
    return sorted(range(count), key=lambda i: (-degree[i], i))


def _backtrack(sizes, tables, order, limit, pin=None):
    """Enumerate up to ``limit`` compatible choice tuples, depth-first.

    Candidate lists shrink by forward propagation; choices are explored
    in ascending ordinal order, so the output order is deterministic.
    ``pin`` optionally fixes one block to one value before the search.
    """
    count = len(sizes)
    neighbours = {i: [] for i in range(count)}
    for (i, j), table in tables.items():
        neighbours[i].append((j, table, False))
        neighbours[j].append((i, table, True))
    domains = [list(range(k)) for k in sizes]
    if pin is not None:
        domains[pin[0]] = [pin[1]]
    assignment = [None] * count
    solutions = []

    def walk(depth):
        if len(solutions) >= limit:
            return
        if depth == count:
            solutions.append(tuple(assignment))
            return
        i = order[depth]
        for value in list(domains[i]):
            assignment[i] = value
            saved = {}
            dead = False
            for j, table, flipped in neighbours[i]:
                if assignment[j] is not None:
                    ok = table[assignment[j], value] if flipped else table[value, assignment[j]]
                    if not ok:
                        dead = True
                        break
                    continue
                keep = [v for v in domains[j]
                        if (table[v, value] if flipped else table[value, v])]
                if len(keep) != len(domains[j]):
                    saved[j] = domains[j]
                    domains[j] = keep
                if not keep:
                    dead = True
                    break
            if not dead:
                walk(depth + 1)
            for j, old in saved.items():
                domains[j] = old
            assignment[i] = None
            if len(solutions) >= limit:
                return

    walk(0)
    return solutions


def solve_global(P: SubalgebraPoset, enumerate_all: bool = False,
                 solution_cap: int = DEFAULT_SOLUTION_CAP,
                 workers: int = 1) -> SolveResult:
    """Search for global sections over the maximal nodes and extend down.

    A compatible family of homs on the maximal nodes determines a global
    section, so the search runs there: most-constrained-first backtracking
    with forward propagation.  With ``enumerate_all`` every compatible
    family is produced (CapExceeded past ``solution_cap``), otherwise the
    first in deterministic order.  ``workers`` splits the top-level branch
    fan-out across processes; results merge in branch order, so the
    output is identical for any worker count.
    """
    tops = P.maximal_nodes()
    sizes = [len(P.nodes[w].atom_labels) for w in tops]
    tables = _compatibility(P, tops)
    order = _order_blocks(len(tops), tables)
    limit = solution_cap + 1 if enumerate_all else 1

    first_block = order[0]
    if workers > 1 and sizes[first_block] > 1:
        payloads = [
            (sizes, tables, order, first_block, v, limit)
            for v in range(sizes[first_block])
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            branch_solutions = list(pool.map(_run_pinned, payloads))
        solutions = [sol for sols in branch_solutions for sol in sols][:limit]
    else:
        solutions = _backtrack(sizes, tables, order, limit)

    if enumerate_all and len(solutions) > solution_cap:
        raise CapExceeded(len(solutions), solution_cap, "global sections")

    if not solutions:
        certificate = _greedy_certificate(P, tops, sizes, tables)
        return SolveResult(sat=False, sections=(), certificate=certificate,
                           enumerated=enumerate_all)
    # every node is extended from its owner, the first top above it
    first = P.leq[:, list(tops)].argmax(axis=1).tolist()
    owners = [(k, P.restriction(tops[k], node), P.nodes[node].atom_labels)
              for node, k in enumerate(first)]
    sections = tuple(_family_to_section(P, owners, sol) for sol in solutions)
    return SolveResult(sat=True, sections=sections, certificate=None,
                       enumerated=enumerate_all)


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


def _greedy_certificate(P, tops, sizes, tables) -> tuple[str, ...]:
    """Shrink the UNSAT core by deletion in canonical order."""
    keep = list(range(len(tops)))

    def unsat(subset):
        idx = {b: k for k, b in enumerate(subset)}
        sub_sizes = [sizes[b] for b in subset]
        sub_tables = {}
        for (i, j), table in tables.items():
            if i in idx and j in idx:
                sub_tables[(idx[i], idx[j])] = table
        sub_order = _order_blocks(len(subset), sub_tables)
        return not _backtrack(sub_sizes, sub_tables, sub_order, 1)

    for b in list(keep):
        trial = [x for x in keep if x != b]
        if trial and unsat(trial):
            keep = trial
    return tuple(P.nodes[tops[b]].label for b in keep)
