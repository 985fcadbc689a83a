"""Greechie block diagrams and their pasted orthomodular lattices.

A diagram is a list of blocks, each a set of at least two atoms; blocks
are glued into one lattice by sharing 0, 1, common atoms and their
complements.  Pasting is legal when no two blocks share two or more
atoms, the block graph has no 3- or 4-cycles through distinct
connection atoms, and no atom of one block is identified with a join
of several atoms of another; the pasted result is always re-validated.

File format (one block per nonempty line, ``#`` starts a comment):

    a b c
    c d e
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import FiniteOML, element_cap, verify_oml
from .errors import BlockSubsumed, LoopViolation, ParseError, SingletonBlock, SizeCap


@dataclass(frozen=True)
class GreechieDiagram:
    """Atoms in first-appearance order plus blocks as atom-index tuples."""

    atoms: tuple[str, ...]
    blocks: tuple[tuple[int, ...], ...]

    def block_names(self, i: int) -> tuple[str, ...]:
        return tuple(self.atoms[a] for a in self.blocks[i])

    def __repr__(self) -> str:
        return f"GreechieDiagram(atoms={len(self.atoms)}, blocks={len(self.blocks)})"


def parse_greechie(text: str) -> GreechieDiagram:
    """Parse the block-per-line diagram format.

    Rejects empty diagrams, singleton blocks, repeated atoms within a
    block, and blocks contained in other blocks.
    """
    atoms: list[str] = []
    index: dict[str, int] = {}
    blocks: list[tuple[int, ...]] = []
    block_lines: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        seen: set[str] = set()
        members: list[int] = []
        col = 1
        for tok in line.split():
            col = line.index(tok, col - 1) + 1
            if tok in seen:
                raise ParseError(f"atom {tok!r} repeated within a block", lineno, col)
            seen.add(tok)
            if tok not in index:
                index[tok] = len(atoms)
                atoms.append(tok)
            members.append(index[tok])
            col += len(tok)
        if len(members) < 2:
            raise SingletonBlock(f"block needs at least two atoms, got {len(members)}", lineno)
        blocks.append(tuple(members))
        block_lines.append(lineno)
    if not blocks:
        raise ParseError("diagram has no blocks", 1)
    for i, b in enumerate(blocks):
        for j, other in enumerate(blocks):
            if i != j and set(b) <= set(other):
                raise BlockSubsumed(
                    f"block on line {block_lines[i]} is contained in the block "
                    f"on line {block_lines[j]}", block_lines[max(i, j)])
    return GreechieDiagram(atoms=tuple(atoms), blocks=tuple(blocks))


def render_greechie(d: GreechieDiagram) -> str:
    """Inverse of parse_greechie; one block per line."""
    return "\n".join(" ".join(d.block_names(i)) for i in range(len(d.blocks))) + "\n"


def _check_pasteable(d: GreechieDiagram) -> None:
    """Reject diagrams whose pasting cannot be an orthomodular lattice."""
    shared: dict[tuple[int, int], int] = {}
    for i, j in combinations(range(len(d.blocks)), 2):
        common = sorted(set(d.blocks[i]) & set(d.blocks[j]))
        if len(common) >= 2:
            raise LoopViolation(
                "shared-pair", (i, j),
                f"blocks {i} and {j} share atoms "
                f"{[d.atoms[a] for a in common]}; at most one is allowed")
        if common:
            shared[(i, j)] = common[0]

    def link(i: int, j: int):
        return shared.get((min(i, j), max(i, j)))

    for i, j, k in combinations(range(len(d.blocks)), 3):
        atoms = {link(i, j), link(i, k), link(j, k)}
        if None not in atoms and len(atoms) > 1:
            raise LoopViolation("loop-3", (i, j, k),
                                f"blocks {i}, {j}, {k} form a 3-loop")
    for quad in combinations(range(len(d.blocks)), 4):
        i, j, k, l = quad
        # the three distinct cyclic arrangements of four blocks
        for cycle in ((i, j, k, l), (i, j, l, k), (i, k, j, l)):
            edges = [link(cycle[t], cycle[(t + 1) % 4]) for t in range(4)]
            diagonals = (link(cycle[0], cycle[2]), link(cycle[1], cycle[3]))
            if (None not in edges and len(set(edges)) == 4
                    and diagonals == (None, None)):
                raise LoopViolation("loop-4", cycle,
                                    f"blocks {cycle} form a 4-loop")


def paste(d: GreechieDiagram, cap: int | None = None) -> FiniteOML:
    """Glue the blocks' Boolean algebras into one orthomodular lattice.

    Each block contributes the power set of its atoms; copies of 0, 1,
    shared atoms and their in-block complements are identified, and a
    diagram that so makes an atom a join of other atoms is rejected.
    The result is rebuilt from scratch and passed through verify_oml.
    """
    if cap is None:
        cap = element_cap()
    _check_pasteable(d)
    sizes = [len(b) for b in d.blocks]
    if sum(2 ** k for k in sizes) > 4 * cap:
        raise SizeCap(sum(2 ** k for k in sizes), cap)

    parent: dict[tuple[int, int], tuple[int, int]] = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    locals_all = [(bi, mask) for bi, k in enumerate(sizes) for mask in range(2 ** k)]
    occurrences: dict[int, list[tuple[int, int]]] = {}
    for bi, block in enumerate(d.blocks):
        full = (1 << sizes[bi]) - 1
        union((0, 0), (bi, 0))
        union((0, (1 << sizes[0]) - 1), (bi, full))
        for pos, a in enumerate(block):
            occurrences.setdefault(a, []).append((bi, 1 << pos))
    for a, occ in occurrences.items():
        first_b, first_bit = occ[0]
        first_full = (1 << sizes[first_b]) - 1
        for bi, bit in occ[1:]:
            full = (1 << sizes[bi]) - 1
            union((first_b, first_bit), (bi, bit))
            union((first_b, first_full ^ first_bit), (bi, full ^ bit))

    classes: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for x in locals_all:
        classes.setdefault(find(x), []).append(x)
    for members in classes.values():  # an atom of one block = a join in another
        clash = next(((i, bit, j, mask) for i, bit in members if bit.bit_count() == 1
                      for j, mask in members if mask.bit_count() > 1 and j != i), None)
        if clash is not None:
            i, bit, j, mask = clash
            parts = "+".join(sorted(d.atoms[a] for p, a in enumerate(d.blocks[j])
                                    if mask >> p & 1))
            raise LoopViolation("atom-join", (i, j), (
                f"atom {d.atoms[d.blocks[i][bit.bit_length() - 1]]} of block {i} equals "
                f"{parts} in block {j}; an atom cannot be a join of other atoms"))

    def class_key(rep):
        members = classes[rep]
        if any(mask == 0 for _, mask in members):
            return (0, 0, 0, 0)
        if any(mask == (1 << sizes[bi]) - 1 for bi, mask in members):
            return (2, 0, 0, 0)
        bi, mask = min(members, key=lambda m: (bin(m[1]).count("1"), m[0], m[1]))
        return (1, bin(mask).count("1"), bi, mask)

    order = sorted(classes, key=class_key)
    n = len(order)
    if n > cap:
        raise SizeCap(n, cap)
    class_index = {}
    for idx, rep in enumerate(order):
        for member in classes[rep]:
            class_index[member] = idx

    def class_name(idx):
        rep_bi, rep_mask = min(classes[order[idx]],
                               key=lambda m: (bin(m[1]).count("1"), m[0], m[1]))
        k = sizes[rep_bi]
        bits = [p for p in range(k) if rep_mask >> p & 1]
        if rep_mask == 0:
            return "0"
        if rep_mask == (1 << k) - 1:
            return "1"
        if len(bits) == 1:
            return d.atoms[d.blocks[rep_bi][bits[0]]]
        if len(bits) == k - 1:
            missing = next(p for p in range(k) if not rep_mask >> p & 1)
            return "~" + d.atoms[d.blocks[rep_bi][missing]]
        return "+".join(sorted(d.atoms[d.blocks[rep_bi][p]] for p in bits))

    names = [class_name(i) for i in range(n)]
    leq = np.zeros((n, n), dtype=bool)
    for bi, k in enumerate(sizes):
        for s in range(1 << k):
            si = class_index[(bi, s)]
            sup = s
            # iterate supersets of s inside this block
            while True:
                leq[si, class_index[(bi, sup)]] = True
                if sup == (1 << k) - 1:
                    break
                sup = (sup + 1) | s
    neg = [0] * n
    for bi, k in enumerate(sizes):
        full = (1 << k) - 1
        for s in range(1 << k):
            neg[class_index[(bi, s)]] = class_index[(bi, full ^ s)]
    return verify_oml(leq, neg, names, cap=cap)


_PALETTE = ("#1b9e77", "#d95f02", "#7570b3", "#e7298a",
            "#66a61e", "#e6ab02", "#a6761d", "#666666")


def export_dot(d) -> str:
    """Deterministic Graphviz text for a diagram or a context hypergraph.

    Atoms (or vertices) are nodes; each block (or context) is drawn as a
    chain of edges in its own colour.
    """
    if hasattr(d, "blocks"):
        vertex_names = d.atoms
        groups = [[d.atoms[a] for a in block] for block in d.blocks]
        title = "greechie"
    elif hasattr(d, "contexts"):
        vertex_names = d.vertices
        groups = [[d.vertices[v] for v in ctx] for ctx in d.contexts]
        title = "contexts"
    else:
        raise TypeError(f"cannot export {type(d).__name__} as DOT")
    lines = [f"graph {title} {{", "  node [shape=circle];"]
    for name in vertex_names:
        lines.append(f'  "{name}";')
    for gi, group in enumerate(groups):
        colour = _PALETTE[gi % len(_PALETTE)]
        for a, b in zip(group, group[1:]):
            lines.append(f'  "{a}" -- "{b}" [color="{colour}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
