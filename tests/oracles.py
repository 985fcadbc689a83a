"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the package's own closure and search machinery:
subalgebras come from orthopartition enumeration, the centre from raw
commutation arithmetic, global valuations from exhaustive assignment
enumeration, and pasted-lattice sizes from the inclusion-exclusion
formula over the diagram.  Where an oracle and the library disagree,
the oracle's count is the ground truth.
"""

from collections import Counter
from itertools import combinations
from itertools import product as iproduct


def orthopartitions(L):
    """Every set of pairwise-orthogonal nonzero elements joining to 1.

    x is orthogonal to y when x <= ~y.  Each such family is the atom set
    of exactly one Boolean subalgebra and every Boolean subalgebra's atom
    set is such a family, so these enumerate subalgebras without closure
    code.  Parts are kept in ascending element order.
    """
    out = []

    def grow(parts, join_so_far, start):
        if join_so_far == L.one:
            out.append(tuple(parts))
            return
        ceiling = int(L.neg[join_so_far])
        for x in range(start, L.n):
            if x == L.zero or not L.leq[x, ceiling]:
                continue
            parts.append(x)
            grow(parts, int(L.join[join_so_far, x]), x + 1)
            parts.pop()

    grow([], L.zero, 0)
    return out


def subalgebra_carriers_oracle(L):
    """Sorted carriers of every Boolean subalgebra, via orthopartitions."""
    carriers = set()
    for parts in orthopartitions(L):
        members = set()
        for k in range(1 << len(parts)):
            j = L.zero
            for i, p in enumerate(parts):
                if k >> i & 1:
                    j = int(L.join[j, p])
            members.add(j)
        carriers.add(tuple(sorted(members)))
    return sorted(carriers, key=lambda c: (len(c), c))


def maximal_carriers_oracle(L):
    """Carriers of the maximal Boolean subalgebras, sorted."""
    carriers = subalgebra_carriers_oracle(L)
    sets = [frozenset(c) for c in carriers]
    return [c for c, s in zip(carriers, sets) if not any(s < t for t in sets)]


def center_oracle(L):
    """Elements commuting with everything, by raw table arithmetic."""
    out = []
    for z in range(L.n):
        if all(int(L.join[int(L.meet[z, a]), int(L.meet[z, int(L.neg[a])])]) == z
               for a in range(L.n)):
            out.append(z)
    return tuple(out)


def maximal_cliques_oracle(adjacent):
    """Maximal pairwise-adjacent vertex sets, by trying every subset.

    ``adjacent`` is a symmetric bool matrix with at most 10 vertices;
    its diagonal is ignored.  Cliques are sorted tuples in sorted order.
    """
    n = len(adjacent)
    assert n <= 10
    cliques = [s for k in range(1, n + 1) for s in combinations(range(n), k)
               if all(adjacent[a][b] for a, b in combinations(s, 2))]
    return sorted(s for s in cliques
                  if not any(all(adjacent[v][u] for u in s)
                             for v in range(n) if v not in s))


def meet_join_oracle(leq):
    """Meet and join tables of a bounded order, by down-set lookup.

    ``leq`` is a square numpy bool array, ``leq[a, b]`` meaning a <= b.
    The meet of a and b is the element whose down-set equals
    down(a) & down(b), looked up by the bytes of that column; the join
    the same on up-sets.  Returns ``(meet, join, None)``, or
    ``(None, None, (law, (a, b)))`` for the first pair a <= b (by index,
    row-major) without a "meet" or a "join", the meet checked first.
    """
    n = len(leq)
    down_key = {leq[:, i].tobytes(): i for i in range(n)}
    up_key = {leq[i, :].tobytes(): i for i in range(n)}
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            m = down_key.get((leq[:, a] & leq[:, b]).tobytes())
            if m is None:
                return None, None, ("meet", (a, b))
            j = up_key.get((leq[a, :] & leq[b, :]).tobytes())
            if j is None:
                return None, None, ("join", (a, b))
            meet[a][b] = meet[b][a] = m
            join[a][b] = join[b][a] = j
    return meet, join, None


def _atoms_of_carrier(L, carrier):
    members = frozenset(carrier)
    return [x for x in carrier if x != L.zero and not any(
        y not in (L.zero, x) and L.leq[y, x] for y in members)]


def lattice_valuation_count_oracle(L):
    """Count global valuations by trying every atom choice per block.

    A family of block valuations is global when every pair agrees on
    every shared element.
    """
    blocks = maximal_carriers_oracle(L)
    atom_sets = [_atoms_of_carrier(L, c) for c in blocks]
    pair_shared = []
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            shared = sorted(frozenset(blocks[i]) & frozenset(blocks[j]))
            pair_shared.append((i, j, shared))
    count = 0
    for choice in iproduct(*atom_sets):
        if all(all(bool(L.leq[choice[i], x]) == bool(L.leq[choice[j], x])
                   for x in shared)
               for i, j, shared in pair_shared):
            count += 1
    return count


def hypergraph_valuation_count_oracle(h):
    """Count 0/1 vertex assignments with exactly one true vertex per
    context, over all 2^n assignments."""
    masks = []
    for ctx in h.contexts:
        m = 0
        for v in ctx:
            m |= 1 << v
        masks.append(m)
    count = 0
    for bits in range(1 << len(h.vertices)):
        if all((bits & m).bit_count() == 1 for m in masks):
            count += 1
    return count


def paste_size_oracle(d):
    """Element count of a pasted diagram by inclusion-exclusion.

    Each block contributes 2^k elements; every extra copy of 0 and 1
    collapses, and each repeated atom occurrence collapses the atom and
    its complement.
    """
    total = sum(2 ** len(b) for b in d.blocks)
    total -= 2 * (len(d.blocks) - 1)
    occurrences = Counter(a for b in d.blocks for a in b)
    total -= 2 * sum(c - 1 for c in occurrences.values())
    return total


def exact_one_sat_oracle(contexts):
    """Is there a vertex set meeting every context in exactly one vertex?

    Depth-first over bitmasks: take the open context with the fewest
    live vertices and make each of those true in turn, which closes the
    contexts through it and kills every other vertex in them.
    """
    bit = {}
    masks = [sum(1 << bit.setdefault(v, len(bit)) for v in set(c)) for c in contexts]

    def dfs(open_, dead):
        if not open_:
            return True
        live = min((m & ~dead for m in open_), key=int.bit_count)
        while live:
            v = live & -live
            live ^= v
            kill = 0
            for m in open_:
                if m & v:
                    kill |= m
            if dfs([m for m in open_ if not m & v], dead | kill ^ v):
                return True
        return False

    return dfs(masks, 0)
