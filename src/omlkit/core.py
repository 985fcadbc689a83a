"""Finite orthomodular lattices as dense index tables.

Elements are the integers ``0..n-1``.  The order is a boolean matrix,
the complement a permutation array, and meet/join are precomputed
``n x n`` tables.  Tables from outside are audited once, by
``verify_oml``; ``product`` is correct by construction.  Either way the
tables are frozen, so the rest of the package indexes them without
re-checking laws.

``verify_oml`` works at array speed.  Order products OR together rows
packed into 64-bit words, so they never wrap.  The meet of a and b is
found by counting down-sets: it is the common lower bound m with
|down(m)| = |down(a) & down(b)|.  Each a scans only its own down-set, a
block of columns at a time, and that one scan gives both the count and
the candidate m; joins are the same on the opposite order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NotALattice, NotOrtho, NotOrthomodular, SizeCap, ensure

DEFAULT_ELEMENT_CAP = 4096
ELEMENT_CAP_ENV = "OMLKIT_ELEMENT_CAP"


def element_cap() -> int:
    """Current element cap: the environment override or the default."""
    raw = os.environ.get(ELEMENT_CAP_ENV)
    if raw is None:
        return DEFAULT_ELEMENT_CAP
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{ELEMENT_CAP_ENV} must be an integer, got {raw!r}") from None
    if value < 2:
        raise ValueError(f"{ELEMENT_CAP_ENV} must be at least 2, got {value}")
    return value


@dataclass(frozen=True, eq=False)
class FiniteOML:
    """A validated finite orthomodular lattice.

    Instances compare by identity, come from ``verify_oml`` or
    ``product``, and are immutable (the arrays are made read-only).
    """

    names: tuple[str, ...]
    leq: np.ndarray   # bool, shape (n, n); leq[a, b] means a <= b
    neg: np.ndarray   # int, shape (n,); orthocomplement
    meet: np.ndarray  # int, shape (n, n)
    join: np.ndarray  # int, shape (n, n)
    zero: int
    one: int

    def __post_init__(self):
        for arr in (self.leq, self.neg, self.meet, self.join):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def elements(self) -> range:
        return range(self.n)

    def atoms(self) -> tuple[int, ...]:
        """Minimal nonzero elements, ascending."""
        counts = self.leq.sum(axis=0)
        return tuple(int(a) for a in np.flatnonzero(counts == 2))

    def le(self, a: int, b: int) -> bool:
        return bool(self.leq[a, b])

    @cached_property
    def commute(self) -> np.ndarray:
        """Read-only bool table; commute[a, b] means a = (a ^ b) v (a ^ ~b)."""
        table = self.join[self.meet, self.meet[:, self.neg]] == np.arange(self.n)[:, None]
        table.setflags(write=False)
        return table

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no element named {name!r}") from None

    def __repr__(self) -> str:
        return f"FiniteOML(n={self.n})"


def _first_true(mask: np.ndarray) -> tuple[int, ...] | None:
    """Lexicographically first index tuple where a boolean array is true."""
    hits = np.argwhere(mask)
    if len(hits) == 0:
        return None
    return tuple(int(v) for v in hits[0])


# elements of the per-block temporaries of compose and of verify_oml's
# meet/join tables, at most; a lattice of n elements also keeps the latter
# within n**2, half the bytes of one of its tables
_BLOCK = 1 << 22


def _blocks(cost: np.ndarray, budget: int):
    """Consecutive index ranges [i0, i1) whose summed cost stays within
    ``budget``, or single indices that alone exceed it."""
    ends = np.cumsum(cost)
    i0 = 0
    while i0 < len(ends):
        spent = ends[i0 - 1] if i0 else 0
        i1 = max(i0 + 1, int(np.searchsorted(ends, spent + budget, "right")))
        yield i0, i1
        i0 = i1


def compose(r, s) -> np.ndarray:
    """Bool relation product: out[i, k] = exists j with r[i, j] and s[j, k].

    Row i is the OR of the rows of ``s`` that row i of ``r`` selects, on
    rows packed into 64-bit words, a block of rows of ``r`` at a time.
    Nothing is counted, so nothing can wrap, and no BLAS thread is woken
    for a small product.
    """
    r, s = np.asarray(r, dtype=bool), np.asarray(s, dtype=bool)
    packed = np.packbits(s, axis=1, bitorder="little")
    words = np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8))).view(np.uint64)
    out = np.zeros((len(r), words.shape[1]), dtype=np.uint64)
    for i0, i1 in _blocks(r.sum(axis=1) * words.shape[1], _BLOCK):
        i, j = np.nonzero(r[i0:i1])
        if len(j):
            sizes = np.bincount(i, minlength=i1 - i0)
            some = np.flatnonzero(sizes)
            starts = (np.cumsum(sizes) - sizes)[some]
            out[i0 + some] = np.bitwise_or.reduceat(words[j], starts, axis=0)
    return np.unpackbits(out.view(np.uint8), axis=1, count=s.shape[1],
                         bitorder="little").view(bool)


def _bound_key(below: np.ndarray) -> np.ndarray:
    """key[b, m] = |down(m)| * n + m where m <= b, else 0, for the order
    ``below`` (below[x, y] means x <= y)."""
    n = len(below)
    code = below.sum(axis=0) * n + np.arange(n)
    return np.multiply(below.T, code.astype(np.min_scalar_type(n * n + n)), order="C")


def _greatest_bounds(below, key, a0: int, a1: int) -> np.ndarray:
    """t[b - a0, a - a0] = meet(a, b) in the order ``below``, for a in
    a0..a1-1 and b >= a0, or -1 where a and b have no meet.

    The meet of a and b is the lower bound m with the largest down-set,
    and it is one exactly when |down(m)| = |down(a) & down(b)|, since
    down(m) is a subset.  Column a scans ``key`` over its own down-set:
    the maximum gives |down(m)| and m, and the nonzero entries, the
    m <= b, count down(a) & down(b).
    """
    n = len(below)
    cols = below[:, a0:a1].T
    sizes = cols.sum(axis=1)  # >= 1: each a is below itself
    starts = np.cumsum(sizes) - sizes
    picked = np.take(key[a0:], np.nonzero(cols)[1], axis=1)
    cnt = np.add.reduceat(picked != 0, starts, axis=1, dtype=np.min_scalar_type(n))
    size, m = np.divmod(np.maximum.reduceat(picked, starts, axis=1).astype(np.int64), n)
    return np.where(size == cnt, m, -1)


def _meet_join(leq, names) -> tuple[np.ndarray, np.ndarray]:
    """The meet and join tables of a bounded order.  Meets are read on
    the order, joins on its opposite, for the columns a0..a1-1 of both
    tables at a time and the rows b >= a0.  The first pair a <= b (by
    index, row-major) without a meet or a join raises, the meet before
    the join.
    """
    n = len(leq)
    sides = [(below, _bound_key(below)) for below in (leq, leq.T)]
    meet = np.empty((n, n), dtype=np.int64)
    join = np.empty((n, n), dtype=np.int64)
    scanned = (leq.sum(axis=0) + leq.sum(axis=1)) * (n - np.arange(n))
    for a0, a1 in _blocks(scanned, min(_BLOCK, n * n)):
        meets, joins = (_greatest_bounds(*side, a0, a1) for side in sides)
        # a pair b < a of the block fails with its mirror (b, a), which
        # comes first, so the first failing pair has a <= b
        wm, wj = (_first_true((t < 0).T) for t in (meets, joins))
        if wm is not None and (wj is None or wm <= wj):
            a, b = a0 + wm[0], a0 + wm[1]
            raise NotALattice("meet", (a, b),
                              f"elements {names[a]} and {names[b]} have no meet")
        if wj is not None:
            a, b = a0 + wj[0], a0 + wj[1]
            raise NotALattice("join", (a, b),
                              f"elements {names[a]} and {names[b]} have no join")
        meet[a0:, a0:a1], meet[a0:a1, a0:] = meets, meets.T
        join[a0:, a0:a1], join[a0:a1, a0:] = joins, joins.T
    return meet, join


def verify_oml(leq, neg, names=None, cap: int | None = None) -> FiniteOML:
    """Validate an order matrix and complement map into a FiniteOML.

    Checks, in order: size cap, partial-order axioms, bounds, totality of
    meet and join, orthocomplementation, and the orthomodular law.  The
    first violated law raises with a lexicographically-first witness.
    """
    leq = np.asarray(leq, dtype=bool)
    if leq.ndim != 2 or leq.shape[0] != leq.shape[1]:
        raise NotALattice("shape", (), f"order matrix must be square, got {leq.shape}")
    n = leq.shape[0]
    if cap is None:
        cap = element_cap()
    if n > cap:
        raise SizeCap(n, cap)
    if n < 2:
        raise NotALattice("degenerate", (), "a bounded lattice needs distinct 0 and 1")

    neg = np.asarray(neg, dtype=np.int64)
    if neg.shape != (n,):
        raise NotOrtho("shape", (), f"complement map must have length {n}")
    if sorted(int(x) for x in neg) != list(range(n)):
        raise NotOrtho("permutation", (), "complement map must be a permutation of the elements")

    if names is None:
        names = tuple(f"e{i}" for i in range(n))
    else:
        names = tuple(str(s) for s in names)
        if len(names) != n:
            raise NotALattice("names", (), f"expected {n} names, got {len(names)}")
        if len(set(names)) != n:
            raise NotALattice("names", (), "element names must be unique")

    w = _first_true(~np.diag(leq).copy())
    if w is not None:
        raise NotALattice("reflexivity", w, f"element {names[w[0]]} is not below itself")
    w = _first_true(leq & leq.T & ~np.eye(n, dtype=bool))
    if w is not None:
        raise NotALattice("antisymmetry", w,
                          f"elements {names[w[0]]} and {names[w[1]]} are below each other")
    # composition: reach[i, k] = exists j with i<=j and j<=k
    w = _first_true(compose(leq, leq) & ~leq)
    if w is not None:
        i, k = w
        j = int(np.flatnonzero(leq[i] & leq[:, k])[0])
        raise NotALattice("transitivity", (i, j, k),
                          f"{names[i]} <= {names[j]} <= {names[k]} but "
                          f"{names[i]} <= {names[k]} is missing")

    below_all = np.flatnonzero(leq.all(axis=1))
    above_all = np.flatnonzero(leq.all(axis=0))
    if len(below_all) != 1 or len(above_all) != 1:
        raise NotALattice("bounds", (), "lattice must have a unique bottom and top")
    zero, one = int(below_all[0]), int(above_all[0])
    if zero == one:
        raise NotALattice("degenerate", (zero,), "bottom and top coincide")

    meet, join = _meet_join(leq, names)

    w = _first_true(neg[neg] != np.arange(n))
    if w is not None:
        raise NotOrtho("involution", w,
                       f"complement of complement of {names[w[0]]} differs from it")
    w = _first_true(leq & ~leq[neg][:, neg].T)
    if w is not None:
        a, b = w
        raise NotOrtho("order-reversing", (a, b),
                       f"{names[a]} <= {names[b]} but complements are not reversed")
    idx = np.arange(n)
    w = _first_true(meet[idx, neg] != zero)
    if w is not None:
        raise NotOrtho("complement-meet", w,
                       f"element {names[w[0]]} meets its complement above 0")
    w = _first_true(join[idx, neg] != one)
    if w is not None:
        raise NotOrtho("complement-join", w,
                       f"element {names[w[0]]} joins its complement below 1")

    # orthomodular law: a <= b implies b = a | (b & ~a), read on the
    # comparable pairs in row-major order
    below, above = np.nonzero(leq)
    w = _first_true(join[below, meet[above, neg[below]]] != above)
    if w is not None:
        a, b = int(below[w[0]]), int(above[w[0]])
        raise NotOrthomodular(
            "orthomodular", (a, b),
            f"{names[a]} <= {names[b]} but "
            f"{names[b]} != {names[a]} v ({names[b]} ^ ~{names[a]})")

    return FiniteOML(names=names, leq=leq, neg=neg, meet=meet, join=join, zero=zero, one=one)


def commutes(L: FiniteOML, a: int, b: int) -> bool:
    """True when a = (a ^ b) v (a ^ ~b), read from ``L.commute``."""
    return bool(L.commute[a, b])


def _bits(mask: int):
    """Indices of the set bits of a nonnegative int, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _neighbours(adjacent) -> list[int]:
    """The rows of a bool matrix as int bitsets, diagonal cleared."""
    packed = np.packbits(np.asarray(adjacent, dtype=bool), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") & ~(1 << v)
            for v, row in enumerate(packed)]


def maximal_cliques(adjacent) -> tuple[tuple[int, ...], ...]:
    """Maximal cliques of an undirected graph, each sorted, in sorted order.

    ``adjacent`` is a symmetric bool matrix; its diagonal is ignored.
    Bron-Kerbosch with Tomita pivoting over int bitsets, run from an
    explicit stack so clique size is not bounded by the recursion limit.
    A graph with no vertices has no cliques.  This is the lister for
    large cliques, such as the blocks of a lattice (up to 2**k members);
    ``lex_maximal_cliques`` is the one for small cliques.
    """
    nbrs = _neighbours(adjacent)
    cliques = []
    stack = [((), (1 << len(nbrs)) - 1, 0)] if nbrs else []
    while stack:
        r, p, x = stack.pop()
        if not p:
            if not x:
                cliques.append(tuple(sorted(r)))
            continue
        pivot = max(_bits(p | x), key=lambda u: (p & nbrs[u]).bit_count())
        for v in _bits(p & ~nbrs[pivot]):
            stack.append((r + (v,), p & nbrs[v], x & nbrs[v]))
            p &= ~(1 << v)
            x |= 1 << v
    return tuple(sorted(cliques))


def lex_maximal_cliques(adjacent) -> tuple[tuple[int, ...], ...]:
    """The same cliques as ``maximal_cliques``, listed depth-first.

    A clique grows only by vertices larger than its last one that are
    adjacent to all its members, and it is maximal when no vertex at all
    is.  Children are visited in ascending order, so the cliques come out
    sorted.  Every clique is visited, so this suits graphs whose cliques
    are small, such as the orthogonality graph of rays in dimension d,
    where no clique has more than d members.
    """
    nbrs = _neighbours(adjacent)
    cliques = []
    stack = [((v,), v, nbrs[v]) for v in reversed(range(len(nbrs)))]
    while stack:
        clique, last, common = stack.pop()
        if not common:
            cliques.append(clique)
            continue
        larger = common >> (last + 1) << (last + 1)
        while larger:
            v = larger.bit_length() - 1
            larger ^= 1 << v
            stack.append((clique + (v,), v, common & nbrs[v]))
    return tuple(cliques)


@dataclass(frozen=True)
class TripleReport:
    """Distributivity facts for one ordered triple."""

    a: int
    b: int
    c: int
    holds_d: bool      # (a v b) ^ c == (a ^ c) v (b ^ c)
    holds_dstar: bool  # (a ^ b) v c == (a v c) ^ (b v c)
    holds_t: bool      # D and D* under every permutation of (a, b, c)


def _holds_d(L: FiniteOML, a: int, b: int, c: int) -> bool:
    return int(L.meet[L.join[a, b], c]) == int(L.join[L.meet[a, c], L.meet[b, c]])


def _holds_dstar(L: FiniteOML, a: int, b: int, c: int) -> bool:
    return int(L.join[L.meet[a, b], c]) == int(L.meet[L.join[a, c], L.join[b, c]])


_PERMS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


def triple_check(L: FiniteOML, a: int, b: int, c: int) -> TripleReport:
    """Evaluate the distributive laws D and D* and their symmetrized form."""
    t = (a, b, c)
    holds_t = all(
        _holds_d(L, t[p], t[q], t[r]) and _holds_dstar(L, t[p], t[q], t[r])
        for p, q, r in _PERMS
    )
    return TripleReport(a, b, c, _holds_d(L, a, b, c), _holds_dstar(L, a, b, c), holds_t)


def center(L: FiniteOML) -> tuple[int, ...]:
    """Elements that commute with every element, ascending.

    In an orthomodular lattice commutation is symmetric, and an element
    is central (forms a distributive triple with every pair) exactly
    when it commutes with everything (Foulis-Holland theorem; Kalmbach,
    *Orthomodular Lattices*, 1983).  The result is always a Boolean
    subalgebra carrier containing 0 and 1; this is checked rather than
    trusted.
    """
    central = L.commute.all(axis=1)
    z = np.flatnonzero(central)
    ensure(central[L.zero] and central[L.one] and central[L.neg[z]].all(),
           "the centre holds 0, 1 and the complement of each member")
    ensure(central[L.meet[np.ix_(z, z)]].all() and central[L.join[np.ix_(z, z)]].all(),
           "the centre is closed under meet and join")
    return tuple(int(x) for x in z)


def product(L1: FiniteOML, L2: FiniteOML) -> FiniteOML:
    """Componentwise product lattice; names are '(x,y)' pairs.

    ``(x, y)`` is index ``x * L2.n + y``; a product of orthomodular
    lattices is orthomodular (Kalmbach 1983), so it is not re-audited.
    """
    n2 = L2.n
    n, cap = L1.n * n2, element_cap()
    if n > cap:
        raise SizeCap(n, cap)

    def pairwise(t1, t2):
        return (t1[:, None, :, None] * n2 + t2[None, :, None, :]).reshape(n, n)

    names = tuple(f"({x},{y})" for x in L1.names for y in L2.names)
    return FiniteOML(names=names, leq=np.kron(L1.leq, L2.leq),
                     neg=(L1.neg[:, None] * n2 + L2.neg[None, :]).ravel(),
                     meet=pairwise(L1.meet, L2.meet), join=pairwise(L1.join, L2.join),
                     zero=L1.zero * n2 + L2.zero, one=L1.one * n2 + L2.one)
