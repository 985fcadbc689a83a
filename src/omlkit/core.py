"""Finite orthomodular lattices as dense index tables.

Elements are the integers ``0..n-1``.  The order is a boolean matrix,
the complement a permutation array, and meet/join are precomputed
``n x n`` tables.  Tables from outside are audited once, by
``verify_oml``; ``product`` is correct by construction.  Either way the
tables are frozen, so the rest of the package indexes them without
re-checking laws.
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
    reach = (leq.astype(np.uint8) @ leq.astype(np.uint8)) > 0
    w = _first_true(reach & ~leq)
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

    # meet(a, b) is the element whose down-set equals downset(a) & downset(b)
    down_key = {leq[:, i].tobytes(): i for i in range(n)}
    up_key = {leq[i, :].tobytes(): i for i in range(n)}
    meet = np.empty((n, n), dtype=np.int64)
    join = np.empty((n, n), dtype=np.int64)
    for a in range(n):
        col_a = leq[:, a]
        row_a = leq[a, :]
        for b in range(a, n):
            m = down_key.get((col_a & leq[:, b]).tobytes())
            if m is None:
                raise NotALattice("meet", (a, b),
                                  f"elements {names[a]} and {names[b]} have no meet")
            j = up_key.get((row_a & leq[b, :]).tobytes())
            if j is None:
                raise NotALattice("join", (a, b),
                                  f"elements {names[a]} and {names[b]} have no join")
            meet[a, b] = meet[b, a] = m
            join[a, b] = join[b, a] = j

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

    # orthomodular law: a <= b implies b = a | (b & ~a)
    recover = join[idx[:, None], meet[np.arange(n)[None, :], neg[:, None]]]
    w = _first_true(leq & (recover != idx[None, :]))
    if w is not None:
        a, b = w
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


def maximal_cliques(adjacent) -> tuple[tuple[int, ...], ...]:
    """Maximal cliques of an undirected graph, each sorted, in sorted order.

    ``adjacent`` is a symmetric bool matrix; its diagonal is ignored.
    Bron-Kerbosch with Tomita pivoting over int bitsets, run from an
    explicit stack so clique size is not bounded by the recursion limit.
    A graph with no vertices has no cliques.
    """
    rows = np.asarray(adjacent, dtype=bool)
    nbrs = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
            & ~(1 << v) for v, row in enumerate(rows)]
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
