"""Exact rational vector sets and their orthogonality hypergraphs.

Vectors are read from a ``dim=N`` header plus one vector per line and
canonicalised to primitive integer form (common denominator cleared,
divided by the gcd, first nonzero coordinate positive), so equality and
orthogonality are exact integer questions.  Plain decimal integer
entries are read with ``int``; every other entry goes through
``Fraction``.  Contexts are the maximal cliques of the orthogonality
graph with exactly ``dim`` members; smaller maximal cliques are counted
but dropped.  Mutually orthogonal nonzero rays are linearly independent,
so no clique has more than ``dim`` members, and the depth-first
``core.lex_maximal_cliques``, which extends each clique only by larger
vertices, stays shallow.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .core import lex_maximal_cliques
from .errors import DimensionMismatch, ParseError, ZeroVector


@dataclass(frozen=True)
class RationalVector:
    """A ray stored as a primitive integer tuple."""

    coords: tuple[int, ...]

    @property
    def name(self) -> str:
        return ",".join(str(c) for c in self.coords)

    def dot(self, other: "RationalVector") -> int:
        return sum(a * b for a, b in zip(self.coords, other.coords))

    def __repr__(self) -> str:
        return f"RationalVector({self.name})"


_DECIMAL = re.compile(r"[+-]?[0-9]+")


def _rational(entry) -> int | Fraction:
    """An int for an int or a plain decimal integer token, else a Fraction
    (which raises ValueError or ZeroDivisionError on a bad token); both
    give the value ``Fraction(entry)`` gives."""
    if type(entry) is int or (type(entry) is str and _DECIMAL.fullmatch(entry)):
        return int(entry)
    return Fraction(entry)


def canonical_ray(entries) -> RationalVector:
    """Scale a rational vector to primitive integers, first nonzero positive."""
    fracs = [_rational(e) for e in entries]
    denom_lcm = lcm(*(f.denominator for f in fracs))
    ints = [int(f * denom_lcm) for f in fracs]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no canonical ray")
    ints = [v // g for v in ints]
    first = next(v for v in ints if v != 0)
    if first < 0:
        ints = [-v for v in ints]
    return RationalVector(coords=tuple(ints))


@dataclass(frozen=True)
class ContextHypergraph:
    """Vertices, exact orthogonality, and the dim-sized maximal cliques."""

    dim: int
    vertices: tuple[str, ...]
    vectors: tuple[RationalVector, ...] | None
    orthogonal: np.ndarray  # bool, symmetric, hollow
    contexts: tuple[tuple[int, ...], ...]
    submaximal_cliques: int

    @property
    def n(self) -> int:
        return len(self.vertices)

    def vertex_index(self, name: str) -> int:
        try:
            return self.vertices.index(name)
        except ValueError:
            raise KeyError(f"no vertex named {name!r}") from None

    def contexts_of(self, v: int) -> tuple[int, ...]:
        return tuple(i for i, ctx in enumerate(self.contexts) if v in ctx)

    def __repr__(self) -> str:
        return (f"ContextHypergraph(dim={self.dim}, vertices={self.n}, "
                f"contexts={len(self.contexts)})")


def hypergraph_from_rays(dim: int, rays) -> ContextHypergraph:
    """Build the orthogonality hypergraph of canonical rays (deduplicated)."""
    unique: list[RationalVector] = []
    seen = set()
    for r in rays:
        if r.coords not in seen:
            seen.add(r.coords)
            unique.append(r)
    # object dtype keeps Python integers, so the dot products are exact;
    # int64 ones are too while dim * max|c|**2 < 2**63
    coords = np.array([r.coords for r in unique], dtype=object).reshape(len(unique), dim)
    big = max((abs(c) for r in unique for c in r.coords), default=0)
    if dim * big * big < 2**63:
        coords = coords.astype(np.int64)
    ortho = np.asarray(coords @ coords.T == 0, dtype=bool)
    np.fill_diagonal(ortho, False)
    cliques = lex_maximal_cliques(ortho)
    contexts = tuple(c for c in cliques if len(c) == dim)
    ortho.setflags(write=False)
    return ContextHypergraph(
        dim=dim,
        vertices=tuple(r.name for r in unique),
        vectors=tuple(unique),
        orthogonal=ortho,
        contexts=contexts,
        submaximal_cliques=len(cliques) - len(contexts),
    )


def parse_vectors(text: str) -> ContextHypergraph:
    """Parse the ``dim=N`` header plus one rational vector per line.

    Rational entries may be integers or p/q fractions.  Scalar multiples
    collapse to one vertex; zero vectors and wrong-length lines are
    rejected with their line number.
    """
    dim = None
    rays: list[RationalVector] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if dim is None:
            if not line.startswith("dim"):
                raise ParseError("expected a dim=N header before any vectors", lineno)
            _, _, value = line.partition("=")
            try:
                dim = int(value.strip())
            except ValueError:
                raise ParseError(f"bad dimension {value.strip()!r}", lineno) from None
            if dim < 1:
                raise ParseError(f"dimension must be positive, got {dim}", lineno)
            if dim <= 2:
                warnings.warn(
                    f"dimension {dim} admits global valuations; contextuality "
                    "arguments need dim >= 3", stacklevel=2)
            continue
        tokens = line.split()
        if len(tokens) != dim:
            raise DimensionMismatch(
                f"expected {dim} entries, got {len(tokens)}", lineno)
        entries = []
        col = 1
        for tok in tokens:
            col = line.index(tok, col - 1) + 1
            try:
                entries.append(_rational(tok))
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"bad rational {tok!r}", lineno, col) from None
            col += len(tok)
        if all(e == 0 for e in entries):
            raise ZeroVector("zero vector cannot name a ray", lineno)
        rays.append(canonical_ray(entries))
    if dim is None:
        raise ParseError("missing dim=N header", 1)
    if not rays:
        raise ParseError("no vectors after the header", 1)
    return hypergraph_from_rays(dim, rays)
