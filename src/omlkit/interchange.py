"""Versioned text interchange for finite orthomodular lattices.

The compact form lists element names, Hasse cover edges and the
complement map; the full order is recovered as the reflexive-transitive
closure of the covers.  A matrix form with explicit 0/1 order rows is
accepted as an alternative.  Either way the result goes through
verify_oml, so a file describing a non-lattice or a non-orthomodular
order is rejected with a witness.

    oml 1
    elements 0 a b 1
    cover 0 a
    cover 0 b
    cover a 1
    cover b 1
    neg 0 1
    neg a b
    neg b a
    neg 1 0
"""

from __future__ import annotations

import numpy as np

from .core import FiniteOML, compose, verify_oml
from .errors import ParseError

FORMAT_VERSION = 1


def parse_interchange(text: str, cap: int | None = None) -> FiniteOML:
    """Parse and validate the interchange format (cover or matrix form)."""
    names: list[str] | None = None
    covers: list[tuple[int, int]] = []
    leq_rows: list[list[bool]] = []
    neg_pairs: dict[int, int] = {}
    index: dict[str, int] = {}
    saw_version = False

    def resolve(tok: str, lineno: int) -> int:
        if tok not in index:
            raise ParseError(f"unknown element {tok!r}", lineno)
        return index[tok]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        keyword, args = parts[0], parts[1:]
        if keyword == "oml":
            if saw_version:
                raise ParseError("duplicate version line", lineno)
            if args != [str(FORMAT_VERSION)]:
                raise ParseError(f"unsupported version {' '.join(args)!r}", lineno)
            saw_version = True
        elif keyword == "elements":
            if names is not None:
                raise ParseError("duplicate elements line", lineno)
            if len(set(args)) != len(args):
                raise ParseError("element names must be unique", lineno)
            if not args:
                raise ParseError("elements line is empty", lineno)
            names = list(args)
            index = {s: i for i, s in enumerate(names)}
        elif keyword == "cover":
            if names is None:
                raise ParseError("cover before elements", lineno)
            if len(args) != 2:
                raise ParseError("cover needs exactly two element names", lineno)
            covers.append((resolve(args[0], lineno), resolve(args[1], lineno)))
        elif keyword == "leq":
            if names is None:
                raise ParseError("leq before elements", lineno)
            row = "".join(args)
            if len(row) != len(names) or set(row) - {"0", "1"}:
                raise ParseError(f"leq row must be {len(names)} digits of 0/1", lineno)
            leq_rows.append([c == "1" for c in row])
        elif keyword == "neg":
            if names is None:
                raise ParseError("neg before elements", lineno)
            if len(args) != 2:
                raise ParseError("neg needs exactly two element names", lineno)
            a = resolve(args[0], lineno)
            if a in neg_pairs:
                raise ParseError(f"duplicate neg entry for {args[0]!r}", lineno)
            neg_pairs[a] = resolve(args[1], lineno)
        else:
            raise ParseError(f"unknown directive {keyword!r}", lineno)

    if not saw_version:
        raise ParseError("missing 'oml 1' version line", 1)
    if names is None:
        raise ParseError("missing elements line", 1)
    n = len(names)
    if covers and leq_rows:
        raise ParseError("mix of cover and leq lines; use one form", 1)
    if leq_rows:
        if len(leq_rows) != n:
            raise ParseError(f"expected {n} leq rows, got {len(leq_rows)}", 1)
        leq = np.array(leq_rows, dtype=bool)
    else:
        leq = np.eye(n, dtype=bool)
        for a, b in covers:
            leq[a, b] = True
        # reflexive-transitive closure
        for _ in range(n):
            grown = leq | compose(leq, leq)
            if np.array_equal(grown, leq):
                break
            leq = grown
    if len(neg_pairs) != n:
        raise ParseError(f"need a neg entry for each of the {n} elements", 1)
    neg = [neg_pairs[i] for i in range(n)]
    return verify_oml(leq, neg, names, cap=cap)


def render_interchange(L: FiniteOML) -> str:
    """Write the cover form; parsing it back reproduces the lattice."""
    n = L.n
    strict = L.leq & ~np.eye(n, dtype=bool)
    # remove transitive edges: keep a < b with nothing strictly between
    cover = strict & ~compose(strict, strict)
    lines = [f"oml {FORMAT_VERSION}", "elements " + " ".join(L.names)]
    for a in range(n):
        for b in np.flatnonzero(cover[a]):
            lines.append(f"cover {L.names[a]} {L.names[int(b)]}")
    for a in range(n):
        lines.append(f"neg {L.names[a]} {L.names[int(L.neg[a])]}")
    return "\n".join(lines) + "\n"
