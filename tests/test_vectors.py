"""Rational ray canonicalisation and orthogonality hypergraphs."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from omlkit import (DimensionMismatch, ParseError, ZeroVector, canonical_ray,
                    hypergraph_from_rays, parse_vectors)
from omlkit.core import lex_maximal_cliques, maximal_cliques
from omlkit.corpus import cabello18
from omlkit.vectors import _rational

from oracles import maximal_cliques_oracle


def rays(entries, d):
    """Canonical rays of entries^d: first nonzero coordinate positive,
    primitive, each once."""
    out = []
    for v in itertools.product(entries, repeat=d):
        if any(v):
            r = canonical_ray(list(v))
            if r not in out:
                out.append(r)
    return out


def test_canonical_ray_clears_denominators():
    assert canonical_ray(["1/2", "-1", "0"]).coords == (1, -2, 0)
    assert canonical_ray(["2/3", "4/3"]).coords == (1, 2)


def test_canonical_ray_divides_gcd_and_fixes_sign():
    assert canonical_ray([4, -6]).coords == (2, -3)
    assert canonical_ray([-1, 2, 0]).coords == (1, -2, 0)
    assert canonical_ray([0, 0, -5]).coords == (0, 0, 1)
    assert canonical_ray([0, -5, 3]).name == "0,5,-3"


def test_canonical_ray_rejects_zero():
    with pytest.raises(ValueError):
        canonical_ray([0, 0, 0])


def test_scalar_multiples_collapse_keep_first():
    h = parse_vectors("dim=3\n1 0 0\n-2 0 0\n0 1 0\n")
    assert h.n == 2
    assert h.vertices == ("1,0,0", "0,1,0")  # first spelling wins


def test_low_dimension_warns():
    with pytest.warns(UserWarning):
        parse_vectors("dim=2\n1 0\n0 1\n")


def test_basis_gives_one_context():
    h = parse_vectors("dim=3\n1 0 0\n0 1 0\n0 0 1\n")
    assert h.contexts == ((0, 1, 2),)
    assert h.submaximal_cliques == 0
    assert h.contexts_of(0) == (0,)


def test_no_rays_give_no_cliques():
    h = hypergraph_from_rays(3, [])
    assert h.contexts == ()
    assert h.submaximal_cliques == 0


def test_orthogonality_is_exact():
    big = 10**20
    h = hypergraph_from_rays(3, [
        canonical_ray(["1/3", "1", "0"]),
        canonical_ray([3, -1, 0]),
        canonical_ray([1, -(big - 1), 0]),
        canonical_ray([big, 1, 0]),
    ])
    i = {v: k for k, v in enumerate(h.vertices)}
    assert h.orthogonal[i["1,3,0"], i["3,-1,0"]]
    # dot product is exactly 1; a float build would round it to orthogonal
    assert not h.orthogonal[i[f"{big},1,0"], i[f"1,{-(big - 1)},0"]]
    for h in (h, cabello18()):
        assert h.orthogonal.dtype == bool and not h.orthogonal.flags.writeable
        assert not h.orthogonal.diagonal().any()
        assert (h.orthogonal == h.orthogonal.T).all()
        assert h.orthogonal.tolist() == [[i != j and u.dot(v) == 0
                                          for j, v in enumerate(h.vectors)]
                                         for i, u in enumerate(h.vectors)]


def test_cabello_hypergraph_shape():
    h = cabello18()
    assert h.dim == 4
    assert h.n == 18
    assert len(h.contexts) == 9
    assert h.submaximal_cliques == 15
    # every ray sits in exactly two contexts
    counts = np.zeros(h.n, dtype=int)
    for ctx in h.contexts:
        assert len(ctx) == 4
        for v in ctx:
            counts[v] += 1
    assert (counts == 2).all()
    assert h.vertex_index(h.vertices[5]) == 5
    with pytest.raises(KeyError):
        h.vertex_index("7,7,7,7")


def test_parse_errors():
    with pytest.raises(ParseError) as e:
        parse_vectors("1 0 0\n")
    assert e.value.line == 1
    with pytest.raises(ParseError):
        parse_vectors("dim=zebra\n")
    with pytest.raises(ParseError):
        parse_vectors("dim=0\n")
    with pytest.raises(ParseError):
        parse_vectors("dim=3\n")
    with pytest.raises(DimensionMismatch) as e:
        parse_vectors("dim=3\n1 0\n")
    assert e.value.line == 2
    with pytest.raises(ZeroVector) as e:
        parse_vectors("dim=3\n1 0 0\n0 0 0\n")
    assert e.value.line == 3
    with pytest.raises(ParseError) as e:
        parse_vectors("dim=3\n1 0 1/x\n")
    assert (e.value.line, e.value.col) == (2, 5)


def test_context_cliques_equal_the_pivoting_lister_and_the_oracle():
    # the depth-first lister of ray contexts against Tomita pivoting
    # (core.maximal_cliques, kept for blocks) and, up to 10 rays, the
    # brute-force oracle: the same sorted cliques in the same order
    rng = random.Random(20260418)
    families = [rays((0, 1, -1), d) for d in (3, 4, 5)] + [rays(range(-2, 3), 3)]
    samples = list(families)
    for family in families:
        for size in (4, 7, 10, 40, 100):
            if size < len(family):
                samples += [rng.sample(family, size) for _ in range(3)]
    for sample in samples:
        h = hypergraph_from_rays(len(sample[0].coords), sample)
        cliques = lex_maximal_cliques(h.orthogonal)
        assert cliques == maximal_cliques(h.orthogonal)
        if h.n <= 10:
            assert list(cliques) == maximal_cliques_oracle(h.orthogonal)
        assert h.contexts == tuple(c for c in cliques if len(c) == h.dim)
        assert h.submaximal_cliques == len(cliques) - len(h.contexts)
        assert max(map(len, cliques)) <= h.dim
    triads = hypergraph_from_rays(3, families[3])
    assert (triads.n, len(triads.contexts)) == (49, 26)
    h = cabello18()
    assert lex_maximal_cliques(h.orthogonal) == maximal_cliques(h.orthogonal)
    assert h.submaximal_cliques == 15


def test_integer_tokens_parse_as_fractions_do():
    # plain decimal integers take int(); every other token goes through
    # Fraction, which accepts or rejects it as before, at the same column
    for tok in ("+3", "-0", "007", "1_000", "\u0663", "3.0", "1e2", "3/6", "12"):
        value = _rational(tok)
        assert value == Fraction(tok)
        assert (type(value) is int) == (tok in ("+3", "-0", "007", "12"))
        h = parse_vectors(f"dim=3\n1 {tok} 0\n")
        assert h.vectors == (canonical_ray([1, Fraction(tok), 0]),)
    for tok in ("\u00b2", "1/0", "3/", "+", "--1", "0x1f"):
        with pytest.raises((ValueError, ZeroDivisionError)):
            Fraction(tok)
        with pytest.raises(ParseError) as e:
            parse_vectors(f"dim=3\n1 0 {tok}\n")
        assert (e.value.line, e.value.col) == (2, 5)
    assert canonical_ray([2, "4", Fraction(6)]).coords == (1, 2, 3)
