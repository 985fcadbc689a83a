"""Rational ray canonicalisation and orthogonality hypergraphs."""

import numpy as np
import pytest

from omlkit import (DimensionMismatch, ParseError, ZeroVector, canonical_ray,
                    hypergraph_from_rays, parse_vectors)
from omlkit.corpus import cabello18


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
