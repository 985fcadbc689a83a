"""Seeded input generators for the benchmark.

Every generator returns plain text in one of omlkit's input formats
(Greechie diagrams, ``dim=N`` vector files, ``oml 1`` interchange), so the
library only ever sees generated inputs, the same way the CLI would.
"""

from __future__ import annotations

import itertools
import random


def loop_text(k: int, block_size: int, rng: random.Random) -> str:
    """k blocks in a ring, neighbours sharing one atom (Greechie's loop).

    The atom names, the block order and the atom order inside each block
    are shuffled; the pasted lattice is the same up to names.
    """
    if k < 5:
        raise ValueError("loops need k >= 5 to avoid 3- and 4-loops")
    shared = [f"s{i}" for i in range(k)]
    blocks = []
    for i in range(k):
        private = [f"p{i}_{j}" for j in range(block_size - 2)]
        blocks.append([shared[i], *private, shared[(i + 1) % k]])
    return render_blocks(blocks, rng)


def tree_text(sizes, rng: random.Random) -> str:
    """A random tree of blocks with the given atom counts: each new block
    shares one atom with one earlier block, so the diagram has no loops."""
    blocks = [[f"t0_{j}" for j in range(sizes[0])]]
    for b, size in enumerate(sizes[1:], start=1):
        glue = rng.choice(rng.choice(blocks))
        blocks.append([glue, *(f"t{b}_{j}" for j in range(size - 1))])
    return render_blocks(blocks, rng)


def mo_text(k: int, rng: random.Random) -> str:
    """k two-atom blocks sharing only 0 and 1."""
    return render_blocks([[f"m{i}", f"m{i}c"] for i in range(k)], rng)


def boolean_text(k: int, rng: random.Random) -> str:
    """One block of k atoms."""
    return render_blocks([[f"b{i}" for i in range(k)]], rng)


def render_blocks(blocks, rng: random.Random) -> str:
    """Diagram text, one block per line, with the atoms renamed and the
    blocks and their atoms shuffled."""
    atoms = sorted({a for b in blocks for a in b})
    fresh = [f"x{i}" for i in range(len(atoms))]
    rng.shuffle(fresh)
    rename = dict(zip(atoms, fresh))
    blocks = [[rename[a] for a in b] for b in blocks]
    for b in blocks:
        rng.shuffle(b)
    rng.shuffle(blocks)
    return "".join(" ".join(b) + "\n" for b in blocks)


def rays01(d: int) -> list[tuple[int, ...]]:
    """The rays of {0,+1,-1}^d, one per sign class, first nonzero entry +1."""
    out = []
    for v in itertools.product((0, 1, -1), repeat=d):
        nz = [x for x in v if x]
        if nz and nz[0] == 1:
            out.append(v)
    return sorted(out)


def permute_rays(rays, rng: random.Random, shuffle: bool = True):
    """Apply one random coordinate permutation and sign flip to every ray,
    then (with ``shuffle``) shuffle the rays; orthogonality is preserved.
    Without the shuffle the vertex order, and so the solver's search, stays
    that of the input."""
    d = len(rays[0])
    perm = list(range(d))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(d)]
    out = [tuple(signs[c] * r[perm[c]] for c in range(d)) for r in rays]
    if shuffle:
        rng.shuffle(out)
    return out


def vectors_text(rays, rng: random.Random) -> str:
    """The ``dim=N`` format, each ray with a random nonzero rational scale
    that canonicalisation must undo."""
    lines = [f"dim={len(rays[0])}"]
    for r in rays:
        num = rng.choice((1, -1, 2, -2, 3))
        den = rng.choice((1, 1, 2, 3))
        cells = []
        for x in r:
            p, q = x * num, den
            cells.append(str(p) if q == 1 or p == 0 else f"{p}/{q}")
        lines.append(" ".join(cells))
    return "\n".join(lines) + "\n"


def parse_ray_lines(text: str) -> list[tuple[int, ...]]:
    """Integer rays of a ``dim=N`` file with integer entries (cabello18)."""
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line and not line.startswith("dim"):
            rows.append(tuple(int(x) for x in line.split()))
    return rows


def boolean_arrays(k: int):
    """Order matrix and complement of the power set of k atoms, element
    index = bitmask, built without omlkit."""
    import numpy as np
    n = 1 << k
    idx = np.arange(n)
    leq = (idx[:, None] & idx[None, :]) == idx[:, None]
    return leq, (n - 1) ^ idx


def mo_arrays(k: int):
    """Order matrix and complement of MO(k): 0, a1, ~a1, ..., ak, ~ak, 1."""
    import numpy as np
    n = 2 * k + 2
    leq = np.eye(n, dtype=bool)
    leq[0, :] = True
    leq[:, n - 1] = True
    neg = np.arange(n)
    neg[0], neg[n - 1] = n - 1, 0
    for i in range(k):
        neg[1 + 2 * i], neg[2 + 2 * i] = 2 + 2 * i, 1 + 2 * i
    return leq, neg


def boolean_cover_text(k: int) -> str:
    """The ``oml 1`` cover form of the power set of k atoms; element ``e<m>``
    is the subset with bitmask m, listed in bitmask order."""
    n = 1 << k
    lines = ["oml 1", "elements " + " ".join(f"e{m}" for m in range(n))]
    for m in range(n):
        for b in range(k):
            if not m >> b & 1:
                lines.append(f"cover e{m} e{m | 1 << b}")
    lines += [f"neg e{m} e{(n - 1) ^ m}" for m in range(n)]
    return "\n".join(lines) + "\n"
