"""Boolean subalgebras of a finite orthomodular lattice.

A Boolean subalgebra is a carrier closed under meet, join and
complement whose members pairwise commute; by the Foulis–Holland
theorem it is then distributive.  Blocks are the maximal ones.  Every
subalgebra the library makes is built from its atoms, and only the
public :func:`subalgebra` validates a carrier.  Filters and two-valued
homomorphisms on these subalgebras are the raw material for sections of
the spectral presentation built in :mod:`omlkit.sheaf`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FiniteOML, maximal_cliques
from .errors import (CapExceeded, ImproperInput, NonCommutingGenerators, ValidationError,
                     ensure)

DEFAULT_SUBALGEBRA_CAP = 20000


@dataclass(frozen=True, eq=False)
class BooleanSubalgebra:
    """A Boolean subalgebra, identified by its sorted carrier."""

    host: FiniteOML
    carrier: tuple[int, ...]
    atoms: tuple[int, ...]
    member_set: frozenset

    def __eq__(self, other):
        if not isinstance(other, BooleanSubalgebra):
            return NotImplemented
        return self.host is other.host and self.carrier == other.carrier

    def __hash__(self):
        return hash((id(self.host), self.carrier))

    def __contains__(self, x: int) -> bool:
        return x in self.member_set

    def __len__(self) -> int:
        return len(self.carrier)

    def label(self) -> str:
        """Canonical display label: the atom names in braces."""
        return "{" + ",".join(self.host.names[a] for a in self.atoms) + "}"

    def __repr__(self) -> str:
        return f"BooleanSubalgebra({self.label()})"


def _boolean(host: FiniteOML, atoms) -> BooleanSubalgebra:
    """The Boolean subalgebra with the given atoms, built without checks:
    callers pass nonzero, pairwise-orthogonal atoms that join to 1."""
    members = {host.zero}
    for a in atoms:
        members |= {int(host.join[x, a]) for x in members}
    return BooleanSubalgebra(host=host, carrier=tuple(sorted(members)),
                             atoms=tuple(sorted(atoms)),
                             member_set=frozenset(members))


def _atoms_of(host: FiniteOML, carrier) -> list[int]:
    """The atoms of a Boolean carrier: the members with exactly two
    members (0 and themselves) below them."""
    c = np.asarray(carrier, dtype=np.int64)
    return c[host.leq[np.ix_(c, c)].sum(axis=0) == 2].tolist()


def _check_range(host: FiniteOML, elements) -> None:
    for x in elements:
        if not 0 <= x < host.n:
            raise ValidationError("range", (x,),
                                  f"element {x} is outside the host lattice")


def subalgebra(host: FiniteOML, carrier) -> BooleanSubalgebra:
    """Validate a carrier as a Boolean subalgebra of the host lattice.

    Checks bounds membership, closure under the three operations and
    pairwise commutation.  A closed, pairwise-commuting carrier is
    distributive by the Foulis–Holland theorem, so that law needs no
    check of its own.
    """
    members = frozenset(int(x) for x in carrier)
    _check_range(host, members)
    if host.zero not in members or host.one not in members:
        raise ValidationError("bounds", (), "carrier must contain 0 and 1")
    sorted_carrier = tuple(sorted(members))
    for a in sorted_carrier:
        if int(host.neg[a]) not in members:
            raise ValidationError("closure-neg", (a,), f"complement of {a} missing from carrier")
        for b in sorted_carrier:
            if int(host.meet[a, b]) not in members:
                raise ValidationError("closure-meet", (a, b), f"meet of {a},{b} missing")
            if int(host.join[a, b]) not in members:
                raise ValidationError("closure-join", (a, b), f"join of {a},{b} missing")
            if not host.commute[a, b]:
                raise ValidationError("commutation", (a, b), f"{a} and {b} do not commute")
    return _boolean(host, _atoms_of(host, sorted_carrier))


def generated_subalgebra(host: FiniteOML, generators, within=None) -> BooleanSubalgebra:
    """The Boolean subalgebra generated by a pairwise-commuting set.

    By Foulis–Holland the generated subalgebra is Boolean and its atoms
    are the nonzero minterms of the generators, so each generator g
    splits every atom a into a∧g and a∧¬g.  ``within`` optionally
    restricts the allowed carrier (a subalgebra or any collection of
    element indices); escaping it is a validation error.  Non-commuting
    generator pairs are rejected with the lexicographically first
    witness.
    """
    gens = sorted({int(x) for x in generators})
    _check_range(host, gens)
    clash = np.argwhere(~host.commute[np.ix_(gens, gens)])
    if len(clash):
        a, b = gens[clash[0, 0]], gens[clash[0, 1]]
        raise NonCommutingGenerators(
            "commutation", (a, b),
            f"generators {host.names[a]} and {host.names[b]} do not commute")
    atoms = [host.one]
    for g in gens:
        ng = host.neg[g]
        atoms = [x for a in atoms for x in (int(host.meet[a, g]), int(host.meet[a, ng]))
                 if x != host.zero]
    out = _boolean(host, atoms)
    if within is not None:
        if isinstance(within, BooleanSubalgebra):
            within = within.carrier
        allowed = frozenset(int(x) for x in within)
        for x in out.carrier:
            if x not in allowed:
                raise ValidationError("escape", (x,),
                                      "generated carrier leaves the allowed universe")
    return out


def enumerate_blocks(L: FiniteOML) -> tuple[BooleanSubalgebra, ...]:
    """All maximal Boolean subalgebras, in canonical carrier order.

    In an orthomodular lattice a maximal pairwise-commuting subset is
    closed under the lattice operations (Kalmbach, *Orthomodular
    Lattices*, 1983), so the blocks are exactly the maximal cliques of
    the commutation graph.
    """
    return tuple(_boolean(L, _atoms_of(L, c)) for c in maximal_cliques(L.commute))


def _partition_atoms(host: FiniteOML, atoms):
    """Joined parts of every set partition of the atoms: in each partition
    of the rest, the first atom gets a part of its own or joins one."""
    if not atoms:
        yield ()
        return
    first = atoms[0]
    for rest in _partition_atoms(host, atoms[1:]):
        yield (first,) + rest
        for i, x in enumerate(rest):
            yield rest[:i] + (int(host.join[first, x]),) + rest[i + 1:]


def enumerate_subalgebras(L: FiniteOML, cap: int = DEFAULT_SUBALGEBRA_CAP) -> tuple[BooleanSubalgebra, ...]:
    """Every Boolean subalgebra of L (not just maximal ones).

    Every Boolean subalgebra lies inside a block (Kalmbach, 1983), so
    this is the union of :func:`subalgebras_within` over the blocks,
    deduplicated.  Raises CapExceeded with the count reached as soon as
    the family grows past ``cap``, before a large block is exhausted.
    """
    found: dict[tuple[int, ...], BooleanSubalgebra] = {}
    for block in enumerate_blocks(L):
        for atoms in _partition_atoms(L, block.atoms):
            atoms = tuple(sorted(atoms))
            if atoms not in found:
                found[atoms] = _boolean(L, atoms)
                if len(found) > cap:
                    raise CapExceeded(len(found), cap, "Boolean subalgebras")
    return tuple(sorted(found.values(), key=lambda s: (len(s), s.carrier)))


def subalgebras_within(A: BooleanSubalgebra) -> tuple[BooleanSubalgebra, ...]:
    """Every Boolean subalgebra contained in A, in canonical order.

    The Boolean subalgebras of A are the set partitions of A's atoms,
    Bell(k) of them for k atoms; each part joins to one new atom.
    """
    subs = (_boolean(A.host, atoms) for atoms in _partition_atoms(A.host, A.atoms))
    return tuple(sorted(subs, key=lambda s: (len(s), s.carrier)))


@dataclass(frozen=True)
class Filter:
    """An upward-closed, meet-closed subset of a Boolean subalgebra."""

    domain: BooleanSubalgebra
    members: tuple[int, ...]

    @property
    def proper(self) -> bool:
        return self.domain.host.zero not in self.members

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def is_ultra(self) -> bool:
        """Proper, and containing exactly one of x, ~x for every carrier x."""
        if not self.proper:
            return False
        host = self.domain.host
        got = frozenset(self.members)
        return all((x in got) != (int(host.neg[x]) in got) for x in self.domain.carrier)

    def two_valued_hom(self) -> "TwoValuedHom":
        """The indicator hom of an ultrafilter (quotient by it has two classes)."""
        if not self.is_ultra():
            raise ImproperInput("ultrafilter", (), "only ultrafilters induce two-valued homs")
        host = self.domain.host
        bottom = self.members[0]
        for x in self.members:
            bottom = int(host.meet[bottom, x])
        return TwoValuedHom(domain=self.domain, true_atom=bottom)


def filter_generate(domain: BooleanSubalgebra, generators) -> Filter:
    """Smallest filter of the subalgebra containing the generators.

    In a finite algebra this is the principal filter of the meet of all
    generators; the empty set generates {1}.  The result may be improper,
    which is reported by the ``proper`` flag rather than raised.
    """
    host = domain.host
    m = host.one
    for x in generators:
        x = int(x)
        if x not in domain:
            raise ValidationError("membership", (x,),
                                  f"generator {host.names[x]} is outside the subalgebra")
        m = int(host.meet[m, x])
    members = tuple(x for x in domain.carrier if host.leq[m, x])
    return Filter(domain=domain, members=members)


def extend_to_maximal(f: Filter) -> Filter:
    """Deterministically extend a proper filter to an ultrafilter.

    Scans the carrier in index order, keeping each element whose addition
    leaves the filter proper and otherwise keeping its complement.
    """
    if not f.proper:
        raise ImproperInput("proper", (), "cannot extend an improper filter")
    host = f.domain.host
    m = host.one
    for x in f.members:
        m = int(host.meet[m, x])
    for x in f.domain.carrier:
        mx = int(host.meet[m, x])
        m = mx if mx != host.zero else int(host.meet[m, host.neg[x]])
    members = tuple(x for x in f.domain.carrier if host.leq[m, x])
    out = Filter(domain=f.domain, members=members)
    ensure(out.is_ultra(), "extend_to_maximal yields an ultrafilter")
    return out


@dataclass(frozen=True)
class TwoValuedHom:
    """A homomorphism onto {0, 1}, stored by the atom it sends to 1."""

    domain: BooleanSubalgebra
    true_atom: int

    def __post_init__(self):
        if self.true_atom not in self.domain.atoms:
            raise ValidationError("atom", (self.true_atom,),
                                  "a two-valued hom must send exactly one atom to 1")

    def value(self, x: int) -> int:
        if x not in self.domain:
            raise ValidationError("membership", (x,), "element outside the hom's domain")
        return int(self.domain.host.leq[self.true_atom, x])

    def ultrafilter(self) -> Filter:
        host = self.domain.host
        members = tuple(x for x in self.domain.carrier if host.leq[self.true_atom, x])
        return Filter(domain=self.domain, members=members)

    def restrict(self, sub: BooleanSubalgebra) -> "TwoValuedHom":
        """Restriction to a subalgebra of the domain."""
        host = self.domain.host
        for x in sub.carrier:
            if x not in self.domain:
                raise ValidationError("membership", (x,), "not a subalgebra of the domain")
        above = [b for b in sub.atoms if host.leq[self.true_atom, b]]
        ensure(len(above) == 1, "a true atom lies below exactly one atom of a subalgebra")
        return TwoValuedHom(domain=sub, true_atom=above[0])


def homs_to_2(domain: BooleanSubalgebra) -> tuple[TwoValuedHom, ...]:
    """All two-valued homs of a Boolean subalgebra, one per atom."""
    return tuple(TwoValuedHom(domain=domain, true_atom=a) for a in domain.atoms)


def extend_hom(f: TwoValuedHom, target: BooleanSubalgebra) -> TwoValuedHom:
    """Extend a two-valued hom to a larger Boolean subalgebra.

    Generates the target filter from the hom's ultrafilter and extends it
    to an ultrafilter; the result agrees with ``f`` on its domain.
    """
    host = f.domain.host
    for x in f.domain.carrier:
        if x not in target:
            raise ValidationError("containment", (x,),
                                  "target must contain the hom's domain")
    lifted = filter_generate(target, f.ultrafilter().members)
    ensure(lifted.proper, "an ultrafilter generates a proper filter in a larger algebra")
    out = extend_to_maximal(lifted).two_valued_hom()
    for x in f.domain.carrier:
        ensure(out.value(x) == f.value(x), "extend_hom agrees with the hom it extends")
    return out
