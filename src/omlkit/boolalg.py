"""Boolean subalgebras of a finite orthomodular lattice.

A Boolean subalgebra is a carrier closed under meet, join and
complement whose members pairwise commute and satisfy distributivity.
Blocks are the maximal ones.  Filters and two-valued homomorphisms on
these subalgebras are the raw material for sections of the spectral
presentation built in :mod:`omlkit.sheaf`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FiniteOML, maximal_cliques
from .errors import CapExceeded, ImproperInput, NonCommutingGenerators, ValidationError

DEFAULT_SUBALGEBRA_CAP = 20000


@dataclass(frozen=True, eq=False)
class BooleanSubalgebra:
    """A validated Boolean subalgebra, identified by its sorted carrier."""

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


def subalgebra(host: FiniteOML, carrier) -> BooleanSubalgebra:
    """Validate a carrier as a Boolean subalgebra of the host lattice.

    Checks bounds membership, closure under the three operations,
    pairwise commutation, and distributivity inside the carrier.
    """
    members = frozenset(int(x) for x in carrier)
    for x in members:
        if not 0 <= x < host.n:
            raise ValidationError("range", (x,),
                                  f"element {x} is outside the host lattice")
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
    for a in sorted_carrier:
        for b in sorted_carrier:
            ab = int(host.join[a, b])
            for c in sorted_carrier:
                if int(host.meet[ab, c]) != int(host.join[host.meet[a, c], host.meet[b, c]]):
                    raise ValidationError("distributivity", (a, b, c),
                                          "carrier is not distributive")
    atoms = tuple(
        a for a in sorted_carrier
        if a != host.zero
        and not any(b != host.zero and b != a and host.leq[b, a] for b in sorted_carrier)
    )
    return BooleanSubalgebra(host=host, carrier=sorted_carrier, atoms=atoms,
                             member_set=members)


def _closure(host: FiniteOML, seed) -> tuple[int, ...]:
    got = set(seed)
    got.add(host.zero)
    got.add(host.one)
    frontier = sorted(got)
    while frontier:
        new = set()
        for a in frontier:
            x = int(host.neg[a])
            if x not in got:
                new.add(x)
        current = sorted(got)
        for a in current:
            for b in current:
                for x in (int(host.meet[a, b]), int(host.join[a, b])):
                    if x not in got:
                        new.add(x)
        got |= new
        frontier = sorted(new)
    return tuple(sorted(got))


def generated_subalgebra(host: FiniteOML, generators, within=None) -> BooleanSubalgebra:
    """Close a pairwise-commuting generating set under the lattice operations.

    ``within`` optionally restricts the allowed carrier (a subalgebra or
    any collection of element indices); escaping it is a validation
    error.  Non-commuting generator pairs are rejected with the
    lexicographically first witness.
    """
    gens = sorted({int(x) for x in generators})
    clash = np.argwhere(~host.commute[np.ix_(gens, gens)])
    if len(clash):
        a, b = gens[clash[0, 0]], gens[clash[0, 1]]
        raise NonCommutingGenerators(
            "commutation", (a, b),
            f"generators {host.names[a]} and {host.names[b]} do not commute")
    carrier = _closure(host, gens)
    if within is not None:
        if isinstance(within, BooleanSubalgebra):
            within = within.carrier
        allowed = frozenset(int(x) for x in within)
        for x in carrier:
            if x not in allowed:
                raise ValidationError("escape", (x,),
                                      "generated carrier leaves the allowed universe")
    return subalgebra(host, carrier)


def enumerate_blocks(L: FiniteOML) -> tuple[BooleanSubalgebra, ...]:
    """All maximal Boolean subalgebras, in canonical carrier order.

    Maximal pairwise-commuting subsets are closed under the lattice
    operations, so the blocks are exactly the maximal cliques of the
    commutation graph.
    """
    return tuple(subalgebra(L, c) for c in maximal_cliques(L.commute))


def enumerate_subalgebras(L: FiniteOML, cap: int = DEFAULT_SUBALGEBRA_CAP) -> tuple[BooleanSubalgebra, ...]:
    """Every Boolean subalgebra of L (not just maximal ones).

    Grows closures one commuting element at a time, deduplicating by
    carrier.  Raises CapExceeded with the count reached if the family
    grows past ``cap``.
    """
    first = _closure(L, ())
    found = {first}
    queue = [first]
    while queue:
        base = queue.pop()
        base_set = frozenset(base)
        for x in np.flatnonzero(L.commute[:, base].all(axis=1)).tolist():
            if x in base_set:
                continue
            grown = _closure(L, base + (x,))
            if grown not in found:
                found.add(grown)
                if len(found) > cap:
                    raise CapExceeded(len(found), cap, "Boolean subalgebras")
                queue.append(grown)
    ordered = sorted(found, key=lambda c: (len(c), c))
    return tuple(subalgebra(L, c) for c in ordered)


def subalgebras_within(A: BooleanSubalgebra) -> tuple[BooleanSubalgebra, ...]:
    """Every Boolean subalgebra contained in A, in canonical order.

    Everything in A already commutes, so this is pure closure growth
    over subsets of A's carrier.
    """
    host = A.host
    first = _closure(host, ())
    found = {first}
    queue = [first]
    while queue:
        base = queue.pop()
        base_set = frozenset(base)
        for x in A.carrier:
            if x in base_set:
                continue
            grown = _closure(host, base + (x,))
            if grown not in found:
                found.add(grown)
                queue.append(grown)
    ordered = sorted(found, key=lambda c: (len(c), c))
    return tuple(subalgebra(host, c) for c in ordered)


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
    assert out.is_ultra()
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
        assert len(above) == 1
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
    assert lifted.proper
    out = extend_to_maximal(lifted).two_valued_hom()
    for x in f.domain.carrier:
        assert out.value(x) == f.value(x)
    return out
