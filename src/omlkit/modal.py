"""Boolean saturation, modal extensions, and actualization of valuations.

``saturate`` equips a finite orthomodular lattice with the necessity
operator sending each element to the largest central element below it
(finite lattices always have one) and its dual possibility operator.
A modal extension re-hosts the lattice inside a saturated one through an
embedding (``identity`` and ``diagonal:k`` are embeddings by
construction; only an embedding the caller supplies is checked); the
possibility space is the central Boolean subalgebra its possibility
operator generates.  Valuations of that
subalgebra can be pushed back into context valuations (``actualize``),
context valuations extended over it (``born_extend``), and global
sections compressed onto it (``global_actualization_check``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .boolalg import (BooleanSubalgebra, TwoValuedHom, _boolean, extend_hom,
                      extend_to_maximal, filter_generate, generated_subalgebra,
                      homs_to_2)
from .core import FiniteOML, center, product
from .errors import (EmbeddingInvalid, IncompatibleGlobalSection, NotInW,
                     PreconditionPossibility, ensure)
from .sheaf import Section, check_section, principal_poset, principal_section


@dataclass(frozen=True, eq=False)
class ModalStructure:
    """A lattice with its necessity and possibility tables."""

    lattice: FiniteOML
    box: np.ndarray
    diamond: np.ndarray
    central: tuple[int, ...]

    @cached_property
    def axioms(self) -> "ModalAxiomReport":
        """``check_modal_axioms`` of this structure, evaluated once."""
        return check_modal_axioms(self)

    def __repr__(self) -> str:
        return f"ModalStructure(n={self.lattice.n}, central={len(self.central)})"


def saturate(L: FiniteOML) -> ModalStructure:
    """Attach box(a) = largest central element below a, diamond = dual."""
    z = center(L)
    zs, idx = np.array(z), np.arange(L.n)
    central = np.isin(idx, zs)
    # box(a) is the central element below a with the largest down-set
    size = L.leq[:, zs].sum(axis=0)
    box = zs[np.where(L.leq[zs], size[:, None], -1).argmax(axis=0)]
    diamond = L.neg[box[L.neg]]
    ensure(central[box].all() and L.leq[box, idx].all(), "box(a) is central and below a")
    # diamond really is the least central element above a
    ensure(central[diamond].all() and L.leq[idx, diamond].all(),
           "diamond(a) is central and above a")
    ensure((~L.leq[:, zs] | L.leq[diamond][:, zs]).all(),
           "diamond(a) lies below every central element above a")
    box.setflags(write=False)
    diamond.setflags(write=False)
    M = ModalStructure(lattice=L, box=box, diamond=diamond, central=z)
    failed = [r.name for r in M.axioms.results if not r.passed]
    ensure(not failed, "the saturated box satisfies S1-S8; it fails " + " ".join(failed))
    return M


@dataclass(frozen=True)
class AxiomResult:
    name: str
    statement: str
    passed: bool
    witness: dict | None


@dataclass(frozen=True)
class ModalAxiomReport:
    results: tuple[AxiomResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)


def check_modal_axioms(M: ModalStructure) -> ModalAxiomReport:
    """Evaluate the saturation axioms exhaustively, first witness per axiom.

    The box table may be anything; this reports which axioms it breaks.
    S1 holds by type: every ``FiniteOML`` is audited on entry or built
    by ``product``.  Pairwise axioms run as whole-table comparisons; a
    failing table's first row-major entry is the witness, so witnesses
    are the lexicographically least failing (x, y).
    """
    L, box = M.lattice, M.box
    names = L.names
    idx = np.arange(L.n)
    results = [AxiomResult("S1", "orthomodular lattice axioms", True, None)]

    def report(name, statement, ok):
        if ok.ndim == 0:
            witness = None if bool(ok) else {"x": names[L.one]}
        elif ok.all():
            witness = None
        else:
            where = np.argwhere(~ok)[0]
            witness = {"x": names[int(where[0])]}
            if ok.ndim == 2:
                witness["y"] = names[int(where[1])]
        results.append(AxiomResult(name, statement, witness is None, witness))

    report("S2", "box(x) <= x", L.leq[box, idx])
    report("S3", "box(1) = 1", np.asarray(box[L.one] == L.one))
    report("S4", "box(box(x)) = box(x)", box[box] == box)
    report("S5", "box(x ^ y) = box(x) ^ box(y)",
           box[L.meet] == L.meet[np.ix_(box, box)])
    # transposed so that, like the other tables, it is indexed [x, y]
    report("S6", "y = (y ^ box(x)) v (y ^ ~box(x))", L.commute[:, box].T)
    report("S7", "box(x v box(y)) = box(x) v box(y)",
           box[L.join[:, box]] == L.join[np.ix_(box, box)])
    report("S8", "box(~x v (y ^ x)) <= ~box(x) v box(y)",
           L.leq[box[L.join[L.neg[idx][:, None], L.meet]],
                 L.join[L.neg[box][:, None], box[None, :]]])
    return ModalAxiomReport(results=tuple(results))


@dataclass(frozen=True, eq=False)
class ModalExtension:
    """A saturated host together with the validated embedding into it."""

    base: FiniteOML
    spec: str
    structure: ModalStructure
    embed: tuple[int, ...]

    @property
    def host(self) -> FiniteOML:
        return self.structure.lattice

    def embed_carrier(self, xs) -> tuple[int, ...]:
        return tuple(sorted(self.embed[x] for x in xs))

    def __repr__(self) -> str:
        return f"ModalExtension({self.spec}, base={self.base.n}, host={self.host.n})"


def _validate_embedding(base: FiniteOML, host: FiniteOML, embed) -> tuple[int, ...]:
    embed = tuple(int(e) for e in embed)
    if len(embed) != base.n:
        raise EmbeddingInvalid("shape", (), "embedding must cover every base element")
    for e in embed:
        if not 0 <= e < host.n:
            raise EmbeddingInvalid("range", (e,),
                                   f"embedded index {e} is outside the host lattice")
    emb = np.array(embed)
    for law, broken in (("meet", host.meet[np.ix_(emb, emb)] != emb[base.meet]),
                        ("join", host.join[np.ix_(emb, emb)] != emb[base.join]),
                        ("complement", host.neg[emb] != emb[base.neg])):
        if broken.any():
            w = tuple(base.names[int(v)] for v in np.argwhere(broken)[0])
            where = f" at {w[0]}" if law == "complement" else ""
            raise EmbeddingInvalid(law, w, f"{law} not preserved{where}")
    if len(set(embed)) != base.n:
        raise EmbeddingInvalid("injective", (), "embedding must be injective")
    return embed


def modal_extend(L: FiniteOML, spec: str = "identity",
                 factor: FiniteOML | None = None, embed=None) -> ModalExtension:
    """Build a saturated host around L.

    ``identity`` saturates L itself; ``diagonal:k`` saturates the k-fold
    power with the diagonal embedding; both are embeddings by
    construction.  ``product`` needs an explicit Boolean factor and
    embedding, which very few maps survive; that embedding is checked.
    """
    if spec == "identity":
        host = L
        emb = tuple(range(L.n))
    elif spec.startswith("diagonal:"):
        try:
            k = int(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad diagonal arity in {spec!r}") from None
        if k < 1:
            raise ValueError(f"diagonal arity must be positive, got {k}")
        host = L
        for _ in range(k - 1):
            host = product(host, L)
        emb = tuple(a * sum(L.n ** i for i in range(k)) for a in L.elements)
    elif spec == "product":
        if factor is None or embed is None:
            raise ValueError("product extension needs factor= and embed=")
        host = product(L, factor)
        emb = _validate_embedding(L, host, embed)
    else:
        raise ValueError(f"unknown extension spec {spec!r}")
    return ModalExtension(base=L, spec=spec, structure=saturate(host), embed=emb)


@dataclass(frozen=True, eq=False)
class PossibilitySpace:
    """The central Boolean subalgebra generated by all diamond(embedded) values."""

    extension: ModalExtension
    algebra: BooleanSubalgebra

    def __repr__(self) -> str:
        return f"PossibilitySpace(size={len(self.algebra)})"


def possibility_space(E: ModalExtension) -> PossibilitySpace:
    M = E.structure
    gens = sorted({int(M.diamond[E.embed[p]]) for p in E.base.elements})
    alg = generated_subalgebra(M.lattice, gens)
    ensure(set(alg.carrier) <= set(M.central), "the possibility space lies in the centre")
    return PossibilitySpace(extension=E, algebra=alg)


@dataclass(frozen=True, eq=False)
class PossibilitySection:
    """A two-valued hom on the possibility space."""

    space: PossibilitySpace
    hom: TwoValuedHom

    def value(self, x: int) -> int:
        return self.hom.value(x)

    def __repr__(self) -> str:
        host = self.space.extension.host
        return f"PossibilitySection(true_atom={host.names[self.hom.true_atom]})"


def possibility_sections(S: PossibilitySpace) -> tuple[PossibilitySection, ...]:
    """Every valuation of the possibility space, one per atom."""
    return tuple(PossibilitySection(space=S, hom=h) for h in homs_to_2(S.algebra))


def actualize(E: ModalExtension, W: BooleanSubalgebra, q: int,
              nu: PossibilitySection) -> Section:
    """Turn a possibility valuation with nu(diamond q) = 1 into a context
    valuation over the span of W and the possibility space that makes q
    actual and restricts back to nu.
    """
    M = E.structure
    dia = int(M.diamond[E.embed[q]])
    if q not in W:
        raise NotInW("membership", (E.base.names[q],),
                     f"{E.base.names[q]} is outside the context {W.label()}")
    space = nu.space.algebra
    if nu.hom.value(dia) != 1:
        raise PreconditionPossibility(
            "possibility", (E.base.names[q],),
            f"the chosen valuation gives diamond({E.base.names[q]}) = 0")
    span = generated_subalgebra(
        M.lattice, set(E.embed_carrier(W.carrier)) | set(space.carrier))
    seeds = tuple(nu.hom.ultrafilter().members) + (E.embed[q],)
    lifted = filter_generate(span, seeds)
    ensure(lifted.proper, "the possibility precondition keeps the filter proper")
    hom = extend_to_maximal(lifted).two_valued_hom()
    P = principal_poset(span)
    nu_prime = principal_section(P, P.n - 1, hom)

    ensure(hom.value(E.embed[q]) == 1, "actualize makes q true")
    ensure(hom.restrict(space).true_atom == nu.hom.true_atom, "actualize restricts to nu")
    space_node = P.node_index(space.label())
    for child in P.down(space_node):
        expected = P.restrict_label(space_node, M.lattice.names[nu.hom.true_atom], child)
        ensure(nu_prime.choice_at(child) == expected,
               "the actualized section restricts to nu below the possibility space")
    return nu_prime


def born_extend(E: ModalExtension, s: Section) -> Section:
    """Extend a principal context valuation over the possibility space.

    ``s`` must be a principal section over a context of the base lattice;
    the result is the principal section over the span of the embedded
    context and the possibility space that restricts back to ``s``.
    """
    P_base = s.poset
    if P_base.kind != "lattice" or P_base.host is not E.base:
        raise ValueError("the section must live over the base lattice")
    tops = [w for w in s.domain
            if not any(P_base.leq[w, v] and v != w for v in s.domain)]
    if len(tops) != 1:
        raise ValueError("extension needs a principal section (single top node)")
    w_idx = tops[0]
    f = s.hom_at(w_idx)
    W = P_base.nodes[w_idx].subalg

    M = E.structure
    image = _boolean(M.lattice, [E.embed[a] for a in W.atoms])
    f_image = TwoValuedHom(domain=image, true_atom=E.embed[f.true_atom])
    space = possibility_space(E).algebra
    span = generated_subalgebra(
        M.lattice, set(image.carrier) | set(space.carrier))
    lifted = extend_hom(f_image, span)
    P = principal_poset(span)
    nu_prime = principal_section(P, P.n - 1, lifted)
    for x in W.carrier:
        ensure(lifted.value(E.embed[x]) == f.value(x), "born_extend agrees with the context")
    return nu_prime


def global_actualization_check(E: ModalExtension, tau: Section) -> PossibilitySection:
    """Compress a global section onto the possibility space and verify
    that both agree on every node's overlap with it.

    Conflicting overlap values raise IncompatibleGlobalSection; on a
    lattice with any global section the construction always succeeds.
    """
    P_base = tau.poset
    if P_base.kind != "lattice" or P_base.host is not E.base:
        raise ValueError("the section must live over the base lattice")
    if tuple(tau.domain) != tuple(range(P_base.n)):
        raise ValueError("a global section must cover every node")
    report = check_section(tau)
    if not report.ok:
        v = report.violations[0]
        raise IncompatibleGlobalSection(v.law, v.witness, v.message)

    M = E.structure
    poss = possibility_space(E)
    space = poss.algebra
    space_set = space.member_set
    values: dict[int, int] = {}
    source: dict[int, str] = {}
    for w in tau.domain:
        node = P_base.nodes[w]
        hom = tau.hom_at(w)
        for x in node.subalg.carrier:
            ex = E.embed[x]
            if ex not in space_set:
                continue
            v = hom.value(x)
            if values.get(ex, v) != v:
                raise IncompatibleGlobalSection(
                    "overlap", (M.lattice.names[ex], source[ex], node.label),
                    f"nodes {source[ex]} and {node.label} disagree on "
                    f"{M.lattice.names[ex]}")
            values[ex] = v
            source.setdefault(ex, node.label)

    seeds = [x for x, v in sorted(values.items()) if v == 1]
    seeds += [int(M.lattice.neg[x]) for x, v in sorted(values.items()) if v == 0]
    lifted = filter_generate(space, seeds)
    if not lifted.proper:
        raise IncompatibleGlobalSection(
            "filter", tuple(sorted(values)),
            "the overlap values generate an improper filter")
    hom = extend_to_maximal(lifted).two_valued_hom()
    for x, v in values.items():
        ensure(hom.value(x) == v, "the possibility valuation keeps the overlap values")
    nu = PossibilitySection(space=poss, hom=hom)
    # nodewise comparison: tau and nu agree on every node's overlap
    for w in tau.domain:
        node = P_base.nodes[w]
        hom_w = tau.hom_at(w)
        for x in node.subalg.carrier:
            ex = E.embed[x]
            if ex in space_set:
                ensure(hom_w.value(x) == nu.value(ex),
                       "the global section and nu agree on every node's overlap")
    return nu
