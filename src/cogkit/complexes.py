"""Complexes of groups over scwols and their morphisms.

A complex of groups assigns a local group to each object, an injective hom
``psi_a: G_i(a) -> G_t(a)`` to each morphism and a twisting element
``g_{a,b} in G_t(a)`` to each composable pair, subject to

    (3a)  Ad(g_{a,b}) psi_ab = psi_a psi_b
    (3b)  psi_a(g_{b,c}) g_{a,bc} = g_{a,b} g_{ab,c}

All validators are exhaustive over elements, pairs and triples; witnesses are
reported with the least index, never sampled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import groups
from .groups import FiniteGroup, GroupHom
from .scwols import (
    Failure,
    Scwol,
    ScwolMorphism,
    ValidationReport,
    chains,
    extend_chains,
    identity_scwol_morphism,
    validate_scwol_morphism,
)


@dataclass(frozen=True)
class ComplexOfGroups:
    base: Scwol
    group_of: dict[str, FiniteGroup]
    psi: dict[str, GroupHom]
    twist: dict[tuple[str, str], int]
    label: str = field(default="G(Y)", compare=False)

    def __repr__(self) -> str:
        return f"ComplexOfGroups({self.label!r} over {self.base.label!r})"


def validate_cog(C: ComplexOfGroups) -> ValidationReport:
    """Exhaustive check of injectivity and both cocycle conditions."""
    S = C.base
    failures: list[Failure] = []
    for o in S.objects:
        if o not in C.group_of:
            failures.append(Failure("MissingGroup", (o,), f"object {o!r} has no local group"))
    for m in S.morphisms:
        h = C.psi.get(m.id)
        if h is None:
            failures.append(Failure("MissingPsi", (m.id,), f"morphism {m.id!r} has no hom"))
            continue
        if h.source != C.group_of.get(m.i) or h.target != C.group_of.get(m.t):
            failures.append(
                Failure("PsiWrongGroups", (m.id,), f"psi[{m.id!r}] does not map G_i(a) -> G_t(a)")
            )
        elif not groups.is_injective(h):
            failures.append(Failure("NonInjectivePsi", (m.id,), f"psi[{m.id!r}] is not injective"))
    if failures:
        return ValidationReport(False, tuple(failures))

    pairs = chains(S, 2)
    for pair in pairs:
        if pair not in C.twist:
            failures.append(Failure("TwistWrongGroup", pair, f"pair {pair} has no twisting element"))
            continue
        a, b = pair
        g = C.twist[pair]
        Gt = C.group_of[S.tgt(a)]
        if not 0 <= g < Gt.order:
            failures.append(
                Failure("TwistWrongGroup", pair, f"twist at {pair} is not an element of G_t(a)")
            )
    for pair in C.twist:
        if pair not in S.comp:
            failures.append(Failure("TwistWrongGroup", pair, f"twist given on non-composable {pair}"))
    if failures:
        return ValidationReport(False, tuple(failures))

    for a, b in pairs:
        ab = S.comp[(a, b)]
        g = C.twist[(a, b)]
        Gt = C.group_of[S.tgt(a)]
        psi_a, psi_b, psi_ab = C.psi[a], C.psi[b], C.psi[ab]
        for x in C.group_of[S.src(b)].elements():
            lhs = Gt.conj(g, psi_ab(x))
            rhs = psi_a(psi_b(x))
            if lhs != rhs:
                failures.append(
                    Failure(
                        "Cocycle2aFail",
                        (a, b, x),
                        f"Ad(g_{{a,b}})psi_ab != psi_a psi_b at pair {(a, b)}, element {x}",
                    )
                )
                break
    for a, b, c in extend_chains(S, pairs):
        ab = S.comp[(a, b)]
        bc = S.comp[(b, c)]
        Gt = C.group_of[S.tgt(a)]
        lhs = Gt.mul(C.psi[a](C.twist[(b, c)]), C.twist[(a, bc)])
        rhs = Gt.mul(C.twist[(a, b)], C.twist[(ab, c)])
        if lhs != rhs:
            failures.append(
                Failure(
                    "Cocycle2bFail",
                    (a, b, c),
                    f"psi_a(g_{{b,c}}) g_{{a,bc}} != g_{{a,b}} g_{{ab,c}} at triple {(a, b, c)}",
                )
            )
    return ValidationReport(not failures, tuple(failures))


# -- morphisms of complexes of groups ---------------------------------------

@dataclass(frozen=True)
class CogMorphism:
    """Local homs plus one target element per morphism, over a scwol map."""

    source: ComplexOfGroups
    target: ComplexOfGroups
    f: ScwolMorphism
    phi_local: dict[str, GroupHom]
    phi_edge: dict[str, int]


def validate_cog_morphism(phi: CogMorphism) -> ValidationReport:
    """Check functoriality of the underlying map and both morphism laws.

    Non-degeneracy of the underlying scwol map is *not* required: the star
    projection that carries the canonical morphism into the ambient complex
    is an honest functor but misses outgoing morphisms in general.
    """
    H, G = phi.source, phi.target
    Y, X = H.base, G.base
    base = validate_scwol_morphism(phi.f)
    failures: list[Failure] = list(base.failures)
    for o in Y.objects:
        h = phi.phi_local.get(o)
        if h is None or h.source != H.group_of[o] or h.target != G.group_of[phi.f.obj(o)]:
            failures.append(
                Failure("LocalHomWrongGroups", (o,), f"phi_local[{o!r}] does not map H_o -> G_f(o)")
            )
    for m in Y.morphisms:
        e = phi.phi_edge.get(m.id)
        Gt = G.group_of[X.tgt(phi.f.mor(m.id))]
        if e is None or not 0 <= e < Gt.order:
            failures.append(
                Failure("EdgeElementWrongGroup", (m.id,), f"phi({m.id!r}) is not in G_t(f(a))")
            )
    if failures:
        return ValidationReport(False, tuple(failures))

    for m in Y.morphisms:
        a = m.id
        fa = phi.f.mor(a)
        Gt = G.group_of[X.tgt(fa)]
        e = phi.phi_edge[a]
        psi_fa = G.psi[fa]
        phi_i = phi.phi_local[m.i]
        phi_t = phi.phi_local[m.t]
        xi_a = H.psi[a]
        for x in H.group_of[m.i].elements():
            lhs = Gt.conj(e, psi_fa(phi_i(x)))
            rhs = phi_t(xi_a(x))
            if lhs != rhs:
                failures.append(
                    Failure(
                        "Morphism1Fail",
                        (a, x),
                        f"Ad(phi(a))psi_f(a)phi_i != phi_t psi_a at morphism {a!r}, element {x}",
                    )
                )
                break
    for (a, b), ab in sorted(Y.comp.items()):
        fa, fb = phi.f.mor(a), phi.f.mor(b)
        Gt = G.group_of[X.tgt(fa)]
        lhs = Gt.mul(phi.phi_local[Y.tgt(a)](H.twist[(a, b)]), phi.phi_edge[ab])
        rhs = Gt.word([phi.phi_edge[a], G.psi[fa](phi.phi_edge[b]), G.twist[(fa, fb)]])
        if lhs != rhs:
            failures.append(
                Failure(
                    "Morphism2Fail",
                    (a, b),
                    f"phi_t(g_{{a,b}})phi(ab) != phi(a)psi_f(a)(phi(b))g_{{f(a),f(b)}} at {(a, b)}",
                )
            )
    return ValidationReport(not failures, tuple(failures))


def identity_cog_morphism(C: ComplexOfGroups) -> CogMorphism:
    return CogMorphism(
        source=C,
        target=C,
        f=identity_scwol_morphism(C.base),
        phi_local={o: groups.identity_hom(C.group_of[o]) for o in C.base.objects},
        phi_edge={m.id: C.group_of[m.t].identity for m in C.base.morphisms},
    )


# -- morphisms to a group -----------------------------------------------------

@dataclass(frozen=True)
class MorphismToGroup:
    source: ComplexOfGroups
    target: FiniteGroup
    phi_local: dict[str, GroupHom]
    phi_edge: dict[str, int]


@dataclass(frozen=True)
class MorphismToGroupReport:
    validation: ValidationReport
    injective: dict[str, bool]

    @property
    def ok(self) -> bool:
        return self.validation.ok

    @property
    def all_injective(self) -> bool:
        return all(self.injective.values())


def _constant_complex(Y: Scwol, G: FiniteGroup) -> ComplexOfGroups:
    """G on every object of Y, identity homs and trivial twists."""
    ident = groups.identity_hom(G)
    return ComplexOfGroups(
        base=Y,
        group_of={o: G for o in Y.objects},
        psi={m.id: ident for m in Y.morphisms},
        twist={pair: G.identity for pair in Y.comp},
        label=G.label,
    )


def validate_morphism_to_group(phi: MorphismToGroup) -> MorphismToGroupReport:
    """Check both laws of a morphism to a group; report local injectivity.

    A morphism to G is a morphism, over the identity of Y, into the constant
    complex of G, whose laws are exactly those ``validate_cog_morphism``
    checks.
    """
    Y = phi.source.base
    as_cog = CogMorphism(
        source=phi.source,
        target=_constant_complex(Y, phi.target),
        f=identity_scwol_morphism(Y),
        phi_local=phi.phi_local,
        phi_edge=phi.phi_edge,
    )
    validation = validate_cog_morphism(as_cog)
    if validation.codes() & {"LocalHomWrongGroups", "EdgeElementWrongGroup"}:
        return MorphismToGroupReport(validation, {})
    injective = {o: groups.is_injective(phi.phi_local[o]) for o in Y.objects}
    return MorphismToGroupReport(validation, injective)


def compose_to_group(theta: MorphismToGroup, phi: CogMorphism) -> MorphismToGroup:
    """The morphism-to-group (theta . phi) on the source of phi.

    Local maps compose; edge elements combine as theta_t(f(a))(phi(a)) * theta(f(a)).
    """
    if theta.source is not phi.target and theta.source != phi.target:
        raise ValueError("theta must live on the target complex of phi")
    Y = phi.source.base
    X = phi.target.base
    G = theta.target
    phi_local = {
        o: groups.compose_homs(theta.phi_local[phi.f.obj(o)], phi.phi_local[o]) for o in Y.objects
    }
    phi_edge = {}
    for m in Y.morphisms:
        fa = phi.f.mor(m.id)
        phi_edge[m.id] = G.mul(theta.phi_local[X.tgt(fa)](phi.phi_edge[m.id]), theta.phi_edge[fa])
    return MorphismToGroup(source=phi.source, target=G, phi_local=phi_local, phi_edge=phi_edge)


# -- coboundary ---------------------------------------------------------------

def coboundary_complex(C: ComplexOfGroups, g: dict[str, int]) -> ComplexOfGroups:
    """Twist C by elements g_a in G_t(a).

    New homs are psi'_a = Ad(g_a^-1) psi_a.  The printed twist formula of the
    source text drops a factor, so the new twists are solved from morphism
    condition (2) with phi_sigma = id and phi(a) = g_a:

        g'_{a,b} = psi'_a(g_b^-1) * g_a^-1 * g_{a,b} * g_{ab}

    The result is not re-validated: for a valid C both cocycle conditions
    and both morphism laws hold by construction; the tests check them.
    """
    S = C.base
    for m in S.morphisms:
        Gt = C.group_of[m.t]
        if not 0 <= g.get(m.id, -1) < Gt.order:
            raise ValueError(f"coboundary element for {m.id!r} missing or out of range")
    new_psi = {}
    for m in S.morphisms:
        Gt = C.group_of[m.t]
        ga_inv = Gt.inv[g[m.id]]
        old = C.psi[m.id]
        conj = GroupHom(
            source=old.source,
            target=old.target,
            image=tuple(Gt.conj(ga_inv, old(x)) for x in old.source.elements()),
        )
        new_psi[m.id] = conj
    new_twist = {}
    for (a, b), ab in S.comp.items():
        Gt = C.group_of[S.tgt(a)]
        Gi = C.group_of[S.src(a)]
        new_twist[(a, b)] = Gt.word(
            [new_psi[a](Gi.inv[g[b]]), Gt.inv[g[a]], C.twist[(a, b)], g[ab]]
        )
    return ComplexOfGroups(
        base=S, group_of=dict(C.group_of), psi=new_psi, twist=new_twist, label=f"{C.label}~"
    )


def coboundary(C: ComplexOfGroups, g: dict[str, int]) -> tuple[ComplexOfGroups, CogMorphism]:
    """Twist C by elements g_a in G_t(a) (``coboundary_complex``); returns
    the new complex and the iso: identity local homs, and g_a on each a."""
    newC = coboundary_complex(C, g)
    S = C.base
    iso = CogMorphism(
        source=C,
        target=newC,
        f=identity_scwol_morphism(S),
        phi_local={o: groups.identity_hom(C.group_of[o]) for o in S.objects},
        phi_edge={m.id: g[m.id] for m in S.morphisms},
    )
    return newC, iso
