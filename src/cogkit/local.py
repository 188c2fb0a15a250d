"""The local complex of groups over an object, with its morphisms to the
local group (Theta) and into the ambient complex (Sigma).

Over the star of gamma the local data is assembled family by family:

    local groups     G_i(c) on upper-link objects, G_gamma on the center
                     and on every lower-link object;
    homs             psi_d on upper-link edges, psi_c on gamma*c and b*c,
                     the identity of G_gamma on b*gamma and lower-link edges;
    twists           g_{d,d'} / g_{c,d} on the three upper families,
                     the identity on the four remaining families.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import groups
from .complexes import CogMorphism, ComplexOfGroups, MorphismToGroup
from .groups import FiniteGroup, GroupHom
from .scwols import UPPER_SOURCED, StarScwol, star_projection, star_scwol


@dataclass(frozen=True)
class LocalCog:
    star: StarScwol
    cog: ComplexOfGroups
    gamma: str
    parent: ComplexOfGroups

    @property
    def center_group(self) -> FiniteGroup:
        return self.parent.group_of[self.gamma]

    def star_tree(self) -> tuple[str, ...]:
        """The spanning tree {b*gamma} + {gamma*c} used by Theta.  It spans by
        construction: one gamma*c joins each upper object to the center, and
        one b*gamma joins the center to each lower object."""
        return tuple(sorted(
            mid for mid, fam in self.star.mor_family.items() if fam[0] in ("gamma_c", "b_gamma")
        ))


def build_local_cog(C: ComplexOfGroups, gamma: str) -> LocalCog:
    """Assemble the local complex of groups over gamma."""
    S = C.base
    star = star_scwol(S, gamma)
    G_gamma = C.group_of[gamma]
    ident = groups.identity_hom(G_gamma)

    group_of: dict[str, FiniteGroup] = {star.center_id: G_gamma}
    for oid, (_, c) in star.upper.items():
        group_of[oid] = C.group_of[S.src(c)]
    for oid in star.lower:
        group_of[oid] = G_gamma

    # psi_d on (c, d), psi_c on gamma*c and b*c: the last part of the family
    lam: dict[str, GroupHom] = {
        mid: C.psi[parts[-1]] if kind in UPPER_SOURCED else ident
        for mid, (kind, _, *parts) in star.mor_family.items()
    }

    # g_{x,d'} when v = (c', d') and x is the last part of u, else trivial
    twist: dict[tuple[str, str], int] = {}
    for (u, v) in star.comp:
        fu, fv = star.mor_family[u], star.mor_family[v]
        twist[(u, v)] = C.twist[(fu[-1], fv[-1])] if fv[0] == "lk_up" else G_gamma.identity

    cog = ComplexOfGroups(
        base=star, group_of=group_of, psi=lam, twist=twist, label=f"L({S.label}({gamma}))"
    )
    return LocalCog(star=star, cog=cog, gamma=gamma, parent=C)


def build_theta(L: LocalCog) -> MorphismToGroup:
    """The morphism from the local complex to its center group.

    In the local twists l it reads

        Theta((c,d))   = l_{gamma*c, (c,d)}
        Theta(b*c)     = l_{b*gamma, gamma*c}^-1
        Theta((a,b))   = l_{(a,b), b*gamma}
        Theta(gamma*c) = Theta(b*gamma) = e

    and L's twist on a pair is g_{c,d} when its second factor is the
    upper-link edge (c, d) and e on every other pair, so Theta is read from
    the ambient data: psi_c on the upper object over c and identities
    elsewhere, g_{c,d} on the upper-link edge (c, d) and e elsewhere.
    """
    star, C, G = L.star, L.parent, L.center_group
    ident = groups.identity_hom(G)
    phi_local: dict[str, GroupHom] = {star.center_id: ident}
    for oid, (_, c) in star.upper.items():
        phi_local[oid] = C.psi[c]
    for oid in star.lower:
        phi_local[oid] = ident
    phi_edge = {
        mid: C.twist[(parts[0], parts[1])] if kind == "lk_up" else G.identity
        for mid, (kind, _, *parts) in star.mor_family.items()
    }
    return MorphismToGroup(source=L.cog, target=G, phi_local=phi_local, phi_edge=phi_edge)


def build_sigma(L: LocalCog) -> CogMorphism:
    """The morphism from the local complex into the ambient complex.

    Over the star projection: identities on upper objects and the center,
    psi_b on lower objects; edge elements are the ambient twists g_{b,c} on
    b*c, their inverses g_{a,b}^-1 on lower-link edges, identity elsewhere.
    """
    star = L.star
    C = L.parent
    S = C.base
    h = star_projection(star)
    phi_local: dict[str, GroupHom] = {
        star.center_id: groups.identity_hom(L.center_group)
    }
    for oid, (_, c) in star.upper.items():
        phi_local[oid] = groups.identity_hom(C.group_of[S.src(c)])
    for oid, b in star.lower.items():
        phi_local[oid] = C.psi[b]

    phi_edge: dict[str, int] = {}
    for mid, (kind, _, *parts) in star.mor_family.items():
        if kind == "b_c":
            phi_edge[mid] = C.twist[(parts[0], parts[1])]
        elif kind == "lk_dn":
            a, b = parts
            Gt = C.group_of[S.tgt(S.comp[(a, b)])]
            phi_edge[mid] = Gt.inv[C.twist[(a, b)]]
        else:
            Gt = C.group_of[h.obj(star.tgt(mid))]
            phi_edge[mid] = Gt.identity
    return CogMorphism(source=L.cog, target=C, f=h, phi_local=phi_local, phi_edge=phi_edge)
