"""Local complexes of groups, Theta and Sigma, across fixtures and all centers."""

from __future__ import annotations

import pytest

from cogkit import groups
from cogkit.complexes import (
    ComplexOfGroups,
    validate_cog,
    validate_cog_morphism,
    validate_morphism_to_group,
)
from cogkit.errors import UnknownObject
from cogkit.local import build_local_cog, build_sigma, build_theta
from cogkit.scwols import is_spanning_tree


def trivial_cog(S):
    triv = groups.cyclic_group(1)
    return ComplexOfGroups(
        base=S,
        group_of={o: triv for o in S.objects},
        psi={m.id: groups.identity_hom(triv) for m in S.morphisms},
        twist={pair: 0 for pair in S.comp},
    )


def test_local_cog_trivial(two_simplex):
    C = trivial_cog(two_simplex)
    for o in two_simplex.objects:
        L = build_local_cog(C, o)
        assert all(g.order == 1 for g in L.cog.group_of.values())
        assert validate_cog(L.cog).ok


def test_local_cog_star_s3(star_s3):
    L = build_local_cog(star_s3, "g")
    star = L.star
    assert set(star.upper.values()) == {(None, "c")}
    [(upper_id, _)] = star.upper.items()
    assert L.cog.group_of[upper_id].order == 2
    assert L.cog.group_of[star.center_id].order == 6
    # lambda_{gamma*c} is the ambient psi_c
    assert L.cog.psi["gc:c"].image == star_s3.psi["c"].image


def test_local_cog_seg23_at_edge_object(seg23):
    L = build_local_cog(seg23, "m")
    star = L.star
    assert not star.upper
    assert set(star.lower.values()) == {"a0", "a1"}
    for oid in star.lower:
        assert L.cog.group_of[oid].order == 1
    assert all(t == 0 for t in L.cog.twist.values())


def test_local_cog_unknown_object(seg23):
    with pytest.raises(UnknownObject):
        build_local_cog(seg23, "nope")


def test_local_cog_valid_everywhere(seg23, star_s3, triangle_cog):
    for C in (seg23, star_s3, triangle_cog):
        for o in C.base.objects:
            L = build_local_cog(C, o)
            assert validate_cog(L.cog).ok


# -- Theta -------------------------------------------------------------------

def test_theta_trivial(two_simplex):
    C = trivial_cog(two_simplex)
    for o in two_simplex.objects:
        theta = build_theta(build_local_cog(C, o))
        assert all(e == 0 for e in theta.phi_edge.values())
        assert validate_morphism_to_group(theta).ok


def test_theta_star_s3(star_s3):
    L = build_local_cog(star_s3, "g")
    theta = build_theta(L)
    [(upper_id, _)] = L.star.upper.items()
    # Theta_c is the inclusion Z/2 -> S3
    assert theta.phi_local[upper_id].image == star_s3.psi["c"].image
    assert all(e == star_s3.group_of["g"].identity for e in theta.phi_edge.values())
    rep = validate_morphism_to_group(theta)
    assert rep.ok and rep.all_injective


def test_theta_reads_nontrivial_twist_verbatim(triangle_cog):
    """The fixture's one nontrivial twist comes back as Theta((c,d))."""
    hot_pair = next(p for p, v in triangle_cog.twist.items() if v == 1)
    c, d = hot_pair
    gamma = triangle_cog.base.tgt(c)
    L = build_local_cog(triangle_cog, gamma)
    theta = build_theta(L)
    mid = next(
        m for m, fam in L.star.mor_family.items() if fam == ("lk_up", None, c, d)
    )
    assert theta.phi_edge[mid] == 1


def test_theta_valid_injective_everywhere(seg23, star_s3, triangle_cog):
    for C in (seg23, star_s3, triangle_cog):
        for o in C.base.objects:
            theta = build_theta(build_local_cog(C, o))
            rep = validate_morphism_to_group(theta)
            assert rep.ok and rep.all_injective, (C.label, o)


def test_star_tree_spans(seg23, star_s3, triangle_cog):
    for C in (seg23, star_s3, triangle_cog):
        for o in C.base.objects:
            L = build_local_cog(C, o)
            tree = L.star_tree()
            assert len(tree) == len(L.star.objects) - 1
            assert is_spanning_tree(L.star, tree)


# -- Sigma -------------------------------------------------------------------

def test_sigma_trivial(two_simplex):
    C = trivial_cog(two_simplex)
    for o in two_simplex.objects:
        sigma = build_sigma(build_local_cog(C, o))
        assert validate_cog_morphism(sigma).ok


def test_sigma_star_s3(star_s3):
    L = build_local_cog(star_s3, "g")
    sigma = build_sigma(L)
    s3 = star_s3.group_of["g"]
    [(upper_id, _)] = L.star.upper.items()
    assert sigma.phi_local[L.star.center_id].image == tuple(range(s3.order))
    assert sigma.phi_local[upper_id].image == (0, 1)  # identity of Z/2
    assert sigma.phi_edge["gc:c"] == s3.identity
    assert validate_cog_morphism(sigma).ok


def test_sigma_reads_ambient_twists(triangle_cog):
    """At an edge object, Sigma(b*c) is the ambient twist g_{b,c}."""
    hot_pair = next(p for p, v in triangle_cog.twist.items() if v == 1)
    b, c = hot_pair  # b: edge->vertex, c: triangle->edge with i(b) = t(c)
    gamma = triangle_cog.base.src(b)
    assert triangle_cog.base.tgt(c) == gamma
    L = build_local_cog(triangle_cog, gamma)
    sigma = build_sigma(L)
    mid = next(
        m for m, fam in L.star.mor_family.items() if fam == ("b_c", None, b, c)
    )
    assert sigma.phi_edge[mid] == 1
    assert validate_cog_morphism(sigma).ok


def test_sigma_valid_everywhere(seg23, star_s3, triangle_cog):
    for C in (seg23, star_s3, triangle_cog):
        for o in C.base.objects:
            sigma = build_sigma(build_local_cog(C, o))
            assert validate_cog_morphism(sigma).ok, (C.label, o)
