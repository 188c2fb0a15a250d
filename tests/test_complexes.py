"""Cocycle validators, morphism validators and the coboundary construction."""

from __future__ import annotations

import dataclasses

from cogkit import groups
from cogkit.complexes import (
    CogMorphism,
    ComplexOfGroups,
    MorphismToGroup,
    coboundary,
    compose_to_group,
    identity_cog_morphism,
    validate_cog,
    validate_cog_morphism,
    validate_morphism_to_group,
)
from cogkit.scwols import Morphism, Scwol


def trivial_cog(S):
    triv = groups.cyclic_group(1)
    return ComplexOfGroups(
        base=S,
        group_of={o: triv for o in S.objects},
        psi={m.id: groups.identity_hom(triv) for m in S.morphisms},
        twist={pair: 0 for pair in S.comp},
        label="TRIV",
    )


# -- validate_cog --------------------------------------------------------

def test_trivial_cog_valid(two_simplex, circle, tripod):
    for S in (two_simplex, circle, tripod):
        assert validate_cog(trivial_cog(S)).ok


def test_seg23_valid(seg23):
    assert validate_cog(seg23).ok


def test_star_s3_valid_pointwise(star_s3):
    assert validate_cog(star_s3).ok
    # pointwise hom-check oracle: the inclusion lands on the chosen transposition
    incl = star_s3.psi["c"]
    s3 = star_s3.group_of["g"]
    assert incl(0) == s3.identity
    assert s3.element_order(incl(1)) == 2


def test_triangle_cog_valid_with_nontrivial_twist(triangle_cog):
    assert validate_cog(triangle_cog).ok
    assert 1 in triangle_cog.twist.values()


def test_noninjective_psi_detected(seg):
    z2 = groups.cyclic_group(2)
    C = ComplexOfGroups(
        base=seg,
        group_of={"m": z2, "v0": z2, "v1": z2},
        psi={
            "a0": groups.trivial_hom(z2, z2),
            "a1": groups.identity_hom(z2),
        },
        twist={},
    )
    rep = validate_cog(C)
    assert not rep.ok
    assert rep.first("NonInjectivePsi").witness == ("a0",)


def test_cocycle_3a_detected(star_s3):
    """Conjugating psi_c by a non-normalizing element breaks nothing by itself;
    breaking 3a needs a composable pair, so build one over the 2-simplex."""
    s3 = groups.symmetric_group(3)
    base = star_s3.base
    # star_s3 has no composable pairs; validate twist bookkeeping instead
    C = ComplexOfGroups(
        base=base,
        group_of=dict(star_s3.group_of),
        psi=dict(star_s3.psi),
        twist={("c", "c"): 0},
    )
    rep = validate_cog(C)
    assert not rep.ok and rep.first("TwistWrongGroup") is not None


def test_cocycle_3a_witness(two_simplex):
    s3 = groups.symmetric_group(3)
    group_of = {o: s3 for o in two_simplex.objects}
    psi = {m.id: groups.identity_hom(s3) for m in two_simplex.morphisms}
    twist = {pair: s3.identity for pair in two_simplex.comp}
    bad_pair = sorted(two_simplex.comp)[0]
    noncentral = next(x for x in s3.elements() if s3.element_order(x) == 2)
    twist = dict(twist)
    twist[bad_pair] = noncentral
    C = ComplexOfGroups(base=two_simplex, group_of=group_of, psi=psi, twist=twist)
    rep = validate_cog(C)
    assert not rep.ok
    fail = rep.first("Cocycle2aFail")
    assert fail is not None and fail.witness[:2] == bad_pair


def test_cocycle_3b_witness():
    """Height-3 chain poset has a composable triple; break 3b there."""
    from cogkit.scwols import scwol_from_poset

    S = scwol_from_poset({"w": {"x", "y", "z"}, "x": {"y", "z"}, "y": {"z"}, "z": set()})
    z3 = groups.cyclic_group(3)
    group_of = {o: z3 for o in S.objects}
    psi = {m.id: groups.identity_hom(z3) for m in S.morphisms}
    twist = {pair: 0 for pair in S.comp}
    C = ComplexOfGroups(base=S, group_of=group_of, psi=psi, twist=twist)
    assert validate_cog(C).ok
    # abelian + identity homs: 3a cannot fail, 3b pins the triple sum
    bad = dict(twist)
    bad[("y>z", "x>y")] = 1
    C2 = ComplexOfGroups(base=S, group_of=group_of, psi=psi, twist=bad)
    rep = validate_cog(C2)
    assert not rep.ok
    assert rep.first("Cocycle2bFail") is not None


# -- morphisms -------------------------------------------------------------

def test_identity_cog_morphism_valid(seg23, star_s3, triangle_cog):
    for C in (seg23, star_s3, triangle_cog):
        assert validate_cog_morphism(identity_cog_morphism(C)).ok


def test_perturbed_edge_element_invalid(triangle_cog):
    """Perturbing one phi(a) by a non-central element breaks condition (2).

    Z/2 is abelian, so condition (1) survives any perturbation; use the
    composite bookkeeping instead: perturbing phi on a morphism that occurs
    in a composable pair breaks (2).
    """
    ident = identity_cog_morphism(triangle_cog)
    (a, b), ab = sorted(triangle_cog.base.comp.items())[0]
    phi_edge = dict(ident.phi_edge)
    phi_edge[ab] = 1 - phi_edge[ab]
    bad = CogMorphism(
        source=triangle_cog,
        target=triangle_cog,
        f=ident.f,
        phi_local=ident.phi_local,
        phi_edge=phi_edge,
    )
    rep = validate_cog_morphism(bad)
    assert not rep.ok
    assert rep.first("Morphism2Fail") is not None


def test_perturbed_noncentral_condition1(two_simplex):
    s3 = groups.symmetric_group(3)
    group_of = {o: s3 for o in two_simplex.objects}
    psi = {m.id: groups.identity_hom(s3) for m in two_simplex.morphisms}
    twist = {pair: s3.identity for pair in two_simplex.comp}
    C = ComplexOfGroups(base=two_simplex, group_of=group_of, psi=psi, twist=twist)
    ident = identity_cog_morphism(C)
    noncentral = next(x for x in s3.elements() if s3.element_order(x) == 2)
    phi_edge = dict(ident.phi_edge)
    first = sorted(phi_edge)[0]
    phi_edge[first] = noncentral
    bad = CogMorphism(source=C, target=C, f=ident.f, phi_local=ident.phi_local, phi_edge=phi_edge)
    rep = validate_cog_morphism(bad)
    assert not rep.ok
    assert rep.first("Morphism1Fail") is not None


def test_morphism_to_group_trivial():
    S = Scwol(["x"], [], {})
    C = trivial_cog(S)
    triv = groups.cyclic_group(1)
    phi = MorphismToGroup(
        source=C,
        target=triv,
        phi_local={"x": groups.identity_hom(triv)},
        phi_edge={},
    )
    rep = validate_morphism_to_group(phi)
    assert rep.ok and rep.all_injective


def test_seg23_to_z6_valid_injective(seg23_to_z6):
    rep = validate_morphism_to_group(seg23_to_z6)
    assert rep.ok
    assert rep.all_injective
    assert rep.injective == {"v0": True, "v1": True, "m": True}


def test_morphism_to_group_condition2_detected(triangle_cog):
    z2 = groups.cyclic_group(2)
    phi_local = {o: groups.identity_hom(z2) for o in triangle_cog.base.objects}
    phi_edge = {m.id: 0 for m in triangle_cog.base.morphisms}
    phi = MorphismToGroup(source=triangle_cog, target=z2, phi_local=phi_local, phi_edge=phi_edge)
    # the nontrivial twist makes phi_t(h_{a,b}) phi(ab) != phi(a)phi(b)
    rep = validate_morphism_to_group(phi)
    assert not rep.ok
    assert rep.validation.first("Morphism2Fail") is not None



def test_morphism_to_group_failure_witnesses(seg23, seg23_to_z6, star_s3, triangle_cog):
    """Each failure code with its witness; a map into the wrong group or an
    edge element outside G leaves the injectivity report empty."""

    def found(phi):
        rep = validate_morphism_to_group(phi)
        return [(f.code, f.witness) for f in rep.validation.failures], rep.injective

    z3 = groups.cyclic_group(3)
    off_group = dataclasses.replace(
        seg23_to_z6,
        phi_local={**seg23_to_z6.phi_local, "v1": groups.trivial_hom(seg23.group_of["v1"], z3)},
    )
    assert found(off_group) == ([("LocalHomWrongGroups", ("v1",))], {})
    off_range = dataclasses.replace(seg23_to_z6, phi_edge={**seg23_to_z6.phi_edge, "a1": 6})
    assert found(off_range) == ([("EdgeElementWrongGroup", ("a1",))], {})
    # Ad(phi(c)) moves the transposition of G_m unless phi(c) centralizes it
    s3 = star_s3.group_of["g"]
    law1 = MorphismToGroup(
        source=star_s3,
        target=s3,
        phi_local={"g": groups.identity_hom(s3), "m": star_s3.psi["c"]},
        phi_edge={"c": 2},
    )
    assert found(law1) == ([("Morphism1Fail", ("c", 1))], {"g": True, "m": True})
    z2 = groups.cyclic_group(2)
    law2 = MorphismToGroup(
        source=triangle_cog,
        target=z2,
        phi_local={o: groups.identity_hom(z2) for o in triangle_cog.base.objects},
        phi_edge={m.id: 0 for m in triangle_cog.base.morphisms},
    )
    failures, injective = found(law2)
    assert failures == [("Morphism2Fail", ("p.q>p", "p.q.r>p.q"))] and all(injective.values())


# -- coboundary -------------------------------------------------------------

def test_coboundary_identity_elements(star_s3):
    g = {m.id: star_s3.group_of[m.t].identity for m in star_s3.base.morphisms}
    newC, iso = coboundary(star_s3, g)
    assert newC.twist == star_s3.twist
    for m in star_s3.base.morphisms:
        assert newC.psi[m.id].image == star_s3.psi[m.id].image
    assert validate_cog_morphism(iso).ok


def test_coboundary_abelian_formula(triangle_cog):
    """Abelian local groups: homs unchanged, twists shifted by the coboundary."""
    S = triangle_cog.base
    z2 = triangle_cog.group_of[S.objects[0]]
    g = {m.id: (1 if m.id.startswith("p.q>") else 0) for m in S.morphisms}
    newC, iso = coboundary(triangle_cog, g)
    for m in S.morphisms:
        assert newC.psi[m.id].image == triangle_cog.psi[m.id].image
    for (a, b), ab in S.comp.items():
        # solved formula specialized to abelian groups
        expect = z2.word([z2.inv[g[b]], z2.inv[g[a]], triangle_cog.twist[(a, b)], g[ab]])
        assert newC.twist[(a, b)] == expect
    assert validate_cog(newC).ok


def test_coboundary_round_trip(star_s3, triangle_cog, seg23):
    import random

    rng = random.Random(3)
    for C in (star_s3, triangle_cog, seg23):
        g = {m.id: rng.randrange(C.group_of[m.t].order) for m in C.base.morphisms}
        newC, iso = coboundary(C, g)
        assert validate_cog(newC).ok and validate_cog_morphism(iso).ok
        ginv = {m.id: C.group_of[m.t].inv[g[m.id]] for m in C.base.morphisms}
        back, _ = coboundary(newC, ginv)
        assert back.twist == C.twist
        for m in C.base.morphisms:
            assert back.psi[m.id].image == C.psi[m.id].image


# -- composition contract ---------------------------------------------------

def test_compose_identity_then_to_group(seg23, seg23_to_z6):
    comp = compose_to_group(seg23_to_z6, identity_cog_morphism(seg23))
    rep = validate_morphism_to_group(comp)
    assert rep.ok
    for o in seg23.base.objects:
        assert comp.phi_local[o].image == seg23_to_z6.phi_local[o].image


def test_compose_coboundary_then_to_group(seg23, seg23_to_z6):
    """theta . (inverse coboundary iso) is a valid morphism on the twisted complex."""
    import random

    rng = random.Random(5)
    g = {m.id: rng.randrange(seg23.group_of[m.t].order) for m in seg23.base.morphisms}
    newC, iso = coboundary(seg23, g)
    ginv = {m.id: seg23.group_of[m.t].inv[g[m.id]] for m in seg23.base.morphisms}
    _, iso_back = coboundary(newC, ginv)
    comp = compose_to_group(seg23_to_z6, iso_back)
    assert validate_morphism_to_group(comp).ok
