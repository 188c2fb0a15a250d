"""Immersion checks and the coset-criterion equivalence."""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path

from cogkit import groups
from cogkit.corpus import build_morphism_corpus
from cogkit.complexes import (
    CogMorphism,
    ComplexOfGroups,
    MorphismToGroup,
    identity_cog_morphism,
    validate_cog_morphism,
)
from cogkit.develop import build_local_development, local_dev_morphism_injectivity
from cogkit.immersions import (
    ImmersionReport,
    check_coset_condition,
    check_developability_candidate,
    check_immersion,
)
from cogkit.io import Workspace
from cogkit.local import build_local_cog, build_sigma, build_theta
from cogkit.scwols import (
    Morphism,
    Scwol,
    ScwolMorphism,
    identity_scwol_morphism,
    validate_scwol,
)


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def trivial_cog(S):
    triv = groups.cyclic_group(1)
    return ComplexOfGroups(
        base=S,
        group_of={o: triv for o in S.objects},
        psi={m.id: groups.identity_hom(triv) for m in S.morphisms},
        twist={pair: 0 for pair in S.comp},
    )


def test_identity_is_immersion(seg23, star_s3, triangle_cog):
    for C in (seg23, star_s3, triangle_cog):
        rep = check_immersion(identity_cog_morphism(C))
        assert rep.overall
        assert rep.metric == "not evaluated"


def test_sigma_is_immersion_on_fixtures(seg23, star_s3, triangle_cog):
    for C in (seg23, star_s3, triangle_cog):
        for gamma in C.base.objects:
            sigma = build_sigma(build_local_cog(C, gamma))
            rep = check_immersion(sigma)
            assert rep.overall, (C.label, gamma)


def test_sigma_star_s3_coset_bijection(star_s3):
    """One edge; three Z/2-cosets map bijectively onto three cosets."""
    L = build_local_cog(star_s3, "g")
    sigma = build_sigma(L)
    verdicts = check_coset_condition(sigma)
    key = next(k for k in verdicts if k[0] == "c")
    assert verdicts[key] is True
    # cross-check by hand: the domain is [S3:Z2] = 3 cosets, image likewise
    s3 = star_s3.group_of["g"]
    sub = groups.hom_image(star_s3.psi["c"])
    assert len(groups.cosets(s3, sub)) == 3


def test_collapse_fails_algebraic():
    base = Scwol(["g", "m"], [Morphism("c", "m", "g")], {}, label="STAR")
    z2 = groups.cyclic_group(2)
    triv = groups.cyclic_group(1)
    H = ComplexOfGroups(
        base=base,
        group_of={"g": z2, "m": triv},
        psi={"c": groups.make_hom(triv, z2, [0])},
        twist={},
    )
    Gx = trivial_cog(base)
    phi = CogMorphism(
        source=H,
        target=Gx,
        f=identity_scwol_morphism(base),
        phi_local={"g": groups.trivial_hom(z2, triv), "m": groups.identity_hom(triv)},
        phi_edge={"c": 0},
    )
    rep = check_immersion(phi)
    assert rep.algebraic["g"] is False
    assert not rep.overall


def folding_morphism():
    """Two segments folded onto one: the classic coset-condition collision."""
    Y = Scwol(
        ["m1", "m2", "u", "w"],
        [
            Morphism("a1", "m1", "u"),
            Morphism("b1", "m1", "w"),
            Morphism("a2", "m2", "u"),
            Morphism("b2", "m2", "w"),
        ],
        {},
        label="TWOSEG",
    )
    X = Scwol(
        ["m", "u", "w"],
        [Morphism("a", "m", "u"), Morphism("b", "m", "w")],
        {},
        label="SEG",
    )
    f = ScwolMorphism(
        source=Y,
        target=X,
        on_objects={"m1": "m", "m2": "m", "u": "u", "w": "w"},
        on_morphisms={"a1": "a", "a2": "a", "b1": "b", "b2": "b"},
    )
    HY = trivial_cog(Y)
    GX = trivial_cog(X)
    triv = groups.cyclic_group(1)
    phi = CogMorphism(
        source=HY,
        target=GX,
        f=f,
        phi_local={o: groups.identity_hom(triv) for o in Y.objects},
        phi_edge={m.id: 0 for m in Y.morphisms},
    )
    return phi


def test_folding_collision_reported():
    phi = folding_morphism()
    assert validate_cog_morphism(phi).ok
    verdicts = check_coset_condition(phi)
    assert verdicts[("a", "u")] is False
    assert verdicts[("b", "w")] is False
    rep = check_immersion(phi)
    # algebraic holds (trivial groups are injective), geometric fails upstairs
    assert all(rep.algebraic.values())
    assert rep.geometric["u"]["upper_link"] is False
    assert not rep.overall


def oracle_report(phi: CogMorphism) -> ImmersionReport:
    """The report read off Phi_sigma between built local developments, with
    each coset image taken as the least element of its coset."""
    H, Gx = phi.source, phi.target
    Y, X = H.base, Gx.base
    targets = {}
    geometric = {}
    for sigma in sorted(Y.objects):
        fs = phi.f.obj(sigma)
        if fs not in targets:
            targets[fs] = build_local_development(Gx, fs)
        geometric[sigma] = local_dev_morphism_injectivity(phi, sigma, tgt=targets[fs])
    images = defaultdict(list)
    for m in Y.morphisms:
        j = phi.f.mor(m.id)
        G = Gx.group_of[X.tgt(j)]
        sub = groups.hom_image(Gx.psi[j])
        for r in groups.cosets(H.group_of[m.t], groups.hom_image(H.psi[m.id])).reps:
            g = G.mul(phi.phi_local[m.t](r), phi.phi_edge[m.id])
            images[(j, m.t)].append(min(G.mul(g, h) for h in sub))
    return ImmersionReport(
        algebraic={o: groups.is_injective(phi.phi_local[o]) for o in Y.objects},
        geometric=geometric,
        coset={key: len(set(reps)) == len(reps) for key, reps in images.items()},
    )


def fixture_morphisms(*cogs):
    """The folding, and the identity and every Sigma of each given complex and
    of each complex in ``fixtures/``."""
    ws = Workspace.load(FIXTURES)
    cogs = [*cogs, *(ws.cog(n) for n, d in ws.documents.items() if d["schema"].startswith("cog/"))]
    morphisms = [folding_morphism()]
    for C in cogs:
        morphisms.append(identity_cog_morphism(C))
        for gamma in sorted(C.base.objects):
            morphisms.append(build_sigma(build_local_cog(C, gamma)))
    return morphisms


def test_coset_condition_equals_upper_link_injectivity(seg23, star_s3, triangle_cog):
    """Executable coset-criterion equivalence on fixtures and the folding,
    against the upper-link injectivity of the built Phi_sigma."""
    for phi in fixture_morphisms(seg23, star_s3, triangle_cog):
        rep = check_immersion(phi)
        assert rep.coset == check_coset_condition(phi)
        for sigma in phi.source.base.objects:
            oracle = local_dev_morphism_injectivity(phi, sigma)
            assert oracle["upper_link"] == rep.coset_verdict_at(sigma), sigma


def test_check_immersion_equals_local_development_oracle(seg23, star_s3, triangle_cog):
    """Every report field equals the one built from local developments, on
    the first 200 corpus morphisms (a quarter of them foldings) and on the
    Sigmas of every fixture center."""
    morphisms = build_morphism_corpus(seed=411, count=200)
    morphisms += fixture_morphisms(seg23, star_s3, triangle_cog)
    negatives = 0
    for phi in morphisms:
        rep = check_immersion(phi)
        assert rep == oracle_report(phi), phi.source.label
        negatives += not rep.overall
    assert negatives > 0


# -- one collision per star family: trivial groups, every phi_edge = 0 -------

def trivial_fold(Y: Scwol, X: Scwol, on_objects, on_morphisms) -> CogMorphism:
    assert validate_scwol(Y).ok and validate_scwol(X).ok
    triv = groups.cyclic_group(1)
    phi = CogMorphism(
        source=trivial_cog(Y),
        target=trivial_cog(X),
        f=ScwolMorphism(source=Y, target=X, on_objects=on_objects, on_morphisms=on_morphisms),
        phi_local={o: groups.identity_hom(triv) for o in Y.objects},
        phi_edge={m.id: 0 for m in Y.morphisms},
    )
    assert validate_cog_morphism(phi).ok
    return phi


def assert_verdict(phi: CogMorphism, sigma: str, expected: dict[str, bool]) -> ImmersionReport:
    rep = check_immersion(phi)
    assert rep.geometric[sigma] == expected
    assert rep == oracle_report(phi)
    for o in phi.source.base.objects:
        assert rep.geometric[o] == local_dev_morphism_injectivity(phi, o), o
    return rep


def test_lower_objects_collision():
    """s -> u1 (b1) and s -> u2 (b2) folded onto s -> u (b): only the lower
    link of s collides, and every coset verdict holds."""
    Y = Scwol(["s", "u1", "u2"], [Morphism("b1", "s", "u1"), Morphism("b2", "s", "u2")], {})
    X = Scwol(["s", "u"], [Morphism("b", "s", "u")], {})
    phi = trivial_fold(Y, X, {"s": "s", "u1": "u", "u2": "u"}, {"b1": "b", "b2": "b"})
    rep = assert_verdict(phi, "s", {"objects": False, "morphisms": False, "upper_link": True})
    assert rep.coset == {("b", "u1"): True, ("b", "u2"): True}
    assert not rep.overall


def test_upper_link_edge_collision():
    """d, d2: w -> x and c: x -> g with cd = cd2 = e; f folds d and d2, so
    the upper-link edges (c, d) and (c, d2) at g collide."""
    Y = Scwol(
        ["w", "x", "g"],
        [
            Morphism("d", "w", "x"),
            Morphism("d2", "w", "x"),
            Morphism("c", "x", "g"),
            Morphism("e", "w", "g"),
        ],
        {("c", "d"): "e", ("c", "d2"): "e"},
    )
    X = Scwol(
        ["w", "x", "g"],
        [Morphism("d", "w", "x"), Morphism("c", "x", "g"), Morphism("e", "w", "g")],
        {("c", "d"): "e"},
    )
    ids = {o: o for o in X.objects}
    phi = trivial_fold(Y, X, ids, {"d": "d", "d2": "d", "c": "c", "e": "e"})
    rep = assert_verdict(phi, "g", {"objects": True, "morphisms": False, "upper_link": True})
    assert rep.coset_verdict_at("g")


def test_lower_link_edge_collision():
    """b: s -> x and a, a2: x -> z with ab = a2 b = e; f folds a and a2, so
    the lower-link edges (a, b) and (a2, b) at s collide."""
    Y = Scwol(
        ["s", "x", "z"],
        [
            Morphism("b", "s", "x"),
            Morphism("a", "x", "z"),
            Morphism("a2", "x", "z"),
            Morphism("e", "s", "z"),
        ],
        {("a", "b"): "e", ("a2", "b"): "e"},
    )
    X = Scwol(
        ["s", "x", "z"],
        [Morphism("b", "s", "x"), Morphism("a", "x", "z"), Morphism("e", "s", "z")],
        {("a", "b"): "e"},
    )
    ids = {o: o for o in X.objects}
    phi = trivial_fold(Y, X, ids, {"b": "b", "a": "a", "a2": "a", "e": "e"})
    rep = assert_verdict(phi, "s", {"objects": True, "morphisms": False, "upper_link": True})
    assert rep.coset_verdict_at("s")


def test_developability_candidate(seg23, seg23_to_z6, star_s3):
    verdict = check_developability_candidate(seg23, seg23_to_z6)
    assert verdict.developable_certificate and verdict.witness is not None
    L = build_local_cog(star_s3, "g")
    theta = build_theta(L)
    v2 = check_developability_candidate(L.cog, theta)
    assert v2.developable_certificate

    # a non-injective candidate yields no certificate
    triv = groups.cyclic_group(1)
    collapse = MorphismToGroup(
        source=seg23,
        target=triv,
        phi_local={o: groups.trivial_hom(seg23.group_of[o], triv) for o in seg23.base.objects},
        phi_edge={m.id: 0 for m in seg23.base.morphisms},
    )
    v3 = check_developability_candidate(seg23, collapse)
    assert not v3.developable_certificate and v3.witness is None


def test_trivial_complex_developable(two_simplex):
    C = trivial_cog(two_simplex)
    triv = groups.cyclic_group(1)
    phi = MorphismToGroup(
        source=C,
        target=triv,
        phi_local={o: groups.identity_hom(triv) for o in two_simplex.objects},
        phi_edge={m.id: 0 for m in two_simplex.morphisms},
    )
    assert check_developability_candidate(C, phi).developable_certificate
