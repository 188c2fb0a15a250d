"""Developments, local developments, the action, and induced morphisms."""

from __future__ import annotations

import dataclasses
from collections import defaultdict

import pytest

from cogkit import groups
from cogkit.complexes import (
    CogMorphism,
    ComplexOfGroups,
    MorphismToGroup,
    identity_cog_morphism,
    validate_cog_morphism,
)
from cogkit.develop import (
    _action_certified,
    _scan_action,
    build_development,
    build_local_dev_morphism,
    build_local_development,
    check_action,
    development_size,
    local_dev_morphism_injectivity,
    stabilizer_order,
)
from cogkit.errors import CompositionUnderdetermined
from cogkit.local import build_local_cog, build_sigma, build_theta
from cogkit.scwols import (
    Morphism,
    Scwol,
    ScwolMorphism,
    identity_scwol_morphism,
    scwol_isomorphic,
    validate_scwol,
    validate_scwol_morphism,
)


def trivial_cog(S):
    triv = groups.cyclic_group(1)
    return ComplexOfGroups(
        base=S,
        group_of={o: triv for o in S.objects},
        psi={m.id: groups.identity_hom(triv) for m in S.morphisms},
        twist={pair: 0 for pair in S.comp},
    )


def trivial_morphism_to_group(C):
    triv = groups.cyclic_group(1)
    return MorphismToGroup(
        source=C,
        target=triv,
        phi_local={o: groups.trivial_hom(C.group_of[o], triv) for o in C.base.objects},
        phi_edge={m.id: 0 for m in C.base.morphisms},
    )


# -- local developments --------------------------------------------------

def test_local_dev_trivial_iso_to_star(two_simplex):
    C = trivial_cog(two_simplex)
    for o in two_simplex.objects:
        from cogkit.scwols import star_scwol

        dev = build_local_development(C, o)
        star = star_scwol(two_simplex, o)
        assert scwol_isomorphic(dev.scwol, star) is not None


def test_local_dev_star_s3_tripod(star_s3):
    dev = build_local_development(star_s3, "g")
    # coset enumeration oracle: [S3 : Z/2] = 3 upper objects
    assert len(dev.scwol.upper) == 3
    assert len(dev.scwol.objects) == 4
    assert len(dev.scwol.morphisms) == 3
    assert not dev.scwol.comp
    assert validate_scwol(dev.scwol).ok


def test_local_dev_seg23_at_v0(seg23):
    dev = build_local_development(seg23, "v0")
    # [Z/2 : 1] = 2 upper objects
    assert len(dev.scwol.upper) == 2
    assert len(dev.scwol.lower) == 0


def test_local_dev_triangle_twist_in_t_map(triangle_cog):
    """t of an upper-development edge twists by g_{c,d}^-1."""
    hot_pair = next(p for p, v in triangle_cog.twist.items() if v == 1)
    c, d = hot_pair
    gamma = triangle_cog.base.tgt(c)
    dev = build_local_development(triangle_cog, gamma)
    z2 = triangle_cog.group_of[gamma]
    for mid, fam in dev.scwol.mor_family.items():
        if fam[0] == "lk_up" and fam[2:] == (c, d):
            rep = fam[1]
            t_obj = dev.scwol.tgt(mid)
            t_rep, t_c = dev.scwol.upper[t_obj]
            assert t_c == c
            expect = dev.coset_spaces[c].rep_of(z2.mul(rep, z2.inv[1]))
            assert t_rep == expect
            break
    else:
        pytest.fail("no upper edge over the twisted pair")


# -- developments ----------------------------------------------------------

def test_development_trivial_iso_to_base(two_simplex, circle):
    for S in (two_simplex, circle):
        C = trivial_cog(S)
        D = build_development(C, trivial_morphism_to_group(C))
        assert scwol_isomorphic(D.scwol, S) is not None
        assert check_action(D).ok


def test_development_seg23_z6(seg23, seg23_to_z6):
    D = build_development(seg23, seg23_to_z6)
    assert development_size(seg23, seg23_to_z6) == (3 + 2 + 6, 6 + 6)
    assert len(D.scwol.objects) == 11
    assert len(D.scwol.morphisms) == 12
    # the realization is a single 12-cycle: each m-lift meets one v0- and one v1-lift
    rep = check_action(D)
    assert rep.ok
    # stabilizers: |im phi_sigma| per lift
    for oid, (_, o) in D.obj_info.items():
        assert stabilizer_order(D, oid) == len(set(seg23_to_z6.phi_local[o].image))
    # bipartite graph: edge lifts spread evenly over the vertex lifts
    deg = {o: len(D.scwol.out_of(o)) + len(D.scwol.into(o)) for o in D.scwol.objects}
    expect = {"m": 2, "v0": 2, "v1": 3}
    assert all(deg[oid] == expect[D.obj_info[oid][1]] for oid in D.scwol.objects)
    from cogkit.scwols import connected_components

    assert len(connected_components(D.scwol)) == 1


def test_development_of_local_complex_is_local_development(seg23, star_s3, triangle_cog):
    """D(L(Y(gamma)), Theta) is the local development, for every center."""
    for C in (seg23, star_s3, triangle_cog):
        for gamma in C.base.objects:
            L = build_local_cog(C, gamma)
            theta = build_theta(L)
            D = build_development(L.cog, theta)
            local_dev = build_local_development(C, gamma)
            iso = scwol_isomorphic(D.scwol, local_dev.scwol)
            assert iso is not None, (C.label, gamma)
            assert validate_scwol_morphism(iso).ok


def test_development_action_orbits(star_s3):
    L = build_local_cog(star_s3, "g")
    theta = build_theta(L)
    D = build_development(L.cog, theta)
    rep = check_action(D)
    assert rep.ok
    # S3 acts transitively on the three upper-link lifts with order-2 stabilizers
    upper = [oid for oid, (_, o) in D.obj_info.items() if o in L.star.upper]
    assert len(upper) == 3
    orbit = {D.act(g)[0][upper[0]] for g in D.group.elements()}
    assert orbit == set(upper)
    for oid in upper:
        assert stabilizer_order(D, oid) == 2


def test_development_size_matches_build(seg23, star_s3, triangle_cog, seg23_to_z6):
    pairs = [(seg23, seg23_to_z6)]
    for C in (seg23, star_s3, triangle_cog):
        for gamma in C.base.objects:
            L = build_local_cog(C, gamma)
            pairs.append((L.cog, build_theta(L)))
    for C, phi in pairs:
        D = build_development(C, phi)
        assert (len(D.scwol.objects), len(D.scwol.morphisms)) == development_size(C, phi)


def test_projection_nondegenerate(seg23, seg23_to_z6):
    from cogkit.scwols import is_nondegenerate

    D = build_development(seg23, seg23_to_z6)
    assert is_nondegenerate(D.projection)


def test_stabilizer_is_conjugate_of_image(seg23, seg23_to_z6):
    """Stab(gK, s) equals g * im(phi_s) * g^-1 elementwise."""
    D = build_development(seg23, seg23_to_z6)
    G = D.group
    for oid, (rep, o) in D.obj_info.items():
        stab = {g for g in G.elements() if D.act(g)[0][oid] == oid}
        image = set(seg23_to_z6.phi_local[o].image)
        conj = {G.mul(G.mul(rep, k), G.inv[rep]) for k in image}
        assert stab == conj


def test_act_matches_a_coset_scan(acceptance_corpus):
    """act(g) sends x@r to the lift x@s over x whose coset s im(phi_x) holds
    g r, found by scanning the lifts of x; a@r moves the same way in the
    cosets of im(phi_i(a))."""
    sample = []
    for entry in acceptance_corpus[:12]:
        sample.append((entry.complex, entry.to_ambient))
        gamma = sorted(entry.complex.base.objects)[0]
        L = build_local_cog(entry.complex, gamma)
        sample.append((L.cog, build_theta(L)))
    assert any(len(C.base.comp) for C, _ in sample)
    for C, phi in sample:
        D = build_development(C, phi)
        G = D.group
        lifts = defaultdict(list)  # base cell -> [(rep, id)] of its lifts
        for cid, (rep, base) in (*D.obj_info.items(), *D.mor_info.items()):
            lifts[base].append((rep, cid))

        def scan(base, x, gr):
            image = set(phi.phi_local[x].image)
            (hit,) = [cid for s, cid in lifts[base] if G.mul(G.inv[s], gr) in image]
            return hit

        for g in G.elements():
            omap, mmap = D.act(g)
            assert omap == {oid: scan(x, x, G.mul(g, r)) for oid, (r, x) in D.obj_info.items()}
            assert mmap == {
                mid: scan(a, C.base.src(a), G.mul(g, r)) for mid, (r, a) in D.mor_info.items()
            }


def _rebuilt(D, objects=None, morphisms=None, comp=None):
    """D with its scwol rebuilt from altered cells."""
    S = D.scwol
    S2 = Scwol(
        S.objects if objects is None else objects,
        S.morphisms if morphisms is None else morphisms,
        S.comp if comp is None else comp,
        label=S.label,
    )
    return dataclasses.replace(D, scwol=S2)


def _first(D, code):
    rep = check_action(D)
    assert not rep.ok
    return rep.first(code).witness


def test_check_action_not_functorial(seg23, seg23_to_z6, two_simplex):
    D = build_development(seg23, seg23_to_z6)
    m0, *rest = D.scwol.morphisms
    assert (m0.id, m0.t) == ("a0@0", "v0@0")
    # a0@0 now ends at v0@1; 1 sends it to a0@1, whose target is not 1.v0@1 = v0@2
    moved = _rebuilt(D, morphisms=[Morphism(m0.id, m0.i, "v0@1"), *rest])
    assert _first(moved, "NotFunctorial") == (1, "a0@0")
    # two copies of the 2-simplex swapped by Z/2; one composite redirected
    C = trivial_cog(two_simplex)
    z2 = groups.cyclic_group(2)
    phi = MorphismToGroup(
        source=C,
        target=z2,
        phi_local={o: groups.trivial_hom(C.group_of[o], z2) for o in two_simplex.objects},
        phi_edge={m.id: 0 for m in two_simplex.morphisms},
    )
    D = build_development(C, phi)
    assert check_action(D).ok
    (u, v), uv = next(iter(D.scwol.comp.items()))
    other = next(m.id for m in D.scwol.morphisms if m.id != uv)
    broken = _rebuilt(D, comp={**D.scwol.comp, (u, v): other})
    assert _first(broken, "NotFunctorial") == (1, u, v)


def test_check_action_not_bijective(seg23, seg23_to_z6):
    D = build_development(seg23, seg23_to_z6)
    objects = D.scwol.objects
    for altered in (objects[:-1], objects + objects[:1]):
        rep = check_action(_rebuilt(D, objects=altered))
        assert [(f.code, f.witness) for f in rep.failures][:2] == [
            ("NotBijective", (0,)),
            ("NotBijective", (1,)),
        ]


def test_check_action_inversion(seg23, seg23_to_z6):
    """a0@0 now runs m@0 -> m@1, and 1 sends m@0 to m@1."""
    D = build_development(seg23, seg23_to_z6)
    m0, *rest = D.scwol.morphisms
    inverted = _rebuilt(D, morphisms=[Morphism(m0.id, m0.i, "m@1"), *rest])
    assert _first(inverted, "ActionInversion") == (1, "a0@0")


def test_check_action_stabilizer_condition(seg23, seg23_to_z6):
    """a0@0 keeps its source m@0 but is filed at rep 1: the identity fixes
    m@0 and sends a0@0 to a0@1."""
    D = build_development(seg23, seg23_to_z6)
    off = dataclasses.replace(D, mor_info={**D.mor_info, "a0@0": (1, "a0")})
    assert _first(off, "StabilizerCondition") == (0, "a0@0")


def test_check_action_orbit_mismatch(seg23, seg23_to_z6):
    D = build_development(seg23, seg23_to_z6)
    proj = D.projection
    # v0@1 projected onto v1, not onto the base object it lies over
    wrong = dataclasses.replace(
        D,
        projection=dataclasses.replace(proj, on_objects={**proj.on_objects, "v0@1": "v1"}),
    )
    rep = check_action(wrong)
    assert [(f.code, f.witness) for f in rep.failures] == [("OrbitMismatch", ("v0@1", "v1"))]
    # the fibers over v0 and v1 projected onto each other: each orbit still
    # projects onto one base object, and onto distinct ones, but not its own
    swap = {"v0": "v1", "v1": "v0"}
    swapped = {oid: swap.get(o, o) for oid, o in proj.on_objects.items()}
    wrong = dataclasses.replace(D, projection=dataclasses.replace(proj, on_objects=swapped))
    assert not _action_certified(wrong)
    assert _first(wrong, "OrbitMismatch") == ("v0@0", "v1")
    # a base object with no lift: three orbits over four base objects
    S = D.base
    bigger = Scwol((*S.objects, "w"), S.morphisms, S.comp, label=S.label)
    assert _first(dataclasses.replace(D, base=bigger), "OrbitMismatch") == (3, 4)


def _with_space(D, o, swap):
    """D with the coset space of o replaced by one whose ``index_of`` has the
    two given entries swapped: the same reps, but no left-coset partition
    once the entries lie in different cosets."""
    space = D.coset_spaces[o]
    index_of = list(space.index_of)
    x, y = swap
    index_of[x], index_of[y] = index_of[y], index_of[x]
    broken = groups.CosetSpace(space.subgroup, space.reps, tuple(index_of))
    return dataclasses.replace(D, coset_spaces={**D.coset_spaces, o: broken})


def test_check_action_not_an_action(seg23, seg23_to_z6):
    """m's space in Z/6 files 1 under coset 2 and 2 under coset 1, so the
    identity sends m@2 to m@1 while 1 sends m@0 to m@2: 0.(1.m@0) = m@1 but
    1.m@0 = m@2."""
    D = build_development(seg23, seg23_to_z6)
    bad = _with_space(D, "m", (1, 2))
    assert _first(bad, "NotAnAction") == (0, 1, "m@0")


# -- the fast path of check_action: each condition it checks is needed ------------

def _point_development():
    """One object p with Z/2 over it, sent onto {0, 3} in Z/6: three lifts
    p@0, p@1, p@2 and no morphisms, so only the coset arithmetic is checked."""
    base = Scwol(["p"], [], {}, label="PT")
    z2, z6 = groups.cyclic_group(2), groups.cyclic_group(6)
    C = ComplexOfGroups(base=base, group_of={"p": z2}, psi={}, twist={}, label="PT")
    phi = MorphismToGroup(source=C, target=z6, phi_local={"p": groups.make_hom(z2, z6, [0, 3])}, phi_edge={})
    return build_development(C, phi)


def _renamed_object(D, old, new, rep):
    """D with object ``old`` renamed ``new`` and filed under ``rep``."""
    S, proj = D.scwol, D.projection
    o = D.obj_info[old][1]
    info = {(new if k == old else k): ((rep, o) if k == old else v) for k, v in D.obj_info.items()}
    on_objects = {(new if k == old else k): v for k, v in proj.on_objects.items()}
    return dataclasses.replace(
        _rebuilt(D, objects=[new if x == old else x for x in S.objects]),
        obj_info=info,
        projection=dataclasses.replace(proj, on_objects=on_objects),
    )


def _lifts_rewired(D, a, ends):
    """D with every lift a@r of a rebuilt as a@r: ends(r)."""
    mors = [
        Morphism(m.id, *ends(D.mor_info[m.id][0])) if D.mor_info[m.id][1] == a else m
        for m in D.scwol.morphisms
    ]
    return _rebuilt(D, morphisms=mors)


def _fast_path_cases(seg23, seg23_to_z6):
    P = _point_development()
    D = build_development(seg23, seg23_to_z6)
    v0, v1 = D.coset_spaces["v0"], D.coset_spaces["v1"]
    S = D.base
    return {
        # 1: 3 and 4 swap cosets of {0, 3}; the reps stay least, but 1 sends p@2 to p@1
        "coset space not a left-coset partition": _with_space(P, "p", (3, 4)),
        # 2: p@1 renamed p@4, filed under the rep 4 of its coset {1, 4}
        "rep not least in its coset": _renamed_object(P, "p@1", "p@4", 4),
        # 2: p@1 renamed p@7 and filed under 7, which is no element of Z/6
        "rep outside the group": _renamed_object(P, "p@1", "p@7", 7),
        # 2: the cells over p filed under a base object with no coset space
        "base object without a coset space": dataclasses.replace(P, coset_spaces={}),
        # 2: p@1 and p@2 filed under each other's reps
        "id not x@rep": dataclasses.replace(
            P, obj_info={**P.obj_info, "p@1": (2, "p"), "p@2": (1, "p")}
        ),
        # 2: p@2 gone from the scwol and from obj_info alike
        "coset without a lift": dataclasses.replace(
            _rebuilt(P, objects=["p@0", "p@1"]), obj_info={k: P.obj_info[k] for k in ("p@0", "p@1")}
        ),
        # 2: a scwol morphism that mor_info does not file
        "morphism without a cell": _rebuilt(
            D, morphisms=[*D.scwol.morphisms, Morphism("extra", "m@0", "v0@0")]
        ),
        # 2: a composite that names no morphism
        "composite without a cell": _rebuilt(D, comp={**D.scwol.comp, ("a0@0", "a1@0"): "extra"}),
        # 2: a base object that no cell lies over
        "base object without a lift": dataclasses.replace(
            D, base=Scwol((*S.objects, "w"), S.morphisms, S.comp, label=S.label)
        ),
        # 3: v0@1 projected onto v1
        "projection not constant on a fiber": dataclasses.replace(
            D,
            projection=dataclasses.replace(
                D.projection, on_objects={**D.projection.on_objects, "v0@1": "v1"}
            ),
        ),
        # 4: every a0@r runs m@r -> m@(r+1): equivariant, but 1 inverts a0@0
        "endpoints over one base object": _lifts_rewired(D, "a0", lambda r: (f"m@{r}", f"m@{(r + 1) % 6}")),
        # 4: every a0@r runs v1@r' -> v0@r'': equivariant, but 2 fixes v1@0 and moves a0@0
        "source stabilizer larger": _lifts_rewired(
            D, "a0", lambda r: (f"v1@{v1.rep_of(r)}", f"v0@{v0.rep_of(r)}")
        ),
        # 5: a0@0 alone starts at m@1 (test_check_action_not_functorial breaks t
        # and a composite)
        "a generator breaks i": _rebuilt(
            D, morphisms=[Morphism("a0@0", "m@1", "v0@0"), *D.scwol.morphisms[1:]]
        ),
    }


FAST_PATH_CASES = [
    "coset space not a left-coset partition",
    "rep not least in its coset",
    "rep outside the group",
    "base object without a coset space",
    "id not x@rep",
    "coset without a lift",
    "morphism without a cell",
    "composite without a cell",
    "base object without a lift",
    "projection not constant on a fiber",
    "endpoints over one base object",
    "source stabilizer larger",
    "a generator breaks i",
]


# cases where the scan cannot read the action: its one failure's witness
UNFILED = {
    "rep not least in its coset": (0, "p@4", "p@1"),
    "rep outside the group": ("p@7",),
    "base object without a coset space": ("p@0",),
    "coset without a lift": (1, "p@1", "p@2"),
    "morphism without a cell": ("extra",),
    "composite without a cell": ("extra",),
}


@pytest.mark.parametrize("case", FAST_PATH_CASES)
def test_fast_path_rejects_each_broken_condition(seg23, seg23_to_z6, case):
    """Each case breaks one condition of ``check_action``'s fast path, which
    then rejects, and check_action returns what the scan finds."""
    broken = _fast_path_cases(seg23, seg23_to_z6)[case]
    assert not _action_certified(broken)
    rep = check_action(broken)
    assert not rep.ok
    assert rep == _scan_action(broken)
    if case in UNFILED:
        assert [(f.code, f.witness) for f in rep.failures] == [("UnfiledCell", UNFILED[case])]


def test_fast_path_accepts_the_unbroken_developments(seg23, seg23_to_z6):
    assert _action_certified(_point_development())
    assert _action_certified(build_development(seg23, seg23_to_z6))


# -- induced morphisms of local developments ---------------------------------

def test_phi_sigma_identity(seg23):
    ident = identity_cog_morphism(seg23)
    for sigma in seg23.base.objects:
        f = build_local_dev_morphism(ident, sigma)
        assert all(v == k for k, v in f.on_objects.items())
        assert all(v == k for k, v in f.on_morphisms.items())


def test_phi_sigma_for_sigma_morphism_star_s3(star_s3):
    """Phi_gamma of Sigma maps the local complex's 3-coset upper link
    bijectively onto the ambient 3-coset upper link."""
    L = build_local_cog(star_s3, "g")
    sigma = build_sigma(L)
    inj = local_dev_morphism_injectivity(sigma, L.star.center_id)
    assert inj == {"objects": True, "morphisms": True, "upper_link": True}
    f = build_local_dev_morphism(sigma, L.star.center_id)
    src_dev = build_local_development(L.cog, L.star.center_id)
    tgt_dev = build_local_development(star_s3, "g")
    uppers_src = set(src_dev.scwol.upper)
    uppers_tgt = set(tgt_dev.scwol.upper)
    assert {f.on_objects[o] for o in uppers_src} == uppers_tgt


def test_phi_sigma_collapse_merges_upper_link():
    """Collapsing Z/2 to the trivial group merges two upper-link lifts."""
    base = Scwol(["g", "m"], [Morphism("c", "m", "g")], {}, label="STAR")
    z2 = groups.cyclic_group(2)
    triv = groups.cyclic_group(1)
    H = ComplexOfGroups(
        base=base,
        group_of={"g": z2, "m": triv},
        psi={"c": groups.make_hom(triv, z2, [0])},
        twist={},
        label="H",
    )
    Gx = trivial_cog(base)
    phi = CogMorphism(
        source=H,
        target=Gx,
        f=identity_scwol_morphism(base),
        phi_local={"g": groups.trivial_hom(z2, triv), "m": groups.identity_hom(triv)},
        phi_edge={"c": 0},
    )
    assert validate_cog_morphism(phi).ok
    inj = local_dev_morphism_injectivity(phi, "g")
    assert inj["upper_link"] is False and inj["objects"] is False
    # still a valid scwol morphism
    f = build_local_dev_morphism(phi, "g")
    assert validate_scwol_morphism(f).ok


def test_phi_sigma_names_a_cell_without_an_image():
    """f sends b, out of g, to e, out of n: the lower object b:b of the local
    development at g has no image there, and the error names its id."""
    base = Scwol(["g", "m", "n"], [Morphism("b", "g", "m"), Morphism("e", "n", "m")], {}, label="V")
    C = trivial_cog(base)
    triv = groups.cyclic_group(1)
    f = ScwolMorphism(base, base, {o: o for o in base.objects}, {"b": "e", "e": "e"})
    phi = CogMorphism(
        source=C,
        target=C,
        f=f,
        phi_local={o: groups.identity_hom(triv) for o in base.objects},
        phi_edge={"b": 0, "e": 0},
    )
    for check in (build_local_dev_morphism, local_dev_morphism_injectivity):
        with pytest.raises(CompositionUnderdetermined, match="cell 'b:b' does not exist"):
            check(phi, "g")


def test_phi_sigma_builds_nothing_derived_on_either_local_development(morphism_corpus):
    """Phi_sigma's injectivity reads families and coset reps only: neither
    local development formats an id or builds its object tuple, id maps,
    morphisms, table, id index, object set or adjacency, and only the target
    builds its family set, on the first 40 entries of the morphism corpus."""
    derived = {"morphisms", "comp", "mor_by_id", "object_set", "_in", "_out"}
    derived |= {"id_of", "objects", "mor_family", "upper", "lower", "center_id", "_arrows"}
    for phi in morphism_corpus[:40]:
        for sigma in sorted(phi.source.base.objects):
            src = build_local_development(phi.source, sigma)
            tgt = build_local_development(phi.target, phi.f.obj(sigma))
            local_dev_morphism_injectivity(phi, sigma, src=src, tgt=tgt)
            assert not derived & (vars(src.scwol).keys() | vars(tgt.scwol).keys())
            assert "families" not in vars(src.scwol)


def test_phi_sigma_family_verdicts_equal_the_id_counts(morphism_corpus):
    """On the first 200 entries of the morphism corpus, the injectivity
    counted on families agrees with distinct ids in Phi_sigma's maps (1 337
    source objects, 118 of them not injective)."""
    verdicts = []
    for phi in morphism_corpus:
        for sigma in sorted(phi.source.base.objects):
            f = build_local_dev_morphism(phi, sigma)
            upper = [f.on_objects[o] for o in f.source.upper]
            verdicts.append(local_dev_morphism_injectivity(phi, sigma))
            assert verdicts[-1] == {
                "objects": len(set(f.on_objects.values())) == len(f.on_objects),
                "morphisms": len(set(f.on_morphisms.values())) == len(f.on_morphisms),
                "upper_link": len(set(upper)) == len(upper),
            }
    assert (len(verdicts), sum(not v["upper_link"] for v in verdicts)) == (1337, 118)
