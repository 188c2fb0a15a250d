"""Shared fixtures: the segment, the 2-simplex scwol, small complexes, the
acceptance corpus and the morphism corpus."""

from __future__ import annotations

import pytest

from cogkit import complexes, groups
from cogkit.corpus import build_corpus, build_morphism_corpus
from cogkit.scwols import Morphism, Scwol, scwol_from_simplicial_complex


@pytest.fixture(scope="session")
def seg():
    """Segment: one edge object m over two vertices, no composable pairs."""
    return Scwol(
        objects=["m", "v0", "v1"],
        morphisms=[Morphism("a0", "m", "v0"), Morphism("a1", "m", "v1")],
        comp={},
        label="SEG",
    )


@pytest.fixture(scope="session")
def two_simplex():
    """Face-poset scwol of a single triangle: f-vector (7, 12, 6)."""
    return scwol_from_simplicial_complex([["p", "q", "r"]], label="DELTA2")


@pytest.fixture(scope="session")
def tripod():
    """Three edges hanging off a central vertex."""
    return scwol_from_simplicial_complex([["x", "y"], ["x", "z"], ["x", "w"]], label="TRIPOD")


@pytest.fixture(scope="session")
def circle():
    """Subdivided circle: triangle boundary, 3 vertices + 3 edge objects."""
    return scwol_from_simplicial_complex([["p", "q"], ["q", "r"], ["p", "r"]], label="CIRCLE")


@pytest.fixture(scope="session")
def seg23(seg):
    """Z/2 and Z/3 on the vertices of the segment, trivial edge group."""
    z2 = groups.cyclic_group(2)
    z3 = groups.cyclic_group(3)
    triv = groups.cyclic_group(1)
    return complexes.ComplexOfGroups(
        base=seg,
        group_of={"v0": z2, "v1": z3, "m": triv},
        psi={
            "a0": groups.make_hom(triv, z2, [z2.identity]),
            "a1": groups.make_hom(triv, z3, [z3.identity]),
        },
        twist={},
        label="SEG23",
    )


@pytest.fixture(scope="session")
def seg23_to_z6(seg23):
    """The two inclusions into Z/6 with identity edge elements."""
    z6 = groups.cyclic_group(6)
    return complexes.MorphismToGroup(
        source=seg23,
        target=z6,
        phi_local={
            "v0": groups.make_hom(seg23.group_of["v0"], z6, [0, 3]),
            "v1": groups.make_hom(seg23.group_of["v1"], z6, [0, 2, 4]),
            "m": groups.make_hom(seg23.group_of["m"], z6, [0]),
        },
        phi_edge={"a0": 0, "a1": 0},
    )


@pytest.fixture(scope="session")
def star_s3():
    """One morphism c: m -> g with S3 over g and Z/2 included over m."""
    base = Scwol(
        objects=["g", "m"],
        morphisms=[Morphism("c", "m", "g")],
        comp={},
        label="STAR",
    )
    s3 = groups.symmetric_group(3)
    transp = next(x for x in s3.elements() if s3.element_order(x) == 2)
    z2, incl = groups.subgroup_group(s3, [s3.identity, transp], label="Z2<S3")
    return complexes.ComplexOfGroups(
        base=base,
        group_of={"g": s3, "m": z2},
        psi={"c": incl},
        twist={},
        label="STAR-S3",
    )


@pytest.fixture(scope="session")
def triangle_cog(two_simplex):
    """All groups Z/2, identity homs, one nontrivial twist.

    The face poset of a triangle has no composable triples, and Z/2 is
    abelian, so any twist assignment satisfies both cocycle conditions.
    """
    z2 = groups.cyclic_group(2)
    group_of = {o: z2 for o in two_simplex.objects}
    psi = {m.id: groups.identity_hom(z2) for m in two_simplex.morphisms}
    twist = {pair: z2.identity for pair in two_simplex.comp}
    # one nontrivial twisting element on the least composable pair
    first = sorted(two_simplex.comp)[0]
    twist[first] = 1
    return complexes.ComplexOfGroups(
        base=two_simplex, group_of=group_of, psi=psi, twist=twist, label="TRI-Z2"
    )


@pytest.fixture(scope="session")
def acceptance_corpus():
    """``build_corpus(20260811, 200)``, built once per session.  A shorter
    build of the same seed is a prefix of it
    (``test_corpus.py::test_a_shorter_build_is_a_prefix``), so tests slice it."""
    return build_corpus(seed=20260811, count=200)


@pytest.fixture(scope="session")
def morphism_corpus():
    """``build_morphism_corpus(411, 200)``, built once per session.  A shorter
    build of the same seed is a prefix of it
    (``test_corpus.py::test_a_shorter_morphism_build_is_a_prefix``), so tests
    slice it."""
    return build_morphism_corpus(seed=411, count=200)
