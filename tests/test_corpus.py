"""Corpus generator sanity: validity, determinism, size bounds, diversity."""

from __future__ import annotations

import random

import pytest

from cogkit import groups
from cogkit import io as cio
from cogkit.complexes import validate_cog, validate_cog_morphism, validate_morphism_to_group
from cogkit.corpus import (
    all_subgroups,
    build_corpus,
    build_morphism_corpus,
    catalog,
    folded_double,
    random_entry,
    random_subgroup_complex,
    subgroup_complex,
)
from cogkit.errors import DirectedCycle, NotASubgroup
from cogkit.immersions import check_coset_condition, check_immersion
from cogkit.local import build_local_cog, build_sigma
from cogkit.scwols import Morphism, Scwol, chains, validate_scwol


def test_catalog_orders():
    orders = sorted(G.order for G in catalog())
    assert max(orders) <= 24
    labels = {G.label for G in catalog()}
    assert {"S3", "S4", "Q8"} <= labels
    assert any(l.startswith("D") for l in labels)
    assert any(l.startswith("C") for l in labels)


def test_all_subgroups_s4_lagrange():
    S4 = groups.symmetric_group(4)
    subs = all_subgroups(S4)
    assert len(subs) == 30  # classical subgroup count of S4
    for s in subs:
        assert 24 % len(s) == 0
        assert groups.is_subgroup(S4, s)


def test_all_subgroups_s5_counts_by_order():
    subs = all_subgroups(groups.symmetric_group(5))
    by_order: dict[int, int] = {}
    for s in subs:
        by_order[len(s)] = by_order.get(len(s), 0) + 1
    assert len(subs) == 156
    assert by_order == {
        1: 1, 2: 25, 3: 10, 4: 35, 5: 6, 6: 30, 8: 15, 10: 6, 12: 15, 20: 6, 24: 5, 60: 1, 120: 1,
    }


def test_corpus_valid_and_deterministic():
    corpus1 = build_corpus(seed=101, count=12)
    corpus2 = build_corpus(seed=101, count=12)
    for e1, e2 in zip(corpus1, corpus2):
        assert e1.complex.base.objects == e2.complex.base.objects
        assert e1.complex.twist == e2.complex.twist
    for e in corpus1:
        assert len(e.complex.base.objects) <= 12
        assert validate_scwol(e.complex.base).ok
        assert validate_cog(e.complex).ok
        rep = validate_morphism_to_group(e.to_ambient)
        assert rep.ok and rep.all_injective


def test_corpus_has_twists_and_triples():
    corpus = build_corpus(seed=7, count=40)
    assert any(
        any(t != e.complex.group_of[e.complex.base.tgt(p[0])].identity for p, t in e.complex.twist.items())
        for e in corpus
    ), "no nontrivial twists drawn"
    assert any(chains(e.complex.base, 3) for e in corpus), "no composable triples drawn"
    assert any(not e.complex.group_of[o].is_abelian() for e in corpus for o in e.complex.base.objects)


def test_folded_double_is_valid_non_immersion():
    import random

    rng = random.Random(5)
    found = 0
    for _ in range(10):
        entry = random_entry(rng)
        phi = folded_double(entry.complex, rng)
        if phi is None:
            continue
        found += 1
        assert validate_cog_morphism(phi).ok
        verdicts = check_coset_condition(phi)
        assert not all(verdicts.values()), "folding must violate the coset condition"
    assert found >= 5


def test_morphism_corpus_valid():
    morphisms = build_morphism_corpus(seed=3, count=15)
    assert len(morphisms) == 15
    for phi in morphisms:
        assert validate_cog_morphism(phi).ok


def test_iso_reflexive_symmetric_on_corpus():
    """scwol_isomorphic finds a witness from S to itself and in both directions."""
    from cogkit.scwols import scwol_isomorphic, validate_scwol_morphism
    from cogkit.develop import build_local_development

    corpus = build_corpus(seed=77, count=8)
    for e in corpus:
        S = e.complex.base
        fwd = scwol_isomorphic(S, S)
        assert fwd is not None and validate_scwol_morphism(fwd).ok
        gamma = sorted(S.objects)[0]
        dev = build_local_development(e.complex, gamma).scwol
        there = scwol_isomorphic(S, dev)
        back = scwol_isomorphic(dev, S)
        assert (there is None) == (back is None)


def test_composition_contract_on_corpus():
    """theta . Sigma is a valid morphism-to-group on the local complex."""
    from cogkit.complexes import compose_to_group, validate_morphism_to_group
    from cogkit.local import build_local_cog, build_sigma

    corpus = build_corpus(seed=55, count=10)
    checked = 0
    for e in corpus:
        for gamma in sorted(e.complex.base.objects)[:2]:
            L = build_local_cog(e.complex, gamma)
            sigma = build_sigma(L)
            comp = compose_to_group(e.to_ambient, sigma)
            rep = validate_morphism_to_group(comp)
            assert rep.ok, (e.complex.label, gamma)
            assert rep.all_injective  # inclusions compose with injective Sigma locals
            checked += 1
    assert checked >= 15


def test_star_projection_functorial_on_corpus():
    from cogkit.scwols import star_projection, star_scwol, validate_scwol_morphism

    corpus = build_corpus(seed=13, count=10)
    for e in corpus:
        S = e.complex.base
        for o in S.objects:
            h = star_projection(star_scwol(S, o))
            assert validate_scwol_morphism(h).ok


def test_subgroup_complex_rejects_directed_cycle():
    """Objects on a directed cycle can never be placed; the guard holds under -O."""
    cycle = Scwol(["x", "y"], [Morphism("a", "x", "y"), Morphism("b", "y", "x")], {}, label="CYC")
    with pytest.raises(DirectedCycle):
        random_subgroup_complex(cycle, groups.cyclic_group(2), random.Random(0))


# -- packaging: one group per (ambient, elements) within a build -------------

def test_subgroup_complex_packages_a_given_monotone_system(circle):
    """Edges trivial, two vertices on one subgroup of order 2 and one on the
    subgroup of order 3: each elements tuple is one labelled group, each
    (source, target) pair one inclusion, and the complex and its morphism to
    S3 are valid, injective and trivially twisted."""
    S3 = groups.symmetric_group(3)
    elements = {"p": (0, 1), "q": (0, 1), "r": (0, 2, 5), "p.q": (0,), "p.r": (0,), "q.r": (0,)}
    C, theta = subgroup_complex(circle, S3, elements)
    labels = {o: C.group_of[o].label for o in circle.objects}
    assert labels == {
        "p": "S3<0,1>", "q": "S3<0,1>", "r": "S3<0,2,5>", "p.q": "S3<0>", "p.r": "S3<0>", "q.r": "S3<0>",
    }
    assert C.group_of["p"] is C.group_of["q"] and C.group_of["p.q"] is C.group_of["q.r"]
    assert C.psi["p.q>p"] is C.psi["p.q>q"] is C.psi["p.r>p"]
    assert C.psi["p.q>p"].image == (0,) and C.psi["q.r>r"].image == (0,)
    assert validate_cog(C).ok
    assert all(theta.phi_local[o].image == elements[o] for o in circle.objects)
    assert set(theta.phi_edge.values()) == {S3.identity}
    rep = validate_morphism_to_group(theta)
    assert rep.ok and rep.all_injective


def test_subgroup_complex_refuses_a_non_subgroup_and_a_non_monotone_system(seg):
    S3 = groups.symmetric_group(3)
    with pytest.raises(NotASubgroup):
        subgroup_complex(seg, S3, {"m": (0,), "v0": (0, 1, 2), "v1": (0, 1)})
    with pytest.raises(NotASubgroup, match="S3<0,1> is not contained in S3<0,3>"):
        subgroup_complex(seg, S3, {"m": (0, 1), "v0": (0, 3), "v1": (0, 1)})


def group_objects(entries) -> dict[int, groups.FiniteGroup]:
    return {id(G): G for e in entries for G in e.complex.group_of.values()}


def test_one_build_shares_equal_subgroups(acceptance_corpus):
    """75 group objects for the 200 complexes, one per (ambient, elements)
    pair, where each complex packaged its own (477 objects)."""
    by_pair: dict[tuple, groups.FiniteGroup] = {}
    for e in acceptance_corpus:
        for o, G in e.complex.group_of.items():
            assert by_pair.setdefault((id(e.ambient), e.to_ambient.phi_local[o].image), G) is G
    assert len(by_pair) == len(group_objects(acceptance_corpus)) == 75


def test_two_builds_share_no_group():
    """Both builds are kept alive, so their ids cannot be reused."""
    def held(ms):
        return {id(G) for phi in ms for C in (phi.source, phi.target) for G in C.group_of.values()}

    first, second = build_corpus(seed=20260811, count=30), build_corpus(seed=20260811, count=30)
    assert not group_objects(first).keys() & group_objects(second).keys()
    m1, m2 = build_morphism_corpus(seed=411, count=30), build_morphism_corpus(seed=411, count=30)
    assert not held(m1) & held(m2)


def test_a_shorter_build_is_a_prefix(acceptance_corpus):
    """The first k entries of a build do not depend on its length: the same
    documents, so tests may slice the session corpus."""
    def documents(entries):
        return [(cio.cog_to_json(e.complex), cio.morphism_to_group_to_json(e.to_ambient)) for e in entries]

    assert documents(acceptance_corpus[:40]) == documents(build_corpus(seed=20260811, count=40))
    assert documents(build_corpus(seed=7, count=60)[:15]) == documents(build_corpus(seed=7, count=15))


def test_sigmas_build_one_coset_space_per_group_and_subgroup(monkeypatch):
    """The first check_immersion pass over the 1377 acceptance Sigmas builds
    169 coset spaces, one per (group object, subgroup) pair; with a group
    per complex it built 765.  A fresh build, so no earlier test has filled
    the coset memos."""
    made = []
    space = groups.CosetSpace

    def counting(**fields):
        made.append(fields["subgroup"])
        return space(**fields)

    monkeypatch.setattr(groups, "CosetSpace", counting)
    corpus = build_corpus(seed=20260811, count=200)
    sigmas = [build_sigma(build_local_cog(e.complex, g)) for e in corpus for g in e.complex.base.objects]
    assert len(sigmas) == 1377
    for sigma in sigmas:
        check_immersion(sigma)
    kept = sum(len(G._cosets) for G in group_objects(corpus).values())
    assert len(made) == kept == 169
