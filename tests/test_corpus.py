"""Corpus generator sanity: validity, determinism, size bounds, diversity."""

from __future__ import annotations

import random

import pytest

from cogkit import groups
from cogkit.complexes import validate_cog, validate_cog_morphism, validate_morphism_to_group
from cogkit.corpus import (
    all_subgroups,
    build_corpus,
    build_morphism_corpus,
    catalog,
    folded_double,
    random_entry,
    random_subgroup_complex,
)
from cogkit.errors import DirectedCycle
from cogkit.immersions import check_coset_condition
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
