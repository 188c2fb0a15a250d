"""Group-core tests; expected values come from independent brute-force oracles."""

from __future__ import annotations

import itertools
import random

import pytest

from cogkit import groups
from cogkit.errors import (
    ClosureTooLarge,
    IndexOutOfRange,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotASubgroup,
    NotPermutation,
    SourceTargetMismatch,
)


# -- oracles -----------------------------------------------------------------

def perm_compose(p, q):
    """p after q, как in the library convention."""
    return tuple(p[q[i]] for i in range(len(q)))


def closure_oracle(degree, gens):
    """Plain fixpoint closure, independent of BFS bookkeeping."""
    elems = {tuple(range(degree))} | {tuple(g) for g in gens}
    while True:
        new = {perm_compose(a, b) for a in elems for b in elems} - elems
        if not new:
            return elems
        elems |= new


def s3_table():
    """Cayley table of S3 built from raw permutation products."""
    perms = [
        (0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1),
    ]
    idx = {p: k for k, p in enumerate(perms)}
    table = [[idx[perm_compose(perms[x], perms[y])] for y in range(6)] for x in range(6)]
    return perms, table


# -- from_cayley_table -------------------------------------------------------

def test_trivial_group():
    G = groups.from_cayley_table([[0]], 0)
    assert G.order == 1 and G.identity == 0 and G.inv == (0,)


def test_z2_from_table():
    G = groups.from_cayley_table([[0, 1], [1, 0]], 0)
    assert G.order == 2
    assert G.inv == (0, 1)


def test_s3_from_table_all_triples_and_inverses():
    perms, table = s3_table()
    G = groups.from_cayley_table(table, 0, label="S3")
    # brute-force: all 216 associativity triples hold in the oracle table
    for x, y, z in itertools.product(range(6), repeat=3):
        assert table[table[x][y]][z] == table[x][table[y][z]]
    # every inverse is correct against raw permutation inversion
    for x in range(6):
        inv_perm = tuple(sorted(range(3), key=lambda i: perms[x][i]))
        assert perms[G.inv[x]] == inv_perm


def test_table_errors_carry_witnesses():
    with pytest.raises(NoIdentity):
        groups.from_cayley_table([[1, 0], [0, 1]], 0)
    # 3-element magma that breaks associativity
    bad = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
    with pytest.raises((NotAssociative, NoIdentity, NoInverse)):
        groups.from_cayley_table(bad, 0)
    with pytest.raises(IndexOutOfRange):
        groups.from_cayley_table([[0, 1], [1, 9]], 0)
    with pytest.raises(IndexOutOfRange):
        groups.from_cayley_table([[0, 1], [1, 0]], 5)


# -- from_permutation_generators ---------------------------------------------

def test_perm_gens_single_swap():
    G = groups.from_permutation_generators(3, [(1, 0, 2)])
    assert G.order == 2


def test_perm_gens_s3_matches_closure_oracle():
    gens = [(1, 0, 2), (1, 2, 0)]
    G = groups.from_permutation_generators(3, gens)
    assert G.order == len(closure_oracle(3, gens)) == 6


def test_perm_gens_c4_cyclic():
    G = groups.from_permutation_generators(4, [(1, 2, 3, 0)])
    assert G.order == len(closure_oracle(4, [(1, 2, 3, 0)])) == 4
    assert G.is_abelian()
    assert G.element_order(1) == 4


def test_perm_gens_identity_first_and_stable():
    G = groups.from_permutation_generators(3, [(1, 0, 2), (1, 2, 0)])
    assert G.identity == 0
    H = groups.from_permutation_generators(3, [(1, 0, 2), (1, 2, 0)])
    assert G.mult == H.mult


def test_perm_gens_errors():
    with pytest.raises(NotPermutation):
        groups.from_permutation_generators(3, [(0, 0, 1)])
    with pytest.raises(ClosureTooLarge):
        groups.from_permutation_generators(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], cap=20)


def test_standard_groups():
    assert groups.cyclic_group(6).order == 6
    assert groups.dihedral_group(4).order == 8
    assert groups.symmetric_group(4).order == 24
    Q8 = groups.quaternion_group()
    assert Q8.order == 8
    assert not Q8.is_abelian()
    # Q8 has a unique element of order 2
    assert sum(1 for x in Q8.elements() if Q8.element_order(x) == 2) == 1


# -- ad ------------------------------------------------------------------

def test_ad_identity_and_abelian():
    G = groups.cyclic_group(6)
    assert groups.ad(G.identity, G).image == tuple(range(6))
    for g in G.elements():
        assert groups.ad(g, G).image == tuple(range(6))


def test_ad_s3_direct_multiplication_oracle():
    S3 = groups.symmetric_group(3)
    # pick a transposition and a 3-cycle by element order
    transp = next(x for x in S3.elements() if S3.element_order(x) == 2)
    cyc = next(x for x in S3.elements() if S3.element_order(x) == 3)
    conj = groups.ad(transp, S3)
    # oracle: direct product g*h*g^-1
    expect = S3.mul(S3.mul(transp, cyc), S3.inv[transp])
    assert conj(cyc) == expect
    # conjugating a 3-cycle by a transposition gives the other 3-cycle
    assert conj(cyc) != cyc and S3.element_order(conj(cyc)) == 3


def test_ad_is_automorphism_and_multiplicative():
    S3 = groups.symmetric_group(3)
    for g in S3.elements():
        f = groups.ad(g, S3)
        groups.make_hom(S3, S3, f.image)  # validates hom law
        assert groups.is_injective(f)
    for g in S3.elements():
        for h in S3.elements():
            lhs = groups.compose_homs(groups.ad(g, S3), groups.ad(h, S3))
            rhs = groups.ad(S3.mul(g, h), S3)
            assert lhs.image == rhs.image

    with pytest.raises(IndexOutOfRange):
        groups.ad(17, S3)


# -- cosets -------------------------------------------------------------

def coset_partition_oracle(G, sub):
    """Exhaustive partition by the right-translate relation x ~ x*h."""
    blocks = []
    left = set(G.elements())
    while left:
        g = min(left)
        block = frozenset(G.mul(g, h) for h in sub)
        blocks.append(block)
        left -= block
    return blocks


def test_cosets_whole_and_trivial():
    S3 = groups.symmetric_group(3)
    assert len(groups.cosets(S3, range(6))) == 1
    assert len(groups.cosets(S3, [S3.identity])) == 6


def test_cosets_s3_z2_matches_oracle():
    S3 = groups.symmetric_group(3)
    transp = next(x for x in S3.elements() if S3.element_order(x) == 2)
    sub = (S3.identity, transp)
    cs = groups.cosets(S3, sub)
    oracle = coset_partition_oracle(S3, sub)
    assert len(cs) == len(oracle) == 3
    # same partition
    got = {frozenset(g for g in S3.elements() if cs.coset_of(g) == cid) for cid in range(len(cs))}
    assert got == set(oracle)
    # canonical rep is the least element; subgroup's coset has the identity rep
    for cid, rep in enumerate(cs.reps):
        assert rep == min(g for g in S3.elements() if cs.coset_of(g) == cid)
    assert cs.rep_of(S3.identity) == S3.identity
    # disjoint cover with index formula
    assert len(cs) * len(sub) == S3.order


def test_cosets_rejects_non_subgroup():
    S3 = groups.symmetric_group(3)
    cyc = next(x for x in S3.elements() if S3.element_order(x) == 3)
    with pytest.raises(NotASubgroup):
        groups.cosets(S3, [S3.identity, cyc])  # not closed: misses cyc^2


# -- homs ----------------------------------------------------------------

def test_compose_with_identity():
    S3 = groups.symmetric_group(3)
    f = groups.ad(1, S3)
    assert groups.compose_homs(f, groups.identity_hom(S3)).image == f.image
    assert groups.compose_homs(groups.identity_hom(S3), f).image == f.image


def test_inclusion_z2_in_s3_injective():
    S3 = groups.symmetric_group(3)
    transp = next(x for x in S3.elements() if S3.element_order(x) == 2)
    Z2, incl = groups.subgroup_group(S3, [S3.identity, transp])
    assert groups.is_injective(incl)
    # collision scan oracle
    assert len(set(incl.image)) == Z2.order


def test_constant_hom_not_injective():
    Z2 = groups.cyclic_group(2)
    Z3 = groups.cyclic_group(3)
    f = groups.trivial_hom(Z2, Z3)
    assert not groups.is_injective(f)
    assert groups.hom_image(f) == (Z3.identity,)


def test_compose_mismatch_raises():
    Z2 = groups.cyclic_group(2)
    Z3 = groups.cyclic_group(3)
    with pytest.raises(SourceTargetMismatch):
        groups.compose_homs(groups.identity_hom(Z2), groups.identity_hom(Z3))


def test_make_hom_rejects_non_hom():
    Z4 = groups.cyclic_group(4)
    Z2 = groups.cyclic_group(2)
    with pytest.raises(SourceTargetMismatch):
        groups.make_hom(Z4, Z2, [0, 1, 1, 0])  # not multiplicative


def test_hom_image_subgroup_closed_randomized():
    rng = random.Random(7)
    S4 = groups.symmetric_group(4)
    for _ in range(20):
        g = rng.randrange(S4.order)
        f = groups.ad(g, S4)
        assert groups.is_subgroup(S4, groups.hom_image(f))


# -- abelian invariants -------------------------------------------------

def test_abelian_invariants_known_values():
    assert groups.abelian_invariants(groups.cyclic_group(1)) == []
    assert groups.abelian_invariants(groups.cyclic_group(6)) == [6]
    assert groups.abelian_invariants(groups.symmetric_group(3)) == [2]
    assert groups.abelian_invariants(groups.symmetric_group(4)) == [2]
    assert groups.abelian_invariants(groups.quaternion_group()) == [2, 2]
    assert groups.abelian_invariants(groups.dihedral_group(4)) == [2, 2]
    assert groups.abelian_invariants(groups.dihedral_group(5)) == [2]
    # Z2 x Z4 via direct product of permutation generators
    G = groups.from_permutation_generators(6, [(1, 0, 2, 3, 4, 5), (0, 1, 3, 4, 5, 2)])
    assert G.order == 8
    assert groups.abelian_invariants(G) == [2, 4]


def test_subgroup_closure_is_subgroup():
    S4 = groups.symmetric_group(4)
    rng = random.Random(11)
    for _ in range(15):
        seed = [rng.randrange(S4.order) for _ in range(2)]
        sub = groups.subgroup_closure(S4, seed)
        assert groups.is_subgroup(S4, sub)
        assert S4.order % len(sub) == 0  # Lagrange


def test_generating_set_generates_and_is_greedy():
    assert groups.generating_set(groups.cyclic_group(1)) == []
    for G in (
        groups.cyclic_group(6),
        groups.symmetric_group(3),
        groups.dihedral_group(4),
        groups.quaternion_group(),
        groups.symmetric_group(4),
    ):
        gens = groups.generating_set(G)
        assert len(groups.subgroup_closure(G, gens)) == G.order
        # each generator is the least element outside the subgroup its predecessors generate
        for k, s in enumerate(gens):
            below = set(groups.subgroup_closure(G, gens[:k]))
            assert s == min(x for x in G.elements() if x not in below)
        assert groups.generating_set(G) == gens
