"""Group-core tests; expected values come from independent brute-force oracles."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogkit import corpus, groups
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
    # 3-element magma with a two-sided identity that breaks associativity:
    # (1*1)*1 = 2*1 = 1 but 1*(1*1) = 1*2 = 0
    bad = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
    assert _brute_associative(bad) == (1, 1, 1)
    with pytest.raises(NotAssociative, match=r"^associativity fails at triple \(1, 1, 1\)$"):
        groups.from_cayley_table(bad, 0)
    # associative (a monoid) but 1 has no inverse
    with pytest.raises(NoInverse, match=r"^element 1 has no two-sided inverse$"):
        groups.from_cayley_table([[0, 1], [1, 1]], 0)
    with pytest.raises(IndexOutOfRange):
        groups.from_cayley_table([[0, 1], [1, 9]], 0)
    with pytest.raises(IndexOutOfRange):
        groups.from_cayley_table([[0, 1], [1, 0]], 5)


# -- Light's associativity test against the O(n^3) scan ---------------------

def _brute_associative(table):
    """The lexicographically first triple with (xy)z != x(yz), or None: all n^3 tried."""
    for x, y, z in itertools.product(range(len(table)), repeat=3):
        if table[table[x][y]][z] != table[x][table[y][z]]:
            return (x, y, z)
    return None


def brute_verdict(table, identity):
    """What a table with a valid two-sided identity must give: (mult, inv), or
    (error class, message), decided by the exhaustive scans."""
    triple = _brute_associative(table)
    if triple is not None:
        return NotAssociative, f"associativity fails at triple {triple}"
    inv = []
    for x in range(len(table)):
        both = [y for y in range(len(table)) if table[x][y] == identity == table[y][x]]
        if not both:
            return NoInverse, f"element {x} has no two-sided inverse"
        inv.append(both[0])
    return tuple(map(tuple, table)), tuple(inv)


def verdict(table, identity):
    try:
        G = groups.from_cayley_table(table, identity)
    except (NotAssociative, NoInverse) as exc:
        return type(exc), str(exc)
    return G.mult, G.inv


# the smallest non-associative loop: a Latin square with identity 0 and
# x*x = 0 for all x, which no group of order 5 has
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def loop_product(K, group_first):
    """K x LOOP5 with (g, a) numbered a*|K| + g when ``group_first`` (the
    group's elements, which do not generate, come first) and g*5 + a otherwise."""
    n = K.order

    def index(g, a):
        return a * n + g if group_first else g * 5 + a

    table = [[0] * (5 * n) for _ in range(5 * n)]
    for g, h in itertools.product(range(n), repeat=2):
        for a, b in itertools.product(range(5), repeat=2):
            table[index(g, a)][index(h, b)] = index(K.mul(g, h), LOOP5[a][b])
    return table, index(K.identity, 0), [index(g, 0) for g in range(n)]


def relabelled(table, seed):
    """The same magma with its elements renamed by a seeded shuffle, and the renaming."""
    n = len(table)
    label = list(range(n))
    random.Random(seed).shuffle(label)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[label[x]][label[y]] = label[table[x][y]]
    return out, label


def test_loop5_is_a_non_associative_loop():
    for row in LOOP5 + [list(col) for col in zip(*LOOP5)]:
        assert sorted(row) == list(range(5))
    assert _brute_associative(LOOP5) is not None


@pytest.mark.parametrize("K", [groups.cyclic_group(2), groups.symmetric_group(3)], ids=["C2", "S3"])
@pytest.mark.parametrize("group_first", [True, False])
def test_non_associative_loop_products_are_rejected(K, group_first):
    """Every (g, e) is middle-associative, so a test on those elements alone
    would pass; they form a closed subset, so they do not generate, and the
    table must still be rejected with the oracle's witness, under any labelling."""
    table, identity, middle = loop_product(K, group_first)
    n = len(table)
    for s in middle:
        assert all(table[table[x][s]][y] == table[x][table[s][y]] for x in range(n) for y in range(n))
    assert {table[s][t] for s in middle for t in middle} == set(middle)
    for seed in (None, 1, 2):
        t, e = table, identity
        if seed is not None:
            t, label = relabelled(table, seed)
            e = label[identity]
        expected = brute_verdict(t, e)
        assert expected[0] is NotAssociative
        assert verdict(t, e) == expected


@st.composite
def swapped_catalog_tables(draw):
    """A catalog group's table with two entries off the identity's row and column swapped."""
    G = draw(st.sampled_from([G for G in corpus.catalog() if G.order > 2]))
    rest = st.sampled_from([x for x in G.elements() if x != G.identity])
    (x1, y1), (x2, y2) = draw(st.tuples(rest, rest)), draw(st.tuples(rest, rest))
    table = [list(row) for row in G.mult]
    table[x1][y1], table[x2][y2] = table[x2][y2], table[x1][y1]
    return table, G.identity


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(swapped_catalog_tables())
def test_swapped_catalog_tables_agree_with_the_exhaustive_oracle(case):
    table, identity = case
    assert verdict(table, identity) == brute_verdict(table, identity)


def test_group_tables_give_the_same_group_as_before():
    for G in corpus.catalog():
        table = [list(row) for row in G.mult]
        assert verdict(table, G.identity) == brute_verdict(table, G.identity) == (G.mult, G.inv)
    # S5 x C2 and relabelled S5 are too large for the O(n^3) oracle in this
    # suite; their inverses come from the permutations instead
    s5 = list(itertools.permutations(range(5)))
    s5xc2 = [p + q for q in ((5, 6), (6, 5)) for p in s5]
    for perms, seed in ((s5xc2, None), (s5, 3), (s5xc2, 4)):
        index = {p: k for k, p in enumerate(perms)}
        table = [[index[perm_compose(p, q)] for q in perms] for p in perms]
        inv = [index[tuple(sorted(range(len(p)), key=p.__getitem__))] for p in perms]
        identity = index[tuple(range(len(perms[0])))]
        if seed is not None:
            table, label = relabelled(table, seed)
            identity = label[identity]
            inv = [label[inv[x]] for x in sorted(range(len(perms)), key=label.__getitem__)]
        G = groups.from_cayley_table(table, identity)
        assert G.mult == tuple(map(tuple, table)) and G.inv == tuple(inv)


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
    """On every call: a rejected subset is never kept."""
    S3 = groups.symmetric_group(3)
    cyc = next(x for x in S3.elements() if S3.element_order(x) == 3)
    for _ in range(3):
        with pytest.raises(NotASubgroup):
            groups.cosets(S3, [S3.identity, cyc])  # not closed: misses cyc^2
    assert len(groups.cosets(S3, [S3.identity, cyc, S3.mul(cyc, cyc)])) == 2


def test_cosets_are_kept_per_group_and_subgroup():
    """A second call returns the kept space, which equals a fresh computation;
    the memo takes no part in equality, hashing or the group's JSON."""
    from cogkit.io import group_to_json

    S4 = groups.symmetric_group(4)
    twin = groups.from_cayley_table(S4.mult, S4.identity, label=S4.label)
    assert twin == S4 and hash(twin) == hash(S4)
    before = group_to_json(S4)
    sub = groups.subgroup_closure(S4, [next(x for x in S4.elements() if S4.element_order(x) == 4)])
    first = groups.cosets(S4, sub)
    assert groups.cosets(S4, reversed(sub)) is first
    assert twin == S4 and hash(twin) == hash(S4)
    assert group_to_json(S4) == before
    fresh = groups.cosets(twin, sub)
    assert fresh is not first and fresh == first
    assert twin == S4 and hash(twin) == hash(S4)


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
