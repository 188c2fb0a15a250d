"""Finite groups as multiplication tables, homomorphisms as element maps.

Elements of a group of order n are the indices 0..n-1.  All data is validated
at construction time and immutable afterwards, so groups and homs can be
shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .errors import (
    ClosureTooLarge,
    IndexOutOfRange,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotASubgroup,
    NotPermutation,
    SourceTargetMismatch,
)

DEFAULT_CLOSURE_CAP = 10000


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its Cayley table on element indices."""

    order: int
    mult: tuple[tuple[int, ...], ...]
    identity: int
    inv: tuple[int, ...]
    label: str = field(default="G", compare=False)
    # sorted subgroup tuple -> its CosetSpace, filled by ``cosets``
    _cosets: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def mul(self, x: int, y: int) -> int:
        return self.mult[x][y]

    def conj(self, g: int, h: int) -> int:
        """g h g^-1."""
        return self.mult[self.mult[g][h]][self.inv[g]]

    def elements(self) -> range:
        return range(self.order)

    def word(self, letters: Iterable[int]) -> int:
        acc = self.identity
        for x in letters:
            acc = self.mult[acc][x]
        return acc

    def element_order(self, x: int) -> int:
        n, acc = 1, x
        while acc != self.identity:
            acc = self.mult[acc][x]
            n += 1
        return n

    def is_abelian(self) -> bool:
        return all(
            self.mult[x][y] == self.mult[y][x]
            for x in range(self.order)
            for y in range(x + 1, self.order)
        )

    def __repr__(self) -> str:  # tables are noisy; show label/order only
        return f"FiniteGroup({self.label!r}, order={self.order})"


def from_cayley_table(table: Sequence[Sequence[int]], identity: int, label: str = "G") -> FiniteGroup:
    """Validate a square multiplication table and compute the inverse table.

    Associativity is decided by Light's test (Clifford and Preston, *The
    Algebraic Theory of Semigroups* I, section 1.2) in O(n^2 |S|) steps
    instead of O(n^3): S is a greedy generating set grown on the unvalidated
    table by right multiplication (``_greedy_generators``), and the check is
    (x s) y = x (s y) for every s in S and every x, y.  That suffices because
    the elements a with (x a) y = x (a y) for all x, y form a submagma: if a
    and b pass, then

        (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y),

    and the identity passes, so every element of the magma that S and the
    identity generate passes, which is the whole table.

    The range check and Light's test compare whole rows, one C-level call
    per row: each row's entries against the set of elements, and for each s
    and x, row (x s) of the table against row x read at the entries of row
    s (one ``itemgetter`` per s).  Entries are passed through ``int`` only
    when one of them is not exactly an int, and an entry x with
    ``int(x) != x`` is then refused.  Only when a check fails is it
    scanned element by element: the row for its first out-of-range entry,
    and the triples in lexicographic order for the first that is not
    associative, so the error names the first failing one.  Once the table
    is associative a two-sided inverse is unique, so the first y with
    x y = e is the only candidate.
    """
    order = len(table)
    if order == 0:
        raise NoIdentity("empty table has no identity")
    if any(len(row) != order for row in table):
        raise IndexOutOfRange("table is not square")
    if not 0 <= identity < order:
        raise IndexOutOfRange(f"identity index {identity} out of range for order {order}")
    mult = tuple(map(tuple, table))
    if set(map(type, chain.from_iterable(mult))) != {int}:  # a bool, a float, an int subclass
        ints = tuple(tuple(map(int, row)) for row in mult)
        if ints != mult:
            x, y = next((x, y) for x, row in enumerate(mult) for y, v in enumerate(row) if int(v) != v)
            raise IndexOutOfRange(f"entry mult[{x}][{y}] = {mult[x][y]} is not an integer")
        mult = ints
    elements = frozenset(range(order))
    for x, row in enumerate(mult):
        if not elements.issuperset(row):
            y = next(y for y, v in enumerate(row) if not 0 <= v < order)
            raise IndexOutOfRange(f"entry mult[{x}][{y}] = {row[y]} out of range")
    for x in range(order):
        if mult[identity][x] != x or mult[x][identity] != x:
            raise NoIdentity(f"{identity} is not a two-sided identity at element {x}")
    for s in _greedy_generators(mult, identity):
        pick = itemgetter(*mult[s])  # order > 1 here, so pick returns a tuple
        for row_x in mult:
            if mult[row_x[s]] != pick(row_x):
                raise NotAssociative(_first_non_associative(mult))
    inv = []
    for x, row in enumerate(mult):
        y = row.index(identity) if identity in row else None
        if y is None or mult[y][x] != identity:
            raise NoInverse(f"element {x} has no two-sided inverse")
        inv.append(y)
    return FiniteGroup(order=order, mult=mult, identity=identity, inv=tuple(inv), label=label)


def _first_non_associative(mult: tuple[tuple[int, ...], ...]) -> str:
    """Name the lexicographically least triple (x, y, z) with (xy)z != x(yz)."""
    for x, row_x in enumerate(mult):
        for y, xy in enumerate(row_x):
            row_xy, row_y = mult[xy], mult[y]
            for z, yz in enumerate(row_y):
                if row_xy[z] != row_x[yz]:
                    return f"associativity fails at triple ({x}, {y}, {z})"
    raise ValueError("the table is associative")


def _compose_perms(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """p after q: i -> p[q[i]]."""
    return tuple(p[q[i]] for i in range(len(q)))


def from_permutation_generators(
    degree: int,
    gens: Sequence[Sequence[int]],
    label: str = "G",
    cap: int = DEFAULT_CLOSURE_CAP,
) -> FiniteGroup:
    """Close a set of permutations of {0..degree-1} under composition.

    Element order is breadth-first discovery order with the identity first,
    which keeps element indices stable across runs.  A degree above ``cap``
    is rejected before anything of that size is allocated.
    """
    if degree < 0:
        raise NotPermutation(f"degree {degree} is negative")
    if degree > cap:
        raise ClosureTooLarge(f"degree {degree} exceeds cap {cap}")
    checked: list[tuple[int, ...]] = []
    for g in gens:
        p = tuple(int(v) for v in g)
        if len(p) != degree or sorted(p) != list(range(degree)):
            raise NotPermutation(f"{g!r} is not a permutation of 0..{degree - 1}")
        checked.append(p)
    ident = tuple(range(degree))
    elems: list[tuple[int, ...]] = [ident]
    index = {ident: 0}
    # right[k][x]: index of x * gens[k], filled as the BFS takes each x in index order
    right: list[list[int]] = [[] for _ in checked]
    tree: list[tuple[int, int]] = []  # (parent x, k) of each element x * gens[k] after the identity
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for k, g in enumerate(checked):
                y = _compose_perms(elems[x], g)
                if y not in index:
                    if len(elems) >= cap:
                        raise ClosureTooLarge(f"closure exceeds cap {cap}")
                    index[y] = len(elems)
                    elems.append(y)
                    nxt.append(index[y])
                    tree.append((x, k))
                right[k].append(index[y])
        frontier = nxt
    # column y = x * g of the table is column x mapped through right[g]:
    # z * y = (z * x) * g, so no entry composes two permutations
    cols = [range(len(elems))]
    for x, k in tree:
        cols.append(tuple(map(right[k].__getitem__, cols[x])))
    mult = tuple(zip(*cols))
    return FiniteGroup(
        order=len(elems), mult=mult, identity=0, inv=tuple(row.index(0) for row in mult), label=label
    )


# -- standard groups -------------------------------------------------------

def cyclic_group(n: int) -> FiniteGroup:
    if n == 1:
        return from_cayley_table([[0]], 0, label="C1")
    return from_permutation_generators(n, [tuple(range(1, n)) + (0,)], label=f"C{n}")


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n acting on an n-gon (n >= 3)."""
    rot = tuple(range(1, n)) + (0,)
    flip = tuple((n - i) % n for i in range(n))
    return from_permutation_generators(n, [rot, flip], label=f"D{n}")


def symmetric_group(n: int) -> FiniteGroup:
    if n == 1:
        return from_cayley_table([[0]], 0, label="S1")
    swap = (1, 0) + tuple(range(2, n))
    cyc = tuple(range(1, n)) + (0,)
    return from_permutation_generators(n, [swap, cyc], label=f"S{n}")


def quaternion_group() -> FiniteGroup:
    """Q8 via its left regular action on (1, i, j, k, -1, -i, -j, -k)."""
    perm_i = (1, 4, 3, 6, 5, 0, 7, 2)
    perm_j = (2, 7, 4, 1, 6, 3, 0, 5)
    return from_permutation_generators(8, [perm_i, perm_j], label="Q8")


# -- homomorphisms ---------------------------------------------------------

@dataclass(frozen=True)
class GroupHom:
    """A homomorphism given by the image of every source element."""

    source: FiniteGroup
    target: FiniteGroup
    image: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.image[x]

    def __repr__(self) -> str:
        return f"GroupHom({self.source.label} -> {self.target.label})"


def make_hom(source: FiniteGroup, target: FiniteGroup, image: Sequence[int]) -> GroupHom:
    """Validate the hom law on all pairs and identity preservation.

    The law is checked a row at a time: for each x, the image of row x of
    the source table against row image[x] of the target table read at the
    image of every element, one tuple comparison per x.  Only a failing row
    is scanned, to name its first failing pair.  Values are range-checked
    against the set of target elements, and passed through ``int`` only when
    one of them is not exactly an int; a value x with ``int(x) != x`` is then
    refused.
    """
    img = tuple(image)
    if set(map(type, img)) != {int}:
        ints = tuple(map(int, img))
        if ints != img:
            x = next(x for x, v in enumerate(img) if int(v) != v)
            raise IndexOutOfRange(f"image value image[{x}] = {img[x]} is not an integer")
        img = ints
    if len(img) != source.order:
        raise IndexOutOfRange("image array length differs from source order")
    if not frozenset(range(target.order)).issuperset(img):
        v = next(v for v in img if not 0 <= v < target.order)
        raise IndexOutOfRange(f"image value {v} out of range in {target.label}")
    if img[source.identity] != target.identity:
        raise SourceTargetMismatch("identity is not preserved")
    pick = itemgetter(*img)
    for x, row in enumerate(source.mult):
        if itemgetter(*row)(img) != pick(target.mult[img[x]]):
            y = next(y for y, xy in enumerate(row) if img[xy] != target.mult[img[x]][img[y]])
            raise SourceTargetMismatch(
                f"hom law fails at pair ({x}, {y}): "
                f"image[{x}*{y}] != image[{x}]*image[{y}]"
            )
    return GroupHom(source=source, target=target, image=img)


def identity_hom(G: FiniteGroup) -> GroupHom:
    return GroupHom(source=G, target=G, image=tuple(range(G.order)))


def trivial_hom(source: FiniteGroup, target: FiniteGroup) -> GroupHom:
    return GroupHom(source=source, target=target, image=(target.identity,) * source.order)


def ad(g: int, G: FiniteGroup) -> GroupHom:
    """The inner automorphism h -> g h g^-1."""
    if not 0 <= g < G.order:
        raise IndexOutOfRange(f"element {g} out of range in {G.label}")
    return GroupHom(source=G, target=G, image=tuple(G.conj(g, h) for h in G.elements()))


def compose_homs(f: GroupHom, g: GroupHom) -> GroupHom:
    """f after g; requires target of g = source of f."""
    if g.target is not f.source and g.target != f.source:
        raise SourceTargetMismatch(
            f"cannot compose: target {g.target.label} != source {f.source.label}"
        )
    return GroupHom(source=g.source, target=f.target, image=tuple(f.image[v] for v in g.image))


def is_injective(f: GroupHom) -> bool:
    return len(set(f.image)) == f.source.order


def hom_image(f: GroupHom) -> tuple[int, ...]:
    return tuple(sorted(set(f.image)))


def is_subgroup(G: FiniteGroup, elements: Iterable[int]) -> bool:
    return _subgroup_violation(G, _sorted_elements(G, elements)) is None


def _sorted_elements(G: FiniteGroup, elements: Iterable[int]) -> tuple[int, ...]:
    """The distinct elements in ascending order; IndexOutOfRange for any
    outside 0..order-1."""
    elems = tuple(sorted(set(elements)))
    if elems and (elems[0] < 0 or elems[-1] >= G.order):
        bad = elems[0] if elems[0] < 0 else elems[-1]
        raise IndexOutOfRange(f"element {bad} out of range in {G.label}")
    return elems


def _subgroup_violation(G: FiniteGroup, sub: tuple[int, ...]) -> Optional[str]:
    """The first way a sorted subset fails to be a subgroup, or None: the
    identity, then for each element in turn its inverse and its products."""
    if G.identity not in sub:
        return "identity missing from subgroup"
    subset = set(sub)
    for x in sub:
        if G.inv[x] not in subset:
            return f"inverse of {x} leaves the subgroup"
        row = G.mult[x]
        for y in sub:
            if row[y] not in subset:
                return f"pair ({x}, {y}) leaves the subgroup"
    return None


def _require_subgroup(G: FiniteGroup, sub: tuple[int, ...]) -> None:
    problem = _subgroup_violation(G, sub)
    if problem is not None:
        raise NotASubgroup(problem)


def _close_right(mult: Sequence[Sequence[int]], closure: set, frontier: list, gens: Sequence[int]) -> None:
    """Add to ``closure`` what ``frontier`` reaches by right multiplication by ``gens``."""
    for z in frontier:
        row = mult[z]
        for s in gens:
            y = row[s]
            if y not in closure:
                closure.add(y)
                frontier.append(y)


def subgroup_closure(G: FiniteGroup, elements: Iterable[int]) -> tuple[int, ...]:
    """Smallest subgroup of G containing the given elements: the breadth-first
    closure of the identity under right multiplication by them, which is closed
    under inverses because G is finite (Holt, Eick and O'Brien, *Handbook of
    Computational Group Theory*, section 4.1)."""
    closure = {G.identity}
    _close_right(G.mult, closure, [G.identity], _sorted_elements(G, elements))
    return tuple(sorted(closure))


def generating_set(G: FiniteGroup) -> list[int]:
    """A generating set of G, chosen greedily in element order.

    Each element not yet in the subgroup generated so far is added, so the
    result is deterministic and empty for the trivial group.
    """
    return _greedy_generators(G.mult, G.identity)


def _greedy_generators(mult: Sequence[Sequence[int]], identity: int) -> list[int]:
    """Add, in element order, each element not yet reached from the identity
    by right multiplication by the elements added so far.

    Every element is then a product (((e s1) s2) ...) sk, so the result and
    the identity generate the table as a magma.  The table need not be
    associative: ``from_cayley_table`` runs this before it knows.
    """
    gens: list[int] = []
    closure = {identity}
    for x in range(len(mult)):
        if x not in closure:
            gens.append(x)
            _close_right(mult, closure, list(closure), gens)
    return gens


def subgroup_group(G: FiniteGroup, elements: Iterable[int], label: Optional[str] = None) -> tuple[FiniteGroup, GroupHom]:
    """Package a subgroup as a standalone group plus its inclusion hom.

    Subgroup elements are indexed in ascending ambient order, so the same
    subgroup always yields the same tables.
    """
    elems = _sorted_elements(G, elements)
    _require_subgroup(G, elems)
    pos = {v: k for k, v in enumerate(elems)}
    mult = tuple(tuple(pos[G.mult[x][y]] for y in elems) for x in elems)
    inv = tuple(pos[G.inv[x]] for x in elems)
    H = FiniteGroup(
        order=len(elems),
        mult=mult,
        identity=pos[G.identity],
        inv=inv,
        label=label or f"{G.label}<{','.join(map(str, elems))}>",
    )
    incl = GroupHom(source=H, target=G, image=elems)
    return H, incl


# -- coset spaces ----------------------------------------------------------

@dataclass(frozen=True)
class CosetSpace:
    """Left cosets g*H of a subgroup, with canonical least-element reps.

    No reference back to the group, whose memo keeps the space: a cycle
    would leave the group to the cycle collector."""

    subgroup: tuple[int, ...]
    reps: tuple[int, ...]
    index_of: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.reps)

    def coset_of(self, g: int) -> int:
        return self.index_of[g]

    def rep_of(self, g: int) -> int:
        return self.reps[self.index_of[g]]


def cosets(G: FiniteGroup, subgroup_elements: Iterable[int]) -> CosetSpace:
    """Partition G into left cosets g*H, ids ordered by least-element rep.

    The space is built once per (group, subgroup) and kept on G, which is
    immutable; a subset that is not a subgroup is rejected on every call.
    A sorted tuple, as ``hom_image`` and ``CosetSpace.subgroup`` give, finds
    its space without being sorted again.
    """
    if isinstance(subgroup_elements, tuple) and subgroup_elements in G._cosets:
        return G._cosets[subgroup_elements]
    sub = _sorted_elements(G, subgroup_elements)
    space = G._cosets.get(sub)
    if space is not None:
        return space
    _require_subgroup(G, sub)
    index_of = [-1] * G.order
    reps = []
    for g in range(G.order):  # ascending scan makes the least element the rep
        if index_of[g] >= 0:
            continue
        cid = len(reps)
        reps.append(g)
        for h in sub:
            index_of[G.mult[g][h]] = cid
    space = CosetSpace(subgroup=sub, reps=tuple(reps), index_of=tuple(index_of))
    G._cosets[sub] = space
    return space


# -- abelian invariants ----------------------------------------------------

def commutator_subgroup(G: FiniteGroup) -> tuple[int, ...]:
    comms = {
        G.mult[G.mult[x][y]][G.mult[G.inv[x]][G.inv[y]]]
        for x in G.elements()
        for y in G.elements()
    }
    return subgroup_closure(G, comms)


def abelian_invariants(G: FiniteGroup) -> list[int]:
    """Invariant factors of G/[G,G] in ascending divisibility order, 1s omitted.

    Computed from element-order statistics of the abelianization, which keeps
    this route independent of the Smith-normal-form code used on
    presentations.
    """
    # the quotient group on the cosets of the derived subgroup
    space = cosets(G, commutator_subgroup(G))
    n = len(space)
    qmult = [[space.index_of[G.mult[r][s]] for s in space.reps] for r in space.reps]
    Q = from_cayley_table(qmult, space.index_of[G.identity], label=f"{G.label}^ab")
    # per-prime partitions from counts of p^j-torsion elements
    primes = sorted({p for p in range(2, n + 1) if n % p == 0 and _is_prime(p)})
    per_prime: dict[int, list[int]] = {}
    for p in primes:
        mj = [0]
        j = 1
        while True:
            pj = p ** j
            count = sum(1 for x in Q.elements() if _pow(Q, x, pj) == Q.identity)
            e = _log_exact(count, p)
            mj.append(e)
            if e == mj[-2]:
                mj.pop()
                break
            j += 1
        # conj_j = #{cyclic factors of order >= p^j}; its conjugate is the type
        conj = [mj[k] - mj[k - 1] for k in range(1, len(mj))]
        per_prime[p] = sorted(_conjugate_partition(conj), reverse=True)
    width = max((len(v) for v in per_prime.values()), default=0)
    factors = []
    for k in range(width):
        d = 1
        for p, lam in per_prime.items():
            if k < len(lam):
                d *= p ** lam[k]
        factors.append(d)
    factors = [d for d in factors if d > 1]
    return sorted(factors)  # ascending divisibility: d_1 | d_2 | ...


def _conjugate_partition(parts: list[int]) -> list[int]:
    out = []
    i = 1
    while True:
        cnt = sum(1 for c in parts if c >= i)
        if cnt == 0:
            return out
        out.append(cnt)
        i += 1


def _pow(G: FiniteGroup, x: int, k: int) -> int:
    acc = G.identity
    base = x
    while k:
        if k & 1:
            acc = G.mult[acc][base]
        base = G.mult[base][base]
        k >>= 1
    return acc


def _log_exact(value: int, p: int) -> int:
    e = 0
    while value % p == 0:
        value //= p
        e += 1
    if value != 1:
        raise AssertionError(f"torsion count {value * p**e} is not a power of {p}")
    return e


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n**0.5) + 1))
