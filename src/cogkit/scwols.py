"""Small categories without loops (scwols) as explicit finite data.

A scwol has labeled objects, labeled morphisms with source ``i`` and target
``t``, and an explicit composition table on composable pairs.  The adopted
composability convention: ``(a, b)`` is composable iff ``i(a) = t(b)``, and
the composite ``ab`` satisfies ``i(ab) = i(b)`` and ``t(ab) = t(a)``.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .errors import Disconnected, RealizationTooLarge, SearchBudgetExceeded, UnknownObject

DEFAULT_ISO_BUDGET = 10**6


@dataclass(frozen=True)
class Morphism:
    id: str
    i: str
    t: str


@dataclass(frozen=True)
class Failure:
    code: str
    witness: tuple
    message: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failures: tuple[Failure, ...] = ()

    def first(self, code: str) -> Optional[Failure]:
        for f in self.failures:
            if f.code == code:
                return f
        return None

    def codes(self) -> set[str]:
        return {f.code for f in self.failures}


class Scwol:
    """Objects, non-identity morphisms and an explicit composition table.

    The id index, the object set and the in/out adjacency are derived from
    ``objects`` and ``morphisms`` on first read, once per scwol."""

    def __init__(
        self,
        objects: Iterable[str],
        morphisms: Iterable[Morphism | tuple[str, str, str]],
        comp: dict[tuple[str, str], str],
        label: str = "Y",
    ):
        self.objects: tuple[str, ...] = tuple(objects)
        self.morphisms: tuple[Morphism, ...] = tuple(
            m if isinstance(m, Morphism) else Morphism(*m) for m in morphisms
        )
        self.comp: dict[tuple[str, str], str] = dict(comp)
        self.label = label

    @cached_property
    def mor_by_id(self) -> dict[str, Morphism]:
        return {m.id: m for m in self.morphisms}

    @cached_property
    def object_set(self) -> set[str]:
        return set(self.objects)

    @cached_property
    def _out(self) -> defaultdict[str, list[str]]:  # i(a) = sigma
        out = defaultdict(list)
        for m in self.morphisms:
            out[m.i].append(m.id)
        return _sorted_values(out)

    @cached_property
    def _in(self) -> defaultdict[str, list[str]]:  # t(a) = sigma
        into = defaultdict(list)
        for m in self.morphisms:
            into[m.t].append(m.id)
        return _sorted_values(into)

    def out_of(self, obj: str) -> list[str]:
        return self._out.get(obj, [])

    def into(self, obj: str) -> list[str]:
        return self._in.get(obj, [])

    def src(self, mor_id: str) -> str:
        return self.mor_by_id[mor_id].i

    def tgt(self, mor_id: str) -> str:
        return self.mor_by_id[mor_id].t

    def __repr__(self) -> str:
        return f"Scwol({self.label!r}, |V|={len(self.objects)}, |E|={len(self.morphisms)})"


def _sorted_values(groups: defaultdict[str, list[str]]) -> defaultdict[str, list[str]]:
    """``groups`` with each list sorted in place."""
    for v in groups.values():
        v.sort()
    return groups


def validate_scwol(S: Scwol) -> ValidationReport:
    """Check the four scwol axioms; each failure names its first witness."""
    failures: list[Failure] = []
    objects_seen = set()
    for o in S.objects:
        if o in objects_seen:
            failures.append(Failure("DuplicateObjectId", (o,), f"object id {o!r} repeated"))
        objects_seen.add(o)
    ids_seen = set()
    for m in S.morphisms:
        if m.id in ids_seen:
            failures.append(Failure("DuplicateMorphismId", (m.id,), f"morphism id {m.id!r} repeated"))
        ids_seen.add(m.id)
        if m.i not in S.object_set or m.t not in S.object_set:
            failures.append(Failure("UnknownObject", (m.id,), f"morphism {m.id!r} has endpoint outside V"))
        elif m.i == m.t:
            failures.append(Failure("LoopMorphism", (m.id,), f"morphism {m.id!r} has i = t = {m.i!r}"))
    if failures:
        return ValidationReport(False, tuple(failures))

    pairs = chains(S, 2)
    composable = set(pairs)
    for pair in pairs:
        if pair not in S.comp:
            failures.append(
                Failure("MissingComposite", pair, f"composable pair {pair} has no composite")
            )
    for (a, b), ab in sorted(S.comp.items()):
        if (a, b) not in composable:
            failures.append(
                Failure("CompositeSourceTargetWrong", (a, b), f"pair {(a, b)} is not composable")
            )
            continue
        if ab not in S.mor_by_id:
            failures.append(
                Failure("CompositeSourceTargetWrong", (a, b, ab), f"composite {ab!r} is not a morphism")
            )
            continue
        if S.src(ab) != S.src(b) or S.tgt(ab) != S.tgt(a):
            failures.append(
                Failure(
                    "CompositeSourceTargetWrong",
                    (a, b, ab),
                    f"composite {ab!r} of {(a, b)} violates i(ab)=i(b), t(ab)=t(a)",
                )
            )
    if not failures:
        for a, b, c in extend_chains(S, pairs):
            left = S.comp.get((S.comp[(a, b)], c))
            right = S.comp.get((a, S.comp[(b, c)]))
            if left is None or right is None or left != right:
                failures.append(
                    Failure("NonAssociative", (a, b, c), f"(ab)c != a(bc) at {(a, b, c)}")
                )
                break
    # reachability digraph must be acyclic
    indeg = {o: 0 for o in S.objects}
    succ = defaultdict(set)
    for m in S.morphisms:
        if m.t not in succ[m.i]:
            succ[m.i].add(m.t)
            indeg[m.t] += 1
    queue = deque(sorted(o for o in S.objects if indeg[o] == 0))
    seen = 0
    while queue:
        o = queue.popleft()
        seen += 1
        for n in sorted(succ[o]):
            indeg[n] -= 1
            if indeg[n] == 0:
                queue.append(n)
    if seen != len(S.objects):
        cyc = sorted(o for o in S.objects if indeg[o] > 0)
        failures.append(Failure("DirectedCycle", tuple(cyc), f"objects {cyc} lie on a directed cycle"))
    return ValidationReport(not failures, tuple(failures))


def chains(S: Scwol, k: int) -> list[tuple[str, ...]]:
    """Length-k composable chains (a_1, ..., a_k) with i(a_j) = t(a_{j+1})."""
    if k < 1:
        raise ValueError("k must be positive")
    out: list[tuple[str, ...]] = [(m.id,) for m in S.morphisms]
    for _ in range(k - 1):
        out = extend_chains(S, out)
    return sorted(out)


def extend_chains(S: Scwol, level: list[tuple[str, ...]]) -> list[tuple[str, ...]]:
    """Each chain of ``level`` followed by every morphism composable after
    its last; a sorted ``level`` gives a sorted result, as ``into`` is sorted."""
    return [chain + (b,) for chain in level for b in S.into(S.src(chain[-1]))]


# -- morphisms of scwols -----------------------------------------------------

@dataclass(frozen=True)
class ScwolMorphism:
    source: Scwol
    target: Scwol
    on_objects: dict[str, str]
    on_morphisms: dict[str, str]

    def obj(self, o: str) -> str:
        return self.on_objects[o]

    def mor(self, m: str) -> str:
        return self.on_morphisms[m]


def validate_scwol_morphism(f: ScwolMorphism) -> ValidationReport:
    """Functoriality check.

    The bijectivity of ``{a : i(a)=s} -> {a' : i(a')=f(s)}`` holds for base
    maps of morphisms of complexes of groups and for development projections,
    but star projections are honest functors that may miss outgoing morphisms
    of the ambient scwol, so it is checked separately, by ``is_nondegenerate``.
    """
    S, X = f.source, f.target
    failures: list[Failure] = []
    for o in S.objects:
        if f.on_objects.get(o) not in X.object_set:
            failures.append(Failure("ObjectMapIncomplete", (o,), f"object {o!r} unmapped or mapped outside target"))
    for m in S.morphisms:
        img = f.on_morphisms.get(m.id)
        if img not in X.mor_by_id:
            failures.append(Failure("MorphismMapIncomplete", (m.id,), f"morphism {m.id!r} unmapped"))
            continue
        if X.src(img) != f.on_objects.get(m.i) or X.tgt(img) != f.on_objects.get(m.t):
            failures.append(
                Failure("SourceTargetNotPreserved", (m.id,), f"i/t of {m.id!r} not preserved by the map")
            )
    if not failures:
        for (a, b), ab in sorted(S.comp.items()):
            fa, fb = f.on_morphisms[a], f.on_morphisms[b]
            fab = X.comp.get((fa, fb))
            if fab is None or fab != f.on_morphisms[ab]:
                failures.append(
                    Failure("CompositionNotPreserved", (a, b), f"f(ab) != f(a)f(b) at pair {(a, b)}")
                )
    return ValidationReport(not failures, tuple(failures))


def nondegeneracy_failures(f: ScwolMorphism) -> list[Failure]:
    """Witnesses where f fails to biject i-fibers onto the target i-fibers."""
    S, X = f.source, f.target
    failures = []
    for o in S.objects:
        fiber = [f.on_morphisms[a] for a in S.out_of(o)]
        target_fiber = X.out_of(f.on_objects[o])
        if sorted(fiber) != sorted(target_fiber):
            failures.append(
                Failure(
                    "Degenerate",
                    (o,),
                    f"outgoing morphisms at {o!r} do not biject onto those at {f.on_objects[o]!r}",
                )
            )
    return failures


def is_nondegenerate(f: ScwolMorphism) -> bool:
    return not nondegeneracy_failures(f)


def identity_scwol_morphism(S: Scwol) -> ScwolMorphism:
    return ScwolMorphism(
        source=S,
        target=S,
        on_objects={o: o for o in S.objects},
        on_morphisms={m.id: m.id for m in S.morphisms},
    )


# -- links and stars ---------------------------------------------------------

UPPER_EDGE_SEP = "⋅"  # joins (c, d) ids in constructed scwols, and chain ids


# morphism families whose source is an upper object; they carry its rep
UPPER_SOURCED = ("lk_up", "gamma_c", "b_c")

_PREFIX = {
    "upper": "c", "center": "v", "lower": "b",
    "lk_up": "cd", "gamma_c": "gc", "b_c": "bc", "b_gamma": "bg", "lk_dn": "ab",
}


def _family_id(family: tuple) -> str:
    fid = f"{_PREFIX[family[0]]}:{UPPER_EDGE_SEP.join(family[2:])}"
    return fid if family[1] is None else f"{fid}@{family[1]}"


def _composite(S: Scwol, u: tuple, v: tuple) -> tuple:
    """The family of the composite u v, for the seven pairs with i(u) = t(v).

    The composite keeps v's rep.  When v is an upper-link edge (c', d'), u
    is one of (c, d), gamma*c, b*c: the composite keeps u's kind and
    composes u's last part with d'.  When u is a lower-link edge (a, b'), v
    is one of b*c, b*gamma, (a', b): the composite keeps v's kind and
    composes a with v's first part.  The seventh pair, b*gamma after
    gamma*c, gives b*c.
    """
    if v[0] == "lk_up":
        return (u[0], v[1], *u[2:-1], S.comp[(u[-1], v[-1])])
    if u[0] == "lk_dn":
        return (v[0], v[1], S.comp[(u[2], v[2])], *v[3:])
    return ("b_c", v[1], u[2], v[2])


class StarScwol(Scwol):
    """The star of an object, each upper-link object fattened by a fiber.

    Objects are the upper objects ``(rep, c)``, one per morphism c into the
    center and rep in the fiber over c; the center; and the lower objects b,
    one per morphism b out of the center.  Every object and morphism has a
    family ``(kind, rep, *parts)`` whose parts are base ids; rep is None
    off the upper link:

    - ``("upper", rep, c)``, ``("center", None, gamma)``, ``("lower", None, b)``
    - ``("lk_up", rep, c, d)``   (rep, cd) -> (shift(rep, c, d), c)
    - ``("gamma_c", rep, c)``    (rep, c) -> center
    - ``("b_c", rep, b, c)``     (rep, c) -> b
    - ``("b_gamma", None, b)``   center -> b
    - ``("lk_dn", None, a, b)``  b -> ab

    ``fiber(c)`` lists the reps over c, and ``shift(rep, c, d)`` is the rep
    at the target of the upper-link edge (c, d) that starts at rep over cd.
    The star of gamma is the case of one-point fibers ``(None,)``; the local
    development of a complex of groups has coset-rep fibers.  Objects come
    in star order (upper, center, lower) unless ``sort_objects`` asks for
    them sorted by id.  ``id_of`` maps every family to its id; ``upper``,
    ``lower`` and ``mor_family`` map ids back to families by kind.

    Only families are built at construction: ``object_families`` (upper,
    center, lower) and ``arrows``, each morphism as (family, source family,
    target family).  Every id, and everything keyed or listed by id
    (``id_of``, ``objects``, ``upper``, ``lower``, ``center_id``,
    ``mor_family``, ``morphisms``, ``comp``, and with them the id index and
    the adjacency of ``Scwol``), is built on first read, once.  A caller
    that reads only families, such as Phi_sigma's injectivity
    (``develop.local_dev_morphism_injectivity``), formats no id.
    """

    def __init__(self, S: Scwol, gamma: str, fiber, shift, label: str, sort_objects: bool = False):
        if gamma not in S.object_set:
            raise UnknownObject(f"object {gamma!r} not in {S.label}")
        ups, downs = sorted(S.into(gamma)), sorted(S.out_of(gamma))
        center = ("center", None, gamma)
        upper = [("upper", rep, c) for c in ups for rep in fiber(c)]
        lower = [("lower", None, b) for b in downs]
        arrows: list[tuple[tuple, tuple, tuple]] = []
        for c in ups:
            for d in S.into(S.src(c)):
                cd = S.comp[(c, d)]
                for r in fiber(cd):
                    arrows.append((("lk_up", r, c, d), ("upper", r, cd), ("upper", shift(r, c, d), c)))
        for _, r, c in upper:
            arrows.append((("gamma_c", r, c), ("upper", r, c), center))
        for b in downs:
            for _, r, c in upper:
                arrows.append((("b_c", r, b, c), ("upper", r, c), ("lower", None, b)))
        for b in downs:
            arrows.append((("b_gamma", None, b), center, ("lower", None, b)))
        for b in downs:
            for a in S.out_of(S.tgt(b)):
                ab = S.comp[(a, b)]
                arrows.append((("lk_dn", None, a, b), ("lower", None, b), ("lower", None, ab)))

        self.object_families = (*upper, center, *lower)
        self.arrows = arrows  # (family, source family, target family) of each morphism
        self.base = S
        self.center = gamma
        self.label = label
        self._sort_objects = sort_objects

    @cached_property
    def id_of(self) -> dict[tuple, str]:
        """Every object and morphism family -> its id."""
        mors = (f for f, _, _ in self.arrows)
        return {f: _family_id(f) for f in itertools.chain(self.object_families, mors)}

    @cached_property
    def families(self) -> set[tuple]:
        """Every object and morphism family, without formatting an id."""
        return {*self.object_families, *(f for f, _, _ in self.arrows)}

    @cached_property
    def objects(self) -> tuple[str, ...]:
        ids = [self.id_of[f] for f in self.object_families]
        return tuple(sorted(ids) if self._sort_objects else ids)

    @cached_property
    def center_id(self) -> str:
        return self.id_of[("center", None, self.center)]

    @cached_property
    def upper(self) -> dict[str, tuple]:
        """Upper object id -> (rep, c)."""
        id_of = self.id_of
        return {id_of[f]: f[1:] for f in self.object_families if f[0] == "upper"}

    @cached_property
    def lower(self) -> dict[str, str]:
        """Lower object id -> b."""
        id_of = self.id_of
        return {id_of[f]: f[2] for f in self.object_families if f[0] == "lower"}

    @cached_property
    def mor_family(self) -> dict[str, tuple]:
        id_of = self.id_of
        return {id_of[f]: f for f, _, _ in self.arrows}

    @cached_property
    def _arrows(self) -> list[tuple[tuple, str, str]]:
        """(family, source id, target id) of each morphism."""
        id_of = self.id_of
        return [(f, id_of[i], id_of[t]) for f, i, t in self.arrows]

    @cached_property
    def morphisms(self) -> tuple[Morphism, ...]:
        id_of = self.id_of
        return tuple(Morphism(id_of[f], i, t) for f, i, t in self._arrows)

    @cached_property
    def comp(self) -> dict[tuple[str, str], str]:
        """u v for every u and every v into i(u), its family from ``_composite``."""
        id_of, S = self.id_of, self.base
        into = defaultdict(list)  # object id -> families of the morphisms into it
        for v, _, t in self._arrows:
            into[t].append(v)
        return {
            (id_of[u], id_of[v]): id_of[_composite(S, u, v)] for u, i, _ in self._arrows for v in into[i]
        }


def star_scwol(S: Scwol, gamma: str) -> StarScwol:
    """The star of gamma: the five families over one-point fibers."""
    return StarScwol(S, gamma, lambda c: (None,), lambda rep, c, d: rep, f"{S.label}({gamma})")


def _link(S: Scwol, gamma: str, objects: str, edges: str, label: str) -> Scwol:
    """One link family of the star of gamma, its ids without family prefixes."""
    star = star_scwol(S, gamma)
    name = {x: UPPER_EDGE_SEP.join(f[2:]) for f, x in star.id_of.items() if f[0] in (objects, edges)}
    mors = [Morphism(name[m.id], name[m.i], name[m.t]) for m in star.morphisms if m.id in name]
    comp = {(name[u], name[v]): name[uv] for (u, v), uv in star.comp.items() if u in name and v in name}
    return Scwol([name[x] for x in star.objects if x in name], mors, comp, label=label)


def upper_link(S: Scwol, gamma: str) -> Scwol:
    """Scwol on the morphisms c into gamma; edges are composable pairs (c, d)."""
    return _link(S, gamma, "upper", "lk_up", f"Lk_{gamma}")


def lower_link(S: Scwol, gamma: str) -> Scwol:
    """Scwol on the morphisms b out of gamma; edges are composable pairs (a, b)."""
    return _link(S, gamma, "lower", "lk_dn", f"Lk^{gamma}")


def star_projection(star: StarScwol) -> ScwolMorphism:
    """The functor from the star back into the ambient scwol."""
    S = star.base
    on_objects = {star.center_id: star.center}
    for oid, (_, c) in star.upper.items():
        on_objects[oid] = S.src(c)
    for oid, b in star.lower.items():
        on_objects[oid] = S.tgt(b)
    on_morphisms = {}
    for mid, (kind, _, *parts) in star.mor_family.items():
        if kind == "b_c":
            on_morphisms[mid] = S.comp[(parts[0], parts[1])]  # b*c -> bc
        elif kind in ("lk_up", "gamma_c"):
            on_morphisms[mid] = parts[-1]  # (c, d) -> d, gamma*c -> c
        else:
            on_morphisms[mid] = parts[0]  # b*gamma -> b, (a, b) -> a
    return ScwolMorphism(source=star, target=S, on_objects=on_objects, on_morphisms=on_morphisms)


# -- geometric realization ---------------------------------------------------

@dataclass(frozen=True)
class PolyhedralComplexExport:
    """Cells graded by dimension with face incidences, all deterministic."""

    cells: tuple[tuple[str, ...], ...]  # cells[k] = ids of k-cells
    faces: dict[str, tuple[str, ...]]  # cell id -> ids of its codim-1 faces
    vertices_of: dict[str, tuple[str, ...]]  # cell id -> vertex ids

    @property
    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.cells)


# the most cells `geometric_realization` builds; a larger one is refused first
MAX_REALIZATION_CELLS = 2**15


def geometric_realization(S: Scwol) -> PolyhedralComplexExport:
    """Objects, then a k-cell per chain (a_1, ..., a_k) of composable
    morphisms, each level grown from the one below by ``extend_chains``.

    A chain is named by its ids joined by ``UPPER_EDGE_SEP``.  Its faces
    drop a_1, compose each adjacent pair, then drop a_k (i(a), t(a) for a
    1-cell); its vertices are i(a_k), t(a_k), ..., t(a_1).  A level that
    would take the cells past ``MAX_REALIZATION_CELLS`` raises
    ``RealizationTooLarge`` (CLI exit 2) before it is built.
    """
    name = UPPER_EDGE_SEP.join
    levels: list[tuple[str, ...]] = [tuple(sorted(S.objects))]
    faces: dict[str, tuple[str, ...]] = {o: () for o in S.objects}
    vertices_of: dict[str, tuple[str, ...]] = {o: (o,) for o in S.objects}
    level = chains(S, 1)
    cells = len(S.objects) + len(level)
    while level:
        levels.append(tuple(map(name, level)))
        for cid, chain in zip(levels[-1], level):
            if len(chain) == 1:
                faces[cid] = (S.src(cid), S.tgt(cid))
            else:
                merged = [
                    chain[:j] + (S.comp[chain[j : j + 2]],) + chain[j + 2 :] for j in range(len(chain) - 1)
                ]
                faces[cid] = tuple(map(name, [chain[1:], *merged, chain[:-1]]))
            vertices_of[cid] = (S.src(chain[-1]), *(S.tgt(a) for a in reversed(chain)))
        cells += sum(len(S.into(S.src(chain[-1]))) for chain in level)  # the next level's size
        if cells > MAX_REALIZATION_CELLS:
            raise RealizationTooLarge(
                f"the realization of {S.label!r} would pass {MAX_REALIZATION_CELLS} cells"
            )
        level = extend_chains(S, level)
    return PolyhedralComplexExport(cells=tuple(levels), faces=faces, vertices_of=vertices_of)


# -- spanning trees ----------------------------------------------------------

def connected_components(S: Scwol) -> list[list[str]]:
    adj = defaultdict(set)
    for m in S.morphisms:
        adj[m.i].add(m.t)
        adj[m.t].add(m.i)
    seen = set()
    comps = []
    for o in sorted(S.objects):
        if o in seen:
            continue
        comp = []
        stack = [o]
        seen.add(o)
        while stack:
            x = stack.pop()
            comp.append(x)
            for n in sorted(adj[x]):
                if n not in seen:
                    seen.add(n)
                    stack.append(n)
        comps.append(sorted(comp))
    return comps


def maximal_tree(S: Scwol) -> tuple[str, ...]:
    """Spanning tree of the 1-skeleton via BFS from the least object id.

    Neighbors are explored along incident morphisms in ascending id order, so
    the tree is reproducible.
    """
    comps = connected_components(S)
    if len(comps) > 1:
        raise Disconnected(f"scwol has {len(comps)} components: {comps}")
    if not S.objects:
        return ()
    incident = defaultdict(list)
    for m in S.morphisms:
        incident[m.i].append(m.id)
        incident[m.t].append(m.id)
    for v in incident.values():
        v.sort()
    root = min(S.objects)
    visited = {root}
    tree = []
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for mid in incident[x]:
            m = S.mor_by_id[mid]
            other = m.t if m.i == x else m.i
            if other not in visited:
                visited.add(other)
                tree.append(mid)
                queue.append(other)
    return tuple(tree)


def is_spanning_tree(S: Scwol, tree: Iterable[str]) -> bool:
    tree = list(tree)
    if len(tree) != len(S.objects) - 1:
        return False
    parent = {o: o for o in S.objects}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for mid in tree:
        m = S.mor_by_id.get(mid)
        if m is None:
            return False
        ra, rb = find(m.i), find(m.t)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


# -- isomorphism search ------------------------------------------------------

def scwol_isomorphic(
    S1: Scwol, S2: Scwol, budget: int = DEFAULT_ISO_BUDGET
) -> Optional[ScwolMorphism]:
    """Backtracking isomorphism search over the irreducible morphisms of S1.

    Irreducible morphisms (no composites) generate every morphism, and an
    isomorphism maps them onto those of S2.  Each gets an image, candidates
    by ascending id, that maps its endpoints to unused objects of the same
    colour under colour refinement.  Each composite whose two factors have
    images then gets the composite of the images, which places it and
    checks f(ab) = f(a)f(b).  Objects without morphisms are paired in id
    order.  Irreducible morphisms are taken grouped by their later endpoint
    in a ranking of the objects: most irreducible links to objects ranked
    before, then rarest colour, then id.

    Returns the first witness found, or None when no isomorphism exists.
    Raises SearchBudgetExceeded after trying more than ``budget`` images.
    """
    irr1, irr2 = (S.mor_by_id.keys() - S.comp.values() for S in (S1, S2))
    if (len(S1.objects), len(S1.morphisms), len(S1.comp), len(irr1)) != (
        len(S2.objects), len(S2.morphisms), len(S2.comp), len(irr2)
    ):
        return None
    col1, col2 = _refine_colors(S1, S2)
    if sorted(col1.values()) != sorted(col2.values()):
        return None
    # each object brings the irreducible morphisms to the objects ranked before it
    incident = defaultdict(list)
    for a in irr1:
        m = S1.mor_by_id[a]
        incident[m.i].append((m.t, m))
        incident[m.t].append((m.i, m))
    rarity = Counter(col2.values())
    links = Counter()
    rank: dict[str, int] = {}
    order: list[Morphism] = []
    heap = sorted((0, rarity[col1[o]], o) for o in S1.objects)
    while heap:
        o = heapq.heappop(heap)[2]
        if o in rank:
            continue
        rank[o] = len(rank)
        order += [m for _, _, m in sorted((rank[p], m.id, m) for p, m in incident[o] if p in rank)]
        for p, _ in incident[o]:
            if p not in rank:
                links[p] += 1
                heapq.heappush(heap, (-links[p], rarity[col1[p]], p))

    obj_map: dict[str, str] = {}
    mor_map: dict[str, str] = {}
    obj_used: set[str] = set()
    mor_used: set[str] = set()
    trail: list[tuple[dict, set, str]] = []  # (map, used, key) of each assignment

    def fits(o1: str, o2: str) -> bool:
        img = obj_map.get(o1)
        return o2 == img if img is not None else o2 not in obj_used and col1[o1] == col2[o2]

    def candidates(m: Morphism) -> list[str]:
        x, y = obj_map.get(m.i), obj_map.get(m.t)
        pool = S2.out_of(x) if x is not None else S2.into(y) if y is not None else sorted(irr2)
        return [c for c in pool if c in irr2 and c not in mor_used
                and fits(m.i, S2.src(c)) and fits(m.t, S2.tgt(c))]

    def place(m: Morphism, image: str) -> bool:
        for o1, o2 in ((m.i, S2.src(image)), (m.t, S2.tgt(image))):
            if o1 not in obj_map:
                obj_map[o1] = o2
                obj_used.add(o2)
                trail.append((obj_map, obj_used, o1))
        pending = [(m.id, image)]
        while pending:
            a, fa = pending.pop()
            if a in mor_map:
                if mor_map[a] != fa:
                    return False
                continue
            if fa is None or fa in mor_used:
                return False
            mor_map[a] = fa
            mor_used.add(fa)
            trail.append((mor_map, mor_used, a))
            m = S1.mor_by_id[a]
            for b in S1.into(m.i):  # the composites ab
                if b in mor_map:
                    pending.append((S1.comp[(a, b)], S2.comp.get((fa, mor_map[b]))))
            for b in S1.out_of(m.t):  # the composites ba
                if b in mor_map:
                    pending.append((S1.comp[(b, a)], S2.comp.get((mor_map[b], fa))))
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            assigned, used, key = trail.pop()
            used.discard(assigned.pop(key))

    levels: list = []  # levels[k] iterates the candidates for order[k]
    marks: list[int] = []  # marks[k]: trail length before order[k] was placed
    nodes = 0
    while len(marks) < len(order):
        depth = len(marks)
        if len(levels) == depth:
            levels.append(iter(candidates(order[depth])))
        image = next(levels[depth], None)
        if image is None:
            levels.pop()
            if not marks:
                return None
            undo(marks.pop())
            continue
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(f"isomorphism search exceeded {budget} nodes")
        mark = len(trail)
        if place(order[depth], image):
            marks.append(mark)
        else:
            undo(mark)
    obj_map.update(zip(sorted(S1.object_set - obj_map.keys()), sorted(S2.object_set - obj_used)))
    return ScwolMorphism(source=S1, target=S2, on_objects=obj_map, on_morphisms=mor_map)


def _refine_colors(S1: Scwol, S2: Scwol) -> list[dict[str, int]]:
    """Object colours of both scwols under colour refinement: first each
    object's (out-degree, in-degree), then up to 2 rounds more by the colours
    at the other ends of its morphisms, stopping once the number of colours
    stops growing (the partition is then stable).  The numbering is shared
    and first-seen, so equal colours mean equal signatures."""
    ends = [{o: ([], []) for o in S.objects} for S in (S1, S2)]  # targets out, sources in
    for S, end in zip((S1, S2), ends):
        for m in S.morphisms:
            end[m.i][0].append(m.t)
            end[m.t][1].append(m.i)
    canon: dict = {}
    colors = [
        {o: canon.setdefault((len(outs), len(ins)), len(canon)) for o, (outs, ins) in end.items()}
        for end in ends
    ]
    for _ in range(2):
        classes, canon = len(canon), {}
        sigs = [
            {o: (col[o], tuple(sorted(map(col.get, outs))), tuple(sorted(map(col.get, ins))))
             for o, (outs, ins) in end.items()}
            for end, col in zip(ends, colors)
        ]
        colors = [{o: canon.setdefault(s, len(canon)) for o, s in sig.items()} for sig in sigs]
        if len(canon) == classes:
            break
    return colors


# -- constructions from posets ----------------------------------------------

def scwol_from_poset(strictly_greater: dict[str, set[str]], label: str = "Y") -> Scwol:
    """Scwol of a strict partial order: one morphism x -> y per relation x > y.

    The input must be transitively closed; composites are forced by
    uniqueness of parallel morphisms.
    """
    objects = sorted(strictly_greater)
    mors = []
    for x in objects:
        for y in sorted(strictly_greater[x]):
            mors.append(Morphism(f"{x}>{y}", x, y))
    comp = {}
    for x in objects:
        for y in sorted(strictly_greater[x]):
            for z in sorted(strictly_greater[y]):
                # a: y > z after b: x > y gives x > z
                comp[(f"{y}>{z}", f"{x}>{y}")] = f"{x}>{z}"
    return Scwol(objects, mors, comp, label=label)


def scwol_from_simplicial_complex(facets: Iterable[Iterable[str]], label: str = "K") -> Scwol:
    """Face poset of a simplicial complex, bigger faces mapping to smaller."""
    faces: set[frozenset[str]] = set()
    for facet in facets:
        fs = frozenset(facet)
        for r in range(1, len(fs) + 1):
            for sub in itertools.combinations(sorted(fs), r):
                faces.add(frozenset(sub))
    name = {f: ".".join(sorted(f)) for f in faces}
    greater = {name[f]: set() for f in faces}
    for f in faces:
        for g in faces:
            if g < f:
                greater[name[f]].add(name[g])
    return scwol_from_poset(greater, label=label)
