"""Developments of complexes of groups and local developments.

Both constructions index new objects by cosets of local-group images and are
fully deterministic: coset ids are canonical least-element representatives,
object ordering is (base object id, coset rep).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from . import groups
from .complexes import CogMorphism, ComplexOfGroups, MorphismToGroup
from .errors import CompositionUnderdetermined, IndexOutOfRange, NotASubgroup, UnknownObject
from .groups import CosetSpace, FiniteGroup
from .scwols import (
    UPPER_SOURCED,
    Failure,
    Morphism,
    Scwol,
    ScwolMorphism,
    StarScwol,
    ValidationReport,
)


# -- local developments -------------------------------------------------------

@dataclass(frozen=True)
class LocalDevelopment:
    """The star of gamma with its upper link fattened by cosets.

    ``scwol`` is the five-family StarScwol whose fiber over an upper object
    c is the coset reps of psi_c(G_i(c)) in G_gamma, one space per c in
    ``coset_spaces``; the upper-link edge (c, d) at rep ends at the rep of
    rep * g_{c,d}^-1.
    """

    scwol: StarScwol
    coset_spaces: dict[str, CosetSpace]  # per upper-link base morphism c


def build_local_development(C: ComplexOfGroups, gamma: str) -> LocalDevelopment:
    """Fatten the star of gamma by cosets of the psi_c-images in G_gamma."""
    S = C.base
    G = C.group_of.get(gamma)  # an unknown gamma has no upper link and is rejected below
    spaces = {c: groups.cosets(G, groups.hom_image(C.psi[c])) for c in S.into(gamma)}

    def shift(rep: int, c: str, d: str) -> int:
        return spaces[c].rep_of(G.mul(rep, G.inv[C.twist[(c, d)]]))

    scwol = StarScwol(
        S, gamma, lambda c: spaces[c].reps, shift, f"{S.label}({gamma}~)", sort_objects=True
    )
    return LocalDevelopment(scwol=scwol, coset_spaces=spaces)


# -- developments -------------------------------------------------------------

@dataclass(frozen=True)
class Development:
    """D(Y, phi): coset-indexed scwol with its projection; G acts on the left.

    A cell x@r is one coset r im(phi_x) (r im(phi_i(a)) for a morphism a);
    ``obj_info`` and ``mor_info`` give each cell's (coset rep, base cell);
    ``cell_action`` computes the action from them, and ``act`` formats it as
    ids.
    """

    scwol: Scwol
    base: Scwol
    group: FiniteGroup
    morphism: MorphismToGroup
    projection: ScwolMorphism
    obj_info: dict[str, tuple[int, str]]  # object id -> (coset rep, base object)
    mor_info: dict[str, tuple[int, str]]  # morphism id -> (coset rep, base morphism)
    coset_spaces: dict[str, CosetSpace]  # per base object

    def cell_action(self, g: int) -> tuple[list[int], list[int]]:
        """g's action on cells: g.(x@r) = x@rep_of(g r), in the cosets of x's
        image (of i(a)'s, for a morphism a@r).  Returns the coset index of each
        image, for the objects in ``obj_info`` order and the morphisms in
        ``mor_info`` order."""
        row = self.group.mult[g]
        spaces, base_mors = self.coset_spaces, self.base.mor_by_id
        objs = [spaces[o].index_of[row[rep]] for rep, o in self.obj_info.values()]
        mors = [spaces[base_mors[a].i].index_of[row[rep]] for rep, a in self.mor_info.values()]
        return objs, mors

    def act(self, g: int) -> tuple[dict[str, str], dict[str, str]]:
        """g's maps on object and morphism ids, formatted from ``cell_action``."""
        objs, mors = self.cell_action(g)
        spaces, src = self.coset_spaces, self.base.src
        omap = {oid: f"{o}@{spaces[o].reps[k]}" for (oid, (_, o)), k in zip(self.obj_info.items(), objs)}
        mmap = {
            mid: f"{a}@{spaces[src(a)].reps[k]}" for (mid, (_, a)), k in zip(self.mor_info.items(), mors)
        }
        return omap, mmap


def development_size(C: ComplexOfGroups, phi: MorphismToGroup) -> tuple[int, int]:
    """Closed-form coset counts: (sum of [G : im phi_s], sum of [G : im phi_i(a)])."""
    G = phi.target
    n_obj = sum(G.order // len(set(phi.phi_local[o].image)) for o in C.base.objects)
    n_mor = sum(G.order // len(set(phi.phi_local[m.i].image)) for m in C.base.morphisms)
    return n_obj, n_mor


def build_development(C: ComplexOfGroups, phi: MorphismToGroup) -> Development:
    """Objects (g im(phi_s), s), morphisms (g im(phi_i(a)), a); G acts on the left."""
    S = C.base
    G = phi.target
    spaces = {o: groups.cosets(G, groups.hom_image(phi.phi_local[o])) for o in S.objects}

    obj_info: dict[str, tuple[int, str]] = {}
    objects: list[str] = []
    for o in sorted(S.objects):
        for rep in spaces[o].reps:
            oid = f"{o}@{rep}"
            obj_info[oid] = (rep, o)
            objects.append(oid)

    mors: list[Morphism] = []
    mor_info: dict[str, tuple[int, str]] = {}
    for m in sorted(S.morphisms, key=lambda m: m.id):
        space_i = spaces[m.i]
        e_inv = G.inv[phi.phi_edge[m.id]]
        for rep in space_i.reps:
            mid = f"{m.id}@{rep}"
            t_rep = spaces[m.t].rep_of(G.mul(rep, e_inv))
            mors.append(Morphism(mid, f"{m.i}@{rep}", f"{m.t}@{t_rep}"))
            mor_info[mid] = (rep, m.id)

    comp: dict[tuple[str, str], str] = {}
    for (a, b), ab in S.comp.items():
        # v = b@r ends at t(b)@rep_of(r phi(b)^-1), the source of the lift of a it meets
        e_b_inv = G.inv[phi.phi_edge[b]]
        space_a, space_ab = spaces[S.src(a)], spaces[S.src(ab)]
        for rep_v in spaces[S.src(b)].reps:
            u_id = f"{a}@{space_a.rep_of(G.mul(rep_v, e_b_inv))}"
            comp[(u_id, f"{b}@{rep_v}")] = f"{ab}@{space_ab.rep_of(rep_v)}"

    scwol = Scwol(objects, mors, comp, label=f"D({S.label})")

    projection = ScwolMorphism(
        source=scwol,
        target=S,
        on_objects={oid: o for oid, (_, o) in obj_info.items()},
        on_morphisms={mid: a for mid, (_, a) in mor_info.items()},
    )

    return Development(
        scwol=scwol,
        base=S,
        group=G,
        morphism=phi,
        projection=projection,
        obj_info=obj_info,
        mor_info=mor_info,
        coset_spaces=spaces,
    )


def check_action(D: Development) -> ValidationReport:
    """Check ``D.act``: each g a functorial permutation (NotBijective,
    NotFunctorial), a group action (NotAnAction), no inversions
    (ActionInversion), g fixing i(m) fixes m (StabilizerCondition), and
    orbits biject with base cells, each object orbit projecting onto the
    base object its cells lie over (OrbitMismatch).  A development on whose
    cells the action cannot be read gets one UnfiledCell failure instead.

    A fast path on integer cells only accepts; when it rejects, the scan
    ``_scan_action`` gives the verdict and names the first failure with its
    witness.  The fast path checks, in O(|S| |D|) steps for a generating set
    S = ``groups.generating_set(G)`` where the scan takes O(|G| |D|):

    1. every coset space equals the memoised ``groups.cosets(G, subgroup)``,
       so it is G's left-coset space of a subgroup H;
    2. the scwol's objects biject with ``obj_info`` and its morphisms with
       ``mor_info``: each cell's rep r is the least element of its coset, its
       id is ``x@r`` for its base cell x, every coset of every base cell
       named there has a cell, and the base cells named number as many as
       the base's objects and morphisms (those of morphisms are base
       morphisms, whose source names their coset space);
    3. the projection sends each object cell x@r to its base object x;
    4. for one lift m of each base morphism a, the endpoints of m lie over
       different base objects, and the coset space of i(m)'s base object has
       as many cosets as that of i(a);
    5. every s in S preserves i, t and every composite.

    Proof that these imply that the scan finds nothing.  Write pi_g for
    ``cell_action(g)``: pi_g(x, k) = (x, index_of[g reps[k]]).  By 1,
    index_of[u] = index_of[v] iff uH = vH and reps[k] lies in coset k, so
    pi_g sends the coset rH to grH: pi_e = 1 and pi_g pi_h = pi_gh, so every
    pi_g is a bijection of the cells over x.  By 2, ``act(g)`` is pi_g read
    through the bijection of ids with cells, so every g permutes the objects
    (no NotBijective) and the action law holds (no NotAnAction).  The g whose
    pi_g preserves i, t and composites are closed under products and contain
    e and, by 5, S; every element of a finite group is a product of
    generators, so they are all of G (no NotFunctorial).  pi_g keeps each
    cell over its base cell and G is transitive on the lifts of a, so
    i(gm) = g i(m) and t(gm) = g t(m) carry 4 to every lift of a.  Then
    g i(m) = t(m) would put both endpoints over one base object, which 4
    excludes (no ActionInversion).  If g fixes m, it fixes i(m) = i(gm), so
    Stab(m) is inside Stab(i(m)); the stabilizer of rH is rHr^-1, of order
    |G| / [G : H], so by 4 the two have one order and are equal (no
    StabilizerCondition).  G is transitive on each coset space, so the
    orbits are the cells over each base cell: by 2 as many as the base has
    objects and morphisms, and by 3 each object orbit projects onto the base
    object its cells lie over (no OrbitMismatch).
    """
    if _action_certified(D):
        return ValidationReport(True)
    return _scan_action(D)


def _action_certified(D: Development) -> bool:
    """Conditions 1-5 of ``check_action``."""
    G, S, base, spaces = D.group, D.scwol, D.base, D.coset_spaces
    for space in spaces.values():
        try:
            genuine = groups.cosets(G, space.subgroup)
        except (IndexOutOfRange, NotASubgroup):
            return False
        if genuine is not space and genuine != space:
            return False
    if len(S.object_set) != len(S.objects) or D.obj_info.keys() != S.object_set:
        return False
    if len(S.mor_by_id) != len(S.morphisms) or D.mor_info.keys() != S.mor_by_id.keys():
        return False
    base_mors = base.mor_by_id
    obj_slots = _cell_slots(D.obj_info, spaces.get, G.order)
    mor_slots = _cell_slots(
        D.mor_info, lambda a: spaces.get(base_mors[a].i) if a in base_mors else None, G.order
    )
    if obj_slots is None or mor_slots is None:
        return False
    if len(obj_slots) != len(base.objects) or len(mor_slots) != len(base.morphisms):
        return False
    proj = D.projection.on_objects
    if any(proj.get(oid) != o for oid, (_, o) in D.obj_info.items()):
        return False

    obj_pos = dict(zip(D.obj_info, range(len(D.obj_info))))
    mor_pos = dict(zip(D.mor_info, range(len(D.mor_info))))
    obj_base = [o for _, o in D.obj_info.values()]
    mor_base = [a for _, a in D.mor_info.values()]
    mors = S.mor_by_id
    try:
        ends = [(obj_pos[mors[mid].i], obj_pos[mors[mid].t]) for mid in D.mor_info]
        triples = [(mor_pos[u], mor_pos[v], mor_pos[uv]) for (u, v), uv in S.comp.items()]
    except KeyError:
        return False
    for a, slot in mor_slots.items():  # one lift per base morphism: 5 makes the rest agree
        i, t = ends[slot[0]]
        if obj_base[i] == obj_base[t] or len(obj_slots[obj_base[i]]) != len(slot):
            return False
    n = len(mor_pos)
    comp = {u * n + v: uv for u, v, uv in triples}

    for s in groups.generating_set(G):
        obj_k, mor_k = D.cell_action(s)
        po = [obj_slots[o][k] for o, k in zip(obj_base, obj_k)]
        pm = [mor_slots[a][k] for a, k in zip(mor_base, mor_k)]
        if [ends[j] for j in pm] != [(po[i], po[t]) for i, t in ends]:
            return False
        if {pm[u] * n + pm[v]: pm[uv] for u, v, uv in triples} != comp:
            return False
    return True


def _cell_slots(info, space_of, order: int) -> Optional[dict[str, list[int]]]:
    """Base cell -> the position in ``info`` of its lift at each coset index,
    when every rep r over x is the least element of its coset in
    ``space_of(x)`` and the id is ``x@r``, and every coset of every x has a
    lift; otherwise None."""
    if list(info) != [f"{x}@{rep}" for rep, x in info.values()]:
        return None
    slots: dict[str, list[int]] = {}
    spaces: dict[str, CosetSpace] = {}
    for j, (rep, x) in enumerate(info.values()):
        space = spaces.get(x)
        if space is None:
            space = spaces[x] = space_of(x)
            if space is None:
                return None
            slots[x] = [0] * len(space.reps)
        if not 0 <= rep < order or space.reps[space.index_of[rep]] != rep:
            return None
        slots[x][space.index_of[rep]] = j
    if sum(map(len, slots.values())) != len(info):
        return None
    return slots


def _read_action(D: Development) -> tuple[dict, Optional[Failure]]:
    """Every g's maps on ids, or the first cell at which they cannot be read,
    as an UnfiledCell failure: a scwol object or morphism end that
    ``obj_info`` does not file, a scwol morphism or composition-table entry
    that ``mor_info`` does not file, a filing whose rep lies outside G or
    whose base cell has no coset space, or an image g.x of a scwol cell that
    is no filed cell (a rep that is not least in its coset, or a coset
    without a lift, makes one)."""
    S, base_mors = D.scwol, D.base.mor_by_id
    ends = (x for m in S.morphisms for x in (m.i, m.t))
    stray = [x for x in itertools.chain(S.objects, ends) if x not in D.obj_info]
    table = (x for (u, v), uv in S.comp.items() for x in (u, v, uv))
    stray += [x for x in itertools.chain(S.mor_by_id, table) if x not in D.mor_info]
    homes = [(x, rep, o) for x, (rep, o) in D.obj_info.items()]
    homes += [(x, rep, base_mors[a].i if a in base_mors else None) for x, (rep, a) in D.mor_info.items()]
    stray += [x for x, rep, o in homes if o not in D.coset_spaces or not 0 <= rep < D.group.order]
    if stray:
        return {}, Failure("UnfiledCell", (stray[0],), f"cell {stray[0]!r} is not filed")
    acts = {g: D.act(g) for g in D.group.elements()}
    for g, (omap, mmap) in acts.items():
        images = itertools.chain(
            ((x, omap[x], D.obj_info) for x in S.objects),
            ((m.id, mmap[m.id], S.mor_by_id) for m in S.morphisms),
        )
        for x, y, cells in images:
            if y not in cells:
                return acts, Failure("UnfiledCell", (g, x, y), f"element {g} sends {x!r} to {y!r}, no cell")
    return acts, None


def _scan_action(D: Development) -> ValidationReport:
    """The exhaustive check behind ``check_action``: every g's maps are built
    once per call, and each failure names its first witness.  A development
    whose action cannot be read (``_read_action``) gets that one failure."""
    acts, unfiled = _read_action(D)
    if unfiled is not None:
        return ValidationReport(False, (unfiled,))
    failures: list[Failure] = []

    def fail(code: str, witness: tuple, message: str) -> None:
        failures.append(Failure(code, witness, message))

    G, S, base = D.group, D.scwol, D.base
    for g, (omap, mmap) in acts.items():
        if sorted(omap.values()) != sorted(S.objects):
            fail("NotBijective", (g,), f"element {g} does not permute objects")
            continue
        for m in S.morphisms:
            if (S.src(mmap[m.id]), S.tgt(mmap[m.id])) != (omap[m.i], omap[m.t]):
                fail("NotFunctorial", (g, m.id), f"element {g} breaks i/t at {m.id!r}")
                break
        for (u, v), uv in S.comp.items():
            if S.comp.get((mmap[u], mmap[v])) != mmap[uv]:
                fail("NotFunctorial", (g, u, v), f"element {g} breaks composition at {(u, v)}")
                break
    # group law g.(h.x) = (gh).x; checking h over a generating set is complete
    gens = groups.generating_set(G)
    broken = next((
        (g, h, x) for g in G.elements() for h in gens for x in S.objects
        if acts[g][0][acts[h][0][x]] != acts[G.mul(g, h)][0][x]
    ), None)
    if broken is not None:
        fail("NotAnAction", broken, "action law fails at ({}, {}, {!r})".format(*broken))
    # no inversions and the stabilizer condition
    for g, (omap, mmap) in acts.items():
        for m in S.morphisms:
            if omap[m.i] == m.t:
                fail("ActionInversion", (g, m.id), f"element {g} inverts {m.id!r}")
            if omap[m.i] == m.i and mmap[m.id] != m.id:
                message = f"element {g} fixes i({m.id!r}) but moves the morphism"
                fail("StabilizerCondition", (g, m.id), message)
    # orbits biject with base objects/morphisms, each object orbit over its own base object
    obj_orbits = _orbits(S.objects, [omap for omap, _ in acts.values()])
    mor_orbits = _orbits([m.id for m in S.morphisms], [mmap for _, mmap in acts.values()])
    if len(obj_orbits) != len(base.objects):
        fail(
            "OrbitMismatch",
            (len(obj_orbits), len(base.objects)),
            "object orbit count differs from base object count",
        )
    else:
        proj = D.projection.on_objects
        for orb in obj_orbits:
            wrong = sorted(x for x in orb if proj.get(x) != D.obj_info[x][1])
            if wrong:
                message = "orbit does not project onto its base object"
                fail("OrbitMismatch", (wrong[0], proj.get(wrong[0])), message)
    if len(mor_orbits) != len(base.morphisms):
        fail(
            "OrbitMismatch",
            (len(mor_orbits), len(base.morphisms)),
            "morphism orbit count differs from base morphism count",
        )
    return ValidationReport(not failures, tuple(failures))


def _orbits(items, maps: list[dict]) -> list[set]:
    seen, orbits = set(), []
    for x in items:
        if x not in seen:
            orbits.append({m[x] for m in maps})
            seen |= orbits[-1]
    return orbits


def stabilizer_order(D: Development, oid: str) -> int:
    """|Stab(x@r)|: the g with g r in the coset r im(phi_x), by coset arithmetic."""
    rep, o = D.obj_info[oid]
    index_of, G = D.coset_spaces[o].index_of, D.group
    home = index_of[rep]
    return sum(1 for g in G.elements() if index_of[G.mult[g][rep]] == home)


# -- induced morphisms of local developments ----------------------------------

def _phi_sigma(
    phi: CogMorphism, sigma: str, src: Optional[LocalDevelopment], tgt: Optional[LocalDevelopment]
) -> ScwolMorphism:
    """Phi_sigma on families: its maps send each cell's family in the local
    development at sigma to its image's family in the one at f(sigma).

    Only families and coset reps are read, so no id is formatted unless an
    image does not exist, when ``CompositionUnderdetermined`` names the cell.
    """
    H, Gx = phi.source, phi.target
    Y = H.base
    if sigma not in Y.object_set:
        raise UnknownObject(f"object {sigma!r} not in {Y.label}")
    if src is None:
        src = build_local_development(H, sigma)
    if tgt is None:
        tgt = build_local_development(Gx, phi.f.obj(sigma))
    G = Gx.group_of[phi.f.obj(sigma)]
    phi_sigma = phi.phi_local[sigma]
    src_star, members = src.scwol, tgt.scwol.families

    f_mor = phi.f.on_morphisms
    on_objects = {("center", None, sigma): ("center", None, phi.f.obj(sigma))}
    on_morphisms = {}
    for cell in src_star.object_families:
        kind, rep, *parts = cell
        if kind == "upper":
            c = parts[0]
            rep = tgt.coset_spaces[f_mor[c]].rep_of(G.mul(phi_sigma(rep), phi.phi_edge[c]))
        elif kind == "center":
            continue
        on_objects[cell] = (kind, rep, *map(f_mor.__getitem__, parts))
    for cell, source, _ in src_star.arrows:
        kind, rep, *parts = cell
        if kind in UPPER_SOURCED:  # it carries the image rep of the upper object it starts at
            rep = on_objects[source][1]
        on_morphisms[cell] = (kind, rep, *map(f_mor.__getitem__, parts))
    if not members.issuperset(itertools.chain(on_objects.values(), on_morphisms.values())):
        images = itertools.chain(on_objects.items(), on_morphisms.items())
        cell = next(x for x, y in images if y not in members)
        raise CompositionUnderdetermined(
            f"image of local-development cell {src_star.id_of[cell]!r} does not exist"
        )
    return ScwolMorphism(
        source=src.scwol, target=tgt.scwol, on_objects=on_objects, on_morphisms=on_morphisms
    )


def build_local_dev_morphism(
    phi: CogMorphism,
    sigma: str,
    src: Optional[LocalDevelopment] = None,
    tgt: Optional[LocalDevelopment] = None,
) -> ScwolMorphism:
    """Phi_sigma from the local development at sigma to the one at f(sigma).

    On the fattened upper link the map sends the coset (h xi_c(H_i(c)), c)
    to (phi_sigma(h) phi(c) psi_f(c)(G_i(f(c))), f(c)); everywhere else it is
    the underlying scwol map.  Prebuilt local developments may be passed in.
    The map is computed on families and formatted to ids through ``id_of``.
    """
    f = _phi_sigma(phi, sigma, src, tgt)
    src_id, tgt_id = f.source.id_of, f.target.id_of
    return ScwolMorphism(
        source=f.source,
        target=f.target,
        on_objects={src_id[x]: tgt_id[y] for x, y in f.on_objects.items()},
        on_morphisms={src_id[x]: tgt_id[y] for x, y in f.on_morphisms.items()},
    )


def local_dev_morphism_injectivity(
    phi: CogMorphism,
    sigma: str,
    src: Optional[LocalDevelopment] = None,
    tgt: Optional[LocalDevelopment] = None,
) -> dict[str, bool]:
    """Injectivity of Phi_sigma on objects, morphisms and the upper link,
    counted on families: ``id_of`` is injective, so the counts are those of
    ``build_local_dev_morphism``'s maps on ids."""
    f = _phi_sigma(phi, sigma, src, tgt)
    upper = [y for x, y in f.on_objects.items() if x[0] == "upper"]
    return {
        "objects": len(set(f.on_objects.values())) == len(f.on_objects),
        "morphisms": len(set(f.on_morphisms.values())) == len(f.on_morphisms),
        "upper_link": len(set(upper)) == len(upper),
    }
