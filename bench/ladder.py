"""Inputs of the scale ladder: fixed constructions, one super-linear cost each.

Every rung is built here from first principles (permutation groups, explicit
subgroup systems, explicit scwols) so that its expected values can be
derived by hand; ``ladder_expected.json`` holds them with the derivations.
``PARAMS`` gives the sizes of the full rungs and of the tiny smoke ones.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

from cogkit import groups
from cogkit.complexes import ComplexOfGroups, MorphismToGroup
from cogkit.scwols import Morphism, Scwol, scwol_from_simplicial_complex

EXPECTED = Path(__file__).resolve().parent / "ladder_expected.json"

# full and smoke parameters of each rung
PARAMS = {
    "full": {"cone_rim": 8, "cone_degree": 4, "amalgam_degree": 5, "iso_parallel": 6, "table_degree": 5},
    "smoke": {"cone_rim": 4, "cone_degree": 3, "amalgam_degree": 4, "iso_parallel": 3, "table_degree": 3},
}


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())


def _sign(p: tuple[int, ...]) -> int:
    """Parity of a permutation by counting inversions (0 even, 1 odd)."""
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]) % 2


def permutation_group(perms: list[tuple[int, ...]], label: str) -> groups.FiniteGroup:
    """The group of the given permutations (closed under composition, identity
    first), numbered in list order; x * y is x after y, as in ``groups``."""
    index = {p: k for k, p in enumerate(perms)}
    n = len(perms[0])
    mult = tuple(tuple(index[tuple(x[y[i]] for i in range(n))] for y in perms) for x in perms)
    ident = tuple(range(n))
    inv = tuple(index[tuple(sorted(range(n), key=lambda i: p[i]))] for p in perms)
    return groups.FiniteGroup(order=len(perms), mult=mult, identity=index[ident], inv=inv, label=label)


def symmetric(degree: int) -> tuple[groups.FiniteGroup, list[tuple[int, ...]]]:
    """S_n on lexicographically ordered permutations, with each element's permutation."""
    perms = list(itertools.permutations(range(degree)))
    return permutation_group(perms, f"S{degree}"), perms


def _inclusion(ambient, sub_elems: tuple[int, ...], super_elems: tuple[int, ...], cache: dict):
    """Subgroup groups of ``ambient`` and the inclusion hom between two of them."""
    for elems in (sub_elems, super_elems):
        if elems not in cache:
            cache[elems] = groups.subgroup_group(ambient, elems)
    pos = {v: k for k, v in enumerate(super_elems)}
    return groups.GroupHom(
        source=cache[sub_elems][0], target=cache[super_elems][0], image=tuple(pos[v] for v in sub_elems)
    )


def _simple_complex(base: Scwol, ambient, elements: dict[str, tuple[int, ...]], label: str):
    """Trivial-twist complex of subgroups with inclusion homs, plus its map to the ambient group."""
    cache: dict = {}
    psi = {m.id: _inclusion(ambient, elements[m.i], elements[m.t], cache) for m in base.morphisms}
    group_of = {o: cache[elements[o]][0] for o in base.objects}
    twist = {pair: group_of[base.tgt(pair[0])].identity for pair in base.comp}
    C = ComplexOfGroups(base=base, group_of=group_of, psi=psi, twist=twist, label=label)
    to_ambient = MorphismToGroup(
        source=C,
        target=ambient,
        phi_local={o: cache[elements[o]][1] for o in base.objects},
        phi_edge={m.id: ambient.identity for m in base.morphisms},
    )
    return C, to_ambient


@dataclass(frozen=True)
class Cone:
    complex: ComplexOfGroups
    to_ambient: MorphismToGroup
    kind_of: dict[str, str]  # object -> apex | rim_vertex | rim_edge | spoke | triangle


def cone(rim: int, degree: int) -> Cone:
    """Cone over a ``rim``-cycle; S_n on vertices and rim edges, A_n on spokes and triangles."""
    S, perms = symmetric(degree)
    every = tuple(range(S.order))
    even = tuple(k for k, p in enumerate(perms) if _sign(p) == 0)
    facets = [["a", f"r{i}", f"r{(i + 1) % rim}"] for i in range(rim)]
    base = scwol_from_simplicial_complex(facets, label=f"CONE{rim}")
    kind_of, elements = {}, {}
    for o in base.objects:
        parts = o.split(".")
        if len(parts) == 3:
            kind = "triangle"
        elif len(parts) == 2:
            kind = "spoke" if "a" in parts else "rim_edge"
        else:
            kind = "apex" if parts == ["a"] else "rim_vertex"
        kind_of[o] = kind
        elements[o] = even if kind in ("spoke", "triangle") else every
    C, to_ambient = _simple_complex(base, S, elements, label=f"CONE{rim}-S{degree}")
    return Cone(C, to_ambient, kind_of)


def amalgam(degree: int) -> ComplexOfGroups:
    """Segment with S_n at both ends, amalgamated over the Klein four-group."""
    S, perms = symmetric(degree)
    klein_perms = {
        tuple(range(degree)),
        (1, 0, 3, 2) + tuple(range(4, degree)),
        (2, 3, 0, 1) + tuple(range(4, degree)),
        (3, 2, 1, 0) + tuple(range(4, degree)),
    }
    klein = tuple(k for k, p in enumerate(perms) if p in klein_perms)
    every = tuple(range(S.order))
    base = Scwol(["m", "v0", "v1"], [Morphism("a0", "m", "v0"), Morphism("a1", "m", "v1")], {}, label="SEG")
    C, _ = _simple_complex(base, S, {"m": klein, "v0": every, "v1": every}, label=f"S{degree}*V4*S{degree}")
    return C


def parallel_scwols(n: int) -> tuple[Scwol, Scwol, Scwol]:
    """A scwol x -> y -> z with ``n`` parallel f_k: x -> y and n parallel b_k: x -> z,
    where h f_k = b_k; an isomorphic copy with h f_k = b_(n-1-k); and a
    non-isomorphic one with h f_k = b_(k mod 2), which no bijection repairs."""
    mors = [Morphism(f"f{k}", "x", "y") for k in range(n)]
    mors += [Morphism(f"b{k}", "x", "z") for k in range(n)]
    mors.append(Morphism("h", "y", "z"))
    base = Scwol(["x", "y", "z"], mors, {("h", f"f{k}"): f"b{k}" for k in range(n)}, label="PAR")
    twin = Scwol(["x", "y", "z"], mors, {("h", f"f{k}"): f"b{n - 1 - k}" for k in range(n)}, label="PAR-REV")
    folded = Scwol(["x", "y", "z"], mors, {("h", f"f{k}"): f"b{k % 2}" for k in range(n)}, label="PAR-FOLD")
    return base, twin, folded


def product_table(degree: int, rng: random.Random) -> tuple[list[list[int]], int]:
    """Cayley table of S_n x C2 acting on n + 2 points, with seeded element labels."""
    perms = [p + q for q in ((degree, degree + 1), (degree + 1, degree)) for p in itertools.permutations(range(degree))]
    G = permutation_group(perms, f"S{degree}xC2")
    relabel = list(range(G.order))
    rng.shuffle(relabel)
    table = [[0] * G.order for _ in range(G.order)]
    for x in range(G.order):
        for y in range(G.order):
            table[relabel[x]][relabel[y]] = relabel[G.mult[x][y]]
    return table, relabel[G.identity]
