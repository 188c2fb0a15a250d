"""Immersion checks: algebraic injectivity, injectivity of the induced maps
of local developments, and the edge-wise coset criterion.

The map Phi_sigma that a morphism of complexes of groups induces between
local developments sends each cell of the five-family star to the cell of
the same family over the image parts.  Only the upper objects carry a
group-theoretic coordinate, the coset rep; every other family carries the
underlying scwol map.  So the geometric verdicts are read from one coset map
per object and from f, without building local developments: the upper-link
part is the coset criterion of Bridson-Haefliger III.C, and
``develop.local_dev_morphism_injectivity`` is the oracle that builds
Phi_sigma outright.  Metric conditions are out of scope and reported as not
evaluated.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

from . import groups
from .complexes import CogMorphism, ComplexOfGroups, MorphismToGroup, validate_morphism_to_group
from .develop import Development, build_development

# sigma -> upper morphism c -> {rep r of H_sigma / psi_c(H_i(c)): rep of its image}
CosetMap = dict[str, dict[str, dict[int, int]]]


@dataclass(frozen=True)
class ImmersionReport:
    algebraic: dict[str, bool]  # object -> phi_sigma injective
    geometric: dict[str, dict[str, bool]]  # object -> injectivity on V/E/upper link
    coset: dict[tuple[str, str], bool]  # (target morphism j, source object) -> verdict
    metric: str = field(default="not evaluated", compare=False)

    @property
    def overall(self) -> bool:
        return all(self.algebraic.values()) and all(
            v["objects"] and v["morphisms"] for v in self.geometric.values()
        )

    def coset_verdict_at(self, sigma: str) -> bool:
        return all(v for (j, s), v in self.coset.items() if s == sigma)


def _coset_map(phi: CogMorphism) -> CosetMap:
    """For each sigma and each c into sigma, send the rep r of
    H_sigma / psi_c(H_i(c)) to the rep of phi_sigma(r) phi(c) modulo
    psi_f(c)(G_i(f(c))); the image coset lies over f(c).  ``groups.cosets``
    builds each coset space once per group and subgroup."""
    H, Gx = phi.source, phi.target
    Y, X = H.base, Gx.base
    out: CosetMap = {}
    for sigma in sorted(Y.objects):
        Hs = H.group_of[sigma]
        phi_sigma = phi.phi_local[sigma]
        out[sigma] = {}
        for c in Y.into(sigma):
            j = phi.f.mor(c)
            G = Gx.group_of[X.tgt(j)]
            target = groups.cosets(G, groups.hom_image(Gx.psi[j]))
            source = groups.cosets(Hs, groups.hom_image(H.psi[c]))
            e = phi.phi_edge[c]
            out[sigma][c] = {r: target.rep_of(G.mul(phi_sigma(r), e)) for r in source.reps}
    return out


def _injective(images: list) -> bool:
    return len(set(images)) == len(images)


def _coset_verdicts(phi: CogMorphism, cmap: CosetMap) -> dict[tuple[str, str], bool]:
    images: dict[tuple[str, str], list[int]] = defaultdict(list)
    for sigma, upper in cmap.items():
        for c, reps in upper.items():
            images[(phi.f.mor(c), sigma)].extend(reps.values())
    return {key: _injective(reps) for key, reps in sorted(images.items())}


def check_coset_condition(phi: CogMorphism) -> dict[tuple[str, str], bool]:
    """For each j in E(X) and sigma = t(a) with a in f^-1(j): the map of the
    disjoint union of coset spaces H_sigma/xi_a(H_i(a)) into
    G_f(sigma)/psi_j(G_i(j)) induced by h -> phi_sigma(h)phi(a) is injective."""
    return _coset_verdicts(phi, _coset_map(phi))


def check_immersion(phi: CogMorphism) -> ImmersionReport:
    """Algebraic injectivity plus injectivity of every induced local-development map.

    Phi_sigma keeps each cell's family and maps its parts by f; an upper
    object (r, c) goes to (image rep of r, f(c)) by the coset map, and a
    morphism out of an upper object takes that object's image rep.  So:

    - ``upper_link``: the coset map (r, c) -> (image rep, f(c)) is injective;
    - ``objects``: ``upper_link``, and f is injective on the lower objects
      ``Y.out_of(sigma)`` (the center is alone in its family);
    - ``morphisms``: ``objects``, the upper-link edges (r, c, d) -> (image
      rep of (r, cd), f(c), f(d)) and the lower-link edges (a, b) ->
      (f(a), f(b)) are injective.  The families gamma_c, b_gamma and b_c
      are injective exactly when the upper and lower objects are: gamma_c
      is keyed by its upper object, b_gamma by its lower object, and b_c by
      one of each (it is empty, and injective, when either side is empty).

    Both this verdict and the coset criterion come from one coset map.
    """
    Y = phi.source.base
    f = phi.f
    algebraic = {o: groups.is_injective(phi.phi_local[o]) for o in Y.objects}
    cmap = _coset_map(phi)
    geometric: dict[str, dict[str, bool]] = {}
    for sigma, upper in cmap.items():
        up = _injective([(r, f.mor(c)) for c, reps in upper.items() for r in reps.values()])
        lower = _injective([f.mor(b) for b in Y.out_of(sigma)])
        lk_up = _injective([
            (r, f.mor(c), f.mor(d))
            for c in upper
            for d in Y.into(Y.src(c))
            for r in upper[Y.comp[(c, d)]].values()
        ])
        lk_dn = _injective([
            (f.mor(a), f.mor(b)) for b in Y.out_of(sigma) for a in Y.out_of(Y.tgt(b))
        ])
        objects = up and lower
        geometric[sigma] = {
            "objects": objects,
            "morphisms": objects and lk_up and lk_dn,
            "upper_link": up,
        }
    coset = _coset_verdicts(phi, cmap)
    return ImmersionReport(algebraic=algebraic, geometric=geometric, coset=coset)


@dataclass(frozen=True)
class DevelopabilityVerdict:
    developable_certificate: bool
    witness: Optional[Development]


def check_developability_candidate(
    C: ComplexOfGroups, phi: MorphismToGroup
) -> DevelopabilityVerdict:
    """Injectivity on all local groups certifies developability; the witness
    action is the development.  A negative verdict decides nothing."""
    rep = validate_morphism_to_group(phi)
    if not rep.ok:
        raise ValueError(f"candidate morphism is invalid: {rep.validation.failures[:1]}")
    if not rep.all_injective:
        return DevelopabilityVerdict(False, None)
    return DevelopabilityVerdict(True, build_development(C, phi))
