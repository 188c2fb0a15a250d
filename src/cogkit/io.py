"""Canonical on-disk formats (versioned JSON) and the workspace resolver.

Every document carries a ``schema`` field.  Cross-references are by id:
a workspace is a directory of ``*.json`` documents, each named by its ``id``
field (falling back to the file stem).  Fields that accept a reference also
accept the same object inline.

Files are read by ``read_document`` (and ``read_tree`` for spanning-tree
files) alone.  The readers check the JSON shape of every field they read,
and the referenced objects and maps before they are used, so malformed
input raises a ``CogkitError`` (mostly ``ParseError``), never a ``KeyError``
or ``TypeError``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from . import groups
from .complexes import (
    CogMorphism,
    ComplexOfGroups,
    MorphismToGroup,
    validate_cog,
    validate_cog_morphism,
    validate_morphism_to_group,
)
from .develop import Development
from .errors import ParseError, UnresolvedReference
from .groups import FiniteGroup
from .presentations import GroupPresentation
from .scwols import (
    Morphism,
    PolyhedralComplexExport,
    Scwol,
    ScwolMorphism,
    validate_scwol,
    validate_scwol_morphism,
)


def dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# -- writers --------------------------------------------------------------------

def group_to_json(G: FiniteGroup, id: Optional[str] = None) -> dict:
    return {
        "schema": "group/1",
        "id": id or G.label,
        "cayley": [list(row) for row in G.mult],
        "identity": G.identity,
    }


def scwol_to_json(S: Scwol, id: Optional[str] = None) -> dict:
    return {
        "schema": "scwol/1",
        "id": id or S.label,
        "objects": list(S.objects),
        "morphisms": [{"id": m.id, "i": m.i, "t": m.t} for m in S.morphisms],
        "comp": sorted([a, b, ab] for (a, b), ab in S.comp.items()),
    }


def cog_to_json(C: ComplexOfGroups, id: Optional[str] = None) -> dict:
    return {
        "schema": "cog/1",
        "id": id or C.label,
        "base": scwol_to_json(C.base),
        "groups": {o: group_to_json(C.group_of[o]) for o in C.base.objects},
        "psi": {m.id: list(C.psi[m.id].image) for m in C.base.morphisms},
        "twists": sorted([a, b, C.twist[(a, b)]] for (a, b) in C.twist),
    }


def morphism_to_group_to_json(phi: MorphismToGroup, id: Optional[str] = None) -> dict:
    return {
        "schema": "morphism-to-group/1",
        "id": id or "phi",
        "cog": cog_to_json(phi.source),
        "target": group_to_json(phi.target),
        "phi_local": {o: list(phi.phi_local[o].image) for o in phi.source.base.objects},
        "phi_edge": dict(sorted(phi.phi_edge.items())),
    }


def cog_morphism_to_json(phi: CogMorphism, id: Optional[str] = None) -> dict:
    return {
        "schema": "cog-morphism/1",
        "id": id or "phi",
        "source": cog_to_json(phi.source),
        "target": cog_to_json(phi.target),
        "f": {
            "objects": dict(sorted(phi.f.on_objects.items())),
            "morphisms": dict(sorted(phi.f.on_morphisms.items())),
        },
        "phi_local": {o: list(phi.phi_local[o].image) for o in phi.source.base.objects},
        "phi_edge": dict(sorted(phi.phi_edge.items())),
    }


def development_to_json(D: Development, id: Optional[str] = None) -> dict:
    action = {}
    for g in D.group.elements():
        om, mm = D.act(g)
        action[str(g)] = {"objects": dict(sorted(om.items())), "morphisms": dict(sorted(mm.items()))}
    return {
        "schema": "development/1",
        "id": id or D.scwol.label,
        "scwol": scwol_to_json(D.scwol),
        "group": group_to_json(D.group),
        "projection": {
            "objects": dict(sorted(D.projection.on_objects.items())),
            "morphisms": dict(sorted(D.projection.on_morphisms.items())),
        },
        "action": action,
    }


def realization_to_json(ex: PolyhedralComplexExport, id: str = "realization") -> dict:
    return {
        "schema": "realization/1",
        "id": id,
        "cells": [list(level) for level in ex.cells],
        "faces": {cid: list(fs) for cid, fs in sorted(ex.faces.items())},
        "vertices": {cid: list(vs) for cid, vs in sorted(ex.vertices_of.items())},
    }


def realization_to_off(ex: PolyhedralComplexExport) -> str:
    """OFF-style export: vertices on a circle, 2-cells as faces."""
    import math

    verts = list(ex.cells[0])
    pos = {v: k for k, v in enumerate(verts)}
    n = len(verts)
    faces = list(ex.cells[2]) if len(ex.cells) > 2 else []
    edges = list(ex.cells[1]) if len(ex.cells) > 1 else []
    lines = ["OFF", f"{n} {len(faces)} {len(edges)}"]
    for k, v in enumerate(verts):
        angle = 2 * math.pi * k / max(n, 1)
        lines.append(f"{math.cos(angle):.6f} {math.sin(angle):.6f} 0.000000")
    for cid in faces:
        vs = ex.vertices_of[cid]
        lines.append(f"{len(vs)} " + " ".join(str(pos[v]) for v in vs))
    return "\n".join(lines) + "\n"


# -- readers --------------------------------------------------------------------

_REQUIRED = object()
_REF = str | dict  # a document id, or the same document inline


def _fits(value, shape) -> bool:
    """Whether a JSON value has ``shape``.

    A shape is a type (``int``, ``str``, ``dict``, or a union such as
    ``str | dict``; booleans are never ints), ``[s]`` for a list of ``s``,
    a tuple ``(s1, s2, ...)`` for a list of exactly those, ``{str: s}`` for
    an object of ``s`` values, or ``{key: s, ...}`` for an object with at
    least those keys.
    """
    if isinstance(shape, list):
        return isinstance(value, list) and all(_fits(v, shape[0]) for v in value)
    if isinstance(shape, tuple):
        return isinstance(value, list) and len(value) == len(shape) and all(map(_fits, value, shape))
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            return False
        if str in shape:
            return all(_fits(v, shape[str]) for v in value.values())
        return all(k in value and _fits(value[k], s) for k, s in shape.items())
    return isinstance(value, shape) and not isinstance(value, bool)


def _shape_text(shape) -> str:
    if isinstance(shape, list):
        return f"[{_shape_text(shape[0])}, ...]"
    if isinstance(shape, tuple):
        return "[" + ", ".join(map(_shape_text, shape)) + "]"
    if isinstance(shape, dict):
        keys = {k: "str" if k is str else json.dumps(k) for k in shape}
        return "{" + ", ".join(f"{keys[k]}: {_shape_text(s)}" for k, s in shape.items()) + "}"
    return getattr(shape, "__name__", str(shape))


def _field(payload: dict, key: str, kind: str, shape, default=_REQUIRED):
    """``payload[key]`` checked against ``shape``; ``default`` when absent, if given."""
    if key not in payload:
        if default is _REQUIRED:
            raise ParseError(f"{kind} document is missing {key!r}")
        return default
    value = payload[key]
    if not _fits(value, shape):
        raise ParseError(f"{kind} field {key!r} must have the shape {_shape_text(shape)}")
    return value


def _pair_map(entries: list, where: str) -> dict:
    """``{(a, b): v}`` from ``[a, b, v]`` entries; ``ParseError`` naming the
    first pair that ``where`` lists twice."""
    out = {(a, b): v for a, b, v in entries}
    if len(out) != len(entries):
        seen = set()
        for a, b, _ in entries:
            if (a, b) in seen:
                raise ParseError(f"{where} lists the pair {[a, b]} twice")
            seen.add((a, b))
    return out


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's dict; ``json`` would keep the last of two equal keys,
    so a repeated key is refused by name."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"object key {key!r} repeated")
            seen.add(key)
    return obj


# one decoder for every file: ``json.loads`` with a hook would build a new one per call
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _read_json(path: Union[str, Path]):
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}")
    if text.startswith("\ufeff"):  # what json.loads says; the decoder alone finds no value
        raise ParseError(f"{path}: line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)")
    try:
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except (RecursionError, ValueError) as exc:  # nesting too deep, an integer too long, a repeated key
        raise ParseError(f"{path}: {exc}")


def read_document(path: Union[str, Path]) -> dict:
    """The schema-tagged JSON document at ``path``.

    Raises ``ParseError`` when the file cannot be read, is not JSON, or is
    not an object with a string ``schema`` (and a string ``id``, if any).
    """
    payload = _read_json(path)
    if not isinstance(payload, dict) or not isinstance(payload.get("schema"), str):
        raise ParseError(f"{path}: not a schema-tagged document")
    if not isinstance(payload.get("id", ""), str):
        raise ParseError(f"{path}: 'id' is not a string")
    return payload


def read_tree(path: Union[str, Path]) -> tuple[str, ...]:
    """The morphism ids of a spanning tree, stored as a JSON list at ``path``."""
    tree = _read_json(path)
    if not _fits(tree, [str]):
        raise ParseError(f"{path}: a tree file holds a JSON list of morphism ids")
    return tuple(tree)


def group_from_json(payload: dict) -> FiniteGroup:
    label = _field(payload, "id", "group", str, "G")
    if "cayley" in payload:
        return groups.from_cayley_table(
            _field(payload, "cayley", "group", [[int]]),
            _field(payload, "identity", "group", int, 0),
            label=label,
        )
    if "perm_gens" in payload:
        return groups.from_permutation_generators(
            _field(payload, "degree", "group", int),
            _field(payload, "perm_gens", "group", [[int]]),
            label=label,
        )
    raise ParseError("group document needs either 'cayley' or 'perm_gens'")


def scwol_from_json(payload: dict) -> Scwol:
    mors = _field(payload, "morphisms", "scwol", [{"id": str, "i": str, "t": str}])
    comp = _field(payload, "comp", "scwol", [(str, str, str)], [])
    objects = _field(payload, "objects", "scwol", [str])
    label = _field(payload, "id", "scwol", str, "Y")
    S = Scwol(
        objects,
        [Morphism(m["id"], m["i"], m["t"]) for m in mors],
        _pair_map(comp, f"scwol {label!r} comp"),
        label=label,
    )
    rep = validate_scwol(S)
    if not rep.ok:
        raise ParseError(f"scwol {S.label!r} invalid: {rep.failures[0].message}")
    return S


def presentation_from_json(payload: dict) -> GroupPresentation:
    if not _field(payload, "schema", "presentation", str).startswith("presentation/"):
        raise ParseError("not a presentation document")
    gens = _field(payload, "generators", "presentation", [list])
    for g in gens:
        if not (_fits(g, (str, str, int)) and g[0] == "v" or _fits(g, (str, str)) and g[0] == "e"):
            raise ParseError(f"generator {g!r} is neither ['v', object, element] nor ['e', morphism]")
    relators = _field(payload, "relators", "presentation", [[(int, int)]])
    for word in relators:
        for gen, sign in word:
            if not 0 <= gen < len(gens) or sign not in (1, -1):
                raise ParseError(f"relator letter {[gen, sign]} is not [generator index, +1 or -1]")
    return GroupPresentation(
        generators=tuple(tuple(g) for g in gens),
        relators=tuple(tuple(map(tuple, word)) for word in relators),
        tree=tuple(_field(payload, "tree", "presentation", [str])),
        label=_field(payload, "label", "presentation", str, "pi1"),
    )


def _phi_local(payload: dict, kind: str, source: ComplexOfGroups, target_of) -> dict:
    """The ``phi_local`` homs, from each named object's group to ``target_of(object)``."""
    images = _field(payload, "phi_local", kind, {str: [int]})
    for o in images:
        if o not in source.base.object_set:
            raise ParseError(f"{kind} phi_local names {o!r}, not an object of its source")
    return {o: groups.make_hom(source.group_of[o], target_of(o), img) for o, img in images.items()}


@dataclass
class Workspace:
    """Named documents in a directory, read on first lookup and parsed lazily.

    ``load`` reads the directory at once; a bare ``Workspace(root)`` reads it
    only when a document is first looked up by name.
    """

    root: Path
    documents: Optional[dict[str, dict]] = None
    _groups: dict[str, FiniteGroup] = field(default_factory=dict)
    _scwols: dict[str, Scwol] = field(default_factory=dict)
    _cogs: dict[str, ComplexOfGroups] = field(default_factory=dict)

    @classmethod
    def load(cls, root: Union[str, Path]) -> "Workspace":
        """Every ``*.json`` document of ``root``, named by ``id`` (else file stem), read now.

        Raises ``UnresolvedReference`` naming ``root`` when it is not a
        directory, and ``ParseError`` naming both files when two documents
        share a name.
        """
        root = Path(root)
        if not root.is_dir():
            state = "is not a directory" if root.exists() else "does not exist"
            raise UnresolvedReference(f"workspace directory {root} {state}")
        documents = {}
        paths: dict[str, Path] = {}
        for path in sorted(root.glob("*.json")):
            payload = read_document(path)
            name = payload.get("id", path.stem)
            if name in paths:
                raise ParseError(f"{paths[name]} and {path} both name a document {name!r}")
            documents[name] = payload
            paths[name] = path
        return cls(root=root, documents=documents)

    def scan(self) -> dict[str, dict]:
        """The directory's documents, read by ``load`` on first use."""
        if self.documents is None:
            self.documents = self.load(self.root).documents
        return self.documents

    def _find(self, ref: str, schema_prefix: str) -> dict:
        doc = self.scan().get(ref)
        if doc is None or not doc["schema"].startswith(schema_prefix):
            raise UnresolvedReference(f"no {schema_prefix!r} document named {ref!r}")
        return doc

    def group(self, ref: Union[str, dict]) -> FiniteGroup:
        if isinstance(ref, dict):
            return group_from_json(ref)
        if ref not in self._groups:
            self._groups[ref] = group_from_json(self._find(ref, "group/"))
        return self._groups[ref]

    def scwol(self, ref: Union[str, dict]) -> Scwol:
        if isinstance(ref, dict):
            return scwol_from_json(ref)
        if ref not in self._scwols:
            self._scwols[ref] = scwol_from_json(self._find(ref, "scwol/"))
        return self._scwols[ref]

    def cog(self, ref: Union[str, dict]) -> ComplexOfGroups:
        if isinstance(ref, str) and ref in self._cogs:
            return self._cogs[ref]
        payload = ref if isinstance(ref, dict) else self._find(ref, "cog/")
        base = self.scwol(_field(payload, "base", "cog", _REF))
        group_of = {o: self.group(g) for o, g in _field(payload, "groups", "cog", {str: _REF}).items()}
        images = _field(payload, "psi", "cog", {str: [int]})
        for o in base.objects:
            if o not in group_of:
                raise ParseError(f"cog document lacks groups[{o!r}]")
        psi = {}
        for m in base.morphisms:
            if m.id not in images:
                raise ParseError(f"cog document lacks psi[{m.id!r}]")
            psi[m.id] = groups.make_hom(group_of[m.i], group_of[m.t], images[m.id])
        twists = _field(payload, "twists", "cog", [(str, str, int)], [])
        label = _field(payload, "id", "cog", str, "G(Y)")
        C = ComplexOfGroups(
            base=base,
            group_of=group_of,
            psi=psi,
            twist=_pair_map(twists, f"complex {label!r} twists"),
            label=label,
        )
        rep = validate_cog(C)
        if not rep.ok:
            raise ParseError(f"complex {C.label!r} invalid: {rep.failures[0].message}")
        if isinstance(ref, str):
            self._cogs[ref] = C
        return C

    def morphism_to_group(self, ref: Union[str, dict]) -> MorphismToGroup:
        payload = ref if isinstance(ref, dict) else self._find(ref, "morphism-to-group/")
        kind = "morphism-to-group"
        C = self.cog(_field(payload, "cog", kind, _REF))
        G = self.group(_field(payload, "target", kind, _REF))
        phi = MorphismToGroup(
            source=C,
            target=G,
            phi_local=_phi_local(payload, kind, C, lambda o: G),
            phi_edge=_field(payload, "phi_edge", kind, {str: int}),
        )
        rep = validate_morphism_to_group(phi)
        if not rep.ok:
            raise ParseError(f"morphism-to-group invalid: {rep.validation.failures[0].message}")
        return phi

    def cog_morphism(self, ref: Union[str, dict]) -> CogMorphism:
        payload = ref if isinstance(ref, dict) else self._find(ref, "cog-morphism/")
        kind = "cog-morphism"
        src = self.cog(_field(payload, "source", kind, _REF))
        tgt = self.cog(_field(payload, "target", kind, _REF))
        fdata = _field(payload, "f", kind, {"objects": {str: str}, "morphisms": {str: str}})
        f = ScwolMorphism(
            source=src.base,
            target=tgt.base,
            on_objects=dict(fdata["objects"]),
            on_morphisms=dict(fdata["morphisms"]),
        )
        rep = validate_scwol_morphism(f)
        if not rep.ok:
            raise ParseError(f"cog-morphism map f invalid: {rep.failures[0].message}")
        phi = CogMorphism(
            source=src,
            target=tgt,
            f=f,
            phi_local=_phi_local(payload, kind, src, lambda o: tgt.group_of[f.obj(o)]),
            phi_edge=_field(payload, "phi_edge", kind, {str: int}),
        )
        rep = validate_cog_morphism(phi)
        if not rep.ok:
            raise ParseError(f"cog-morphism invalid: {rep.failures[0].message}")
        return phi

    def parse(self, doc: dict):
        """The object a schema-tagged document describes, by its schema."""
        schema = doc["schema"]
        if schema.startswith("group/"):
            return group_from_json(doc)
        if schema.startswith("scwol/"):
            return scwol_from_json(doc)
        if schema.startswith("cog/"):
            return self.cog(doc)
        if schema.startswith("morphism-to-group/"):
            return self.morphism_to_group(doc)
        if schema.startswith("cog-morphism/"):
            return self.cog_morphism(doc)
        if schema.startswith("presentation/"):
            return presentation_from_json(doc)
        if schema.startswith("development/"):
            # the embedded scwol must be valid; action tables are re-derived
            # rather than trusted, so only the combinatorial part is checked
            return scwol_from_json(_field(doc, "scwol", "development", dict))
        if schema.startswith(("realization/", "immersion-report/", "iso-witness/")):
            return doc
        raise ParseError(f"unsupported schema {schema!r}")

    def resolve(self, name: str):
        """Parse the document named ``name``."""
        doc = self.scan().get(name)
        if doc is None:
            raise UnresolvedReference(f"no document named {name!r}")
        return self.parse(doc)
