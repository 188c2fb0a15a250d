"""Batch front-end: validate fixtures, run the constructions, emit artifacts.

Exit codes: 0 success or positive verdict, 1 negative verdict (with a
machine-readable witness on stdout or in the emitted file), 2 malformed
input or unresolved reference.  All output is deterministic byte-for-byte:
JSON is emitted with sorted keys and all iteration orders are fixed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import io as cio
from .corpus import build_corpus
from .develop import build_development, build_local_development
from .errors import (
    CogkitError,
    ParseError,
    SearchBudgetExceeded,
    UnknownObject,
    UnresolvedReference,
)
from .immersions import check_immersion
from .local import build_local_cog, build_sigma, build_theta
from .presentations import abelianization, export, parse_structured, pi1_presentation
from .scwols import (
    DEFAULT_ISO_BUDGET,
    geometric_realization,
    maximal_tree,
    scwol_isomorphic,
)


def _emit(text: str, path: str | None) -> None:
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}")


def _read_json(path: str):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")


def _load_document(path: str) -> dict:
    payload = _read_json(path)
    if not isinstance(payload, dict) or "schema" not in payload:
        raise ParseError(f"{path}: not a schema-tagged document")
    return payload


def _scwol_from_path(ws: cio.Workspace, path: str):
    payload = _load_document(path)
    schema = payload["schema"]
    if schema.startswith("development/"):
        return cio.scwol_from_json(payload["scwol"])
    if schema.startswith("scwol/"):
        return cio.scwol_from_json(payload)
    raise ParseError(f"{path}: expected a scwol or development document")


def cmd_validate(args, ws: cio.Workspace) -> int:
    status = 0
    for path in args.files:
        payload = _load_document(path)
        name = payload.get("id", Path(path).stem)
        local = cio.Workspace(root=ws.root, documents={**ws.documents, name: payload})
        try:
            local.resolve(name)
        except ParseError as exc:
            print(f"INVALID {path}: {exc}")
            status = 1
            continue
        print(f"OK {path} ({payload['schema']})")
    return status


def _resolve_cog(args, ws: cio.Workspace):
    if not args.cog:
        raise UnresolvedReference("--cog is required")
    return ws.cog(args.cog)


def cmd_local_cog(args, ws) -> int:
    L = build_local_cog(_resolve_cog(args, ws), args.vertex)
    _emit(cio.dumps(cio.cog_to_json(L.cog, id=f"{args.cog}.local.{args.vertex}")), args.emit)
    return 0


def cmd_theta(args, ws) -> int:
    L = build_local_cog(_resolve_cog(args, ws), args.vertex)
    theta = build_theta(L)
    _emit(
        cio.dumps(cio.morphism_to_group_to_json(theta, id=f"{args.cog}.theta.{args.vertex}")),
        args.emit,
    )
    return 0


def cmd_sigma(args, ws) -> int:
    L = build_local_cog(_resolve_cog(args, ws), args.vertex)
    sigma = build_sigma(L)
    _emit(
        cio.dumps(cio.cog_morphism_to_json(sigma, id=f"{args.cog}.sigma.{args.vertex}")),
        args.emit,
    )
    return 0


def cmd_local_dev(args, ws) -> int:
    dev = build_local_development(_resolve_cog(args, ws), args.vertex)
    _emit(
        cio.dumps(cio.scwol_to_json(dev.scwol, id=f"{args.cog}.localdev.{args.vertex}")),
        args.emit,
    )
    return 0


def cmd_develop(args, ws) -> int:
    phi = ws.morphism_to_group(args.mor)
    if args.cog and phi.source.label != args.cog:
        raise UnresolvedReference(
            f"morphism {args.mor!r} lives on {phi.source.label!r}, not {args.cog!r}"
        )
    D = build_development(phi.source, phi)
    _emit(cio.dumps(cio.development_to_json(D, id=f"{args.mor}.development")), args.emit)
    return 0


def _tree_for(args, C) -> tuple[str, ...]:
    spec = args.tree or "bfs"
    if spec == "bfs":
        return maximal_tree(C.base)
    if spec.startswith("file:"):
        return tuple(_read_json(spec[5:]))
    raise ParseError(f"unknown tree selector {spec!r} (use 'bfs' or 'file:PATH')")


def cmd_pi1(args, ws) -> int:
    C = _resolve_cog(args, ws)
    P = pi1_presentation(C, _tree_for(args, C))
    fmt = args.format or "json"
    fmt = {"json": "structured"}.get(fmt, fmt)
    _emit(export(P, fmt), args.emit)
    return 0


def cmd_abel(args, ws) -> int:
    if args.pres:
        P = parse_structured(_read_text(args.pres))
    else:
        C = _resolve_cog(args, ws)
        P = pi1_presentation(C, _tree_for(args, C))
    _emit(json.dumps(abelianization(P)) + "\n", args.emit)
    return 0


def cmd_export_pres(args, ws) -> int:
    if not args.pres:
        raise UnresolvedReference("--pres is required")
    P = parse_structured(_read_text(args.pres))
    fmt = args.format or "plain"
    fmt = {"json": "structured"}.get(fmt, fmt)
    _emit(export(P, fmt), args.emit)
    return 0


def cmd_immerse(args, ws) -> int:
    phi = ws.cog_morphism(args.mor)
    rep = check_immersion(phi)
    witnesses = {
        "algebraic_failures": sorted(o for o, ok in rep.algebraic.items() if not ok),
        "geometric_failures": sorted(
            o for o, v in rep.geometric.items() if not (v["objects"] and v["morphisms"])
        ),
        "coset_failures": sorted([j, s] for (j, s), ok in rep.coset.items() if not ok),
    }
    payload = {
        "schema": "immersion-report/1",
        "morphism": args.mor,
        "overall": rep.overall,
        "algebraic": dict(sorted(rep.algebraic.items())),
        "geometric": {o: dict(sorted(v.items())) for o, v in sorted(rep.geometric.items())},
        "coset": {f"{j}|{s}": ok for (j, s), ok in sorted(rep.coset.items())},
        "metric": rep.metric,
        "witnesses": witnesses,
    }
    _emit(cio.dumps(payload), args.emit)
    return 0 if rep.overall else 1


def cmd_iso(args, ws) -> int:
    S1 = _scwol_from_path(ws, args.files[0])
    S2 = _scwol_from_path(ws, args.files[1])
    budget = DEFAULT_ISO_BUDGET if args.budget is None else args.budget
    if budget < 1:
        raise ParseError(f"--budget must be at least 1, got {budget}")
    iso = scwol_isomorphic(S1, S2, budget=budget)
    if iso is None:
        _emit(cio.dumps({"schema": "iso-witness/1", "isomorphic": False}), args.emit)
        return 1
    payload = {
        "schema": "iso-witness/1",
        "isomorphic": True,
        "objects": dict(sorted(iso.on_objects.items())),
        "morphisms": dict(sorted(iso.on_morphisms.items())),
    }
    _emit(cio.dumps(payload), args.emit)
    return 0


def cmd_realize(args, ws) -> int:
    if not args.scwol:
        raise UnresolvedReference("--scwol is required")
    S = ws.scwol(args.scwol)
    ex = geometric_realization(S)
    fmt = args.format or "json"
    if fmt == "off":
        _emit(cio.realization_to_off(ex), args.emit)
    elif fmt == "json":
        _emit(cio.dumps(cio.realization_to_json(ex, id=f"{args.scwol}.realization")), args.emit)
    else:
        raise ParseError(f"unsupported realization format {fmt!r}")
    return 0


def cmd_gen_corpus(args, ws) -> int:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    entries = build_corpus(seed=args.seed or 0, count=args.count)
    for k, entry in enumerate(entries):
        cog_id = f"corpus{k:03d}"
        (out / f"{cog_id}.json").write_text(cio.dumps(cio.cog_to_json(entry.complex, id=cog_id)))
        mor = cio.morphism_to_group_to_json(entry.to_ambient, id=f"{cog_id}.ambient")
        (out / f"{cog_id}.ambient.json").write_text(cio.dumps(mor))
    print(f"wrote {2 * len(entries)} documents to {out}")
    return 0


COMMANDS = {
    "validate": cmd_validate,
    "local-cog": cmd_local_cog,
    "theta": cmd_theta,
    "sigma": cmd_sigma,
    "local-dev": cmd_local_dev,
    "develop": cmd_develop,
    "pi1": cmd_pi1,
    "abel": cmd_abel,
    "export-pres": cmd_export_pres,
    "immerse": cmd_immerse,
    "iso": cmd_iso,
    "realize": cmd_realize,
    "gen-corpus": cmd_gen_corpus,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cogkit",
        description="Complexes of groups over scwols: validators, local complexes, "
        "developments, presentations, immersion checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, files: int = 0):
        p.add_argument("--dir", default=".", help="workspace directory of JSON documents")
        p.add_argument("--cog", help="complex-of-groups id")
        p.add_argument("--scwol", help="scwol id")
        p.add_argument("--mor", help="morphism id")
        p.add_argument("--vertex", help="object of the base scwol")
        p.add_argument("--tree", help="spanning tree: 'bfs' or 'file:PATH'")
        p.add_argument("--emit", help="write output to this path instead of stdout")
        p.add_argument("--format", choices=["json", "off", "cas", "plain"], help="output format")
        p.add_argument("--seed", type=int, help="seed for randomized corpus generation")
        p.add_argument("--budget", type=int, help="search node cap")
        p.add_argument("--pres", help="presentation file (for abel / export-pres)")
        p.add_argument("--count", type=int, default=10, help="corpus size (gen-corpus)")
        p.add_argument("--out", help="output directory (gen-corpus)")
        if files:
            p.add_argument("files", nargs=files if files > 0 else "+", help="input files")

    for name in COMMANDS:
        p = sub.add_parser(name)
        if name == "validate":
            common(p, files=-1)
        elif name == "iso":
            common(p, files=2)
        else:
            common(p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        ws = cio.Workspace.load(args.dir) if Path(args.dir).is_dir() else cio.Workspace(root=Path(args.dir))
        return COMMANDS[args.command](args, ws)
    except (ParseError, UnresolvedReference, UnknownObject) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SearchBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CogkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
