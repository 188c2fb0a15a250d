"""Batch front-end: validate fixtures, run the constructions, emit artifacts.

``COMMANDS`` lists each command with its handler and the options that
handler reads; a command accepts no other option.  Every command takes
``--dir``, the workspace directory, which is read only when the command
first looks a document up by id.  Input files (``validate``, ``iso``,
``--pres``, ``--tree file:``) go through the same readers in ``io``.

``build_parser`` builds the argument parser once per process, on first use;
every later in-process ``main`` call shares it, and parsing leaves no state
on it.

Exit codes:

- 0: success or positive verdict;
- 1: negative verdict, with a machine-readable witness on stdout or in the
  emitted file;
- 2: malformed input, unresolved reference or broken precondition (any
  ``CogkitError`` but the one below), an ``--emit`` or ``--out`` path that
  cannot be written (``OutputNotWritable``), and command-line usage errors;
- 3: a search exhausted its budget (``SearchBudgetExceeded``) before a verdict.

All output is deterministic byte-for-byte: JSON is emitted with sorted keys
and all iteration orders are fixed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Union

from . import io as cio
from .corpus import build_corpus
from .develop import build_development, build_local_development
from .errors import (
    CogkitError,
    OutputNotWritable,
    ParseError,
    SearchBudgetExceeded,
    UnresolvedReference,
)
from .immersions import check_immersion
from .local import build_local_cog, build_sigma, build_theta
from .presentations import abelianization, export, pi1_presentation
from .scwols import (
    DEFAULT_ISO_BUDGET,
    geometric_realization,
    maximal_tree,
    scwol_isomorphic,
)


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise OutputNotWritable(f"cannot write {path}: {exc.strerror or exc}")


def _emit(text: str, path: str | None) -> None:
    if path:
        _write(Path(path), text)
    else:
        sys.stdout.write(text)


def cmd_validate(args, ws: cio.Workspace) -> int:
    documents = ws.scan()
    status = 0
    for path in args.files:
        payload = cio.read_document(path)
        name = payload.get("id", Path(path).stem)
        try:
            cio.Workspace(root=ws.root, documents={**documents, name: payload}).resolve(name)
        except CogkitError as exc:
            print(f"INVALID {path}: {exc}")
            status = 1
            continue
        print(f"OK {path} ({payload['schema']})")
    return status


def _required(args, option: str) -> str:
    value = getattr(args, option)
    if not value:
        raise UnresolvedReference(f"--{option} is required")
    return value


# command -> (id infix, what it builds from (complex, vertex), the writer)
LOCAL_COMMANDS = {
    "local-cog": ("local", lambda C, v: build_local_cog(C, v).cog, cio.cog_to_json),
    "theta": ("theta", lambda C, v: build_theta(build_local_cog(C, v)), cio.morphism_to_group_to_json),
    "sigma": ("sigma", lambda C, v: build_sigma(build_local_cog(C, v)), cio.cog_morphism_to_json),
    "local-dev": ("localdev", lambda C, v: build_local_development(C, v).scwol, cio.scwol_to_json),
}


def cmd_local(args, ws) -> int:
    """The four local commands: ``--cog`` is resolved before ``--vertex`` is required."""
    infix, build, to_json = LOCAL_COMMANDS[args.command]
    C = ws.cog(_required(args, "cog"))
    vertex = _required(args, "vertex")
    _emit(cio.dumps(to_json(build(C, vertex), id=f"{args.cog}.{infix}.{vertex}")), args.emit)
    return 0


def cmd_develop(args, ws) -> int:
    phi = ws.morphism_to_group(_required(args, "mor"))
    if args.cog and phi.source.label != args.cog:
        raise UnresolvedReference(
            f"morphism {args.mor!r} lives on {phi.source.label!r}, not {args.cog!r}"
        )
    D = build_development(phi.source, phi)
    _emit(cio.dumps(cio.development_to_json(D, id=f"{args.mor}.development")), args.emit)
    return 0


def _tree_for(args, C) -> tuple[str, ...]:
    if args.tree == "bfs":
        return maximal_tree(C.base)
    if args.tree.startswith("file:"):
        return cio.read_tree(args.tree[5:])
    raise ParseError(f"unknown tree selector {args.tree!r} (use 'bfs' or 'file:PATH')")


def cmd_pi1(args, ws) -> int:
    C = ws.cog(_required(args, "cog"))
    _emit(export(pi1_presentation(C, _tree_for(args, C)), args.format), args.emit)
    return 0


def cmd_abel(args, ws) -> int:
    if args.pres:
        P = cio.presentation_from_json(cio.read_document(args.pres))
    else:
        C = ws.cog(_required(args, "cog"))
        P = pi1_presentation(C, _tree_for(args, C))
    _emit(json.dumps(abelianization(P)) + "\n", args.emit)
    return 0


def cmd_export_pres(args, ws) -> int:
    P = cio.presentation_from_json(cio.read_document(_required(args, "pres")))
    _emit(export(P, args.format), args.emit)
    return 0


def cmd_immerse(args, ws) -> int:
    phi = ws.cog_morphism(_required(args, "mor"))
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


def _scwol_file(ws: cio.Workspace, path: str):
    doc = cio.read_document(path)
    if not doc["schema"].startswith(("scwol/", "development/")):
        raise ParseError(f"{path}: expected a scwol or development document")
    return ws.parse(doc)


def cmd_iso(args, ws) -> int:
    S1 = _scwol_file(ws, args.files[0])
    S2 = _scwol_file(ws, args.files[1])
    if args.budget < 1:
        raise ParseError(f"--budget must be at least 1, got {args.budget}")
    iso = scwol_isomorphic(S1, S2, budget=args.budget)
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
    ex = geometric_realization(ws.scwol(_required(args, "scwol")))
    if args.format == "off":
        _emit(cio.realization_to_off(ex), args.emit)
    else:
        _emit(cio.dumps(cio.realization_to_json(ex, id=f"{args.scwol}.realization")), args.emit)
    return 0


def cmd_gen_corpus(args, ws) -> int:
    if args.count < 0:
        raise ParseError(f"--count must be at least 0, got {args.count}")
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputNotWritable(f"cannot create directory {out}: {exc.strerror or exc}")
    entries = build_corpus(seed=args.seed, count=args.count)
    for k, entry in enumerate(entries):
        cog_id = f"corpus{k:03d}"
        _write(out / f"{cog_id}.json", cio.dumps(cio.cog_to_json(entry.complex, id=cog_id)))
        mor = cio.morphism_to_group_to_json(entry.to_ambient, id=f"{cog_id}.ambient")
        _write(out / f"{cog_id}.ambient.json", cio.dumps(mor))
    print(f"wrote {2 * len(entries)} documents to {out}")
    return 0


# every command also takes --dir
OPTIONS = {
    "dir": {"default": ".", "help": "workspace directory of JSON documents"},
    "cog": {"help": "complex-of-groups id"},
    "scwol": {"help": "scwol id"},
    "mor": {"help": "morphism id"},
    "vertex": {"help": "object of the base scwol"},
    "tree": {"default": "bfs", "help": "spanning tree: 'bfs' or 'file:PATH'"},
    "emit": {"help": "write output to this path instead of stdout"},
    "pres": {"help": "presentation file"},
    "budget": {"type": int, "default": DEFAULT_ISO_BUDGET, "help": "search node cap"},
    "seed": {"type": int, "default": 0, "help": "seed for randomized corpus generation"},
    "count": {"type": int, "default": 10, "help": "corpus size"},
    "out": {"default": ".", "help": "output directory"},
}


class Command(NamedTuple):
    run: Callable[[argparse.Namespace, cio.Workspace], int]
    options: tuple[str, ...] = ()
    formats: tuple[str, ...] = ()  # --format choices, the default first
    files: Union[int, str, None] = None  # nargs of the positional input files


COMMANDS = {
    "validate": Command(cmd_validate, files="+"),
    **{name: Command(cmd_local, ("cog", "vertex", "emit")) for name in LOCAL_COMMANDS},
    "develop": Command(cmd_develop, ("mor", "cog", "emit")),
    "pi1": Command(cmd_pi1, ("cog", "tree", "emit"), formats=("json", "cas", "plain")),
    "abel": Command(cmd_abel, ("pres", "cog", "tree", "emit")),
    "export-pres": Command(cmd_export_pres, ("pres", "emit"), formats=("plain", "cas", "json")),
    "immerse": Command(cmd_immerse, ("mor", "emit")),
    "iso": Command(cmd_iso, ("budget", "emit"), files=2),
    "realize": Command(cmd_realize, ("scwol", "emit"), formats=("json", "off")),
    "gen-corpus": Command(cmd_gen_corpus, ("seed", "count", "out")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call; callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="cogkit",
        description="Complexes of groups over scwols: validators, local complexes, "
        "developments, presentations, immersion checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name)
        for option in ("dir", *command.options):
            p.add_argument(f"--{option}", **OPTIONS[option])
        if command.formats:
            p.add_argument("--format", choices=command.formats, default=command.formats[0])
        if command.files:
            p.add_argument("files", nargs=command.files, help="input files")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command].run(args, cio.Workspace(root=Path(args.dir)))
    except CogkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, SearchBudgetExceeded) else 2


if __name__ == "__main__":
    sys.exit(main())
