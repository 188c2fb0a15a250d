"""Mutated documents through the CLI: every run ends in an exit code, never a traceback.

Each example takes one document of the fixture workspace (plus a
cog-morphism and a presentation built from the fixtures), applies one to
three mutations (drop a key, repeat a key, change a value's JSON type,
replace an int by one in -2..50 or by a non-integral float, truncate a
list), and runs ``validate`` and the commands that read that kind of
document, in-process.  A top-level value may also be nested past the
parser's recursion limit or become an integer past its digit limit, and a
scwol may become a total order whose realization passes the cell cap,
which this test lowers so that the refusal costs little.
"""

from __future__ import annotations

import contextlib
import copy
import io as _io
import json
import shutil
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogkit import io as cio
from cogkit import scwols
from cogkit.cli import main
from cogkit.corpus import collapse_morphism
from cogkit.presentations import export, pi1_presentation
from cogkit.scwols import maximal_tree, scwol_from_poset

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# commands run on a mutated document of each schema; {id} is its id, {file} its path
READERS = {
    "group/": [["abel", "--cog", "seg23"], ["local-dev", "--cog", "star-s3", "--vertex", "g"]],
    "scwol/": [["realize", "--scwol", "{id}"], ["iso", "{file}", "{file}", "--budget", "1000"]],
    "cog/": [["abel", "--cog", "{id}"], ["local-dev", "--cog", "{id}", "--vertex", "{vertex}"]],
    "morphism-to-group/": [["develop", "--mor", "{id}"]],
    "cog-morphism/": [["immerse", "--mor", "{id}"]],
    "presentation/": [["abel", "--pres", "{file}"], ["export-pres", "--pres", "{file}", "--format", "cas"]],
}

# a value of each JSON type, to stand in for a value of another type
RETYPED = [None, True, 7, 2.5, "x", [], [0], {}, {"x": 0}]

# JSON text that json.dumps cannot write, put in place of a marker string
UNWRITABLE = {"nest": "[" * 2000 + "]" * 2000, "huge": "7" * 5000}

# a key with this prefix is written without it, repeating the key it copies
REPEAT = "<repeat>"

# the total order on 8 objects realizes in 255 cells, past this lowered cap
CELL_CAP = 128
CHAIN = scwol_from_poset({f"x{j}": {f"x{k}" for k in range(j + 1, 8)} for j in range(8)})
CHAIN_FIELDS = {k: v for k, v in cio.scwol_to_json(CHAIN).items() if k not in ("schema", "id")}


@pytest.fixture(scope="module")
def documents(seg23) -> dict[str, dict]:
    docs = {p.stem: json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))}
    docs["collapse"] = cio.cog_morphism_to_json(collapse_morphism(seg23), id="collapse")
    P = pi1_presentation(seg23, maximal_tree(seg23.base))
    docs["pres"] = json.loads(export(P, "json"))
    return docs


@pytest.fixture(scope="module")
def workspace(tmp_path_factory) -> Path:
    ws = tmp_path_factory.mktemp("fuzz") / "ws"
    shutil.copytree(FIXTURES, ws)
    return ws


def _paths(value, path=()):
    """Every (path, value) below the root of a JSON value."""
    if path:
        yield path, value
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _mutate(doc: dict, data) -> None:
    path, value = data.draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    kinds = ["retype"]
    if isinstance(parent, dict):
        kinds += ["drop", "repeat-key"]
    if type(value) is int:
        kinds += ["int", "non-integral"]
    if isinstance(value, list) and value:
        kinds.append("truncate")
    if len(path) == 1:
        kinds += UNWRITABLE
        if doc.get("schema") == "scwol/1":
            kinds.append("chain")
    kind = data.draw(st.sampled_from(kinds))
    if kind == "drop":
        del parent[key]
    elif kind == "repeat-key":
        parent[REPEAT + key] = copy.deepcopy(value)
    elif kind == "int":
        parent[key] = data.draw(st.integers(-2, 50))
    elif kind == "non-integral":
        parent[key] = data.draw(st.integers(-2, 50)) + 0.5
    elif kind == "truncate":
        parent[key] = value[: data.draw(st.integers(0, len(value) - 1))]
    elif kind in UNWRITABLE:
        parent[key] = f"<{kind}>"
    elif kind == "chain":
        doc.update(copy.deepcopy(CHAIN_FIELDS))
    else:
        other = data.draw(st.sampled_from([v for v in RETYPED if type(v) is not type(value)]))
        parent[key] = copy.deepcopy(other)


def _run(argv: list[str]) -> int:
    with contextlib.redirect_stdout(_io.StringIO()), contextlib.redirect_stderr(_io.StringIO()):
        return main(argv)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_documents_exit_with_a_code(documents, workspace, data):
    name = data.draw(st.sampled_from(sorted(documents)))
    doc = copy.deepcopy(documents[name])
    schema = doc["schema"]
    base = doc.get("base")
    vertex = (documents[base] if isinstance(base, str) else base)["objects"][0] if base else None
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(doc, data)
    text = json.dumps(doc).replace(f'"{REPEAT}', '"')
    for kind, value in UNWRITABLE.items():
        text = text.replace(f'"<{kind}>"', value)
    path = workspace / f"{name}.json"
    original = path.read_bytes() if path.exists() else None
    path.write_text(text)
    runs = [["validate", str(path)]]
    for prefix, commands in READERS.items():
        if schema.startswith(prefix):
            runs += [[a.format(id=name, file=path, vertex=vertex) for a in argv] for argv in commands]
    try:
        with mock.patch.object(scwols, "MAX_REALIZATION_CELLS", CELL_CAP):
            for argv in runs:
                code = _run(argv + ["--dir", str(workspace)])
                assert code in (0, 1, 2, 3), (argv, code)
    finally:
        if original is None:
            path.unlink()
        else:
            path.write_bytes(original)
