"""Serialization round-trips, workspace resolution, CLI exit codes, determinism."""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cogkit
from cogkit import cli, groups, io as cio
from cogkit.cli import main
from cogkit.corpus import collapse_morphism
from cogkit.errors import ParseError, UnresolvedReference
from cogkit.scwols import scwol_from_poset, scwol_from_simplicial_complex

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# -- round trips ---------------------------------------------------------------

def test_group_round_trip():
    s4 = groups.symmetric_group(4)
    payload = cio.group_to_json(s4, id="s4")
    back = cio.group_from_json(payload)
    assert back.mult == s4.mult and back.identity == s4.identity


def test_scwol_round_trip(two_simplex):
    payload = cio.scwol_to_json(two_simplex, id="d2")
    back = cio.scwol_from_json(payload)
    assert back.objects == tuple(sorted(two_simplex.objects)) or set(back.objects) == set(
        two_simplex.objects
    )
    assert {m.id for m in back.morphisms} == {m.id for m in two_simplex.morphisms}
    assert back.comp == two_simplex.comp


def test_cog_round_trip(seg23, tmp_path):
    payload = cio.cog_to_json(seg23, id="seg23")
    (tmp_path / "seg23.json").write_text(cio.dumps(payload))
    ws = cio.Workspace.load(tmp_path)
    back = ws.cog("seg23")
    assert back.twist == seg23.twist
    assert {o: g.order for o, g in back.group_of.items()} == {
        o: g.order for o, g in seg23.group_of.items()
    }


def test_morphism_round_trips(seg23, seg23_to_z6, tmp_path):
    (tmp_path / "to-z6.json").write_text(
        cio.dumps(cio.morphism_to_group_to_json(seg23_to_z6, id="to-z6"))
    )
    ws = cio.Workspace.load(tmp_path)
    back = ws.morphism_to_group("to-z6")
    assert back.phi_edge == seg23_to_z6.phi_edge

    phi = collapse_morphism(seg23)
    (tmp_path / "collapse.json").write_text(cio.dumps(cio.cog_morphism_to_json(phi, id="collapse")))
    ws2 = cio.Workspace.load(tmp_path)
    back2 = ws2.cog_morphism("collapse")
    assert back2.phi_edge == phi.phi_edge


def test_workspace_errors(tmp_path):
    (tmp_path / "broken.json").write_text("{not json")
    with pytest.raises(ParseError):
        cio.Workspace.load(tmp_path)
    (tmp_path / "broken.json").unlink()
    ws = cio.Workspace.load(tmp_path)
    with pytest.raises(UnresolvedReference):
        ws.group("missing")


def test_invalid_cog_document_rejected(tmp_path):
    """A non-injective psi must be rejected at load time."""
    payload = {
        "schema": "cog/1",
        "id": "bad",
        "base": {
            "schema": "scwol/1",
            "id": "seg",
            "objects": ["m", "v0"],
            "morphisms": [{"id": "a", "i": "m", "t": "v0"}],
            "comp": [],
        },
        "groups": {
            "m": {"schema": "group/1", "id": "z2", "cayley": [[0, 1], [1, 0]], "identity": 0},
            "v0": {"schema": "group/1", "id": "z2", "cayley": [[0, 1], [1, 0]], "identity": 0},
        },
        "psi": {"a": [0, 0]},
        "twists": [],
    }
    (tmp_path / "bad.json").write_text(cio.dumps(payload))
    ws = cio.Workspace.load(tmp_path)
    with pytest.raises(ParseError):
        ws.cog("bad")


# -- CLI -----------------------------------------------------------------------

def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def test_cli_validate_fixtures(capsys):
    files = sorted(FIXTURES.glob("*.json"))
    assert run_cli("validate", *files, "--dir", FIXTURES) == 0
    out = capsys.readouterr().out
    assert out.count("OK ") == len(files)


def test_cli_validate_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert run_cli("validate", bad, "--dir", tmp_path) == 2


def test_cli_validate_invalid_document(tmp_path, capsys):
    payload = {
        "schema": "scwol/1",
        "id": "loop",
        "objects": ["x"],
        "morphisms": [{"id": "a", "i": "x", "t": "x"}],
        "comp": [],
    }
    p = tmp_path / "loop.json"
    p.write_text(cio.dumps(payload))
    assert run_cli("validate", p, "--dir", tmp_path) == 1
    assert "INVALID" in capsys.readouterr().out


def test_cli_abel_and_pi1(tmp_path, capsys):
    assert run_cli("abel", "--dir", FIXTURES, "--cog", "seg23") == 0
    assert capsys.readouterr().out.strip() == "[6]"
    assert run_cli("abel", "--dir", FIXTURES, "--cog", "circle-triv") == 0
    assert capsys.readouterr().out.strip() == "[0]"
    assert run_cli("abel", "--dir", FIXTURES, "--cog", "point-triv") == 0
    assert capsys.readouterr().out.strip() == "[]"
    pres = tmp_path / "p.json"
    assert run_cli("pi1", "--dir", FIXTURES, "--cog", "seg23", "--emit", pres) == 0
    assert run_cli("abel", "--pres", pres, "--dir", FIXTURES) == 0
    assert capsys.readouterr().out.strip() == "[6]"
    assert run_cli("export-pres", "--pres", pres, "--format", "cas", "--dir", FIXTURES) == 0
    assert "FreeGroup" in capsys.readouterr().out


# 12 sparse rows over 13 columns, drawn like the SNF probe matrices of
# test_presentations.py, on which the textbook Smith reduction that the
# modular stage replaced ran past 30 s
HANGING_MATRIX = [
    {8: 2}, {12: 1, 10: 1, 2: -2, 0: 1}, {10: -1, 2: -2}, {10: -1, 9: 3, 8: 6, 0: 2},
    {10: 3, 5: 6, 6: 1, 7: -2}, {0: 6, 5: 1, 9: -2, 4: -2, 8: 2}, {11: 3, 7: 3, 4: 3, 10: 1, 9: -2},
    {4: 3, 1: 6, 10: 2, 6: 6, 5: -1}, {6: -2, 9: -1, 12: -2, 0: -1}, {0: -2, 12: -1, 9: 1, 10: 2},
    {10: -1, 12: -2, 1: 6, 3: 2, 7: -2}, {5: 2, 12: 2},
]


def test_cli_abel_pres_on_a_hanging_smith_matrix(tmp_path):
    """``abel --pres`` on one generator ["e", ...] per column of
    HANGING_MATRIX and one relator per row, which writes each entry v as |v|
    letters of sign(v).  It runs in a subprocess with a timeout and prints
    sympy's invariant factors."""
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form

    ncols = 13
    doc = {
        "schema": "presentation/1",
        "label": "probe",
        "generators": [["e", f"c{k}"] for k in range(ncols)],
        "relators": [
            [[c, 1 if v > 0 else -1] for c, v in row.items() for _ in range(abs(v))] for row in HANGING_MATRIX
        ],
        "tree": [],
    }
    pres = tmp_path / "probe.json"
    pres.write_text(cio.dumps(doc))
    snf = smith_normal_form(Matrix([[row.get(c, 0) for c in range(ncols)] for row in HANGING_MATRIX]))
    diag = [abs(snf[k, k]) for k in range(min(snf.shape))]
    want = sorted(d for d in diag if d > 1) + [0] * (ncols - sum(1 for d in diag if d))
    proc = subprocess.run(
        [sys.executable, "-m", "cogkit.cli", "abel", "--pres", str(pres)],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(Path(cogkit.__file__).resolve().parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == want == [2, 2, 4, 12, 0]


def test_cli_develop_sizes(tmp_path):
    out = tmp_path / "dev.json"
    assert run_cli("develop", "--dir", FIXTURES, "--mor", "to-z6", "--emit", out) == 0
    payload = json.loads(out.read_text())
    assert len(payload["scwol"]["objects"]) == 11
    assert len(payload["scwol"]["morphisms"]) == 12


def test_cli_theta_development_iso_pipeline(tmp_path):
    """theta -> develop -> iso against local-dev, all through the CLI."""
    theta = tmp_path / "theta.json"
    assert run_cli("theta", "--dir", FIXTURES, "--cog", "star-s3", "--vertex", "g", "--emit", theta) == 0
    # development of the local complex wrt theta
    from cogkit.develop import build_development

    ws = cio.Workspace.load(tmp_path)
    phi = ws.morphism_to_group("star-s3.theta.g")
    D = build_development(phi.source, phi)
    dev = tmp_path / "dev.json"
    dev.write_text(cio.dumps(cio.development_to_json(D)))
    ldev = tmp_path / "ldev.json"
    assert run_cli("local-dev", "--dir", FIXTURES, "--cog", "star-s3", "--vertex", "g", "--emit", ldev) == 0
    wit = tmp_path / "iso.json"
    assert run_cli("iso", dev, ldev, "--dir", FIXTURES, "--emit", wit) == 0
    assert json.loads(wit.read_text())["isomorphic"] is True


def test_cli_iso_negative(tmp_path):
    assert run_cli("iso", FIXTURES / "seg.json", FIXTURES / "circle.json", "--dir", FIXTURES) == 1


def test_cli_immerse_negative(tmp_path, seg23):
    phi = collapse_morphism(seg23)
    doc = tmp_path / "collapse.json"
    doc.write_text(cio.dumps(cio.cog_morphism_to_json(phi, id="collapse")))
    report = tmp_path / "report.json"
    assert run_cli("immerse", "--dir", tmp_path, "--mor", "collapse", "--emit", report) == 1
    payload = json.loads(report.read_text())
    assert payload["overall"] is False
    assert payload["witnesses"]["algebraic_failures"]


def test_cli_immerse_positive(tmp_path):
    sigma = tmp_path / "sigma.json"
    assert run_cli("sigma", "--dir", FIXTURES, "--cog", "star-s3", "--vertex", "g", "--emit", sigma) == 0
    assert run_cli("immerse", "--dir", tmp_path, "--mor", "star-s3.sigma.g") == 0


def test_cli_realize_formats(tmp_path, capsys):
    assert run_cli("realize", "--dir", FIXTURES, "--scwol", "delta2", "--format", "off") == 0
    out = capsys.readouterr().out
    assert out.startswith("OFF\n7 6 12")
    assert run_cli("realize", "--dir", FIXTURES, "--scwol", "delta2") == 0
    payload = json.loads(capsys.readouterr().out)
    assert [len(level) for level in payload["cells"]] == [7, 12, 6]


def test_cli_realize_tetrahedron_subdivision(tmp_path):
    """The first scwol with composable triples: chains of length 3 get ids too."""
    S = scwol_from_simplicial_complex([["1", "2", "3", "4"]])
    (tmp_path / "tetra.json").write_text(cio.dumps(cio.scwol_to_json(S, id="tetra")))
    out = tmp_path / "tetra.realization.json"
    assert run_cli("realize", "--dir", tmp_path, "--scwol", "tetra", "--emit", out) == 0
    payload = json.loads(out.read_text())
    assert [len(level) for level in payload["cells"]] == [15, 50, 60, 24]


def test_cli_realize_past_the_cell_cap_exits_2(tmp_path, capsys):
    """The total order on 18 objects realizes in 2^18 - 1 cells; the cap
    stops it before the level that passes 2^15."""
    objects = [f"x{j:02d}" for j in range(18)]
    S = scwol_from_poset({x: set(objects[j + 1 :]) for j, x in enumerate(objects)})
    (tmp_path / "chain18.json").write_text(cio.dumps(cio.scwol_to_json(S, id="chain18")))
    assert run_cli("realize", "--dir", tmp_path, "--scwol", "chain18") == 2
    assert capsys.readouterr().err == "error: the realization of 'chain18' would pass 32768 cells\n"


# a JSON text nested past the parser's recursion limit, an integer past its digit
# limit, tri-z2 with "p.q>p" listed twice in psi (json alone keeps the last), and
# a document after a UTF-8 byte order mark
UNREADABLE_JSON = {
    "bom": '\ufeff{"schema": "group/1", "order": 1}',
    "deep": "[" * 200_000,
    "long-int": '{"schema": "group/1", "order": ' + "7" * 5000 + "}",
    "repeated-key": (FIXTURES / "tri-z2.json").read_text().replace('"psi": {', '"psi": {"p.q>p": [0], ', 1),
}


@pytest.mark.parametrize("kind", sorted(UNREADABLE_JSON))
def test_cli_unreadable_json_exits_2(tmp_path, capsys, kind):
    """``validate`` on the file, and a command that loads the directory holding it."""
    path = tmp_path / "bad.json"
    path.write_text(UNREADABLE_JSON[kind])
    assert run_cli("validate", path, "--dir", FIXTURES) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")
    ws = tmp_path / "ws"
    shutil.copytree(FIXTURES, ws)
    shutil.copy(path, ws / "bad.json")
    assert run_cli("abel", "--dir", ws, "--cog", "seg23") == 2
    assert capsys.readouterr().err.startswith(f"error: {ws / 'bad.json'}: ")


def test_cli_repeated_json_key_is_named(tmp_path, capsys):
    path = tmp_path / "tri-z2.json"
    path.write_text(UNREADABLE_JSON["repeated-key"])
    assert run_cli("validate", path, "--dir", FIXTURES) == 2
    assert capsys.readouterr().err == f"error: {path}: object key 'p.q>p' repeated\n"


def test_cli_unreadable_json_exits_2_under_O(tmp_path):
    """The same files in one ``python -O`` process: an error line, no traceback."""
    for kind, text in UNREADABLE_JSON.items():
        (tmp_path / f"{kind}.json").write_text(text)
    script = (
        "import sys\n"
        "if __debug__:\n"
        "    sys.exit('asserts are live: not running under -O')\n"
        "from cogkit.cli import main\n"
        f"sys.exit(sum(main(['validate', f, '--dir', {str(FIXTURES)!r}]) != 2 for f in sys.argv[1:]))\n"
    )
    files = [str(tmp_path / f"{kind}.json") for kind in sorted(UNREADABLE_JSON)]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, *files],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(cogkit.__file__).resolve().parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert [line.split(": ")[1] for line in proc.stderr.splitlines()] == files


def test_cli_gen_corpus_deterministic(tmp_path):
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    assert run_cli("gen-corpus", "--seed", 5, "--count", 4, "--out", out1, "--dir", tmp_path) == 0
    assert run_cli("gen-corpus", "--seed", 5, "--count", 4, "--out", out2, "--dir", tmp_path) == 0
    files1 = sorted(p.name for p in out1.glob("*.json"))
    assert files1 == sorted(p.name for p in out2.glob("*.json"))
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # generated corpus validates through the CLI
    assert run_cli("validate", *sorted(out1.glob("*.json")), "--dir", out1) == 0


def test_cli_unresolved_reference(capsys):
    assert run_cli("theta", "--dir", FIXTURES, "--cog", "missing", "--vertex", "g") == 2


def test_cli_unknown_vertex_exits_2(capsys):
    assert run_cli("local-cog", "--dir", FIXTURES, "--cog", "star-s3", "--vertex", "nope") == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_missing_vertex_option_exits_2(capsys):
    for command in ("local-cog", "theta", "sigma", "local-dev"):
        assert run_cli(command, "--dir", FIXTURES, "--cog", "star-s3") == 2
        assert capsys.readouterr().err == "error: --vertex is required\n"


def test_cli_missing_mor_option_exits_2(capsys):
    for command in ("develop", "immerse"):
        assert run_cli(command, "--dir", FIXTURES) == 2
        assert capsys.readouterr().err == "error: --mor is required\n"


def test_cli_missing_pres_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert run_cli("abel", "--pres", missing, "--dir", FIXTURES) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert run_cli("export-pres", "--pres", missing, "--dir", FIXTURES) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_missing_tree_file_exits_2(tmp_path, capsys):
    tree = f"file:{tmp_path / 'missing.json'}"
    assert run_cli("pi1", "--dir", FIXTURES, "--cog", "seg23", "--tree", tree) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_unwritable_emit_path_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    argv = ("local-cog", "--dir", FIXTURES, "--cog", "star-s3", "--vertex", "g", "--emit", target)
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.startswith("error: cannot write ")
    assert not target.exists()


def test_cli_gen_corpus_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "F"
    out.write_text("")
    assert run_cli("gen-corpus", "--count", "1", "--out", out) == 2
    assert capsys.readouterr().err.startswith("error: cannot create directory ")
    # a directory in the place of a document the corpus writes
    out = tmp_path / "corpus"
    (out / "corpus000.json").mkdir(parents=True)
    assert run_cli("gen-corpus", "--count", "1", "--out", out) == 2
    assert capsys.readouterr().err.startswith("error: cannot write ")


def test_cli_negative_count_exits_2_before_making_the_directory(tmp_path, capsys):
    out = tmp_path / "D"
    assert run_cli("gen-corpus", "--count", -3, "--out", out) == 2
    assert capsys.readouterr().err == "error: --count must be at least 0, got -3\n"
    assert not out.exists()
    assert run_cli("gen-corpus", "--count", 0, "--out", out) == 0
    assert capsys.readouterr().out == f"wrote 0 documents to {out}\n"


def test_cli_dir_that_does_not_exist_exits_2_naming_it(tmp_path, capsys):
    missing = tmp_path / "missing"
    assert run_cli("abel", "--cog", "seg23", "--dir", missing) == 2
    assert capsys.readouterr().err == f"error: workspace directory {missing} does not exist\n"
    with pytest.raises(UnresolvedReference, match="does not exist"):
        cio.Workspace.load(missing)


def test_cli_dir_that_is_a_file_exits_2_naming_it(tmp_path, capsys):
    afile = tmp_path / "seg23.json"
    shutil.copy(FIXTURES / "seg23.json", afile)
    assert run_cli("abel", "--cog", "seg23", "--dir", afile) == 2
    assert capsys.readouterr().err == f"error: workspace directory {afile} is not a directory\n"
    with pytest.raises(UnresolvedReference, match="is not a directory"):
        cio.Workspace.load(afile)


def test_cli_commands_that_look_nothing_up_run_with_any_dir(tmp_path, capsys):
    pres = tmp_path / "p.json"
    assert run_cli("pi1", "--dir", FIXTURES, "--cog", "seg23", "--emit", pres) == 0
    seg = FIXTURES / "seg.json"
    for workspace in (tmp_path / "missing", pres):
        assert run_cli("export-pres", "--pres", pres, "--dir", workspace) == 0
        assert run_cli("iso", seg, seg, "--dir", workspace) == 0
    assert capsys.readouterr().err == ""


def test_cli_budget_below_one_exits_2(capsys):
    pair = (FIXTURES / "seg.json", FIXTURES / "circle.json")
    for budget in (0, -1):
        assert run_cli("iso", *pair, "--dir", FIXTURES, "--budget", budget) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert run_cli("iso", *pair, "--dir", FIXTURES, "--budget", 1) == 1


# -- exit-code policy: one test per input defect ---------------------------------

def exit_code(*argv) -> int:
    """``main``'s return value, or the status of the usage error argparse raised."""
    try:
        return run_cli(*argv)
    except SystemExit as exc:
        return exc.code


def workspace_with(tmp_path, name: str, edit) -> Path:
    """A copy of the fixture workspace whose document ``name`` went through ``edit``."""
    ws = tmp_path / "ws"
    shutil.copytree(FIXTURES, ws)
    doc = json.loads((ws / f"{name}.json").read_text())
    edit(doc)
    (ws / f"{name}.json").write_text(cio.dumps(doc))
    return ws


def test_cli_psi_not_a_hom_exits_2(tmp_path, capsys):
    ws = workspace_with(tmp_path, "star-s3", lambda doc: doc["psi"].update(c=[1, 0]))
    assert run_cli("local-cog", "--dir", ws, "--cog", "star-s3", "--vertex", "g") == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert run_cli("validate", ws / "star-s3.json", "--dir", ws) == 1
    assert capsys.readouterr().out.startswith(f"INVALID {ws / 'star-s3.json'}: ")


def test_cli_tree_file_not_spanning_exits_2(tmp_path, capsys):
    for content in ({"a": 1}, ["a0"]):
        tree = tmp_path / "t.json"
        tree.write_text(json.dumps(content))
        assert run_cli("pi1", "--dir", FIXTURES, "--cog", "seg23", "--tree", f"file:{tree}") == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_cli_non_associative_group_exits_2(tmp_path, capsys):
    table = [[0, 1, 2], [1, 0, 0], [2, 0, 0]]  # (1*1)*2 = 2 but 1*(1*2) = 1
    ws = workspace_with(tmp_path, "z3", lambda doc: doc.update(cayley=table))
    assert run_cli("abel", "--dir", ws, "--cog", "seg23") == 2
    assert capsys.readouterr().err == "error: associativity fails at triple (1, 1, 2)\n"


def test_cli_negative_degree_is_rejected(tmp_path, capsys):
    def negative_degree(doc):
        del doc["cayley"], doc["identity"]
        doc.update(degree=-3, perm_gens=[])

    ws = workspace_with(tmp_path, "z3", negative_degree)
    assert run_cli("validate", ws / "z3.json", "--dir", ws) == 1
    assert capsys.readouterr().out == f"INVALID {ws / 'z3.json'}: degree -3 is negative\n"
    assert run_cli("abel", "--dir", ws, "--cog", "seg23") == 2
    assert capsys.readouterr().err == "error: degree -3 is negative\n"


def test_cli_degree_above_the_closure_cap_is_rejected(tmp_path, capsys):
    degree, cap = groups.DEFAULT_CLOSURE_CAP + 1, groups.DEFAULT_CLOSURE_CAP

    def huge_degree(doc):
        del doc["cayley"], doc["identity"]
        doc.update(degree=degree, perm_gens=[])

    ws = workspace_with(tmp_path, "z3", huge_degree)
    assert run_cli("validate", ws / "z3.json", "--dir", ws) == 1
    assert capsys.readouterr().out == f"INVALID {ws / 'z3.json'}: degree {degree} exceeds cap {cap}\n"
    assert run_cli("abel", "--dir", ws, "--cog", "seg23") == 2
    assert capsys.readouterr().err == f"error: degree {degree} exceeds cap {cap}\n"


def test_cli_format_outside_the_commands_choices_exits_2(capsys):
    assert exit_code("pi1", "--dir", FIXTURES, "--cog", "seg23", "--format", "off") == 2
    assert exit_code("realize", "--dir", FIXTURES, "--scwol", "delta2", "--format", "cas") == 2
    assert "error: argument --format" in capsys.readouterr().err


def test_cli_option_the_command_does_not_read_exits_2(capsys):
    assert exit_code("abel", "--dir", FIXTURES, "--cog", "seg23", "--budget", 5) == 2
    assert "error: unrecognized arguments: --budget 5" in capsys.readouterr().err


def test_cli_scwol_morphism_without_source_exits_2(tmp_path, capsys):
    ws = workspace_with(tmp_path, "seg", lambda doc: doc["morphisms"][0].pop("i"))
    assert run_cli("realize", "--dir", ws, "--scwol", "seg") == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_malformed_pres_file_exits_2(tmp_path, capsys):
    pres = tmp_path / "p.json"
    assert run_cli("pi1", "--dir", FIXTURES, "--cog", "seg23", "--emit", pres) == 0
    doc = json.loads(pres.read_text())
    del doc["generators"]
    for text in ("{oops", json.dumps(doc)):
        pres.write_text(text)
        for command in ("abel", "export-pres"):
            assert run_cli(command, "--pres", pres, "--dir", FIXTURES) == 2
            assert capsys.readouterr().err.startswith("error: ")


def test_cli_budget_exhausted_exits_3(capsys):
    seg = FIXTURES / "seg.json"
    assert run_cli("iso", seg, seg, "--dir", FIXTURES, "--budget", 1) == 3
    assert capsys.readouterr().err.startswith("error: isomorphism search exceeded")
    assert run_cli("iso", seg, seg, "--dir", FIXTURES) == 0


def test_cli_duplicate_document_ids_exit_2(tmp_path, capsys):
    """Two documents named seg23 make the reference ambiguous: both paths are named."""
    ws = tmp_path / "ws"
    shutil.copytree(FIXTURES, ws)
    doc = json.loads((ws / "seg23.json").read_text())
    doc["groups"]["v1"] = doc["groups"]["v0"]
    (ws / "seg23-edited.json").write_text(cio.dumps(doc))
    assert run_cli("abel", "--dir", ws, "--cog", "seg23") == 2
    err = capsys.readouterr().err
    assert str(ws / "seg23.json") in err and str(ws / "seg23-edited.json") in err


def test_cli_repeated_object_id_is_invalid(tmp_path, capsys):
    """A scwol that lists one object twice fails validation and its loaders exit 2."""
    doc = {"schema": "scwol/1", "id": "twice", "objects": ["a", "a"], "morphisms": [], "comp": []}
    path = tmp_path / "twice.json"
    path.write_text(cio.dumps(doc))
    assert run_cli("validate", path, "--dir", tmp_path) == 1
    out = capsys.readouterr().out
    assert out.startswith("INVALID") and "object id 'a' repeated" in out
    assert run_cli("realize", "--dir", tmp_path, "--scwol", "twice") == 2
    assert "object id 'a' repeated" in capsys.readouterr().err


def test_cli_repeated_composable_pair_is_invalid(tmp_path, capsys):
    """A scwol whose comp lists one pair twice is rejected naming the pair,
    whichever composite comes last; it used to keep the last one silently."""
    doc = {
        "schema": "scwol/1",
        "id": "twice",
        "objects": ["x", "y", "z"],
        "morphisms": [
            {"id": "a", "i": "y", "t": "x"}, {"id": "b", "i": "z", "t": "y"},
            {"id": "ab", "i": "z", "t": "x"}, {"id": "c", "i": "z", "t": "x"},
        ],
        "comp": [["a", "b", "ab"], ["a", "b", "c"]],
    }
    path = tmp_path / "twice.json"
    path.write_text(cio.dumps(doc))
    message = "scwol 'twice' comp lists the pair ['a', 'b'] twice"
    assert run_cli("validate", path, "--dir", tmp_path) == 1
    assert capsys.readouterr().out == f"INVALID {path}: {message}\n"
    assert run_cli("realize", "--dir", tmp_path, "--scwol", "twice") == 2
    assert message in capsys.readouterr().err
    doc["comp"].pop()
    path.write_text(cio.dumps(doc))
    assert run_cli("validate", path, "--dir", tmp_path) == 0


def test_cli_repeated_twist_pair_is_invalid(tmp_path, capsys):
    """tri-z2 with its twist on one pair listed again as 0 after 1 is rejected
    naming the pair; ``abel`` used to read the last value silently."""
    ws = workspace_with(tmp_path, "tri-z2", lambda doc: doc["twists"].append(["p.q>p", "p.q.r>p.q", 0]))
    message = "complex 'tri-z2' twists lists the pair ['p.q>p', 'p.q.r>p.q'] twice"
    assert run_cli("validate", ws / "tri-z2.json", "--dir", ws) == 1
    assert capsys.readouterr().out == f"INVALID {ws / 'tri-z2.json'}: {message}\n"
    assert run_cli("abel", "--dir", ws, "--cog", "tri-z2") == 2
    assert message in capsys.readouterr().err


def test_cli_commands_that_look_nothing_up_ignore_foreign_json(tmp_path, capsys):
    """A directory may hold JSON that is not a cogkit document, such as package.json."""
    (tmp_path / "package.json").write_text('{"name": "site", "version": "1.0.0"}\n')
    pres = tmp_path / "p.json"
    assert run_cli("pi1", "--dir", FIXTURES, "--cog", "seg23", "--emit", pres) == 0
    assert run_cli("export-pres", "--pres", pres, "--dir", tmp_path) == 0
    seg = FIXTURES / "seg.json"
    assert run_cli("iso", seg, seg, "--dir", tmp_path) == 0
    # a command that does look a document up still reads the directory
    assert run_cli("abel", "--cog", "seg23", "--dir", tmp_path) == 2


# -- the parser, built once and shared by in-process calls ------------------------

def test_cli_builds_its_parser_once(tmp_path, monkeypatch, capsys):
    assert run_cli("abel", "--dir", FIXTURES, "--cog", "seg23") == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    seg = FIXTURES / "seg.json"
    assert run_cli("abel", "--dir", FIXTURES, "--cog", "seg23") == 0
    assert run_cli("realize", "--dir", FIXTURES, "--scwol", "delta2", "--format", "off") == 0
    assert run_cli("iso", seg, seg, "--dir", FIXTURES, "--emit", tmp_path / "iso.json") == 0
    assert built == []
    assert cli.build_parser() is cli.build_parser()


def run_alone(argv: list[str], capsys) -> tuple[int, str]:
    """The exit code and stdout of one in-process call."""
    code = exit_code(*argv)
    return code, capsys.readouterr().out


def test_cli_options_return_to_their_defaults(tmp_path, monkeypatch, capsys):
    """An option set in one call is back at its default in the next."""
    monkeypatch.chdir(FIXTURES)  # the default --dir
    seg = str(FIXTURES / "seg.json")
    (tmp_path / "tree.json").write_text('["a0"]')  # not spanning: pi1 exits 2
    # (a call that sets the option, a call that leaves it at its default)
    pairs = [
        (["abel", "--cog", "seg23", "--emit", f"{tmp_path}/abel.json"], ["abel", "--cog", "seg23"]),
        (["iso", seg, seg, "--budget", "1"], ["iso", seg, seg]),
        (["pi1", "--cog", "seg23", "--format", "cas"], ["pi1", "--cog", "seg23"]),
        (["pi1", "--cog", "seg23", "--tree", f"file:{tmp_path}/tree.json"], ["pi1", "--cog", "seg23"]),
        (["abel", "--cog", "seg23", "--dir", str(tmp_path)], ["abel", "--cog", "seg23"]),
    ]
    fresh = cli.build_parser.__wrapped__()
    for setter, probe in pairs:
        alone = run_alone(probe, capsys)
        run_alone(setter, capsys)
        assert run_alone(probe, capsys) == alone, (setter, probe)
        assert cli.build_parser().parse_args(probe) == fresh.parse_args(probe)
    assert run_alone(["abel", "--cog", "seg23"], capsys) == (0, "[6]\n")


def test_cli_usage_error_leaves_the_parser_as_it_was(capsys):
    probe = ["abel", "--dir", str(FIXTURES), "--cog", "seg23"]
    alone = run_alone(probe, capsys)
    with pytest.raises(SystemExit) as exc:
        main(["abel", "--dir", str(FIXTURES), "--cog", "seg23", "--format", "json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err
    assert run_alone(probe, capsys) == alone == (0, "[6]\n")


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_cli_shared_parser_help_equals_a_fresh_parsers(capsys):
    exit_code("abel", "--dir", FIXTURES, "--cog", "seg23", "--budget", 5)
    exit_code("iso", FIXTURES / "seg.json", "--dir", FIXTURES)
    exit_code("realize", "--dir", FIXTURES, "--scwol", "delta2", "--format", "off")
    shared, fresh = cli.build_parser(), cli.build_parser.__wrapped__()
    assert shared.format_help() == fresh.format_help()
    subparsers = _subparsers(shared)
    assert sorted(subparsers) == sorted(cli.COMMANDS)
    for name, parser in _subparsers(fresh).items():
        assert subparsers[name].format_help() == parser.format_help(), name
