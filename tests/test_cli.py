import builtins
import contextlib
import gc
import hashlib
import importlib.util
import io
import itertools
import json
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import scalarref

import crosslang.cli as cli
from conftest import CORPUS, write_cover_pair
from crosslang import (
    check_consistency,
    common_language,
    joint_space_from_translation,
    load_corpus,
    parse_language,
)
from crosslang.cli import main
from crosslang.corpus import read_input
from crosslang.language import And, Arrow, Atom, Not, Or
from crosslang.oracle import OracleBudget
from crosslang.randgen import write_cell_corpus, write_free_corpus


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "crosslang", *args],
        capture_output=True,
        text=True,
    )


def run_main(*args):
    """``main`` in process, with its exit code and output as ``run_cli``
    gives them; an exception propagates as a traceback would."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def assert_clean_usage_error(res):
    """Exit 2 with one ``error:`` line on stderr and no traceback."""
    assert res.returncode == 2
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1
    assert res.stderr.startswith("error: ")


def test_translate_oil_inner(capsys):
    res = run_cli("translate", str(CORPUS / "oil-prices"), "2>1", "inner",
                  "cny_500_600 | cny_600_700")
    assert res.returncode == 0
    assert res.stdout.strip() == "usd_90_100 | usd_80_90"


def test_translate_oil_outer_undefined():
    res = run_cli("translate", str(CORPUS / "oil-prices"), "2>1", "outer",
                  "cny_neg | cny_0_100 | cny_100_200")
    assert res.returncode == 0
    assert res.stdout.strip() == "*"


def test_translate_false_is_false():
    res = run_cli("translate", str(CORPUS / "oil-prices"), "1>2", "inner", "false")
    assert res.stdout.strip() == "false"
    res = run_cli("translate", str(CORPUS / "oil-prices"), "1>2", "outer", "false")
    assert res.stdout.strip() == "false"


def test_check_passes_on_consistent_corpus():
    base = CORPUS / "oil-prices"
    res = run_cli("check", str(base / "lang1.lang"), str(base / "lang2.lang"),
                  str(base / "translation.tr"), "--mode", "translation")
    assert res.returncode == 0
    assert "overall: PASS" in res.stdout


def test_check_fails_with_witness_on_violation():
    base = CORPUS / "adjunction-violation"
    res = run_cli("check", str(base / "lang1.lang"), str(base / "lang2.lang"),
                  str(base / "translation.tr"), "--mode", "translation")
    assert res.returncode == 1
    assert "FAIL galois:1>2" in res.stdout
    assert "witness: (p, u)" in res.stdout


def test_check_implication_mode():
    base = CORPUS / "platypus"
    res = run_cli("check", str(base / "lang1.lang"), str(base / "lang2.lang"),
                  str(base / "implication.imp"), "--mode", "implication")
    assert res.returncode == 0
    assert "overall: PASS" in res.stdout


NARROWED_6X6_REPORT = """\
FAIL extensibility:1  witness: (a0, false)
FAIL extensibility:2  witness: (b0, false)
PASS transitivity
PASS bound-consistency
FAIL connective-consistency:1>2  witness: (b5 | b0, a5)
FAIL connective-consistency:2>1  witness: (a5 | a0, b5)
FAIL negation-consistency:1>2  witness: (a5 | a0, b0)
FAIL negation-consistency:2>1  witness: (b5 | b0, a0)
overall: FAIL
"""


def test_check_implication_dense_fallback_report(tmp_path):
    """Identity cover seeds on 6 x 6 cells with a0 narrowed to false: the
    closure takes the dense fallback and the report is pinned."""
    d = write_cover_pair(tmp_path, 6)
    res = run_cli("check", str(d / "lang1.lang"), str(d / "lang2.lang"),
                  str(d / "narrowed.imp"), "--mode", "implication")
    assert (res.returncode, res.stdout, res.stderr) == (1, NARROWED_6X6_REPORT, "")


def test_check_malformed_spec_exits_two(tmp_path):
    bad = tmp_path / "bad.lang"
    bad.write_text("language x\natoms: p p\n")
    base = CORPUS / "platypus"
    res = run_cli("check", str(bad), str(base / "lang2.lang"),
                  str(base / "translation.tr"))
    assert res.returncode == 2
    assert "error:" in res.stderr


def test_classify_platypus_text():
    res = run_cli("classify", str(CORPUS / "platypus"), "--format", "text")
    assert res.returncode == 0
    assert "language 2 less aware than language 1" in res.stdout


def test_bounds_platypus_text():
    base = CORPUS / "platypus"
    res = run_cli("bounds", str(base), str(base / "uniform.prob.json"),
                  "egg_only | platypus", "--lang", "1", "--format", "text")
    assert res.returncode == 0
    assert res.stdout.strip() == "[0.3333, 1.0]"


def test_joint_json_is_deterministic_and_well_formed():
    first = run_cli("joint", str(CORPUS / "platypus"))
    second = run_cli("joint", str(CORPUS / "platypus"))
    assert first.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["schema_version"] == 1
    joint = payload["joint_state_space"]
    assert joint["schema_version"] == 1
    assert len(joint["states"]) == 3
    assert joint["states"][0] == {"atom1": "platypus", "atom2": None}
    assert joint["valuation2"]["true"] == [1, 2]
    assert joint["minimal"] is True


def test_common_json_platypus():
    res = run_cli("common", str(CORPUS / "platypus"))
    payload = json.loads(res.stdout)
    table = {row["host"]: row["partner"]
             for row in payload["common_language"]["members"]}
    assert table["mammal_only"] == "mammal"
    assert table["mammal_only | egg_only"] == "true"


def test_classify_json_carries_evidence():
    res = run_cli("classify", str(CORPUS / "nested-grids"))
    payload = json.loads(res.stdout)
    assert payload["verdict"]["classification"] == "1-pure-coarsening-of-2"
    assert payload["verdict"]["evidence"]["sigma1_subset_of_sigma2"] is True
    assert payload["embeddings"]["passed"] is True


def test_oracle_flag_cross_validates():
    res = run_cli("joint", str(CORPUS / "platypus"), "--oracle")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["oracle"] == {
        "adjoint:1>2": True, "adjoint:2>1": True, "states": True,
    }


def test_export_dot_platypus_structure():
    res = run_cli("export-dot", str(CORPUS / "platypus"), "--what", "cross")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    nodes = [l for l in lines if "[label=" in l]
    assert len(nodes) == 8 + 4
    assert sum("dir=both" in l for l in lines) == 4
    # reduced diagram: no one-way cross arrows survive here
    cross_edges = [l for l in lines if "forestgreen" in l]
    assert len(cross_edges) == 4


def test_export_dot_full_closure_has_more_edges():
    reduced = run_cli("export-dot", str(CORPUS / "platypus"), "--what", "cross")
    full = run_cli("export-dot", str(CORPUS / "platypus"), "--what", "cross",
                   "--full")
    assert full.stdout.count("forestgreen") > reduced.stdout.count("forestgreen")


def test_export_dot_single_atom_algebra_is_two_node_chain(tmp_path):
    (tmp_path / "lang1.lang").write_text("language tiny\natoms: only\nbelieve: only\n")
    (tmp_path / "lang2.lang").write_text("language other\natoms: o\nbelieve: o\n")
    (tmp_path / "translation.tr").write_text(
        "outer 1>2: true => true\nouter 2>1: true => true\n"
    )
    res = run_cli("export-dot", str(tmp_path), "--what", "algebra1")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert sum("[label=" in l for l in lines) == 2
    assert any("n1_0 -> n1_1" in l for l in lines)


def test_output_to_file_and_timing_flag(tmp_path):
    out = tmp_path / "report.json"
    res = run_cli("joint", str(CORPUS / "platypus"), "--output", str(out))
    assert res.returncode == 0 and res.stdout == ""
    payload = json.loads(out.read_text())
    assert "timing" not in payload
    res = run_cli("joint", str(CORPUS / "platypus"), "--timing")
    payload = json.loads(res.stdout)
    assert "timing" in payload and payload["timing"]["seconds"] >= 0


def test_missing_corpus_exits_two(tmp_path):
    res = run_cli("joint", str(tmp_path / "nowhere"))
    assert res.returncode == 2


@pytest.mark.parametrize("case", ["file-for-folder", "folder-for-file", "not-utf8",
                                  "empty-head"])
def test_unreadable_inputs_exit_two(tmp_path, case):
    oil = CORPUS / "oil-prices"
    langs = [str(oil / "lang1.lang"), str(oil / "lang2.lang")]
    pair = tmp_path / "pair.tr"
    pair.write_bytes(b"outer 1>2: \xff => *\n" if case == "not-utf8" else b": a => b\n")
    argv = {
        "file-for-folder": ["joint", langs[0]],
        "folder-for-file": ["check", str(tmp_path), langs[1], str(oil / "translation.tr")],
        "not-utf8": ["check", *langs, str(pair)],
        "empty-head": ["check", *langs, str(pair)],
    }[case]
    res = run_cli(*argv)
    assert_clean_usage_error(res)
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("data", [
    b"a\r\nb\rc\n", b"\r\r\n\n\r", "\u00e9\u2028\x85\r".encode(), b"x\r\xffy",
    b"ok\r\n\xe2\x82",
    pytest.param(b"a\r\n" * 3000 + b"\xff" + b"b\r" * 30000, id="bad-byte-past-8k-of-69k"),
    pytest.param(b"a\r\n" * 30000 + "\u20ac".encode()[:2], id="truncated-end-of-90k")])
def test_check_decodes_as_read_text(tmp_path, data):
    """``read_input`` gives an input's text, or its error, as ``read_text``
    does, however far into the file the error lies."""
    path = tmp_path / "input"
    path.write_bytes(data)

    def outcome(read):
        try:
            return read()
        except UnicodeDecodeError as exc:
            return str(exc)
    assert outcome(lambda: read_input(path, [])) == outcome(
        lambda: path.read_text(encoding="utf-8"))


def test_check_reads_each_input_once(tmp_path, monkeypatch):
    """``check`` opens each input once and digests the bytes it parsed: a
    CRLF copy of the oil corpus gives the report of the LF files, with the
    CRLF files' digests."""
    oil = CORPUS / "oil-prices"
    names = ("lang1.lang", "lang2.lang", "translation.tr")
    for name in names:
        (tmp_path / name).write_bytes((oil / name).read_bytes().replace(b"\n", b"\r\n"))
    opened = []
    for method in ("read_bytes", "read_text"):
        def counted(self, *args, _read=getattr(Path, method), **kwargs):
            opened.append(self.name)
            return _read(self, *args, **kwargs)
        monkeypatch.setattr(Path, method, counted)
    crlf = run_main("check", *(str(tmp_path / name) for name in names), "--format", "json")
    assert sorted(opened) == sorted(names)
    monkeypatch.undo()
    lf = run_main("check", *(str(oil / name) for name in names), "--format", "json")
    got, want = json.loads(crlf.stdout), json.loads(lf.stdout)
    assert crlf.returncode == lf.returncode == 0
    assert [entry["sha256"] for entry in got.pop("inputs").values()] == [
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in names]
    want.pop("inputs")
    assert got == want


@pytest.mark.parametrize("command", ["translate", "joint", "common", "classify", "bounds"])
def test_corpus_command_reads_each_input_once(tmp_path, monkeypatch, command):
    """Every corpus command opens each input once and digests the bytes it
    parsed: a CRLF copy of the platypus corpus, with its seed file and
    weights, gives the report of the LF files apart from ``inputs``, which
    holds the CRLF files' digests."""
    platypus = CORPUS / "platypus"
    names = ("lang1.lang", "lang2.lang", "translation.tr", "implication.imp")
    for name in names + ("uniform.prob.json",):
        (tmp_path / name).write_bytes((platypus / name).read_bytes().replace(b"\n", b"\r\n"))

    def argv(folder):
        return [command, str(folder), *{
            "translate": ["2>1", "inner", "mammal"],
            "bounds": [str(folder / "uniform.prob.json"), "mammal", "--lang", "2"],
        }.get(command, []), "--format", "json"]
    opened = []
    real_open = io.open

    def counted(file, *args, **kwargs):
        if isinstance(file, (str, Path)) and Path(file).parent == tmp_path:
            opened.append(Path(file).name)
        return real_open(file, *args, **kwargs)
    monkeypatch.setattr(io, "open", counted)
    monkeypatch.setattr(builtins, "open", counted)
    crlf = run_main(*argv(tmp_path))
    monkeypatch.undo()
    lf = run_main(*argv(platypus))
    read = names + (("uniform.prob.json",) if command == "bounds" else ())
    assert sorted(opened) == sorted(read)
    assert crlf.returncode == lf.returncode == 0
    got, want = json.loads(crlf.stdout), json.loads(lf.stdout)

    def digest(name):
        path = tmp_path / name
        return {"path": str(path), "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
    digests = {name: digest(name) for name in names}
    if command == "bounds":
        digests["probabilities"] = digest("uniform.prob.json")
    assert got.pop("inputs") == digests
    want.pop("inputs")
    assert got == want


def test_scale_compare_lists_differing_rows():
    """``scripts/scale.py --compare`` names each row whose output digest,
    exit code or error moved, and rows that only one sweep has."""
    spec = importlib.util.spec_from_file_location(
        "scale", Path(__file__).resolve().parent.parent / "scripts" / "scale.py")
    scale = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scale)

    def row(command, m, **fields):
        return {"command": command, "pair": "cells", "m": m, "wall_s": m / 10,
                "stdout_sha256": "ab", "exit": 0, **fields}
    old = [row("joint", 8), row("common", 8), row("bounds", 8), row("check", 8)]
    new = [row("joint", 8, wall_s=9.0), row("common", 8, exit=2, error="error: x"),
           row("bounds", 8, stdout_sha256="cd"), row("joint", 10)]
    assert scale.differences(old, old) == []
    assert scale.differences(old, new) == [
        "common cells8: exit 0 -> 2; error None -> 'error: x'",
        "bounds cells8: stdout_sha256 'ab' -> 'cd'",
        "joint cells10: not in the compared file",
        "check cells8: not in this sweep",
    ]


def test_translate_inconsistent_corpus_exits_one():
    res = run_cli("translate", str(CORPUS / "adjunction-violation"), "1>2",
                  "inner", "p")
    assert res.returncode == 1
    assert "axioms" in res.stderr


@pytest.mark.parametrize("command", ["check", "translate"])
def test_missing_outer_image_exits_two(tmp_path, command):
    """A translation file without an atom's outer line is incomplete input:
    one error line names the atom and its language."""
    for name in ("lang1.lang", "lang2.lang", "translation.tr"):
        text = (CORPUS / "platypus" / name).read_text()
        (tmp_path / name).write_text(text.replace("outer 1>2: platypus => *\n", ""))
    argv = {"check": ["check", *(str(tmp_path / name) for name in
                                 ("lang1.lang", "lang2.lang", "translation.tr"))],
            "translate": ["translate", str(tmp_path), "1>2", "outer", "platypus"]}[command]
    res = run_main(*argv)
    assert_clean_usage_error(res)
    assert res.stderr == "error: missing outer image for atom 'platypus' of 'aware'\n"


@pytest.mark.parametrize("command", ["check-translation", "check-implication", "translate"])
def test_equal_language_names_exit_two(tmp_path, command):
    """Two language files that declare the same name are refused before the
    pair file is read: one error line names the name.  Read on, language 1's
    atom ``p`` would be undeclared in the second language of that name."""
    (tmp_path / "lang1.lang").write_text("language first\natoms: p q\n")
    (tmp_path / "lang2.lang").write_text("language first\natoms: x y\n")
    (tmp_path / "translation.tr").write_text("outer 1>2: p => x\nouter 1>2: q => y\n"
                                             "outer 2>1: x => p\nouter 2>1: y => q\n")
    (tmp_path / "implication.imp").write_text("imp: first.p => first.x\n")
    langs = [str(tmp_path / "lang1.lang"), str(tmp_path / "lang2.lang")]
    argv = {"check-translation": ["check", *langs, str(tmp_path / "translation.tr")],
            "check-implication": ["check", *langs, str(tmp_path / "implication.imp"),
                                  "--mode", "implication"],
            "translate": ["translate", str(tmp_path), "1>2", "outer", "p"]}[command]
    res = run_main(*argv)
    assert_clean_usage_error(res)
    assert res.stderr == ("error: both language files declare the language 'first'; "
                          "the two languages of a pair need distinct names\n")


def test_export_dot_takes_no_report_options(capsys):
    for flag in ("--oracle", "--timing", "--format"):
        with pytest.raises(SystemExit) as exc:
            main(["export-dot", str(CORPUS / "platypus"), flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_max_atoms_cap_exits_two(tmp_path, capsys):
    """A language of 21 atoms is refused at the fixed cap of 20, which no
    option moves."""
    res = run_main("joint", str(write_free_corpus(tmp_path, 21)))
    assert_clean_usage_error(res)
    assert "'lang1' declares 21 atoms, above the cap of 20" in res.stderr
    with pytest.raises(SystemExit) as exc:
        main(["joint", str(CORPUS / "oil-prices"), "--max-atoms", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-atoms 5" in capsys.readouterr().err


def test_export_dot_fixed_point_gap_structure():
    res = run_cli("export-dot", str(CORPUS / "fixed-point-gap"), "--what", "cross")
    lines = res.stdout.splitlines()
    assert sum("[label=" in l for l in lines) == 4 + 8
    cross = [l for l in lines if "forestgreen" in l]
    assert sum("dir=both" in l for l in cross) == 2   # bounds pair up
    assert len(cross) == 6                            # plus four one-way arrows


def test_oracle_flag_reports_clean_budget_abort_on_big_corpus():
    res = run_cli("joint", str(CORPUS / "oil-prices"), "--oracle")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["oracle"]["adjoint:1>2"] is True
    assert payload["oracle"]["adjoint:2>1"] is True
    assert payload["oracle"]["status"].startswith("budget exceeded")


def test_main_calls_a_replaced_command_function(monkeypatch):
    """``main`` looks each ``cmd_*`` function up when it runs, so one put in
    its place after the parser was built is the one called."""
    cli._parser()
    calls = []
    monkeypatch.setattr(cli, "cmd_joint", lambda args: calls.append(args.corpus) or 0)
    assert main(["joint", str(CORPUS / "platypus")]) == 0
    assert calls == [str(CORPUS / "platypus")]


def test_oracle_budget_refuses_before_the_state_sets(monkeypatch):
    """An over-budget oracle answers before ``state_set_of`` does any work."""
    def no_state_sets(*args):
        raise AssertionError("state sets built")

    monkeypatch.setattr(cli, "OracleBudget", lambda: OracleBudget(max_atoms=1))
    monkeypatch.setattr(cli, "state_set_of", no_state_sets)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["translate", str(CORPUS / "oil-prices"), "1>2", "inner",
                     "usd_80_90", "--oracle", "--format", "json"])
    assert code == 0
    assert json.loads(out.getvalue())["oracle"]["status"].startswith("budget exceeded")


def test_oracle_budget_refuses_before_the_adjoint_scan(monkeypatch):
    """The adjoint scan checks the time budget at every step when it runs,
    and an over-budget oracle answers without taking one."""
    steps = []
    monkeypatch.setattr(OracleBudget, "check_time", lambda self, started: steps.append(1))
    res = run_main("translate", str(CORPUS / "platypus"), "1>2", "inner", "platypus",
                   "--oracle", "--format", "json")
    assert res.returncode == 0 and steps

    def no_scan(self, started):
        raise AssertionError("adjoint scan entered")

    monkeypatch.setattr(OracleBudget, "check_time", no_scan)
    monkeypatch.setattr(cli, "OracleBudget", lambda: OracleBudget(max_atoms=1))
    res = run_main("translate", str(CORPUS / "oil-prices"), "1>2", "inner", "usd_80_90",
                   "--oracle", "--format", "json")
    assert res.returncode == 0
    assert json.loads(res.stdout)["oracle"] == {
        "status": "budget exceeded: 'dollars' has 12 atoms, above the oracle budget of 1"}


def test_check_oracle_skips_on_inconsistent_translation():
    base = CORPUS / "adjunction-violation"
    res = run_cli("check", str(base / "lang1.lang"), str(base / "lang2.lang"),
                  str(base / "translation.tr"), "--oracle", "--format", "json")
    assert res.returncode == 1
    payload = json.loads(res.stdout)
    assert payload["oracle"]["status"].startswith("skipped")


@pytest.fixture(scope="module")
def free20(tmp_path_factory):
    d = write_free_corpus(tmp_path_factory.mktemp("free20"), 20)
    (d / "weights.json").write_text("[1.0]\n")
    return d


@pytest.mark.parametrize("command", [
    "check-translation", "translate", "joint", "common", "classify", "bounds",
    "check-implication", "export-dot-cross", "export-dot-full"])
def test_every_command_refuses_twenty_free_atoms(free20, command):
    """2**20 models per language pass the atom cap and are refused by the
    model cap, with one error line."""
    d = free20
    args = {
        "check-translation": ["check", str(d / "lang1.lang"), str(d / "lang2.lang"),
                              str(d / "translation.tr")],
        "translate": ["translate", str(d), "1>2", "inner", "a0 | a1"],
        "bounds": ["bounds", str(d), str(d / "weights.json"), "a0 | a1", "--lang", "1"],
        "check-implication": ["check", str(d / "lang1.lang"), str(d / "lang2.lang"),
                              str(d / "seed.imp"), "--mode", "implication"],
        "export-dot-cross": ["export-dot", str(d)],
        "export-dot-full": ["export-dot", str(d), "--full"],
    }.get(command, [command, str(d)])
    res = run_main(*args)
    assert_clean_usage_error(res)
    assert "1048576 models" in res.stderr


@pytest.mark.parametrize("n_atoms", [5, 6])
def test_relation_refuses_free_atoms_before_its_images(tmp_path, n_atoms):
    """32 and 64 models are refused before the 2**model_count image vectors
    of the relation are allocated."""
    d = write_free_corpus(tmp_path, n_atoms)
    res = run_main("check", str(d / "lang1.lang"), str(d / "lang2.lang"),
                   str(d / "seed.imp"), "--mode", "implication")
    assert_clean_usage_error(res)
    assert f"{1 << n_atoms} models" in res.stderr


def test_check_above_sixteen_models_exits_two(tmp_path):
    d = write_cell_corpus(tmp_path, 17, star=False)
    res = run_cli("check", str(d / "lang1.lang"), str(d / "lang2.lang"),
                  str(d / "translation.tr"))
    assert_clean_usage_error(res)
    assert "17 models" in res.stderr


def test_check_translation_at_sixteen_models(tmp_path):
    """A 16 x 16 pair gets its verdict, and a one-value mutant of it fails
    Galois at the overridden argument."""
    d = write_cell_corpus(tmp_path, 16, star=False)
    files = [str(d / "lang1.lang"), str(d / "lang2.lang"), str(d / "translation.tr")]
    res = run_cli("check", *files, "--mode", "translation")
    assert res.returncode == 0
    assert "FAIL" not in res.stdout and "overall: PASS" in res.stdout

    with open(d / "translation.tr", "a") as f:
        f.write("override inner 1>2: a0 | a3 => b3\n")
    res = run_cli("check", *files, "--mode", "translation", "--format", "json")
    assert res.returncode == 1
    galois = {c["name"]: c for c in json.loads(res.stdout)["axioms"]["checks"]}["galois:1>2"]
    assert not galois["passed"]
    t = load_corpus(d).require_translation()
    lam = t.algebra1.denote_text("a0 | a3")
    lam_text, eta_text = galois["witnesses"][0]
    assert lam_text == t.algebra1.formula_text(lam)
    assert not scalarref.galois_pair_holds(t, "1>2", lam, t.algebra2.denote_text(eta_text))


def test_check_consistency_at_fourteen_models_stays_small(tmp_path):
    """The dense Galois check held (2**14 + 2)**2 pairs per direction, over
    500 MB; the subset-zeta check needs a few arrays of 2**14 entries."""
    t = load_corpus(write_cell_corpus(tmp_path, 14, star=False)).require_translation()
    tracemalloc.start()
    try:
        assert check_consistency(t).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_bounds_and_classify_at_sixteen_models(tmp_path):
    """Both answer a 16 x 16 pair; bounds approximates one event and
    classify decides the common language over its 16 blocks."""
    d = write_cell_corpus(tmp_path, 16, star=False)
    probs = tmp_path / "weights.json"
    probs.write_text(json.dumps([1 / 16] * 16))
    res = run_cli("bounds", str(d), str(probs), "a0 | a3", "--lang", "1")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["low"] == out["high"] == 2 / 16
    res = run_cli("classify", str(d))
    assert res.returncode == 0
    assert json.loads(res.stdout)["verdict"]["classification"] == "equal"


def test_common_language_at_fourteen_models_needs_no_pairwise_scan(tmp_path):
    """A 14 x 14 pair: the common language is every union of the 14
    components of its compatible pairs, built with no scan over pairs of
    members."""
    t = load_corpus(write_cell_corpus(tmp_path, 14, star=False)).require_translation()
    common = common_language(t)
    assert len(common.masks) == 2**14
    assert common.top == t.algebra1.top
    assert common.partners[-1] == t.algebra2.top.mask


def test_joint_above_63_states_exits_two(tmp_path):
    d = write_cell_corpus(tmp_path, 8, star=True)
    res = run_cli("joint", str(d))
    assert_clean_usage_error(res)
    assert "80 states" in res.stderr


def test_bounds_leaves_no_reference_cycles():
    """One in-process ``bounds`` frees everything it built by reference
    counting: the cyclic collector finds nothing of it."""
    platypus = CORPUS / "platypus"
    argv = ["bounds", str(platypus), str(platypus / "uniform.prob.json"), "mammal",
            "--lang", "2"]
    assert run_main(*argv).returncode == 0      # imports and the parser first
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert run_main(*argv).returncode == 0
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_bounds_invalid_weights_exit_two(tmp_path):
    base = CORPUS / "platypus"
    probs = tmp_path / "weights.json"
    for text in ("[0.5, 0.5, 0.5]", "[NaN, 0.5, 0.5]", '{"0": 1.0, "99": 0.0}'):
        probs.write_text(text)
        res = run_cli("bounds", str(base), str(probs), "egg_only | platypus",
                      "--lang", "1")
        assert_clean_usage_error(res)


def test_main_reuses_its_parser_after_a_usage_error():
    """One process, a usage error first and then a valid command: the second
    call prints what a fresh process prints."""
    base = CORPUS / "platypus"
    argv = ["check", str(base / "lang1.lang"), str(base / "lang2.lang"),
            str(base / "implication.imp"), "--mode", "implication", "--format", "json"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["check", "--mode", "nonsense"])
    assert exc.value.code == 2 and "usage:" in err.getvalue()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    fresh = run_cli(*argv)
    assert (code, out.getvalue()) == (fresh.returncode, fresh.stdout)


@pytest.mark.parametrize("oracle", [False, True])
def test_check_implication_checks_the_axioms_once(monkeypatch, oracle):
    """The verdict and the translation that ``--oracle`` reads off the
    relation share one axiom report."""
    import crosslang.implication as implication

    calls = []
    checker = implication.check_implication_axioms
    for name, module in list(sys.modules.items()):
        if name.startswith("crosslang") and vars(module).get(
                "check_implication_axioms") is checker:
            monkeypatch.setattr(module, "check_implication_axioms",
                                lambda r: calls.append(r) or checker(r))
    base = CORPUS / "platypus"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["check", str(base / "lang1.lang"), str(base / "lang2.lang"),
                     str(base / "implication.imp"), "--mode", "implication",
                     *(["--oracle"] if oracle else [])])
    assert (code, len(calls)) == (0, 1)


@pytest.mark.parametrize("shape", ["union", "negated-conjunction"])
def test_deep_flat_belief_answers_without_a_traceback(tmp_path, shape):
    """A belief of 10**5 declared names, a flat union of every cell or the
    negation of a conjunction of two cells, changes no model of
    ``oil-prices``: check, translate and classify answer as on the shipped
    files."""
    folder = tmp_path / "oil"
    shutil.copytree(CORPUS / "oil-prices", folder)
    cells = parse_language((folder / "lang1.lang").read_text()).elementary
    if shape == "union":
        belief = " | ".join(itertools.islice(itertools.cycle(cells), 10**5))
    else:
        belief = "!(" + " & ".join(itertools.islice(itertools.cycle(cells[:2]), 10**5)) + ")"
    with open(folder / "lang1.lang", "a") as lang:
        lang.write(f"believe: {belief}\n")
    for argv in (["check", "{}/lang1.lang", "{}/lang2.lang", "{}/translation.tr"],
                 ["translate", "{}", "2>1", "inner", "cny_500_600 | cny_600_700"],
                 ["classify", "{}", "--format", "text"]):
        deep, shipped = (run_main(*(a.format(d) for a in argv))
                         for d in (folder, CORPUS / "oil-prices"))
        assert (deep.returncode, deep.stdout, deep.stderr) == (
            shipped.returncode, shipped.stdout, shipped.stderr)
        assert deep.returncode == 0


@pytest.mark.parametrize("count", [1500, 10**5])
def test_flat_union_query_answers(count):
    """A query that is a union of ``count`` names, one cell over and over,
    is valued as that cell: ``translate`` prints what it prints for the
    single name, where the parsed union used to recurse past Python's
    limit."""
    oil = CORPUS / "oil-prices"
    union = " | ".join(["usd_0_10"] * count)
    got, single = (run_main("translate", str(oil), "1>2", "outer", query)
                   for query in (union, "usd_0_10"))
    assert (got.returncode, got.stdout, got.stderr) == (0, single.stdout, single.stderr)


def test_direct_beliefs_build_no_formula_node(tmp_path, monkeypatch):
    """``check --mode translation``, ``translate`` and ``bounds`` on
    ``oil-prices``, whose beliefs and endpoints are all direct, build no
    formula node, nor do the flat-union queries they are given."""
    oil = CORPUS / "oil-prices"
    states = joint_space_from_translation(load_corpus(oil).require_translation()).state_count
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps([1 / states] * states))
    built = []
    for node in (Atom, Not, And, Or, Arrow):
        def counted(self, *args, _init=node.__init__):
            built.append(self)
            _init(self, *args)
        monkeypatch.setattr(node, "__init__", counted)
    for argv in (["check", f"{oil}/lang1.lang", f"{oil}/lang2.lang", f"{oil}/translation.tr"],
                 ["translate", str(oil), "2>1", "inner", "cny_500_600 | cny_600_700"],
                 ["bounds", str(oil), str(weights), "usd_0_10", "--lang", "1"]):
        assert run_main(*argv).returncode == 0
        assert built == [], argv[0]
