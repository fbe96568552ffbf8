import contextlib
import io
import json
import subprocess
import sys
import tracemalloc

import pytest

import crosslang.cli as cli
import crosslang.commonality as commonality
from conftest import CORPUS, write_cover_pair
from crosslang import check_consistency, common_language, load_corpus
from crosslang.cli import main
from crosslang.oracle import OracleBudget
from crosslang.randgen import write_cell_corpus
from crosslang.translation import galois_pair_holds


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "crosslang", *args],
        capture_output=True,
        text=True,
    )


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


def test_translate_inconsistent_corpus_exits_one():
    res = run_cli("translate", str(CORPUS / "adjunction-violation"), "1>2",
                  "inner", "p")
    assert res.returncode == 1
    assert "axioms" in res.stderr


def test_max_atoms_cap_exits_two():
    res = run_cli("joint", str(CORPUS / "oil-prices"), "--max-atoms", "5")
    assert res.returncode == 2


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


def test_check_oracle_skips_on_inconsistent_translation():
    base = CORPUS / "adjunction-violation"
    res = run_cli("check", str(base / "lang1.lang"), str(base / "lang2.lang"),
                  str(base / "translation.tr"), "--oracle", "--format", "json")
    assert res.returncode == 1
    payload = json.loads(res.stdout)
    assert payload["oracle"]["status"].startswith("skipped")


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
    assert not galois_pair_holds(t, "1>2", lam, t.algebra2.denote_text(eta_text))


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


def test_common_language_at_fourteen_models_needs_no_pairwise_scan(tmp_path, monkeypatch):
    """The block decision settles a 14 x 14 pair: the per-member scan,
    O(|P|^2) over 2**14 members, never runs."""
    def no_scan(*args):
        raise AssertionError("the pairwise scan ran")

    monkeypatch.setattr(commonality, "_first_pairwise_failure", no_scan)
    t = load_corpus(write_cell_corpus(tmp_path, 14, star=False)).require_translation()
    common = common_language(t)
    assert len(common.members) == 2**14
    assert common.partner[common.top] == t.algebra2.top


def test_joint_above_63_states_exits_two(tmp_path):
    d = write_cell_corpus(tmp_path, 8, star=True)
    res = run_cli("joint", str(d))
    assert_clean_usage_error(res)
    assert "80 states" in res.stderr


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
