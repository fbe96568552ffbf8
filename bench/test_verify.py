"""The output checks accept the program's real answers and reject corrupted ones.

    python3 -m pytest bench/test_verify.py

Small instances of each workload's inputs go through ``crosslang.cli.main``
once; the untouched outputs must pass ``verify.py`` and every corruption
below must be caught.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import verify  # noqa: E402
import worker  # noqa: E402
from crosslang import cli  # noqa: E402
from crosslang.corpus import load_corpus  # noqa: E402


def _run(commands):
    """Exit codes and outputs of one operation, which must complete."""
    op = worker.Operation(cli, commands)
    assert op.run()[2]
    return op.reference


def _edit_json(text: str, edit) -> str:
    data = json.loads(text)
    edit(data)
    return json.dumps(data)


def test_same_seed_gives_identical_files(tmp_path):
    def files(root):
        for make in (lambda r: gen.translation_cases(3, r, 2, cells=5),
                     lambda r: gen.implication_cases(3, r, 1, cells=4),
                     lambda r: gen.nested_cases(3, r, 1, coarse_cells=3, fine_cells=5)):
            make(root)
        return {p.relative_to(root): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    first, second = files(tmp_path / "a"), files(tmp_path / "b")
    assert first == second and len(first) == 19


@pytest.fixture(scope="module")
def translation(tmp_path_factory):
    pair, mutant = gen.translation_cases(7, tmp_path_factory.mktemp("t"), 1, cells=6)
    return [(case, _run(worker._check_translation(case))[0]) for case in (pair, mutant)]


def test_translation_outputs_pass(translation):
    for case, (rc, text) in translation:
        assert verify.check_translation(case, rc, text) == []


def test_translation_rejects_flipped_verdict(translation):
    case, (rc, text) = translation[0]
    bad = _edit_json(text, lambda d: d.update(passed=False))
    assert verify.check_translation(case, rc, bad)
    assert verify.check_translation(case, 1, text)


def test_translation_rejects_wrong_witness(translation):
    case, (rc, text) = translation[1]
    dst = case.right if case.override.direction == "1>2" else case.left

    def move_witness(d):
        check = next(c for c in d["axioms"]["checks"]
                     if c["name"] == f"galois:{case.override.direction}")
        lam, eta = check["witnesses"][0]
        cells = verify.parse_cells(dst, eta)
        other = frozenset(range(dst.size)) - cells
        check["witnesses"][0] = [lam, dst.formula(other)]

    assert verify.check_translation(case, rc, _edit_json(text, move_witness))
    assert verify.check_translation(case, 0, text)


def test_implication_rejects_wrong_relation(tmp_path):
    (case,) = gen.implication_cases(7, tmp_path, 1, cells=4)
    rc, text = _run(worker._check_implication(case))[0]
    r = load_corpus(case.directory).relation
    assert verify.check_implication(case, rc, text, r.rows12, r.rows21) == []
    rows12 = r.rows12.copy()
    rows12[3] = rows12[0]  # as if a two-cell union implied the contradiction
    assert verify.check_implication(case, rc, text, rows12, r.rows21)
    failed = _edit_json(text, lambda d: d["axioms"]["checks"][0].update(passed=False))
    assert verify.check_implication(case, rc, failed, r.rows12, r.rows21)


@pytest.fixture(scope="module")
def nested(tmp_path_factory):
    (case,) = gen.nested_cases(7, tmp_path_factory.mktemp("n"), 1,
                               coarse_cells=3, fine_cells=5)
    return case, _run(worker._analysis_session(case))


def _corrupt(results, name, edit):
    i = verify.NESTED_COMMANDS.index(name)
    out = list(results)
    out[i] = (out[i][0], edit(out[i][1]))
    return out


def test_nested_outputs_pass(nested):
    case, results = nested
    assert verify.check_nested(case, results) == []


@pytest.mark.parametrize("name, edit", [
    ("joint", lambda t: _edit_json(t, lambda d: d["joint_state_space"]["states"].reverse())),
    ("common", lambda t: _edit_json(t, lambda d: d["common_language"]["members"][1]
                                    .update(partner="false"))),
    ("classify", lambda t: _edit_json(t, lambda d: d["verdict"]
                                      .update(classification="equal"))),
    ("export-dot", lambda t: "\n".join(l for l in t.splitlines() if "n2_0 -> n2_1;" not in l)),
    ("translate-inner", lambda t: _edit_json(t, lambda d: d.update(result="true"))),
    ("bounds-fine", lambda t: _edit_json(t, lambda d: d.update(low=d["low"] + 1e-6))),
    ("bounds-coarse", lambda t: _edit_json(t, lambda d: d.update(high=d["high"] + 1e-6))),
])
def test_nested_rejects_corruption(nested, name, edit):
    case, results = nested
    assert verify.check_nested(case, _corrupt(results, name, edit))


def test_nested_rejects_error_exit(nested):
    case, results = nested
    bad = list(results)
    bad[0] = (1, bad[0][1])
    assert verify.check_nested(case, bad)
