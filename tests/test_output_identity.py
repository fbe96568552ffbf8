"""Every report the command line writes, byte for byte against the reference
writers: JSON reports against the same run with ``json.dumps(indent=2,
sort_keys=True)`` put in place of ``cli.write``, on stdout and through
``--output``, and DOT diagrams against the writers kept in ``dotref``."""

import contextlib
import io
import json
from collections.abc import Mapping

import pytest

import crosslang.cli as cli
import crosslang.hasse as hasse
import dotref
from conftest import CORPUS
from crosslang import algebra_dot, cross_dot, joint_space_from_translation, load_corpus
from crosslang.errors import CrosslangError
from crosslang.language import format_language
from crosslang.randgen import make_cell_spec, write_free_corpus

CORPORA = ("adjunction-violation", "fixed-point-gap", "nested-grids", "oil-prices",
           "platypus")
NESTED = "nested-8-12"


def _plain(obj):
    """A valuation table is a mapping, which json.dumps reads through dict();
    the members of a common language are a sequence, read through list()."""
    return dict(obj) if isinstance(obj, Mapping) else list(obj)


def reference_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=_plain)


def reference_write(obj, out, end: str = "") -> None:
    out.write(reference_dumps(obj) + end)


def _formula(prefix, cells):
    return " | ".join(f"{prefix}{k}" for k in sorted(cells)) or "false"


def write_nested_pair(path):
    """An 8-cell partition (language 1) against a 12-cell refinement of it,
    with its translation, uniform weights over its 12 states and a seed file
    of the atoms' outer images."""
    for i, (prefix, n) in enumerate((("a", 8), ("b", 12)), start=1):
        spec = make_cell_spec(f"lang{i}", [f"{prefix}{k}" for k in range(n)])
        (path / f"lang{i}.lang").write_text(format_language(spec))
    parent = [j * 8 // 12 for j in range(12)]
    children = {i: [j for j in range(12) if parent[j] == i] for i in range(8)}
    lines = [f"outer 1>2: a{i} => {_formula('b', children[i])}" for i in range(8)]
    lines += [f"outer 2>1: b{j} => a{parent[j]}" for j in range(12)]
    (path / "translation.tr").write_text("\n".join(lines) + "\n")
    seeds = [f"imp: lang1.a{i} => lang2.{_formula('b', children[i])}" for i in range(8)]
    seeds += [f"imp: lang2.b{j} => lang1.a{parent[j]}" for j in range(12)]
    (path / "implication.imp").write_text("\n".join(seeds) + "\n")
    (path / "weights.json").write_text(json.dumps([1 / 12] * 12) + "\n")
    return path


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """Each corpus by name, with a weights file for ``bounds`` when its
    translation admits a joint state-space."""
    paths = {name: CORPUS / name for name in CORPORA}
    paths[NESTED] = write_nested_pair(tmp_path_factory.mktemp(NESTED))
    weights = {}
    for name, path in paths.items():
        for candidate in ("uniform.prob.json", "weights.json"):
            if (path / candidate).exists():
                weights[name] = path / candidate
        if name not in weights:
            try:
                n = joint_space_from_translation(load_corpus(path).translation).state_count
            except CrosslangError:
                continue
            weights[name] = tmp_path_factory.mktemp(name) / "weights.json"
            weights[name].write_text(json.dumps([1 / n] * n) + "\n")
    return paths, weights


def run(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return code, out.getvalue(), err.getvalue()


def json_commands(path, weights):
    lang1, lang2 = str(path / "lang1.lang"), str(path / "lang2.lang")
    commands = [["check", lang1, lang2, str(path / "translation.tr")],
                ["check", lang1, lang2, str(path / "translation.tr"), "--oracle"]]
    if (path / "implication.imp").exists():
        commands.append(["check", lang1, lang2, str(path / "implication.imp"),
                         "--mode", "implication"])
    commands += [["translate", str(path), "1>2", "inner", "true"],
                 ["translate", str(path), "2>1", "outer", "false", "--oracle"],
                 ["joint", str(path)], ["joint", str(path), "--oracle"],
                 ["common", str(path)], ["classify", str(path)]]
    if weights is not None:
        commands.append(["bounds", str(path), str(weights), "true", "--lang", "1"])
    return commands


@pytest.mark.parametrize("name", CORPORA + (NESTED,))
def test_json_reports_match_the_reference_writer(name, corpora, tmp_path, monkeypatch):
    paths, weights = corpora
    seen = set()
    for command in json_commands(paths[name], weights.get(name)):
        for extra in ([], ["--output", str(tmp_path / "report.json")]):
            argv = command + ["--format", "json"] + extra
            runs = []
            for writer in (cli.write, reference_write):
                monkeypatch.setattr(cli, "write", writer)
                (tmp_path / "report.json").unlink(missing_ok=True)
                code, out, err = run(argv)
                written = ((tmp_path / "report.json").read_bytes()
                           if (tmp_path / "report.json").exists() else None)
                runs.append((code, out, err, written))
            monkeypatch.undo()
            assert runs[0] == runs[1], argv
            seen.add(runs[0][0])
            if extra:
                assert runs[0][1] == "" and (runs[0][3] is not None or runs[0][0] != 0)
    assert 0 in seen or name == "adjunction-violation"


@pytest.mark.parametrize("name", CORPORA + (NESTED,))
def test_dot_diagrams_match_the_reference_writers(name, corpora):
    path = corpora[0][name]
    corpus = load_corpus(path)
    code, out, err = run(["export-dot", str(path), "--what", "algebra1"])
    assert (code, out, err) == (0, dotref.algebra_dot(corpus.algebra1, 1), "")
    for full in (False, True):
        code, out, err = run(["export-dot", str(path), "--what", "cross",
                              *(["--full"] if full else [])])
        try:
            expected = dotref.cross_dot(corpus.require_relation(), full=full)
        except CrosslangError:
            assert code != 0 and out == ""
            continue
        assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize("name", CORPORA + (NESTED,))
def test_output_file_gets_the_bytes_of_stdout(name, corpora, tmp_path):
    """Streamed to stdout or to ``--output``, every large output is the same
    bytes; a command that fails writes neither."""
    path = str(corpora[0][name])
    target = tmp_path / "out"
    for command in (["joint", path], ["common", path],
                    ["export-dot", path, "--what", "cross"],
                    ["export-dot", path, "--what", "cross", "--full"],
                    ["export-dot", path, "--what", "algebra1"]):
        code, out, err = run(command)
        target.unlink(missing_ok=True)
        assert run(command + ["--output", str(target)]) == (code, "", err), command
        written = target.read_bytes() if target.exists() else None
        assert written == (out.encode("utf-8") if code == 0 else None), command


@pytest.mark.parametrize("command", [["joint"], ["export-dot"]])
def test_a_refused_pair_writes_no_byte(command, tmp_path):
    """2**17 models a side are refused before the output file is opened."""
    corpus = write_free_corpus(tmp_path, 17)
    target = tmp_path / "out"
    code, out, err = run(command + [str(corpus), "--output", str(target)])
    assert (code, out) == (2, "") and err.startswith("error: ")
    assert not target.exists()


@pytest.mark.parametrize("block", [1, 3, 7])
def test_dot_blocks_of_any_size_join_to_the_reference(block, corpora, monkeypatch):
    """Every boundary between blocks of nodes, cover edges and arrows, on
    both the dense and the principal relation, leaves the text as it is."""
    monkeypatch.setattr(hasse, "_BLOCK", block)
    for name in ("fixed-point-gap", "nested-grids", "platypus"):
        corpus = load_corpus(corpora[0][name])
        assert "".join(algebra_dot(corpus.algebra2, 2)) == dotref.algebra_dot(corpus.algebra2, 2)
        r = corpus.require_relation()
        for full in (False, True):
            assert "".join(cross_dot(r, full)) == dotref.cross_dot(r, full), (name, full)
