"""Output identity: every command through ``crosslang.cli.main``, digested.

It copies the five shipped corpora into a scratch directory, writes the
nested pair of ``tests/test_output_identity.py`` (an 8-cell partition
against a 12-cell refinement of it, with translation, seed and weights
files) and gives each corpus without a weights file uniform weights over
the states that ``joint`` reports for it.  On each corpus it runs ``check``
on the translation file and, where there is one, on the seed file;
``translate`` both ways in both modes; ``joint``, ``common``, ``classify``
and ``bounds`` from either language, each in text and JSON, with and
without ``--oracle``; and ``export-dot`` of both algebras and of the cross
relation, reduced and full.  Then a fixed list of bad inputs: missing files
and folders, a copy of ``platypus`` with a byte that is not UTF-8 in each
of its inputs (the weights file included), and CRLF copies of ``platypus``
and the nested pair, each of those copies under the same commands.  Last,
``check`` of the translation and of the seed file, in text and JSON, on
copies of the nested pair with one ``override`` line each (``MUTANTS``),
and on copies with one reader edge case each (``READER_EDGES``): a long
translation or seed file whose last block has a formula endpoint, an
undeclared name before a malformed line, a formula belief among direct
ones, a tab-spaced belief, seed lines that only the line reader takes or
that it refuses, and each kind's line in the other kind's file.  Then
``check``, ``joint``, ``common``, ``classify`` and ``bounds`` in JSON on a
copy of the nested pair whose overrides restate every slot of its four
operators as those of another consistent translation (``write_another``).

Each run is one line of JSON: its argv, its exit code (or the name of the
exception that escaped ``main``), and the sha256 of what it wrote to stdout
and to stderr.  The commands name their inputs relative to the scratch
directory, so that the paths in their reports are the same on every run.

    python3 scripts/identity.py > identity.txt
    python3 scripts/identity.py --src ../other-checkout/src --compare identity.txt

``--src`` picks the crosslang source tree the commands run from (default:
this checkout's).  ``--compare FILE`` lists every run whose exit code or
digests differ from that run in FILE, or that only one of the two has, and
exits 1 if any does.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPORA = ("adjunction-violation", "fixed-point-gap", "nested-grids", "oil-prices",
           "platypus")
NESTED = "nested-8-12"
INPUTS = ("lang1.lang", "lang2.lang", "translation.tr", "implication.imp")
WEIGHTS = ("uniform.prob.json", "weights.json")


def _cells(name: str, cells: list[str]) -> str:
    """A language whose models are the 'exactly one cell true' assignments."""
    lines = [f"language {name}", f"atoms: {' '.join(cells)}",
             f"believe: {' | '.join(cells)}"]
    lines += [f"believe: !({a} & {b})" for i, a in enumerate(cells) for b in cells[i + 1:]]
    return "\n".join(lines) + "\n"


def _formula(prefix: str, cells) -> str:
    return " | ".join(f"{prefix}{k}" for k in sorted(cells)) or "false"


def write_nested_pair(path: Path) -> None:
    """The nested 8 x 12 pair, its translation, seeds and uniform weights."""
    path.mkdir()
    for i, (prefix, n) in enumerate((("a", 8), ("b", 12)), start=1):
        (path / f"lang{i}.lang").write_text(_cells(f"lang{i}", [f"{prefix}{k}"
                                                                 for k in range(n)]))
    parent = [j * 8 // 12 for j in range(12)]
    children = {i: [j for j in range(12) if parent[j] == i] for i in range(8)}
    lines = [f"outer 1>2: a{i} => {_formula('b', children[i])}" for i in range(8)]
    lines += [f"outer 2>1: b{j} => a{parent[j]}" for j in range(12)]
    (path / "translation.tr").write_text("\n".join(lines) + "\n")
    seeds = [f"imp: lang1.a{i} => lang2.{_formula('b', children[i])}" for i in range(8)]
    seeds += [f"imp: lang2.b{j} => lang1.a{parent[j]}" for j in range(12)]
    (path / "implication.imp").write_text("\n".join(seeds) + "\n")
    (path / "weights.json").write_text(json.dumps([1 / 12] * 12) + "\n")


# one override line appended to the nested pair's translation file, by
# folder suffix: changed inner values in both directions, an outer 2>1
# value, the inner image of true, an outer image sent to *, and an override
# that restates the derived value
MUTANTS = (("inner-12", "override inner 1>2: a0 => b0"),
           ("inner-21", "override inner 2>1: b0 | b1 => false"),
           ("outer-21", "override outer 2>1: b0 => a0 | a1"),
           ("inner-top", "override inner 1>2: true => b0 | b1"),
           ("outer-star", "override outer 1>2: a0 => *"),
           ("restated", "override inner 1>2: a0 => b0 | b1"))


# reader edge cases, by folder suffix: the file of the nested pair that is
# rewritten, and its new text as a function of the old: a formula endpoint
# in the last block of a translation file over 64 KB, an undeclared name
# before a malformed line, one formula belief among direct ones, and a
# tab-spaced direct belief; then in the seed file, a formula endpoint in
# the last block of a file over 64 KB, a comment broken by a vertical tab,
# ``imp:`` with no blank after it, a tab before ``=>``, a star inside a
# union, and a mapping line; and a seed line in the translation file
READER_EDGES = (
    ("long-formula", "translation.tr",
     lambda text: text * (70_000 // len(text) + 1) + "outer 1>2: a0 => !(!b0 & !b1)\n"),
    ("undeclared-malformed", "translation.tr",
     lambda text: text + "outer 1>2: a0 => b0 | zz\nouter 1>2 a1 => b1\n"),
    ("formula-belief", "lang1.lang", lambda text: text + "believe: a0 -> !a1\n"),
    ("tab-belief", "lang2.lang",
     lambda text: text.replace("believe: !(b0 & b1)", "believe: !(b0\t&\tb1)")),
    ("long-seed-formula", "implication.imp",
     lambda text: text * (70_000 // len(text) + 1) + "imp: lang1.a0 => lang2.!(!b0 & !b1)\n"),
    ("vt-comment", "implication.imp",
     lambda text: "# every cell\x0bimplies its cover\n" + text),
    ("imp-unspaced", "implication.imp", lambda text: text.replace("imp: ", "imp:", 1)),
    ("tab-arrow", "implication.imp", lambda text: text.replace(" => ", "\t=> ", 1)),
    ("star-in-union", "implication.imp", lambda text: text + "imp: lang1.a0 => lang2.* | b0\n"),
    ("mapping-seed", "implication.imp", lambda text: text + "outer 1>2: a0 => b0\n"),
    ("seed-mapping", "translation.tr", lambda text: text + "imp: lang1.a0 => lang2.b0\n"),
)


def write_mutants() -> list[str]:
    """Copies of the nested pair with one line of ``MUTANTS`` appended to
    the translation file each, and with one file rewritten by
    ``READER_EDGES`` each; their folder names."""
    copies = [(suffix, "translation.tr", lambda text, line=line: text + line + "\n")
              for suffix, line in MUTANTS] + list(READER_EDGES)
    folders = []
    for suffix, name, rewrite in copies:
        folder = Path(f"{NESTED}-{suffix}")
        shutil.copytree(NESTED, folder)
        (folder / name).write_text(rewrite((folder / name).read_text()))
        folders.append(str(folder))
    return folders


def write_another() -> list[list[str]]:
    """A copy of the nested pair whose translation file keeps its ``outer``
    lines and overrides every slot of the four operators with the values of
    another consistent translation: cell a_i covers the cells b_j whose
    parent is i - 1 (mod 8), except that a7's image is the star.  The file
    stays consistent, but its effective atom images are not its ``outer``
    lines.  Its weights are uniform over that translation's states; the
    commands to run on it."""
    folder = Path(f"{NESTED}-another")
    shutil.copytree(NESTED, folder)
    parent = [(j * 8 // 12 + 1) % 8 for j in range(12)]
    images = {"1>2": [-1 if i == 7 else sum(1 << j for j in range(12) if parent[j] == i)
                      for i in range(8)],
              "2>1": [1 << parent[j] for j in range(12)]}

    def outer(direction, mask):
        value = 0
        for i, image in enumerate(images[direction]):
            if mask >> i & 1:
                value |= image          # the star, -1, absorbs every join
        return value

    def inner(direction, mask):
        back = images["2>1" if direction == "1>2" else "1>2"]
        return sum(1 << b for b, v in enumerate(back) if v != -1 and v & ~mask == 0)

    def text(prefix, value):
        return "*" if value == -1 else _formula(prefix, [k for k in range(12) if value >> k & 1])

    lines = [f"override {mode} {direction}: {text(src, x)} => {text(dst, value(direction, x))}"
             for direction, src, dst, n in (("1>2", "a", "b", 8), ("2>1", "b", "a", 12))
             for mode, value in (("inner", inner), ("outer", outer))
             for x in range(1 << n)]
    with open(folder / "translation.tr", "a") as out:
        out.write("\n".join(lines) + "\n")
    states = sum(bool(images["1>2"][a] >> b & 1 and images["2>1"][b] >> a & 1)
                 for a in range(8) for b in range(12)) + images["1>2"].count(-1)
    (folder / "weights.json").write_text(json.dumps([1 / states] * states) + "\n")
    argvs = [[command, str(folder)] for command in ("joint", "common", "classify")]
    argvs += [["bounds", str(folder), str(folder / "weights.json"), atom, "--lang", lang]
              for atom, lang in (("a0", "1"), ("b0", "2"))]
    return check_argvs(str(folder)) + [argv + ["--format", "json"] for argv in argvs]


def check_argvs(folder: str) -> list[list[str]]:
    """``check`` of the translation file and of the seed file, in text and
    JSON."""
    langs = [str(Path(folder) / "lang1.lang"), str(Path(folder) / "lang2.lang")]
    return [["check", *langs, str(Path(folder) / name), *mode, "--format", fmt]
            for name, mode in (("translation.tr", []),
                               ("implication.imp", ["--mode", "implication"]))
            for fmt in ("text", "json")]


def run(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:   # a traceback would reach the user
            code = type(exc).__name__
    return {"argv": argv, "exit": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest()}


def _first_atom(path: Path) -> str:
    """The first atom a language file declares, ``true`` when there is none."""
    found = path.exists() and re.search(r"^atoms:\s*(\w+)",
                                        path.read_text(errors="replace"), re.M)
    return found[1] if found else "true"


def corpus_argvs(corpus: str) -> list[list[str]]:
    """Every command on one corpus folder, named relative to the scratch
    directory, which is the working directory."""
    folder = Path(corpus)
    atoms = {1: _first_atom(folder / "lang1.lang"), 2: _first_atom(folder / "lang2.lang")}
    langs = [str(folder / "lang1.lang"), str(folder / "lang2.lang")]
    weights = next((str(folder / w) for w in WEIGHTS if (folder / w).exists()),
                   str(folder / WEIGHTS[0]))
    argvs = [["check", *langs, str(folder / "translation.tr")]]
    if (folder / "implication.imp").exists():
        argvs.append(["check", *langs, str(folder / "implication.imp"),
                      "--mode", "implication"])
    argvs += [["translate", corpus, direction, mode, atoms[int(direction[0])]]
              for direction in ("1>2", "2>1") for mode in ("inner", "outer")]
    argvs += [[command, corpus] for command in ("joint", "common", "classify")]
    argvs += [["bounds", corpus, weights, atoms[lang], "--lang", str(lang)]
              for lang in (1, 2)]
    argvs = [argv + ["--format", fmt] + oracle for argv in argvs
             for fmt in ("text", "json") for oracle in ([], ["--oracle"])]
    argvs += [["export-dot", corpus, "--what", what] for what in ("algebra1", "algebra2")]
    argvs += [["export-dot", corpus, "--what", "cross"] + full for full in ([], ["--full"])]
    return argvs


def write_inputs(main) -> list[str]:
    """The corpora in the working directory, and the folders of bad inputs;
    the names of the folders to run every command on."""
    for name in CORPORA:
        shutil.copytree(ROOT / "corpus" / name, name)
    write_nested_pair(Path(NESTED))
    for name in CORPORA:
        if not any((Path(name) / w).exists() for w in WEIGHTS):
            report = run_json(main, ["joint", name, "--format", "json"])
            if report is not None:
                states = len(report["joint_state_space"]["states"])
                (Path(name) / WEIGHTS[0]).write_text(json.dumps([1 / states] * states) + "\n")
    folders = list(CORPORA) + [NESTED]
    for source in ("platypus", NESTED):
        crlf = Path(f"{source}-crlf")
        shutil.copytree(source, crlf)
        for path in crlf.iterdir():
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        folders.append(str(crlf))
    for name in INPUTS + (WEIGHTS[0],):
        bad = Path(f"platypus-not-utf8-{name.split('.')[0]}")
        shutil.copytree("platypus", bad)
        data = (bad / name).read_bytes()
        cut = data.find(b"\n") + 1
        (bad / name).write_bytes(data[:cut] + b"\xff" + data[cut:])
        folders.append(str(bad))
    no_pair = Path("platypus-languages-only")
    no_pair.mkdir()
    for name in ("lang1.lang", "lang2.lang"):
        shutil.copy(Path("platypus") / name, no_pair / name)
    folders.append(str(no_pair))
    return folders


def run_json(main, argv: list[str]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return json.loads(out.getvalue()) if code == 0 else None


def missing_argvs() -> list[list[str]]:
    langs = ["platypus/lang1.lang", "platypus/lang2.lang"]
    return [["check", "missing/lang1.lang", langs[1], "platypus/translation.tr"],
            ["check", *langs, "missing.tr"],
            ["check", *langs, "missing.imp", "--mode", "implication"],
            ["translate", "missing", "1>2", "inner", "true"],
            ["joint", "missing"],
            ["bounds", "platypus", "missing.json", "true", "--lang", "1"],
            ["export-dot", "missing"]]


def differences(old_rows: list[dict], new_rows: list[dict]) -> list[str]:
    """One line for each run whose exit code or digests differ between two
    files, or which only one of them has; runs are matched on argv."""
    old = {json.dumps(row["argv"]): row for row in old_rows}
    lines = []
    for row in new_rows:
        key = json.dumps(row["argv"])
        before = old.pop(key, None)
        if before is None:
            lines.append(f"{key}: not in the compared file")
        elif before != row:
            changed = [field for field in row if before.get(field) != row[field]]
            lines.append(f"{key}: {', '.join(changed)} differ")
    lines.extend(f"{key}: not in this run" for key in old)
    return lines


def main(argv_in=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=str(ROOT / "src"),
                   help="the crosslang source tree to run")
    p.add_argument("--compare", metavar="FILE",
                   help="list the runs whose exit code or digests differ from FILE")
    args = p.parse_args(argv_in)
    old_rows = ([json.loads(line) for line in Path(args.compare).read_text().splitlines()]
                if args.compare else None)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from crosslang.cli import main as cli_main

    rows = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="crosslang-identity-") as tmp:
        os.chdir(tmp)
        try:
            argvs = [argv for folder in write_inputs(cli_main)
                     for argv in corpus_argvs(folder)]
            argvs += [argv for folder in write_mutants() for argv in check_argvs(folder)]
            argvs += write_another()
            argvs += missing_argvs()
            for argv in argvs:
                rows.append(run(cli_main, argv))
                if old_rows is None:
                    print(json.dumps(rows[-1]), flush=True)
        finally:
            os.chdir(cwd)
    if old_rows is None:
        return 0
    lines = differences(old_rows, rows)
    print("\n".join(lines) if lines else f"all {len(rows)} runs match {args.compare}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
