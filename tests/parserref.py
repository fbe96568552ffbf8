"""The formula tokenizer and parser from before the single-pass scanner,
kept verbatim as the reference for ``test_language.py``'s differential
property: same trees, same errors, same lines and columns."""

import re

from crosslang.errors import ParseError, UndeclaredAtomError
from crosslang.language import FALSE, TRUE, And, Arrow, Atom, Formula, Not, Or

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<arrow>->)"
    r"|(?P<op>[!&|()])"
)


class _Tok:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column


def _tokenize(text: str, line: int = 1):
    tokens = []
    pos = 0
    col0 = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - col0 + 1)
        if m.lastgroup == "ws":
            line += m.group().count("\n")
            if "\n" in m.group():
                col0 = m.end() - len(m.group().rsplit("\n", 1)[1])
        elif m.lastgroup == "ident":
            word = m.group()
            kind = word if word in ("true", "false") else "ident"
            tokens.append(_Tok(kind, word, line, m.start() - col0 + 1))
        else:
            tokens.append(_Tok(m.group(), m.group(), line, m.start() - col0 + 1))
        pos = m.end()
    tokens.append(_Tok("end", "", line, pos - col0 + 1))
    return tokens


class _FormulaParser:
    def __init__(self, tokens, declared=None):
        self.tokens = tokens
        self.i = 0
        self.declared = declared

    @property
    def cur(self):
        return self.tokens[self.i]

    def _fail(self, expected):
        tok = self.cur
        got = tok.text or "end of input"
        raise ParseError(f"expected {expected}, got {got!r}", tok.line, tok.column)

    def eat(self, kind, expected):
        if self.cur.kind != kind:
            self._fail(expected)
        tok = self.cur
        self.i += 1
        return tok

    def parse(self) -> Formula:
        node = self.arrow()
        if self.cur.kind != "end":
            self._fail("end of formula")
        return node

    def arrow(self) -> Formula:
        left = self.disjunction()
        if self.cur.kind == "->":
            self.i += 1
            return Arrow(left, self.arrow())
        return left

    def disjunction(self) -> Formula:
        node = self.conjunction()
        while self.cur.kind == "|":
            self.i += 1
            node = Or(node, self.conjunction())
        return node

    def conjunction(self) -> Formula:
        node = self.negation()
        while self.cur.kind == "&":
            self.i += 1
            node = And(node, self.negation())
        return node

    def negation(self) -> Formula:
        if self.cur.kind == "!":
            self.i += 1
            return Not(self.negation())
        return self.primary()

    def primary(self) -> Formula:
        tok = self.cur
        if tok.kind == "true":
            self.i += 1
            return TRUE
        if tok.kind == "false":
            self.i += 1
            return FALSE
        if tok.kind == "ident":
            self.i += 1
            if self.declared is not None and tok.text not in self.declared:
                raise UndeclaredAtomError(
                    f"undeclared atom {tok.text!r}", tok.line, tok.column
                )
            return Atom(tok.text)
        if tok.kind == "(":
            self.i += 1
            node = self.arrow()
            self.eat(")", "')'")
            return node
        self._fail("a formula")



def parse_formula(text: str, spec=None, line: int = 1) -> Formula:
    declared = set(spec.elementary) if spec is not None else None
    return _FormulaParser(_tokenize(text, line), declared).parse()
