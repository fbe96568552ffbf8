"""Surviving the round trip is weaker than translating exactly.

In this two-atom versus three-atom pair, the statement ``u`` comes back
unchanged from either round trip through the other language, yet its inner
and outer images differ (``c`` versus ``b | c``): a fixed point that is not a
perfect translation.  The common language here collapses to the two bounds.
"""

from pathlib import Path

from crosslang import (
    check_consistency,
    common_language,
    fixed_points,
    load_corpus,
    perfect_translations,
)

corpus = load_corpus(
    Path(__file__).resolve().parent.parent / "corpus" / "fixed-point-gap")
t = corpus.translation
coarse, fine = corpus.algebra1, corpus.algebra2

assert check_consistency(t).passed
u = coarse.denote_text("u")
print("inner image of u:", fine.formula_text(t.apply("1>2", "inner", u)))
print("outer image of u:", fine.formula_text(t.apply("1>2", "outer", u)))

around = t.apply("2>1", "outer", t.apply("1>2", "inner", u))
print("round trip via the inner image returns:", coarse.formula_text(around))

print()
texts = coarse.formula_texts()
print("fixed points:  ", sorted(texts[m] for m in fixed_points(t, 1)))
print("perfect set:   ", sorted(texts[m] for m in perfect_translations(t, 1)))
common = common_language(t)
print("common language:", [texts[m] for m in common.masks])
