"""Two traders quote the same barrel in different units.

One speaks in 10-dollar price bands on [0, 120), the other in 100-yuan bands
and also allows for negative prices.  Yuan statements rarely align with the
dollar grid, so translating one produces a pair of approximations: the
tightest dollar statement inside it, and the tightest one around it.
"""

from pathlib import Path

from crosslang import Star, load_corpus

corpus = load_corpus(Path(__file__).resolve().parent.parent / "corpus" / "oil-prices")
t = corpus.require_translation()
dollars, yuan = corpus.algebra1, corpus.algebra2

print("The yuan speaker says: the price is in [CNY 500, CNY 700).")
span = yuan.denote_text("cny_500_600 | cny_600_700")
inner = t.apply("2>1", "inner", span)
outer = t.apply("2>1", "outer", span)
print("  understating it in dollars:", dollars.formula_text(inner))
print("  overstating it in dollars: ", dollars.formula_text(outer))

print()
print("Now she says: the price is below CNY 200 (maybe even negative).")
low = yuan.denote_text("cny_neg | cny_0_100 | cny_100_200")
inner = t.apply("2>1", "inner", low)
outer = t.apply("2>1", "outer", low)
print("  understating it in dollars:", dollars.formula_text(inner))
if isinstance(outer, Star):
    print("  overstating it in dollars:  impossible - no dollar statement")
    print("  allows negative prices, so the outer translation is undefined (*).")

print()
print("Statements the two can exchange without any loss line up on the")
print("30-dollar grid, where both unit systems cut at the same prices:")
from crosslang import common_language

common = common_language(t)
dollar_texts, yuan_texts = dollars.formula_texts(), yuan.formula_texts()
for member, partner in zip(common.masks[1:5], common.partners[1:5]):
    print(f"  {dollar_texts[member]:35s} <-> {yuan_texts[partner]}")
