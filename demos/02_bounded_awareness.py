"""One speaker knows about egg-laying mammals, the other does not.

The relation between the two vocabularies is seeded by a handful of mutual
implications; its transitive closure passes all five relation axioms, turns
into a four-operator translation, and induces a three-state joint space in
which the unaware speaker's field of events is a strict restriction of the
aware one's.
"""

from pathlib import Path

from crosslang import (
    build_joint_state_space,
    check_implication_axioms,
    classify_awareness,
    cross_dot,
    load_corpus,
    probability_bounds,
    translation_from_implication,
)

corpus = load_corpus(Path(__file__).resolve().parent.parent / "corpus" / "platypus")
aware, unaware = corpus.algebra1, corpus.algebra2
relation = corpus.relation

report = check_implication_axioms(relation)
print("relation axioms:")
for line in report.summary_lines():
    print(" ", line)

t = translation_from_implication(relation)
print()
print("everything the unaware speaker can say maps inside:",
      aware.formula_text(t.apply("2>1", "outer", unaware.top)))
print("the platypus has no counterpart at all:",
      unaware.formula_text(t.apply("1>2", "outer",
                                   aware.denote_text("platypus"))))

space = build_joint_state_space(relation)
print()
print("joint state-space:")
for a, b in space.states:
    left = aware.formula_text(aware.prop(1 << a)) if a is not None else "-"
    right = unaware.formula_text(unaware.prop(1 << b)) if b is not None else "-"
    print(f"  ({left}, {right})")

verdict = classify_awareness(t, space)
print()
print("verdict:", verdict.summary)

print()
print("with equal odds on the three states, 'lays eggs' translated for the")
print("unaware speaker is only bracketed:")
lo, hi = probability_bounds(space, [1 / 3] * 3,
                            aware.denote_text("egg_only | platypus"), 2)
print(f"  probability in [{lo:.4f}, {hi:.4f}]")

out = Path(__file__).resolve().parent / "platypus.dot"
out.write_text("".join(cross_dot(relation)))
print()
print("cross-implication diagram written to", out.name,
      "(render with: dot -Tpng platypus.dot)")
