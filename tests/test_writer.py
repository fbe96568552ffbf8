"""The JSON writer ``crosslang.reports.dumps`` against the reference
``json.dumps(obj, indent=2, sort_keys=True)``: the same text, byte for byte,
for nested payloads, for valuation tables rendered from event arrays and
for common-language members rendered from mask arrays."""

import json
import math
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import denseref
from crosslang.randgen import cell_algebra
from crosslang import reports
from crosslang.reports import Members, Valuation, dumps, write
from crosslang.semantics import JointStateSpace

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])

STATE_COUNTS = (1, 12, 13, 24, 25, 63)


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


class Chunks(list):
    """A text stream that keeps each chunk written to it."""
    write = list.append


def written(obj) -> str:
    chunks = Chunks()
    write(obj, chunks)
    return "".join(chunks)


texts = st.text(st.one_of(
    st.characters(),                                       # any non-surrogate, mostly non-ASCII
    st.characters(min_codepoint=0, max_codepoint=0x1F),   # control characters
    st.characters(categories=["Cs"]),                      # lone surrogates
    st.sampled_from('"\\/ \x7f'),
), max_size=8)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-2**200, max_value=2**200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 5e-324, 1.0]),
    texts,
    st.just([]),
    st.just({}),
)

# lists of ints take the writer's joined path unless a bool is among them
int_lists = st.lists(st.one_of(st.integers(), st.integers(-2**70, 2**70)), min_size=1)
mixed_lists = st.lists(st.one_of(st.integers(-3, 3), st.booleans()), min_size=1)

payloads = st.recursive(
    st.one_of(scalars, int_lists, mixed_lists),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(texts, children, max_size=4),
    ),
    max_leaves=24,
)


@FUZZ
@given(payloads)
def test_dumps_matches_indented_json_dumps(payload):
    assert written(payload) == dumps(payload) == reference(payload)


@pytest.mark.parametrize("payload", [
    [True, 1, False, 0, -1],
    [1, True],
    [0, 2**64, -2**64, 10**40],
    {"a": [1, 2, 3], "b": [True], "c": [False, 0]},
    {1: "one", 2: "two", 10: "ten"},
    {1.5: 0, -0.0: 1, 1e16: 2},
    {True: [], False: {}},
    {None: 0},
])
def test_dumps_matches_on_bools_ints_and_non_string_keys(payload):
    assert dumps(payload) == reference(payload)


def test_dumps_refuses_what_json_refuses():
    for payload in ({"a": object()}, [np.int64(1)], {(1, 2): 0}, {"a": 1, 2: 0}):
        with pytest.raises(TypeError):
            reference(payload)
        with pytest.raises(TypeError):
            dumps(payload)


@st.composite
def valuations(draw):
    """A valuation table over a random event array, empty events included,
    with unique labels in no particular order."""
    n = draw(st.sampled_from(STATE_COUNTS))
    events = draw(st.lists(st.one_of(st.just(0), st.integers(0, 2**n - 1)),
                           min_size=1, max_size=40))
    labels = draw(st.lists(texts, min_size=len(events), max_size=len(events),
                           unique=True))
    return Valuation(labels, np.array(events, dtype=np.int64), n), labels, events, n


@FUZZ
@given(valuations(), st.integers(0, 3))
def test_valuation_renders_like_its_plain_dict(drawn, depth):
    table, labels, events, n = drawn
    plain = {label: [s for s in range(n) if event >> s & 1]
             for label, event in zip(labels, events)}
    assert dict(table) == plain and table == plain
    nested, nested_plain = table, plain
    for k in range(depth):   # the table's indent follows its depth
        nested, nested_plain = {f"k{k}": [nested]}, {f"k{k}": [nested_plain]}
    assert dumps(nested) == reference(nested_plain)


def _space(n_states: int, rng: random.Random) -> JointStateSpace:
    """A joint state-space of ``n_states`` states between two cell
    algebras of at most eight cells, every atom in some state."""
    while True:
        m1, m2 = rng.randint(1, 8), rng.randint(1, 8)
        if max(m1, m2) <= n_states <= m1 * m2 + m1 + m2:
            break
    # distinct pairs that cover every atom of both sides, then random others
    states = [(k % m1, k % m2) for k in range(max(m1, m2))]
    pool = ([pair for pair in product(range(m1), range(m2)) if pair not in states]
            + [(i, None) for i in range(m1)] + [(None, j) for j in range(m2)])
    states += rng.sample(pool, n_states - len(states))
    return JointStateSpace(cell_algebra("left", m1, "a"), cell_algebra("right", m2, "b"),
                           states)


@pytest.mark.parametrize("n_states", STATE_COUNTS)
def test_joint_report_matches_the_dense_reference(n_states):
    for seed in range(3):
        space = _space(n_states, random.Random(f"{n_states}:{seed}"))
        assert space.state_count == n_states
        report, expected = space.to_dict(), denseref.joint_to_dict(space)
        assert report == expected
        assert dumps(report) == reference(expected)
        for side in (1, 2):
            table = report[f"valuation{side}"]
            assert table[space.algebra(side).formula_texts()[0]] == []
            assert dumps(table) == reference(dict(table))


@pytest.mark.parametrize("block", [1, 2, 5])
def test_blocks_of_any_size_join_to_the_same_text(block, monkeypatch):
    """Every boundary between blocks, inside lists, dicts and valuation
    tables, leaves the text as it is."""
    monkeypatch.setattr(reports, "_BLOCK", block)
    rng = random.Random(block)
    for n_states in STATE_COUNTS:
        space = _space(n_states, rng)
        payload = {"joint": space.to_dict(), "lists": [[1, 2], [], {"a": [True]}, "x"]}
        expected = reference({"joint": denseref.joint_to_dict(space),
                              "lists": [[1, 2], [], {"a": [True]}, "x"]})
        assert written(payload) == dumps(payload) == expected


@st.composite
def member_tables(draw):
    """Members over random labels of both sides, repeats and none
    included."""
    host = draw(st.lists(texts, min_size=1, max_size=6))
    partner = draw(st.lists(texts, min_size=1, max_size=6))
    pairs = draw(st.lists(st.tuples(st.integers(0, len(host) - 1),
                                    st.integers(0, len(partner) - 1)), max_size=40))
    masks, partners = (np.array([pair[k] for pair in pairs], dtype=np.int64) for k in (0, 1))
    plain = [{"host": host[m], "partner": partner[p]} for m, p in pairs]
    return Members(host, partner, masks, partners), plain


@FUZZ
@given(member_tables(), st.integers(0, 3))
def test_members_render_like_their_plain_list(drawn, depth):
    members, plain = drawn
    assert list(members) == plain and len(members) == len(plain)
    nested, nested_plain = members, plain
    for k in range(depth):   # the list's indent follows its depth
        nested, nested_plain = {f"k{k}": [nested]}, {f"k{k}": [nested_plain]}
    assert written(nested) == dumps(nested) == reference(nested_plain)


@pytest.mark.parametrize("block", [1, 2, 5])
def test_member_blocks_of_any_size_join_to_the_same_text(block, monkeypatch):
    monkeypatch.setattr(reports, "_BLOCK", block)
    labels = [f"m{k}" for k in range(12)]
    masks = np.arange(12, dtype=np.int64)
    members = Members(labels, labels[::-1], masks, masks[::-1].copy())
    plain = [{"host": f"m{k}", "partner": f"m{k}"} for k in range(12)]
    for payload, expected in (({"members": members, "size": 12},
                               {"members": plain, "size": 12}),
                              ([members, [], members], [plain, [], plain])):
        assert written(payload) == dumps(payload) == reference(expected)
