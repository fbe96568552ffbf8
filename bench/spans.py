"""Spans around the public functions of crosslang's layers.

``Tracer.install()`` replaces each function named in ``SPANNED`` with a
wrapper, at every module attribute and class attribute that callers look
it up through, and ``uninstall()`` puts the originals back.  The program
itself is not changed.

A span records its inclusive time, its self time (inclusive time minus the
time of the spans it opened), its call count, the caller span, and the
peak of memory allocated while it ran, above what was allocated when it
started, as ``tracemalloc`` counts it (numpy arrays included).

Element-level helpers (``meet``, ``join``, ``negate``, ``implies`` and the
``Prop`` methods) are deliberately not wrapped: they run about 10^5 times
in one operation, so a span each would cost more than the work it
measures.  Their time is self time of the spans that call them.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

MB = 1024 * 1024

# layer module -> attributes to wrap ("Class.method" for methods)
SPANNED = {
    "language": ["parse_formula", "parse_language"],
    "algebra": ["enumerate_models", "Algebra.from_spec", "Algebra.denote",
                "Algebra.formula_text"],
    "corpus": ["load_corpus", "parse_translation_file", "parse_implication_seeds",
               "parse_implication_file"],
    "translation": ["translation_from_atom_outers", "Translation.replace",
                    "check_consistency", "check_galois", "check_approximation",
                    "check_restricted_duality", "check_derived_properties"],
    "implication": ["close", "check_implication_axioms",
                    "implication_from_translation", "translation_from_implication"],
    "semantics": ["joint_space_from_translation", "JointStateSpace.to_dict",
                  "probability_bounds", "verify_prop2"],
    "commonality": ["perfect_translations", "common_language", "joint_embeddings",
                    "classify_awareness", "CommonLanguage.to_dict"],
    "hasse": ["algebra_dot", "cross_dot"],
    "cli": ["main", "cmd_check", "cmd_translate", "cmd_joint", "cmd_common",
            "cmd_classify", "cmd_bounds", "cmd_export_dot"],
}

SPAN_NAMES = {f"{layer}.{attr.rpartition('.')[2]}"
              for layer, attrs in SPANNED.items() for attr in attrs}

# sizes read off a span's return value: span -> (count name, reader)
SIZES = {
    "implication.close": ("implication.cross_pairs", lambda r: r.cross_pair_count()),
    "implication.implication_from_translation":
        ("implication.cross_pairs", lambda r: r.cross_pair_count()),
    "commonality.perfect_translations": ("commonality.perfect_set_size", len),
    "semantics.joint_space_from_translation": ("semantics.states",
                                               lambda s: s.state_count),
    "hasse.cross_dot": ("hasse.cross_dot.bytes", len),
}


class SpanStats:
    __slots__ = ("calls", "total", "self_time", "peak", "callers")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.peak = 0
        self.callers: dict[str, int] = {}

    def as_dict(self) -> dict:
        return {"calls": self.calls, "ms": self.total * 1e3,
                "self_ms": self.self_time * 1e3, "peak_alloc_mb": self.peak / MB,
                "callers": dict(self.callers)}


class _Frame:
    __slots__ = ("name", "start", "child", "base", "peak")

    def __init__(self, name, start, base):
        self.name = name
        self.start = start
        self.child = 0.0
        self.base = base
        self.peak = base


SIZE_NAMES = {key for key, _ in SIZES.values()}


class Tracer:
    """Aggregates spans per operation; ``take()`` returns and resets them.

    With ``memory`` false no allocation is tracked, which keeps the span
    times close to untraced ones; with ``memory`` true the caller must have
    started ``tracemalloc``."""

    def __init__(self):
        self.memory = False
        self.missing: set[str] = set()  # spans or sizes the program lacks
        self.stats: dict[str, SpanStats] = {}
        self.sizes: dict[str, int] = {}
        self._stack: list[_Frame] = []
        self._saved: list[tuple[object, str, object]] = []

    # --- recording ---

    def _enter(self, name: str) -> _Frame:
        current = 0
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
        frame = _Frame(name, time.perf_counter(), current)
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        elapsed = time.perf_counter() - frame.start
        self._stack.pop()
        if self.memory:
            frame.peak = max(frame.peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
        st = self.stats.get(frame.name)
        if st is None:
            st = self.stats[frame.name] = SpanStats()
        st.calls += 1
        st.total += elapsed
        st.self_time += elapsed - frame.child
        st.peak = max(st.peak, frame.peak - frame.base)
        caller = self._stack[-1].name if self._stack else "-"
        st.callers[caller] = st.callers.get(caller, 0) + 1
        if self._stack:
            parent = self._stack[-1]
            parent.child += elapsed
            parent.peak = max(parent.peak, frame.peak)

    def _wrap(self, name: str, fn):
        size = SIZES.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if size is not None:
                key, read = size
                try:
                    self.sizes[key] = self.sizes.get(key, 0) + read(result)
                except (AttributeError, TypeError):
                    self.missing.add(key)
            return result

        return spanned

    def take(self) -> tuple[dict[str, SpanStats], dict[str, int]]:
        stats, sizes = self.stats, self.sizes
        self.stats, self.sizes = {}, {}
        return stats, sizes

    # --- installation ---

    def install(self) -> None:
        """Wrap every function of ``SPANNED`` that the program still has;
        the names of those it lacks go to ``missing``."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "crosslang" or n.startswith("crosslang.")]
        for layer, attrs in SPANNED.items():
            module = sys.modules.get(f"crosslang.{layer}")
            for attr in attrs:
                owner_name, _, fn_name = attr.rpartition(".")
                name = f"{layer}.{fn_name}"
                owner = getattr(module, owner_name, None) if owner_name else module
                raw = vars(owner).get(fn_name) if owner is not None else None
                if raw is None:
                    self.missing.add(name)
                elif owner_name:  # a method: callers find it on the class
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(name, raw.__func__))
                    else:
                        wrapped = self._wrap(name, raw)
                    self._replace(owner, fn_name, wrapped)
                else:  # a function: wrap it in every module that imported it
                    wrapped = self._wrap(name, raw)
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is raw:
                                self._replace(m, key, wrapped)

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
