"""Span tracing for the traced benchmark run, and the per-layer analysis.

The tracer replaces public functions at the module attribute where the
program looks them up: ``namebasis.engine.<f>`` for the segmenter,
features, syntax and ortho calls the engine makes, ``namebasis.cli.<f>``
for the calls the CLI makes. Nothing under ``src/`` changes.

Each span records its name, start, end, parent, thread and two counts
taken from the call (such as candidates returned). Spans stay in
per-thread arrays in memory until the run ends; per-thread buffers keep
the counts exact when the engine's worker pool calls traced functions
from two threads at once.
"""

from __future__ import annotations

import inspect
import itertools
import statistics
import threading
from array import array
from time import perf_counter
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    parent: int  # -1 for a root span
    thread: int
    start: float
    end: float
    count: int = 0
    extra: int = 0


class _Buffer:
    def __init__(self, thread: int):
        self.thread = thread
        self.stack: list[int] = []
        self.ids = array("q")
        self.names = array("H")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = array("q")
        self.extras = array("q")


class Tracer:
    def __init__(self):
        self._span_names: list[str] = []
        self._ids = itertools.count()  # next() on it is atomic under the GIL
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_Buffer] = []
        self._main = self._buffer()
        self._restore: list[tuple[object, str, object]] = []

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _name_id(self, name: str) -> int:
        if name not in self._span_names:
            self._span_names.append(name)
        return self._span_names.index(name)

    def _call(self, name_id: int, fn: Callable, args, kwargs, counts):
        buf = self._buffer()
        stack = buf.stack
        # A worker thread's first span hangs under the span the main thread
        # is in, which is the engine call that started the pool.
        if stack:
            parent = stack[-1]
        elif buf is not self._main and self._main.stack:
            parent = self._main.stack[-1]
        else:
            parent = -1
        span_id = next(self._ids)
        stack.append(span_id)
        start = perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter()
            stack.pop()
            count, extra = counts(args, kwargs, result) if counts and result is not None else (0, 0)
            buf.ids.append(span_id)
            buf.names.append(name_id)
            buf.parents.append(parent)
            buf.starts.append(start)
            buf.ends.append(end)
            buf.counts.append(count)
            buf.extras.append(extra)

    def wrap(self, module, attr: str, name: str, counts: Callable | None = None) -> None:
        """Trace every call made through ``module.attr`` as span ``name``."""
        original = getattr(module, attr)
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            return self._call(name_id, original, args, kwargs, counts)

        setattr(module, attr, traced)
        self._restore.append((module, attr, original))

    def span(self, name: str, fn: Callable, *args):
        """Call ``fn(*args)`` inside a span that wraps no module attribute."""
        return self._call(self._name_id(name), fn, args, {}, None)

    def unwrap(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def spans(self) -> list[Span]:
        out = []
        for buf in self._buffers:
            for i in range(len(buf.ids)):
                out.append(
                    Span(
                        buf.ids[i],
                        self._span_names[buf.names[i]],
                        buf.parents[i],
                        buf.thread,
                        buf.starts[i],
                        buf.ends[i],
                        buf.counts[i],
                        buf.extras[i],
                    )
                )
        return out

    def write(self, path) -> None:
        """Write all spans as tab-separated text, one per line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tname\tparent\tthread\tstart\tend\tcount\textra\n")
            for s in self.spans():
                handle.write("\t".join(map(str, s)) + "\n")


def _cap_reached(signature: inspect.Signature):
    def counts(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        cap = bound.arguments["cap"]
        return len(result), int(cap is not None and len(result) >= cap)

    return counts


def install(tracer: Tracer, engine, cli) -> None:
    """Wrap each layer boundary the benchmark measures."""
    for attr in ("enumerate_with_basis", "enumerate_all"):
        fn = getattr(engine, attr)
        tracer.wrap(engine, attr, f"segmenter.{attr}", _cap_reached(inspect.signature(fn)))
    tracer.wrap(engine, "candidate_words", "segmenter.candidate_words")
    for attr in ("compute_features", "cost_alg1", "cost_alg2", "demand_shares", "select_best"):
        tracer.wrap(engine, attr, f"features.{attr}")
    tracer.wrap(engine, "accepts_syntax", "syntax.accepts_syntax")
    tracer.wrap(
        engine,
        "make_ortho",
        "ortho.make_ortho",
        lambda args, kwargs, result: (len(args[0]), len(args[0]) - len(result)),
    )
    tracer.wrap(engine, "run_iteration_alg1", "engine.run_iteration_alg1")
    # grid_search_weights reaches run_alg1/run_alg2 through engine's
    # globals, the CLI through its own imports: both are traced.
    for module in (engine, cli):
        tracer.wrap(module, "run_alg1", "engine.run_alg1")
        tracer.wrap(module, "run_alg2", "engine.run_alg2")
    tracer.wrap(cli, "segment_corpus", "engine.segment_corpus")
    tracer.wrap(cli, "grid_search_weights", "engine.grid_search_weights")
    tracer.wrap(cli, "load_names", "corpus.load_names")
    tracer.wrap(cli, "normalize", "corpus.normalize")
    tracer.wrap(cli, "load_transcriptions", "lexicon.load_transcriptions")
    tracer.wrap(
        cli,
        "build_lexicon",
        "lexicon.build_lexicon",
        lambda args, kwargs, result: (len(result.entries), 0),
    )
    tracer.wrap(cli, "emit_lexicon", "lexicon.emit_lexicon")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its same-thread children cover.

    Children on other threads (engine workers) run alongside their parent
    rather than inside it, so they are not subtracted.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        intervals = sorted(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ())
            if c.thread == s.thread
        )
        covered = 0.0
        reach = s.start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


ENGINE_CALLS = ("engine.run_alg1", "engine.run_alg2", "engine.segment_corpus")
BUSY_LAYERS = ("segmenter.", "features.", "syntax.")

# per-layer metric -> the spans whose self times it sums
SELF_TIME_METRICS = {
    "corpus.load_s": ("corpus.load_names", "corpus.normalize"),
    "segmenter.tilings_s": ("segmenter.enumerate_with_basis",),
    "segmenter.enumerate_s": ("segmenter.enumerate_with_basis", "segmenter.enumerate_all"),
    "segmenter.candidate_words_s": ("segmenter.candidate_words",),
    "features.score_s": ("features.compute_features", "features.cost_alg1", "features.cost_alg2"),
    "features.demand_s": ("features.demand_shares",),
    "features.select_s": ("features.select_best",),
    "syntax.accepts_s": ("syntax.accepts_syntax",),
    "ortho.make_ortho_s": ("ortho.make_ortho",),
    "lexicon.transcribe_s": (
        "lexicon.load_transcriptions",
        "lexicon.build_lexicon",
        "lexicon.emit_lexicon",
    ),
    "cli.self_s": ("cli.main",),
}


def layer_metrics(spans: list[Span], workers: int) -> dict[str, float]:
    """Per-layer times, counts and ratios of one traced child."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def total_self(*names):
        return sum(own[s.id] for s in named(*names))

    out = {metric: total_self(*names) for metric, names in SELF_TIME_METRICS.items()}
    # Inclusive: the whole final segmentation pass.
    out["engine.segment_corpus_s"] = sum(s.end - s.start for s in named("engine.segment_corpus"))

    tilings = named("segmenter.enumerate_with_basis")
    compositions = named("segmenter.enumerate_all")
    out["segmenter.tilings_candidates"] = sum(s.count for s in tilings)
    out["segmenter.tilings_capped"] = sum(s.extra for s in tilings)
    out["segmenter.compositions_candidates"] = sum(s.count for s in compositions)
    out["segmenter.compositions_capped"] = sum(s.extra for s in compositions)
    out["segmenter.candidate_words_calls"] = len(named("segmenter.candidate_words"))
    scored = len(named("features.compute_features"))
    selected = len(named("features.select_best"))
    out["features.scored"] = scored
    out["features.selected"] = selected
    out["features.useful_ratio"] = selected / scored if scored else 0.0
    out["syntax.accepts_calls"] = len(named("syntax.accepts_syntax"))
    ortho = named("ortho.make_ortho")
    out["ortho.words_in"] = sum(s.count for s in ortho)
    out["ortho.words_removed"] = sum(s.extra for s in ortho)

    # An induction round is one alg1 grow/prune iteration, or alg2's
    # single pass (its stats row is iteration 1).
    rounds = [s.end - s.start for s in named("engine.run_iteration_alg1", "engine.run_alg2")]
    out["engine.iteration_s"] = statistics.median(rounds)
    out["engine.iterations"] = len(rounds)
    weight_sets = [s.end - s.start for s in named("engine.run_alg1", "engine.run_alg2")]
    out["engine.weight_set_s"] = statistics.median(weight_sets)
    out["engine.weight_set_p80_s"] = percentile(weight_sets, 0.8)
    out["engine.weight_sets"] = len(weight_sets)

    engine_ids = {s.id for s in named(*ENGINE_CALLS)}
    parents = {s.id: s.parent for s in spans}

    def under_engine(s: Span) -> bool:
        node = s.parent
        while node != -1:
            if node in engine_ids:
                return True
            node = parents.get(node, -1)
        return False

    busy = sum(
        s.end - s.start
        for s in spans
        if s.name.startswith(BUSY_LAYERS) and under_engine(s)
    )
    engine_wall = sum(s.end - s.start for s in named(*ENGINE_CALLS))
    out["engine.worker_busy_frac"] = busy / (workers * engine_wall)
    out["lexicon.entries"] = sum(s.count for s in named("lexicon.build_lexicon"))
    out["trace.spans"] = len(spans)
    return out


def percentile(values: list[float], share: float) -> float:
    """The value at ``share`` of the sorted sample (nearest rank)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]
