"""Span tracing around the calls that ``ddrbench.harness`` makes into each layer.

The tracer never edits the package: it replaces names in the harness module's
namespace (and entries of the generator table it holds) with wrappers that
record one span per call.  Spans stay in memory until the sweep ends.  A name
the harness no longer resolves is reported as missing instead of crashing, so
a refactor of the call sites shows up as a layer with ``calls = 0``.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import statistics
import threading
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    source: str
    key: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _fingerprint(*parts) -> str:
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()[:16]


def _rng_state(rng) -> str:
    return json.dumps(rng.bit_generator.state, sort_keys=True)


def _chain_key(n, target, count, rng, burn_in=1000, thinning=10) -> str:
    # A chain is fully determined by its arguments and the generator's state.
    return _fingerprint(n, float(target), count, burn_in, thinning, _rng_state(rng))


def _dataset_key(generator_id: str) -> Callable[..., str]:
    def key(n_samples, n_features, rng, **kwargs) -> str:
        return _fingerprint(
            generator_id, n_samples, n_features, sorted(kwargs.items()), _rng_state(rng)
        )

    return key


class Tracer:
    """Collects spans from every thread; parents come from a per-thread stack.

    Spans opened on a pool thread with an empty stack take the innermost span
    open on the thread that installed the tracer as their parent, which is the
    ``harness.run`` span during a sweep.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self.sources: List[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: List[int] = self._stack()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, source: str, name: str, key: Optional[str], fn, *args, **kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(span_id, name, start, end, parent, threading.get_ident(), source, key)
            )

    def wrap(self, source: str, fn, name_of, key_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                name = name_of(*args, **kwargs) if callable(name_of) else name_of
                key = key_of(*args, **kwargs) if key_of is not None else None
            except (AttributeError, TypeError):
                # A changed signature must not break the sweep; the span stays
                # visible under this name and its layer reads calls = 0.
                name, key = f"unlabelled.{source}", None
            return self.call(source, name, key, fn, *args, **kwargs)

        self.sources.append(source)
        return traced

    def patch(self, owner, dotted: str, name_of, key_of=None) -> None:
        """Replace ``owner.<dotted>`` by a traced wrapper, or record it missing."""
        *path, attr = dotted.split(".")
        target = owner
        for part in path:
            target = getattr(target, part, None)
        fn = getattr(target, attr, None) if target is not None else None
        if not callable(fn):
            self.missing.append(dotted)
            return
        setattr(target, attr, self.wrap(dotted, fn, name_of, key_of))

    def install(self, harness) -> None:
        """Wrap every public function the sweep calls through ``harness``."""
        self.patch(harness, "run_experiment", "harness.run")
        self.patch(harness, "sample_ddr_tuples", "sampler", _chain_key)
        self.patch(harness, "datagen.inject_noise", "datagen.inject_noise")
        self.patch(harness, "fit", lambda spec, *a, **k: f"models.fit.{spec.kind}")
        self.patch(harness, "predict", lambda model, *a, **k: f"models.predict.{model.spec.kind}")
        self.patch(harness, "f1_score", "evaluation.score")
        self.patch(harness, "nmse_accuracy", "evaluation.score")
        self.patch(harness, "report_from_curve", "evaluation.report")
        self.patch(harness, "write_outputs", "harness.persist")
        generators = getattr(harness, "GENERATORS", None)
        if not isinstance(generators, dict):
            self.missing.append("GENERATORS")
            return
        for generator_id, fn in list(generators.items()):
            generators[generator_id] = self.wrap(
                f"GENERATORS[{generator_id}]", fn, "datagen.generate", _dataset_key(generator_id)
            )

    def uncalled(self) -> List[str]:
        called = {span.source for span in self.spans}
        return sorted(set(self.missing) | {s for s in self.sources if s not in called})

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of intervals (children may overlap across threads)."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = {}
    for span in spans:
        clipped = [
            (max(s, span.start), min(e, span.end))
            for s, e in children.get(span.id, ())
            if min(e, span.end) > max(s, span.start)
        ]
        out[span.id] = span.duration - _covered(clipped)
    return out


def _percentile_ms(durations: List[float], q: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e3


def layer_metrics(spans: List[Span], sweep_s: float, kinds: Iterable[str]) -> Dict[str, float]:
    """Per-layer counts and times of one traced sweep, keyed by metric name.

    ``kinds`` are the model kinds to report fit and predict metrics for.
    """
    selfs = self_times(spans)
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return sum(selfs[s.id] for s in by_name.get(name, ()))

    def durations(name):
        return [s.duration for s in by_name.get(name, ())]

    def distinct(name):
        return len({s.key for s in by_name.get(name, ())})

    m: Dict[str, float] = {}
    n = calls("sampler")
    m["sampler.calls"] = n
    m["sampler.distinct_chains"] = distinct("sampler")
    m["sampler.useful_ratio"] = distinct("sampler") / n if n else 0.0
    m["sampler.self_s"] = self_s("sampler")
    m["sampler.share"] = self_s("sampler") / sweep_s
    m["sampler.p50_ms"] = _percentile_ms(durations("sampler"), 50)
    m["sampler.p95_ms"] = _percentile_ms(durations("sampler"), 95)
    for stage in ("fit", "predict"):
        for kind in kinds:
            name = f"models.{stage}.{kind}"
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.self_s"] = self_s(name)
            m[f"{name}.p50_ms"] = _percentile_ms(durations(name), 50)
    n = calls("datagen.generate")
    m["datagen.generate.calls"] = n
    m["datagen.generate.distinct"] = distinct("datagen.generate")
    m["datagen.generate.useful_ratio"] = distinct("datagen.generate") / n if n else 0.0
    m["datagen.generate.self_s"] = self_s("datagen.generate")
    m["datagen.inject_noise.calls"] = calls("datagen.inject_noise")
    m["datagen.inject_noise.self_s"] = self_s("datagen.inject_noise")
    m["datagen.inject_noise.p50_ms"] = _percentile_ms(durations("datagen.inject_noise"), 50)
    m["evaluation.score.calls"] = calls("evaluation.score")
    m["evaluation.score.self_s"] = self_s("evaluation.score")
    m["evaluation.report.self_s"] = self_s("evaluation.report")
    runs = by_name.get("harness.run", [])
    run_ids = {s.id for s in runs}
    run_wall = sum(s.duration for s in runs)
    m["harness.self_s"] = self_s("harness.run")
    m["harness.persist_s"] = sum(durations("harness.persist"))
    m["harness.concurrency"] = (
        sum(s.duration for s in spans if s.parent in run_ids) / run_wall if run_wall else 0.0
    )
    m["cli.self_s"] = self_s("cli.main")
    return m
