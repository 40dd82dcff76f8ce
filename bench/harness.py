"""Timing, tracing and counting for the ncchar benchmark.

A workload calls into ncchar only through ``Recorder.call`` (or, for CLI
subprocesses, ``Recorder.external``).  Each call is one *step*: it is timed,
tagged with the end-to-end metrics it feeds, and, in a traced pass,
recorded as a span whose parent is the job that made it.

Untraced passes feed the end-to-end metrics.  A step that finishes in
under ``min_time`` seconds is repeated until that much time has passed
and its median is kept, so millisecond calls do not turn scheduler noise
into metric noise.  Traced passes run every step exactly once, so the
counts they collect are exact per pass.
"""

from __future__ import annotations

import statistics
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field

MAX_REPEATS = 200
# The probe's usual duration on the reference machine (a shared 2-CPU VM).
PROBE_REF_S = 0.004
PROBE_GAP_S = 0.1  # steps closer together than this share their probes


def probe() -> float:
    """Time a fixed slice of interpreter work: the machine's current speed.

    On a shared host one CPU runs up to twice as fast at some moments as
    at others, and the state flips every few seconds.  A step's time is
    scaled by ``PROBE_REF_S`` over the mean of the probes taken around
    it, which reports it in reference-machine seconds.  ncchar cannot
    change the probe, so any change to ncchar still shows in full.
    """
    t0 = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(6000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i * i % 7
        acc += len(str(i))
    return time.perf_counter() - t0


@dataclass
class Sample:
    pass_index: int
    key: tuple  # (job, step name, ordinal of that name within the job)
    tags: tuple[str, ...]
    seconds: float  # as measured
    is_cmd: bool
    probe_index: int  # last probe of the pass taken before the step began
    start: float  # wall-clock window of the step, repeats included
    end: float
    scaled: float = 0.0  # in reference-machine seconds, set when the pass ends


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: str | None
    pass_index: int


@dataclass
class PassResult:
    index: int
    traced: bool
    wall: float  # sum of this pass's step times, as measured
    speed: float  # median speed factor of this pass's steps
    counts: dict = field(default_factory=dict)


class Recorder:
    def __init__(self, min_time: float = 0.02):
        self.min_time = min_time
        self.traced = False
        self.pass_index = -1
        self.samples: list[Sample] = []
        self.spans: list[Span] = []
        self.passes: list[PassResult] = []
        self.failures: list[tuple[str, str]] = []
        self.attempted = 0
        self.notes: dict = {}
        self._counts: dict = {}
        self._probes: list[float] = []
        self._probe_times: list[float] = []
        self._pass_start = 0
        self._stack: list[int] = []
        self._job: str | None = None
        self._ordinals: dict = {}
        self._job_failed = False

    # -- passes and jobs ---------------------------------------------------

    def begin_pass(self, traced: bool) -> None:
        self.traced = traced
        self.pass_index += 1
        self._counts = {}
        self._probes = []
        self._probe_times = []
        self._pass_start = len(self.samples)

    def end_pass(self) -> PassResult:
        self._take_probe()
        samples = self.samples[self._pass_start:]
        for s in samples:
            s.scaled = s.seconds * PROBE_REF_S / self._local_probe(s)
        speed = statistics.median(s.scaled / s.seconds for s in samples if s.seconds > 0)
        result = PassResult(self.pass_index, self.traced,
                            sum(s.seconds for s in samples), speed, self._counts)
        self.passes.append(result)
        return result

    @contextmanager
    def job(self, job_id: str):
        """One job: counted as attempted, failed on any check or exception."""
        self._job = job_id
        self._ordinals = {}
        self._job_failed = False
        self.attempted += 1
        try:
            with self.span("bench.job"):
                yield
        except Exception:  # a crashing job is a failed job; the run goes on
            self.fail(traceback.format_exc(limit=3).strip().splitlines()[-1])
        finally:
            self._job = None

    def fail(self, message: str) -> None:
        if not self._job_failed:
            self._job_failed = True
            self.failures.append((self._job or "?", message))

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.fail(message)

    def count(self, name: str, value: float = 1) -> None:
        self._counts[name] = self._counts.get(name, 0) + value

    def add_counts(self, counts: dict) -> None:
        for name, value in counts.items():
            self.count(name, value)

    # -- spans and steps ---------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Record a span while tracing; otherwise do nothing."""
        if not self.traced:
            yield
            return
        span = Span(len(self.spans), name, 0.0, 0.0,
                    self._stack[-1] if self._stack else None,
                    self._job, self.pass_index)
        self.spans.append(span)
        self._stack.append(span.span_id)
        span.start = time.perf_counter()
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _take_probe(self) -> None:
        self._probes.append(probe())
        self._probe_times.append(time.perf_counter())

    def _probe_index(self) -> int:
        """Probe unless the last probe is recent; index of the last probe."""
        if not self._probes or time.perf_counter() - self._probe_times[-1] >= PROBE_GAP_S:
            self._take_probe()
        return len(self._probes) - 1

    def _local_probe(self, s: Sample) -> float:
        """Mean probe around a step: the two probes on each side of it, and
        every probe within half the step's length of either end."""
        half = (s.end - s.start) / 2
        last = len(self._probes) - 1
        near = {i for i in range(s.probe_index - 1, s.probe_index + 3) if 0 <= i <= last}
        near.update(i for i, t in enumerate(self._probe_times)
                    if s.start - half <= t <= s.end + half)
        return statistics.mean(self._probes[i] for i in near)

    def _sample(self, name: str, tags, seconds: float, is_cmd: bool,
                probe_index: int, start: float) -> None:
        ordinal = self._ordinals.get(name, 0)
        self._ordinals[name] = ordinal + 1
        self.samples.append(
            Sample(self.pass_index, (self._job, name, ordinal), tuple(tags),
                   seconds, is_cmd, probe_index, start, time.perf_counter())
        )

    def call(self, name: str, fn, *args, tags=(), is_cmd: bool = True,
             min_time: float | None = None):
        """Run ``fn(*args)`` as one step named ``<layer>.<operation>``.

        Untraced, a step is repeated until ``min_time`` (default: the
        recorder's) has passed, and the median repeat is kept."""
        min_time = self.min_time if min_time is None else min_time
        probe_index = self._probe_index()
        start = time.perf_counter()
        if self.traced:
            with self.span(name):
                t0 = time.perf_counter()
                out = fn(*args)
                seconds = time.perf_counter() - t0
        else:
            times = []
            total = 0.0
            while True:
                t0 = time.perf_counter()
                out = fn(*args)
                dt = time.perf_counter() - t0
                times.append(dt)
                total += dt
                if total >= min_time or len(times) >= MAX_REPEATS:
                    break
            seconds = statistics.median(times)
        self._sample(name, tags, seconds, is_cmd, probe_index, start)
        return out

    @contextmanager
    def external(self, name: str, tags=(), is_cmd: bool = True):
        """Time the block as one step (a subprocess)."""
        probe_index = self._probe_index()
        start = time.perf_counter()
        yield
        seconds = time.perf_counter() - start
        if self.traced:
            self.spans.append(Span(len(self.spans), name, start, start + seconds,
                                   self._stack[-1] if self._stack else None,
                                   self._job, self.pass_index))
        self._sample(name, tags, seconds, is_cmd, probe_index, start)


class _Untimed:
    """Stands in for a Recorder during set-up: calls straight through."""

    def call(self, name: str, fn, *args, tags=(), is_cmd: bool = True, min_time=None):
        return fn(*args)

    def count(self, name: str, value: float = 1) -> None:
        pass


UNTIMED = _Untimed()


# -- statistics ----------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def step_medians(samples, scaled: bool = True) -> dict:
    """Per step key: (tags, median over passes, is_cmd), in reference-machine
    seconds or, with ``scaled`` false, as measured."""
    by_key: dict = {}
    for s in samples:
        by_key.setdefault(s.key, (s.tags, [], s.is_cmd))[1].append(
            s.scaled if scaled else s.seconds)
    return {k: (tags, statistics.median(v), cmd) for k, (tags, v, cmd) in by_key.items()}


def self_times(spans) -> dict:
    """Per span: duration minus the part its children cover."""
    child_time: dict = {}
    for sp in spans:
        if sp.parent is not None:
            child_time[sp.parent] = child_time.get(sp.parent, 0.0) + (sp.end - sp.start)
    return {sp.span_id: (sp.end - sp.start) - child_time.get(sp.span_id, 0.0)
            for sp in spans}


# -- counting shims on the gf layer -------------------------------------------


class GfCounter:
    """Counts FieldMatrix constructions, products, sums and zero tests.

    Installed only around traced passes: the wrappers cost a Python call
    each, which is part of what the reported tracing overhead measures.
    """

    NAMES = ("gf.matrices_built", "gf.matmul_calls", "gf.add_calls",
             "gf.is_zero_calls")

    def __init__(self, field_matrix_cls):
        self.cls = field_matrix_cls
        self.counts = dict.fromkeys(self.NAMES, 0)
        self._saved: dict = {}

    def install(self) -> None:
        cls = self.cls
        self._saved = {name: cls.__dict__[name]
                       for name in ("__init__", "__matmul__", "__add__", "is_zero")}
        init, matmul, add = (self._saved[n] for n in ("__init__", "__matmul__", "__add__"))
        is_zero = self._saved["is_zero"].fget
        counts = self.counts

        def counted_init(obj, *args, **kwargs):
            counts["gf.matrices_built"] += 1
            init(obj, *args, **kwargs)

        def counted_matmul(a, b):
            counts["gf.matmul_calls"] += 1
            return matmul(a, b)

        def counted_add(a, b):
            counts["gf.add_calls"] += 1
            return add(a, b)

        def counted_is_zero(a):
            counts["gf.is_zero_calls"] += 1
            return is_zero(a)

        cls.__init__ = counted_init
        cls.__matmul__ = counted_matmul
        cls.__add__ = counted_add
        cls.is_zero = property(counted_is_zero)

    def uninstall(self) -> None:
        for name, value in self._saved.items():
            setattr(self.cls, name, value)
        self._saved = {}

    def take(self) -> dict:
        out = dict(self.counts)
        for name in self.counts:
            self.counts[name] = 0
        return out
