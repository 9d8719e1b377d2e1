"""A deterministic metrics registry: counters, gauges, histograms.

The telemetry subsystem (:mod:`repro.obs`) measures the *simulated* system,
so every number here is derived from virtual time and event counts — no
wall clock, no sampling, no background threads.  Two identical runs produce
byte-identical expositions, which lets tests assert on rendered output.

The model follows Prometheus conventions closely enough that the text
exposition (:meth:`MetricsRegistry.render_prometheus`) is scrapeable:

* a *family* has a name, a help string and a fixed label schema;
* each distinct label-value combination is a separate child metric;
* histograms use fixed logarithmic buckets (time is the common unit and
  spans nine orders of magnitude between a memory hit and a tape mount),
  rendered as cumulative ``_bucket{le=...}`` series plus ``_sum``/``_count``.

Families with an empty label schema proxy mutations directly
(``fam.inc()``), so single-series metrics read naturally at call sites.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
from dataclasses import dataclass


def log_buckets(lo: float = 1e-7, hi: float = 600.0,
                factor: float = 2.0) -> tuple[float, ...]:
    """Geometric bucket upper bounds covering ``[lo, hi]``.

    The defaults span 100 ns (a memory access) to ~10 minutes (an
    unload + exchange + load + full-wind locate on a cold tape library)
    in doubling steps — 34 finite buckets — so per-component breakdown
    histograms resolve page-cache hits and tape mounts in one ladder.
    """
    if lo <= 0 or hi <= lo or factor <= 1.0:
        raise ValueError(f"bad bucket spec: lo={lo}, hi={hi}, factor={factor}")
    bounds = []
    bound = lo
    while bound < hi:
        bounds.append(bound)
        bound *= factor
    bounds.append(bound)
    return tuple(bounds)


#: default latency buckets shared by every duration histogram
LATENCY_BUCKETS = log_buckets()

#: buckets for small integer distributions (queue depths, cluster sizes)
DEPTH_BUCKETS = tuple(float(1 << i) for i in range(13))  # 1 .. 4096


def _fmt(value: float) -> str:
    """Render a sample value the same way every time (exposition lines)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def bucket_quantile(bounds: tuple[float, ...], counts, count: int,
                    q: float) -> float:
    """Approximate quantile of a bucketed distribution: the upper edge of
    the bucket holding it.  ``counts`` holds one count per finite bucket
    plus the overflow bucket; ``count`` is their total."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1]: {q}")
    if count == 0:
        return 0.0
    target = q * count
    seen = 0
    for i, n in enumerate(counts):
        seen += n
        if seen >= target and n:
            return bounds[i] if i < len(bounds) else bounds[-1]
    return bounds[-1]


class Counter:
    """A monotonically increasing sample."""

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up: {amount}")
        self.value += amount

    def to_dict(self) -> float:
        return self.value


class Gauge:
    """A sample that can go up and down."""

    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def to_dict(self) -> float:
        return self.value


class Histogram:
    """Fixed-bucket histogram with sum and count.

    ``bounds`` are the finite bucket upper edges; an implicit ``+Inf``
    bucket catches the overflow.  Buckets are cumulative only at render
    time; internally each slot counts its own interval.
    """

    kind = "histogram"

    def __init__(self, bounds: tuple[float, ...] = LATENCY_BUCKETS) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"histogram bounds must be sorted: {bounds}")
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper edge of the bucket holding it."""
        return bucket_quantile(self.bounds, self.counts, self.count, q)

    def to_dict(self) -> dict:
        return {"buckets": {_fmt(b): c for b, c in
                            zip(self.bounds, self.counts)},
                "inf": self.counts[-1], "sum": self.sum, "count": self.count}


@dataclass(frozen=True)
class _LabelSchema:
    names: tuple[str, ...]

    def key_of(self, kv: dict[str, str]) -> tuple[str, ...]:
        if set(kv) != set(self.names):
            raise ValueError(
                f"labels {sorted(kv)} do not match schema {self.names}")
        return tuple(str(kv[name]) for name in self.names)


class Family:
    """One metric family: a label schema plus its children.

    ``max_cardinality`` caps the number of distinct label-value children.
    Unbounded label values (a bug pattern: labelling by inode or request
    id) would otherwise grow the registry without limit and silently
    bloat every exposition; past the cap, new label combinations collapse
    into a single ``_overflow`` child, a warning fires once, and
    :attr:`overflows` counts every collapsed lookup.
    """

    def __init__(self, name: str, help_text: str,
                 label_names: tuple[str, ...], factory,
                 spec: tuple | None = None,
                 max_cardinality: int = 1024,
                 registry: "MetricsRegistry | None" = None) -> None:
        self.name = name
        self.help_text = help_text
        self.schema = _LabelSchema(tuple(label_names))
        self._factory = factory
        #: registration identity beyond name/help/labels (histogram
        #: bounds); compared when the same family is re-registered
        self.spec = spec
        self.max_cardinality = max_cardinality
        self.overflows = 0
        self._warned_overflow = False
        self._children: dict[tuple[str, ...], object] = {}
        #: the owning registry, told of every new child
        self._registry = registry
        #: label values -> child, for hot callers: ``fam.child[value]``
        #: (``fam.child[(v1, v2)]`` with several labels) is
        #: ``fam.labels(...)`` resolved once per label set
        self.child = ChildCache(self)
        #: the one child of an unlabelled family, once it exists
        self._sole = None

    @property
    def kind(self) -> str:
        return self._factory().kind if not self._children else \
            next(iter(self._children.values())).kind

    def labels(self, **kv):
        key = self.schema.key_of(kv)
        child = self._children.get(key)
        if child is None:
            if len(self._children) >= self.max_cardinality:
                return self._overflow_child()
            child = self._add_child(key)
        return child

    def _add_child(self, key: tuple[str, ...]):
        child = self._children[key] = self._factory()
        if self._registry is not None:
            self._registry.generation += 1
        return child

    def _overflow_child(self):
        """The shared sink for label combinations past the cap."""
        self.overflows += 1
        if not self._warned_overflow:
            self._warned_overflow = True
            warnings.warn(
                f"metric family {self.name!r} exceeded its label "
                f"cardinality cap ({self.max_cardinality}); new label "
                f"combinations collapse into one '_overflow' series",
                RuntimeWarning, stacklevel=3)
        key = tuple("_overflow" for _ in self.schema.names)
        child = self._children.get(key)
        if child is None:
            child = self._add_child(key)
        return child

    # -- unlabeled convenience proxies ---------------------------------

    def _only(self):
        child = self._sole
        if child is None:
            if self.schema.names:
                raise ValueError(f"{self.name} has labels "
                                 f"{self.schema.names}; use .labels()")
            # an unlabelled family has one child and never overflows
            child = self._sole = self.labels()
        return child

    def inc(self, amount: float = 1.0) -> None:
        self._only().inc(amount)

    def set(self, value: float) -> None:
        self._only().set(value)

    def dec(self, amount: float = 1.0) -> None:
        self._only().dec(amount)

    def observe(self, value: float) -> None:
        self._only().observe(value)

    # -- iteration ------------------------------------------------------

    def children(self) -> list[tuple[dict[str, str], object]]:
        """(labels dict, child) pairs in deterministic (sorted) order."""
        return [(dict(zip(self.schema.names, key)), self._children[key])
                for key in sorted(self._children)]


class ChildCache(dict):
    """Label values -> child of one family, resolved once and kept
    (:attr:`Family.child`).

    A hot caller indexes ``cache[value]`` (``cache[(v1, v2)]`` for a
    family with several labels, values in schema order) instead of
    paying a :meth:`Family.labels` lookup per event.  A missing entry
    resolves through :meth:`Family.labels` on first use, so a child
    still comes into existence only when something is recorded into it
    and no export gains a series.  The shared ``_overflow`` sink is never
    kept: every lookup collapsed into it still counts in
    :attr:`Family.overflows`.
    """

    __slots__ = ("family",)

    def __init__(self, family: Family) -> None:
        super().__init__()
        self.family = family

    def __missing__(self, key):
        family = self.family
        names = family.schema.names
        values = (key,) if len(names) == 1 else key
        overflows = family.overflows
        child = family.labels(**dict(zip(names, values)))
        if family.overflows == overflows:
            self[key] = child
        return child


class MetricsRegistry:
    """Registry of metric families with deterministic export."""

    def __init__(self, namespace: str = "repro",
                 max_label_cardinality: int = 1024) -> None:
        if max_label_cardinality <= 0:
            raise ValueError(f"max_label_cardinality must be positive: "
                             f"{max_label_cardinality}")
        self.namespace = namespace
        self.max_label_cardinality = max_label_cardinality
        self._families: dict[str, Family] = {}
        #: bumped whenever a family or a child is created, so a reader
        #: that caches the registry's shape (the time-series recorder's
        #: row layout) knows when to rebuild it
        self.generation = 0

    def _register(self, name: str, help_text: str,
                  labels: tuple[str, ...], factory,
                  spec: tuple) -> Family:
        existing = self._families.get(name)
        if existing is not None:
            # re-registering the identical family is idempotent (two
            # subsystems sharing one registry may both declare it); any
            # mismatch in help/type/labels/buckets is a programming error
            # and must not silently shadow the first registration
            if (existing.help_text == help_text
                    and existing.schema.names == tuple(labels)
                    and existing.spec == spec):
                return existing
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{existing.spec[0]}{existing.schema.names} "
                f"{existing.help_text!r}; conflicting re-registration as "
                f"{spec[0]}{tuple(labels)} {help_text!r}")
        family = Family(name, help_text, labels, factory, spec=spec,
                        max_cardinality=self.max_label_cardinality,
                        registry=self)
        self._families[name] = family
        self.generation += 1
        return family

    def counter(self, name: str, help_text: str,
                labels: tuple[str, ...] = ()) -> Family:
        return self._register(name, help_text, labels, Counter,
                              spec=("counter",))

    def gauge(self, name: str, help_text: str,
              labels: tuple[str, ...] = ()) -> Family:
        return self._register(name, help_text, labels, Gauge,
                              spec=("gauge",))

    def histogram(self, name: str, help_text: str,
                  labels: tuple[str, ...] = (),
                  buckets: tuple[float, ...] = LATENCY_BUCKETS) -> Family:
        return self._register(name, help_text, labels,
                              lambda: Histogram(buckets),
                              spec=("histogram", tuple(buckets)))

    def get(self, name: str) -> Family:
        return self._families[name]

    def families(self) -> list[Family]:
        return [self._families[name] for name in sorted(self._families)]

    # -- export ----------------------------------------------------------

    def _full(self, name: str) -> str:
        return f"{self.namespace}_{name}" if self.namespace else name

    @staticmethod
    def _labels_text(labels: dict[str, str], extra: str = "") -> str:
        parts = [f'{k}="{v}"' for k, v in labels.items()]
        if extra:
            parts.append(extra)
        return "{" + ",".join(parts) + "}" if parts else ""

    def render_prometheus(self) -> str:
        """The Prometheus text exposition for every family."""
        lines: list[str] = []
        for family in self.families():
            children = family.children()
            if not children:
                continue
            full = self._full(family.name)
            kind = children[0][1].kind
            lines.append(f"# HELP {full} {family.help_text}")
            lines.append(f"# TYPE {full} {kind}")
            for labels, child in children:
                if isinstance(child, Histogram):
                    cum = 0
                    for bound, count in zip(child.bounds, child.counts):
                        cum += count
                        lt = self._labels_text(labels, f'le="{_fmt(bound)}"')
                        lines.append(f"{full}_bucket{lt} {cum}")
                    lt = self._labels_text(labels, 'le="+Inf"')
                    lines.append(f"{full}_bucket{lt} {child.count}")
                    lt = self._labels_text(labels)
                    lines.append(f"{full}_sum{lt} {_fmt(child.sum)}")
                    lines.append(f"{full}_count{lt} {child.count}")
                else:
                    lt = self._labels_text(labels)
                    lines.append(f"{full}{lt} {_fmt(child.value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self) -> dict:
        """JSON-ready dump of every family (deterministic ordering)."""
        out: dict = {}
        for family in self.families():
            children = family.children()
            if not children:
                continue
            out[self._full(family.name)] = {
                "help": family.help_text,
                "type": children[0][1].kind,
                "series": [{"labels": labels, "value": child.to_dict()}
                           for labels, child in children],
            }
        return out
