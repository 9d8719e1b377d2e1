"""Reference time-series recorder: one formatted dict row per sample.

This is the recorder :mod:`repro.obs.timeseries` used before rows became
flat tuples of raw numbers decoded on read.  Every sample re-walks the
registry, formats each series key and bucket edge, and computes the
histogram quantiles on the spot.  The tests drive it beside the
production recorder and require identical rows, pivots, JSON and
OpenMetrics text.
"""

from __future__ import annotations

from collections import deque

from repro.obs.metrics import Family, Histogram, MetricsRegistry, _fmt

__all__ = ["TimeSeriesRecorder"]


def series_key(family_name: str, labels: dict[str, str]) -> str:
    """Canonical flat key for one labelled series, e.g.
    ``device_queue_depth_now{device="ext2-disk"}``."""
    if not labels:
        return family_name
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return f"{family_name}{{{inner}}}"


def _sample_child(child, sample_buckets: bool = False) -> float | dict:
    if isinstance(child, Histogram):
        out = {"count": child.count, "sum": child.sum,
               "p50": child.quantile(0.50), "p99": child.quantile(0.99)}
        if sample_buckets:
            cum = 0
            buckets = []
            for bound, n in zip(child.bounds, child.counts):
                cum += n
                buckets.append((_fmt(bound), cum))
            buckets.append(("+Inf", cum + child.counts[-1]))
            out["buckets"] = tuple(buckets)
        return out
    return child.value


def _parse_labels(labels: str) -> dict[str, str]:
    """Invert :func:`series_key`'s label serialization (values are
    device/class/tenant identifiers — never quoted or escaped)."""
    if not labels:
        return {}
    out = {}
    for part in labels.strip("{}").split(","):
        name, _, value = part.partition("=")
        out[name] = value.strip('"')
    return out


class TimeSeriesRecorder:
    """Rolling samples of a :class:`~repro.obs.metrics.MetricsRegistry`.

    ``interval`` is the virtual-second cadence; ``capacity`` bounds the
    ring buffer of sample rows; ``families`` optionally restricts
    sampling to the named metric families (default: every family that
    has recorded at least one series).  ``snapshot_hook`` (typically
    ``Telemetry.snapshot``) is invoked before each sample so point-in-
    time gauges — virtual time by category, resident pages, kernel
    counters — are fresh when read.
    """

    def __init__(self, registry: MetricsRegistry, interval: float = 0.005,
                 capacity: int = 4096,
                 families: tuple[str, ...] | None = None,
                 snapshot_hook=None, sample_buckets: bool = False,
                 exemplars=None) -> None:
        if interval <= 0.0:
            raise ValueError(f"interval must be positive: {interval}")
        if capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.registry = registry
        self.interval = float(interval)
        self.capacity = capacity
        self.families = tuple(families) if families is not None else None
        self.snapshot_hook = snapshot_hook
        #: opt-in: sample cumulative bucket counts per histogram so the
        #: OpenMetrics export can emit real ``_bucket{le=...}`` series
        #: (and exemplar annotations); off by default — bucket rows are
        #: ~35x wider than the quantile summary
        self.sample_buckets = sample_buckets
        #: an :class:`~repro.obs.forensics.ExemplarReservoir` (anything
        #: with ``bucket_exemplar(cls, le)``); when set and buckets are
        #: sampled, histogram bucket lines carry OpenMetrics exemplars
        self.exemplars = exemplars
        #: histogram families whose buckets observe full request latency
        #: — the only ones the reservoir's exemplars are valid for (a
        #: per-component bucket would get an exemplar whose value lies
        #: outside the bucket, which the OpenMetrics spec forbids)
        self.exemplar_families: tuple[str, ...] = (
            "lifecycle_request_seconds",)
        #: rows of (virtual time, {series key: sampled value})
        self.samples: deque[tuple[float, dict]] = deque(maxlen=capacity)
        self.dropped = 0
        self._next_due = 0.0
        self._started = False

    # -- sampling ---------------------------------------------------------

    def tick(self, now: float) -> bool:
        """Called from telemetry hooks; samples when a cadence boundary
        has been crossed.  Returns True when a sample was taken."""
        if not self._started:
            # first tick anchors the cadence at the current virtual time
            self._started = True
            self._next_due = now
        if now < self._next_due:
            return False
        self.sample(now)
        # one sample per crossing: re-arm past ``now``, keeping the grid
        # aligned to the original anchor
        periods = int((now - self._next_due) / self.interval) + 1
        self._next_due += periods * self.interval
        return True

    def sample(self, now: float) -> dict:
        """Take one sample row unconditionally (also used at run end so
        the final state is always on the series)."""
        if self.snapshot_hook is not None:
            self.snapshot_hook()
        row: dict[str, float | dict] = {}
        for family in self._selected_families():
            for labels, child in family.children():
                row[series_key(family.name, labels)] = _sample_child(
                    child, self.sample_buckets)
        if len(self.samples) == self.capacity:
            self.dropped += 1
        self.samples.append((now, row))
        return row

    def _selected_families(self) -> list[Family]:
        families = self.registry.families()
        if self.families is None:
            return families
        chosen = set(self.families)
        return [f for f in families if f.name in chosen]

    # -- queries ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.samples)

    def series(self) -> dict[str, dict[str, list]]:
        """Pivot rows into per-series ``{"t": [...], "values": [...]}``.

        A series absent from a row (it had not been created yet) is
        simply missing that timestamp — time axes are per series.
        """
        out: dict[str, dict[str, list]] = {}
        for t, row in self.samples:
            for key, value in row.items():
                entry = out.setdefault(key, {"t": [], "values": []})
                entry["t"].append(t)
                entry["values"].append(value)
        return out

    def family_names_sampled(self) -> list[str]:
        """Distinct family names with at least one sampled series."""
        names = set()
        for _, row in self.samples:
            for key in row:
                names.add(key.split("{", 1)[0])
        return sorted(names)

    def to_dict(self) -> dict:
        return {
            "interval_s": self.interval,
            "samples": len(self.samples),
            "dropped": self.dropped,
            "families": self.family_names_sampled(),
            "rows": [{"t": t, "values": row} for t, row in self.samples],
            "series": self.series(),
        }

    # -- OpenMetrics export ----------------------------------------------

    def _bucket_exemplar_suffix(self, name: str, cls: str | None,
                                le: str) -> str:
        """The `` # {labelset} value ts`` exemplar annotation for one
        histogram bucket line, or empty.  Exemplars are only legal on
        bucket (and counter) samples per the OpenMetrics spec — gauge
        and summary lines never get one — and only request-latency
        families get them here (see :attr:`exemplar_families`)."""
        if (self.exemplars is None or cls is None
                or name not in self.exemplar_families):
            return ""
        rec = self.exemplars.bucket_exemplar(cls, float(le))
        if rec is None:
            return ""
        return (f' # {{trace_id="{rec.id}"}} {_fmt(rec.latency)} '
                f"{_fmt(rec.finish_time)}")

    def render_openmetrics(self) -> str:
        """OpenMetrics text: one timestamped line per series per sample.

        By default histogram samples flatten into ``_count``/``_sum``/
        ``_p50``/``_p99`` gauges so the series stay scalar.  With
        ``sample_buckets`` the histogram families render as real
        OpenMetrics histograms — cumulative ``_bucket{le=...}`` lines
        (carrying exemplar annotations when an exemplar reservoir is
        attached) plus ``_count``/``_sum`` — and only the quantile
        summaries stay flattened gauges.  Families are contiguous and
        sorted by name; a single ``# EOF`` terminates the exposition.
        Timestamps are the virtual-second sample times.
        """
        ns = self.registry.namespace
        prefix = f"{ns}_" if ns else ""
        per_series: dict[str, list[str]] = {}
        kinds: dict[str, str] = {}
        histogram_families: set[str] = set()
        for t, row in self.samples:
            ts = _fmt(t)
            for key, value in row.items():
                name, _, labels = key.partition("{")
                labels = "{" + labels if labels else ""
                if isinstance(value, dict):
                    buckets = value.get("buckets")
                    if buckets is not None:
                        histogram_families.add(name)
                        kinds[name] = "histogram"
                        fam = per_series.setdefault(name, [])
                        cls = _parse_labels(labels).get("cls")
                        inner = labels[1:-1] if labels else ""
                        for le, cum in buckets:
                            with_le = ("{" + (inner + "," if inner else "")
                                       + f'le="{le}"' + "}")
                            fam.append(
                                f"{prefix}{name}_bucket{with_le} {cum} "
                                f"{ts}"
                                + self._bucket_exemplar_suffix(
                                    name, cls, le))
                        fam.append(f"{prefix}{name}_count{labels} "
                                   f"{_fmt(value['count'])} {ts}")
                        fam.append(f"{prefix}{name}_sum{labels} "
                                   f"{_fmt(value['sum'])} {ts}")
                        suffixes = ("p50", "p99")
                    else:
                        suffixes = tuple(value)
                    for suffix in suffixes:
                        flat = f"{name}_{suffix}"
                        kinds.setdefault(flat, "gauge")
                        per_series.setdefault(flat, []).append(
                            f"{prefix}{flat}{labels} "
                            f"{_fmt(value[suffix])} {ts}")
                else:
                    kinds.setdefault(name, "unknown")
                    per_series.setdefault(name, []).append(
                        f"{prefix}{name}{labels} {_fmt(value)} {ts}")
        # resolve scalar kinds from the live registry where possible
        for family in self.registry.families():
            if family.name in kinds and family.name not in \
                    histogram_families:
                kinds[family.name] = family.kind
        lines: list[str] = []
        for name in sorted(per_series):
            kind = kinds.get(name, "gauge")
            if kind == "histogram" and name not in histogram_families:
                kind = "gauge"  # flattened above; defensive only
            lines.append(f"# TYPE {prefix}{name} {kind}")
            lines.extend(per_series[name])
        lines.append("# EOF")
        return "\n".join(lines) + "\n"

    def clear(self) -> None:
        self.samples.clear()
        self.dropped = 0
        self._started = False
        self._next_due = 0.0
