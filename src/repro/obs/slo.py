"""Per-request-class SLO tracking: rolling quantiles and error budgets.

The paper's thesis is that latency must be *managed*, not just measured
after the fact.  Managing means having a target: this module lets a run
declare latency objectives per request class — and, forward-compatibly,
per tenant/task group — and grades every traced request against them as
it closes.

* :class:`SloTarget` declares one objective: "requests of class ``cls``
  (optionally from tenant ``tenant``) finish within
  ``latency_objective`` seconds, ``compliance_target`` of the time".
* :class:`SloTracker` subscribes to the
  :class:`~repro.obs.lifecycle.LifecycleTracker` record stream and
  maintains, per target: rolling p50/p99 over a bounded request window,
  cumulative and windowed compliance ratios, and the **error-budget burn
  rate** — the windowed violation rate over the allowed violation rate
  (burn rate 1.0 spends the budget exactly as fast as the objective
  allows; above 1.0 the budget is burning down; a sustained burn rate of
  ``r`` exhausts the budget in ``1/r`` of the objective period).

Matching: a record matches a target when the target's ``cls`` equals the
record's device class (or is ``"*"``), and — if the target names a
``tenant`` — the record's task matches it exactly or by ``prefix*``
glob.  A record may match several targets (a per-class and a per-tenant
objective both see it).

Everything here is observational: grading reads values the timing model
already produced; no clock advances, no RNG draws — runs are
bit-identical with a tracker attached or not.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.obs.lifecycle import LifecycleRecord
from repro.sim.units import human_time

__all__ = ["SloTarget", "SloTracker", "window_quantile"]


def window_quantile(values: list[float], q: float) -> float:
    """Exact quantile (nearest-rank) over a small sample window."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1]: {q}")
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


@dataclass(frozen=True)
class SloTarget:
    """One latency objective.

    ``cls`` is a device class (``"disk"``, ``"nfs"``, ...) or ``"*"``;
    ``tenant`` is None (class-wide), an exact name, or a ``prefix*``
    glob.  A record carrying a real tenant label (its issuing task was
    tenanted) matches on that label; untenanted records fall back to
    the task name, preserving the pre-multi-tenant task-glob behaviour.
    ``compliance_target`` is the fraction of requests that must meet
    ``latency_objective``; its complement is the error budget.
    """

    name: str
    cls: str
    latency_objective: float
    compliance_target: float = 0.99
    tenant: str | None = None

    def __post_init__(self) -> None:
        if self.latency_objective <= 0.0:
            raise ValueError(
                f"latency objective must be positive: "
                f"{self.latency_objective}")
        if not 0.0 < self.compliance_target < 1.0:
            raise ValueError(
                f"compliance target must be in (0, 1): "
                f"{self.compliance_target}")

    def matches(self, record: LifecycleRecord) -> bool:
        if self.cls != "*" and record.device_class != self.cls:
            return False
        if self.tenant is None:
            return True
        subject = record.tenant if record.tenant is not None \
            else (record.task or "")
        if self.tenant.endswith("*"):
            return subject.startswith(self.tenant[:-1])
        return subject == self.tenant

    @property
    def error_budget(self) -> float:
        """Allowed violation fraction (the budget being burned)."""
        return 1.0 - self.compliance_target


class _TargetState:
    """Accumulated grading for one target."""

    __slots__ = ("target", "window", "violations_window", "total",
                 "violations", "latency_sum", "queue_wait_sum", "worst")

    def __init__(self, target: SloTarget, window: int) -> None:
        self.target = target
        #: (latency, violated) pairs of the most recent requests
        self.window: deque[tuple[float, bool]] = deque(maxlen=window)
        self.violations_window = 0
        self.total = 0
        self.violations = 0
        self.latency_sum = 0.0
        #: cumulative queue-wait seconds of graded requests — the pool
        #: the forensic interference matrix reconciles its rows against
        self.queue_wait_sum = 0.0
        self.worst = 0.0

    def observe(self, latency: float, queue_wait: float = 0.0) -> bool:
        violated = latency > self.target.latency_objective
        if (len(self.window) == self.window.maxlen
                and self.window[0][1]):
            self.violations_window -= 1
        self.window.append((latency, violated))
        if violated:
            self.violations_window += 1
            self.violations += 1
        self.total += 1
        self.latency_sum += latency
        self.queue_wait_sum += queue_wait
        if latency > self.worst:
            self.worst = latency
        return violated

    # -- derived ----------------------------------------------------------

    @property
    def compliance(self) -> float:
        """Cumulative fraction of requests meeting the objective."""
        if self.total == 0:
            return 1.0
        return 1.0 - self.violations / self.total

    @property
    def window_compliance(self) -> float:
        if not self.window:
            return 1.0
        return 1.0 - self.violations_window / len(self.window)

    @property
    def burn_rate(self) -> float:
        """Windowed violation rate over the allowed violation rate."""
        if not self.window:
            return 0.0
        rate = self.violations_window / len(self.window)
        return rate / self.target.error_budget

    def quantile(self, q: float) -> float:
        return window_quantile([lat for lat, _ in self.window], q)

    def to_dict(self) -> dict:
        t = self.target
        return {
            "name": t.name,
            "cls": t.cls,
            "tenant": t.tenant,
            "latency_objective_s": t.latency_objective,
            "compliance_target": t.compliance_target,
            "requests": self.total,
            "violations": self.violations,
            "compliance": self.compliance,
            "window_requests": len(self.window),
            "window_violations": self.violations_window,
            "window_compliance": self.window_compliance,
            "burn_rate": self.burn_rate,
            "p50_s": self.quantile(0.50),
            "p99_s": self.quantile(0.99),
            "mean_latency_s": (self.latency_sum / self.total
                               if self.total else 0.0),
            "queue_wait_sum_s": self.queue_wait_sum,
            "worst_latency_s": self.worst,
        }


class _TenantState:
    """Accumulated grading for one tenant, rolled up across every target
    that graded its records.

    A record counts as violated when it missed *any* matched target;
    the burn rate divides the windowed violation rate by the strictest
    (smallest) error budget among the targets that graded this tenant,
    so a burn above 1.0 means at least one objective is overspending.
    """

    __slots__ = ("tenant", "window", "violations_window", "total",
                 "violations", "latency_sum", "queue_wait_sum", "worst",
                 "min_budget")

    def __init__(self, tenant: str, window: int) -> None:
        self.tenant = tenant
        self.window: deque[tuple[float, bool]] = deque(maxlen=window)
        self.violations_window = 0
        self.total = 0
        self.violations = 0
        self.latency_sum = 0.0
        #: cumulative queue-wait seconds of this tenant's graded
        #: requests; the interference matrix's per-victim row total
        #: must reconcile with this pool
        self.queue_wait_sum = 0.0
        self.worst = 0.0
        self.min_budget = 1.0

    def observe(self, latency: float, violated: bool,
                budget: float, queue_wait: float = 0.0) -> None:
        if (len(self.window) == self.window.maxlen
                and self.window[0][1]):
            self.violations_window -= 1
        self.window.append((latency, violated))
        if violated:
            self.violations_window += 1
            self.violations += 1
        self.total += 1
        self.latency_sum += latency
        self.queue_wait_sum += queue_wait
        if latency > self.worst:
            self.worst = latency
        if budget < self.min_budget:
            self.min_budget = budget

    @property
    def compliance(self) -> float:
        if self.total == 0:
            return 1.0
        return 1.0 - self.violations / self.total

    @property
    def window_compliance(self) -> float:
        if not self.window:
            return 1.0
        return 1.0 - self.violations_window / len(self.window)

    @property
    def burn_rate(self) -> float:
        if not self.window:
            return 0.0
        rate = self.violations_window / len(self.window)
        return rate / self.min_budget

    def quantile(self, q: float) -> float:
        return window_quantile([lat for lat, _ in self.window], q)

    def to_dict(self) -> dict:
        return {
            "tenant": self.tenant,
            "requests": self.total,
            "violations": self.violations,
            "compliance": self.compliance,
            "window_requests": len(self.window),
            "window_violations": self.violations_window,
            "window_compliance": self.window_compliance,
            "burn_rate": self.burn_rate,
            "min_error_budget": self.min_budget,
            "p50_s": self.quantile(0.50),
            "p99_s": self.quantile(0.99),
            "mean_latency_s": (self.latency_sum / self.total
                               if self.total else 0.0),
            "queue_wait_sum_s": self.queue_wait_sum,
            "worst_latency_s": self.worst,
        }


class SloTracker:
    """Grades lifecycle records against declared SLO targets.

    Attach to a :class:`~repro.obs.telemetry.Telemetry` (it subscribes to
    the lifecycle record stream) or feed records directly via
    :meth:`observe`.  ``window`` bounds the rolling-quantile/burn-rate
    sample per target.  When a ``registry`` is supplied, per-target
    graded/violated counters and a burn-rate gauge are exported alongside
    the rest of the metrics (and therefore sampled by any attached
    :class:`~repro.obs.timeseries.TimeSeriesRecorder`).
    """

    def __init__(self, targets: list[SloTarget] | tuple[SloTarget, ...],
                 window: int = 512, registry=None,
                 track_tenants: bool = False) -> None:
        if not targets:
            raise ValueError("need at least one SLO target")
        names = [t.name for t in targets]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO target names: {names}")
        if window <= 0:
            raise ValueError(f"window must be positive: {window}")
        self.states = {t.name: _TargetState(t, window)
                       for t in targets}
        self.unmatched = 0
        #: callables invoked as ``hook(record, violated_target_names)``
        #: whenever a graded record misses at least one objective; the
        #: forensic exemplar reservoir subscribes here to pin violation
        #: exemplars.  Hooks are observational — they must not touch the
        #: clock or RNG, and must :meth:`~repro.obs.lifecycle.
        #: LifecycleRecord.snapshot` the record if they keep it.
        self.on_violation: list = []
        self.track_tenants = track_tenants
        self._window = window
        #: tenant -> _TenantState rollup (populated only when
        #: ``track_tenants`` and tenanted records flow)
        self._tenants: dict[str, _TenantState] = {}
        self._telemetry = None
        self._graded = self._violated = self._burn = None
        self._tenant_graded = self._tenant_violated = None
        if registry is not None:
            self._graded = registry.counter(
                "slo_requests_total", "Requests graded per SLO target",
                labels=("slo",))
            self._violated = registry.counter(
                "slo_violations_total",
                "Requests that missed their SLO latency objective",
                labels=("slo",))
            self._burn = registry.gauge(
                "slo_burn_rate",
                "Windowed error-budget burn rate per SLO target "
                "(1.0 = spending the budget exactly at the allowed rate)",
                labels=("slo",))
            self._tenant_graded = registry.counter(
                "slo_tenant_requests_total",
                "Requests graded per tenant (any target)",
                labels=("tenant",))
            self._tenant_violated = registry.counter(
                "slo_tenant_violations_total",
                "Requests per tenant that missed at least one matched "
                "SLO latency objective", labels=("tenant",))

    @classmethod
    def for_classes(cls, objectives: dict[str, float],
                    compliance_target: float = 0.99,
                    window: int = 512, registry=None,
                    track_tenants: bool = False) -> "SloTracker":
        """Convenience: one per-class target per ``{cls: objective}``."""
        targets = [SloTarget(name=f"{c}-latency", cls=c,
                             latency_objective=objective,
                             compliance_target=compliance_target)
                   for c, objective in sorted(objectives.items())]
        return cls(targets, window=window, registry=registry,
                   track_tenants=track_tenants)

    # -- lifecycle-stream subscription ------------------------------------

    def attach(self, telemetry) -> "SloTracker":
        """Subscribe to ``telemetry``'s lifecycle record stream."""
        if self._telemetry is not None:
            raise ValueError("SLO tracker is already attached")
        telemetry.lifecycle.observers.append(self.observe)
        self._telemetry = telemetry
        return self

    def detach(self) -> None:
        if self._telemetry is None:
            return
        try:
            self._telemetry.lifecycle.observers.remove(self.observe)
        except ValueError:
            pass
        self._telemetry = None

    # -- grading ----------------------------------------------------------

    def observe(self, record: LifecycleRecord) -> None:
        latency = record.latency
        queue_wait = record.queue_wait
        matched = False
        violated_names: list[str] = []
        min_budget = 1.0
        for state in self.states.values():
            if not state.target.matches(record):
                continue
            matched = True
            violated = state.observe(latency, queue_wait)
            budget = state.target.error_budget
            if budget < min_budget:
                min_budget = budget
            name = state.target.name
            if violated:
                violated_names.append(name)
            if self._graded is not None:
                self._graded.child[name].inc()
                if violated:
                    self._violated.child[name].inc()
                self._burn.child[name].set(state.burn_rate)
        if not matched:
            self.unmatched += 1
        elif self.track_tenants and record.tenant is not None:
            tenant = record.tenant
            state = self._tenants.get(tenant)
            if state is None:
                state = self._tenants[tenant] = _TenantState(
                    tenant, self._window)
            state.observe(latency, bool(violated_names), min_budget,
                          queue_wait)
            if self._tenant_graded is not None:
                self._tenant_graded.child[tenant].inc()
                if violated_names:
                    self._tenant_violated.child[tenant].inc()
        if violated_names:
            for hook in self.on_violation:
                hook(record, violated_names)

    # -- reporting ---------------------------------------------------------

    def report_rows(self) -> list[dict]:
        return [self.states[name].to_dict()
                for name in sorted(self.states)]

    def tenant_rows(self) -> list[dict]:
        """Per-tenant rollup rows (empty unless ``track_tenants``)."""
        return [self._tenants[tenant].to_dict()
                for tenant in sorted(self._tenants)]

    def tenant_queue_waits(self) -> dict[str, float]:
        """Cumulative queue-wait seconds per tenant across graded
        requests — the reconciliation anchor for the forensic
        interference matrix's per-victim row totals."""
        return {tenant: state.queue_wait_sum
                for tenant, state in sorted(self._tenants.items())}

    def render_tenants(self) -> str:
        lines = ["Per-tenant SLO rollup (rolling window):"]
        rows = self.tenant_rows()
        if not rows:
            lines.append("  (no tenanted requests were graded)")
        for row in rows:
            lines.append(
                f"  {row['tenant']:>16}: "
                f"n={row['requests']:<6d} "
                f"p50={human_time(row['p50_s']):>9} "
                f"p99={human_time(row['p99_s']):>9} "
                f"compliance={row['compliance']:7.2%} "
                f"burn={row['burn_rate']:5.2f}x")
        return "\n".join(lines)

    def render(self) -> str:
        lines = ["SLO compliance (rolling window):"]
        rows = self.report_rows()
        if not any(row["requests"] for row in rows):
            lines.append("  (no requests matched any target)")
        for row in rows:
            if row["requests"] == 0:
                lines.append(f"  {row['name']:>16}: no traffic")
                continue
            scope = row["cls"] + (f"/{row['tenant']}" if row["tenant"]
                                  else "")
            lines.append(
                f"  {row['name']:>16} [{scope}] "
                f"obj<{human_time(row['latency_objective_s'])} "
                f"n={row['requests']:<6d} "
                f"p50={human_time(row['p50_s']):>9} "
                f"p99={human_time(row['p99_s']):>9} "
                f"compliance={row['compliance']:7.2%} "
                f"(target {row['compliance_target']:.1%}) "
                f"burn={row['burn_rate']:5.2f}x")
        if self.unmatched:
            lines.append(f"  requests matching no target: {self.unmatched}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        out = {
            "targets": self.report_rows(),
            "unmatched": self.unmatched,
        }
        if self.track_tenants:
            out["tenants"] = self.tenant_rows()
        return out
