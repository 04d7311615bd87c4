"""Per-layer timing for the traced benchmark run.

Hooks wrap public calls into each layer from outside the program.  A
module-level hook replaces a name *in the module that calls it* (for
example ``make_executor`` as ``repro.core.scheduler`` sees it), so only
calls made by the serving path are timed; an instance hook replaces a
method on one server's own scheduler, ledger or predictor.  A name that
has moved or gone marks its metrics ``absent`` instead of failing the
run.  Nothing here is installed in an untraced run.

A metric reads 0 on a workload that never makes its call: nothing parks
on ``mix14``, and on ``sharded-fresh`` everything below the router runs
in the shard processes, where these hooks do not reach.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict

perf = time.perf_counter

#: Executor classes by the tier they implement (an unknown class is
#: reported under its own name).
TIERS = {"JitExecutor": "jit", "VectorizedExecutor": "vector",
         "KernelExecutor": "scalar"}

#: (span, module, attribute path): module-level hooks.  Spans in ``INNER``
#: run inside a worker's note_start..complete interval and are subtracted
#: from ``serve.worker_other``.
MODULE_HOOKS = (
    ("core.predict", "repro.serve.server", "DopPredictor.select"),
    ("core.run_dynamic", "repro.serve.server", "run_dynamic"),
    ("analysis.profile", "repro.serve.server", "profile_kernel"),
    ("sim.simulate", "repro.serve.server", "simulate_execution"),
    ("analysis.rw_summary", "repro.serve.server", "launch_rw_summary"),
    ("transform.malleable", "repro.serve.server", "make_malleable"),
    ("interp.build", "repro.core.scheduler", "make_executor"),
    ("interp.jit_compile", "repro.interp.codegen", "compile_kernel"),
)
INNER = frozenset({"core.run_dynamic", "analysis.profile", "sim.simulate",
                   "core.predict"})

#: Per-layer metric -> (unit, better, spans it needs).  Spans are
#: checked for absence; an empty tuple means the harness measures it.
METRICS = {
    "serve.submit_us": ("us", "lower", ()),
    "serve.graph_admit_us": ("us", "lower", ("serve.graph_admit",)),
    "serve.park_us": ("us", "lower", ("serve.graph_complete",)),
    "serve.queue_wait_us": ("us", "lower", ("serve.note_start",)),
    "serve.worker_other_us": ("us", "lower",
                              ("serve.note_start", "serve.graph_complete")),
    "serve.resolve_us": ("us", "lower", ("serve.graph_complete",)),
    "serve.ledger_us": ("us", "lower", ("serve.ledger",)),
    "serve.pred_cache_hit_frac": ("frac", "higher", ()),
    "serve.sim_cache_hit_frac": ("frac", "higher", ()),
    "serve.park_frac": ("frac", "lower", ()),
    "serve.latency_mean_us": ("us", "lower", ()),
    "core.predict_us": ("us", "lower", ("core.predict",)),
    "core.predict_per_klaunch": ("count", "lower", ("core.predict",)),
    "core.run_dynamic_us": ("us", "lower", ("core.run_dynamic",)),
    "core.gpu_group_frac": ("frac", "higher", ("core.run_dynamic",)),
    "interp.build_us": ("us", "lower", ("interp.build",)),
    "interp.jit_compile_us": ("us", "lower", ("interp.jit_compile",)),
    "interp.jit_compiles_per_klaunch": ("count", "lower",
                                        ("interp.jit_compile",)),
    "interp.cpu_run_us": ("us", "lower", ("interp.build",)),
    "interp.gpu_run_us": ("us", "lower", ("interp.build", "interp.gpu_side")),
    "interp.cpu_tier_jit_frac": ("frac", "higher", ("interp.build",)),
    "interp.cpu_tier_scalar_frac": ("frac", "lower", ("interp.build",)),
    "interp.gpu_tier_scalar_frac": ("frac", "lower",
                                    ("interp.build", "interp.gpu_side")),
    "analysis.profile_us": ("us", "lower", ("analysis.profile",)),
    "analysis.rw_summary_us": ("us", "lower", ("analysis.rw_summary",)),
    "sim.simulate_us": ("us", "lower", ("sim.simulate",)),
    "sim.calls_per_klaunch": ("count", "lower", ("sim.simulate",)),
    "transform.malleable_us": ("us", "lower", ("transform.malleable",)),
    "ml.fit_s": ("s", "lower", ()),
    "shard.submit_us": ("us", "lower", ()),
    "shard.escalated_frac": ("frac", "lower", ()),
    "shard.shm_segments_per_klaunch": ("count", "lower", ()),
    "trace.overhead_ratio": ("ratio", "higher", ()),
}


class _TimedExecutor:
    """Times an executor's ``run``/``run_group``; forwards everything else."""

    def __init__(self, inner, side: str):
        self._inner = inner
        self.side = side
        self.seconds = 0.0
        self.calls = 0

    def run(self, *args, **kwargs):
        started = perf()
        try:
            return self._inner.run(*args, **kwargs)
        finally:
            self.seconds += perf() - started
            self.calls += 1

    def run_group(self, *args, **kwargs):
        started = perf()
        try:
            return self._inner.run_group(*args, **kwargs)
        finally:
            self.seconds += perf() - started
            self.calls += 1

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Recorder:
    """Span totals and the per-node timestamps of one traced run."""

    def __init__(self):
        self._lock = threading.Lock()
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        #: span -> reason, for hooks whose target could not be resolved
        self.absent: dict[str, str] = {}
        self.executors: list[_TimedExecutor] = []
        self._local = threading.local()
        self._released: dict[int, float] = {}
        self._completed: dict[int, float] = {}
        self._undo: list = []
        self._gpu_param = None

    # -- accounting -----------------------------------------------------------

    def add(self, span: str, seconds: float, calls: int = 1) -> None:
        with self._lock:
            self.calls[span] += calls
            self.seconds[span] += seconds

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def mean_us(self, span: str, also: "Recorder | None" = None) -> float:
        """Mean time per call, over this recorder and ``also``."""
        recorders = [self] + ([also] if also is not None else [])
        calls = sum(rec.calls.get(span, 0) for rec in recorders)
        seconds = sum(rec.seconds.get(span, 0.0) for rec in recorders)
        return seconds / calls * 1e6 if calls else 0.0

    def resolved(self, node, at: float) -> None:
        """The client saw ``node``'s handle settle at ``at``."""
        done = self._completed.pop(getattr(node, "id", None), None)
        if done is not None:
            self.add("serve.resolve", at - done)

    # -- hooks -----------------------------------------------------------------

    def _observe(self, span: str, bookkeeping, *args) -> None:
        """Run a hook's bookkeeping; a changed interface marks it absent.

        A hook must never break the call it wraps, so an attribute or
        argument the bookkeeping expects but no longer finds is recorded
        as the span's absence reason instead of raised into the server.
        """
        try:
            bookkeeping(*args)
        except (AttributeError, KeyError, TypeError, IndexError) as error:
            self.absent.setdefault(span, f"hook bookkeeping: {error!r}")

    def _wrap(self, span: str, fn, after=None):
        rec = self

        def hooked(*args, **kwargs):
            started = perf()
            result = fn(*args, **kwargs)
            elapsed = perf() - started
            rec.add(span, elapsed)
            if span in INNER:
                local = rec._local
                local.inner = getattr(local, "inner", 0.0) + elapsed
            if after is not None:
                box = [result]
                rec._observe(span, after, args, box)
                result = box[0]
            return result

        return hooked

    def _set(self, target, attr: str, span: str, value_for) -> None:
        """Replace ``target.attr`` with ``value_for(original)``."""
        original = getattr(target, attr, None)
        if original is None:
            owner = getattr(target, "__name__", type(target).__name__)
            self.absent[span] = f"{owner}.{attr} not found"
            return
        had = attr in getattr(target, "__dict__", {})
        setattr(target, attr, value_for(original))
        self._undo.append((target, attr, original, had))

    def install_modules(self) -> None:
        """Hook every module-level call site in :data:`MODULE_HOOKS`."""
        after = {"core.run_dynamic": self._after_run_dynamic,
                 "interp.build": self._after_build}
        for span, module_name, attr in MODULE_HOOKS:
            try:
                module = importlib.import_module(module_name)
            except ImportError as error:
                self.absent[span] = f"{module_name}: {error}"
                continue
            *owners, name = attr.split(".")
            target = module
            for owner in owners:
                target = getattr(target, owner, None)
            if target is None:
                self.absent[span] = f"{module_name}.{attr} not found"
                continue
            self._set(target, name, span,
                      lambda fn, s=span: self._wrap(s, fn, after.get(s)))
        try:
            from repro.transform.gpu_malleable import MOD_PARAM
        except ImportError as error:
            self.absent["interp.gpu_side"] = f"gpu_malleable.MOD_PARAM: {error}"
            MOD_PARAM = None
        self._gpu_param = MOD_PARAM

    def install_server(self, server) -> None:
        """Hook one in-process server's scheduler and ledger."""
        graph, ledger = server.graph, server.ledger
        self._set(graph, "admit", "serve.graph_admit",
                  lambda fn: self._wrap("serve.graph_admit", fn))
        self._set(graph, "note_start", "serve.note_start", self._note_start)
        self._set(graph, "complete", "serve.graph_complete", self._complete)
        for attr in ("snapshot", "acquire", "release"):
            self._set(ledger, attr, "serve.ledger",
                      lambda fn: self._wrap("serve.ledger", fn))

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original, had = self._undo.pop()
            if had:
                setattr(target, attr, original)
            else:
                delattr(target, attr)

    def _note_start(self, fn):
        rec = self

        def started(node, now):
            since = rec._released.pop(node.id, node.submitted_at)
            rec.add("serve.note_start", now - since)

        def note_start(node):
            now = perf()
            rec._observe("serve.note_start", started, node, now)
            rec._local.started = now
            rec._local.inner = 0.0
            return fn(node)

        return note_start

    def _complete(self, fn):
        rec = self

        def released(node, ready, now):
            for child in ready:
                rec.add("serve.park", now - child.submitted_at)
                rec._released[child.id] = now
            rec._completed[node.id] = now

        def complete(node):
            entered = perf()
            local = rec._local
            started = getattr(local, "started", None)
            if started is not None:
                rec.add("serve.worker_other",
                        entered - started - getattr(local, "inner", 0.0))
                local.started = None
            ready = fn(node)
            now = perf()
            rec.add("serve.graph_complete", now - entered)
            rec._observe("serve.graph_complete", released, node, ready, now)
            return ready

        return complete

    def _after_run_dynamic(self, args, box) -> None:
        trace = box[0]
        self.count("gpu_groups", len(trace.gpu_groups))
        self.count("groups", trace.total)

    def _after_build(self, args, box) -> None:
        executor = box[0]
        gpu = self._gpu_param is not None and self._gpu_param in args[1]
        side = "gpu" if gpu else "cpu"
        tier = TIERS.get(type(executor).__name__, type(executor).__name__)
        self.count(f"{side}_executors")
        self.count(f"{side}_tier_{tier}")
        timed = _TimedExecutor(executor, side)
        with self._lock:
            self.executors.append(timed)
        box[0] = timed

    # -- report ----------------------------------------------------------------

    def run_us(self, side: str) -> float:
        """Mean run/run_group time per executor of one side that ran."""
        used = [e.seconds for e in self.executors
                if e.side == side and e.calls]
        return sum(used) / len(used) * 1e6 if used else 0.0

    def frac(self, numerator: str, denominator: str) -> float:
        total = self.counts.get(denominator, 0.0)
        return self.counts.get(numerator, 0.0) / total if total else 0.0

    def per_klaunch(self, span: str, launches: int) -> float:
        return self.calls.get(span, 0) * 1000.0 / launches if launches else 0.0


def layer_metrics(timed: Recorder, setup: Recorder, launches: int,
                  measured: dict) -> tuple[dict, dict]:
    """``(values, absent)``: every metric of :data:`METRICS`.

    ``timed`` holds the traced pass and ``setup`` the traced set-up.  The
    one-off analysis and transform costs come from set-up alone; the
    per-call cost of prediction, JIT compiles, profiling and simulation
    from both, since a warm timed pass may only hit caches; every rate
    per 1000 launches from the timed pass alone.  ``measured`` carries
    the values the harness measures itself.
    """
    values = {
        "serve.submit_us": timed.mean_us("serve.submit"),
        "serve.graph_admit_us": timed.mean_us("serve.graph_admit"),
        "serve.park_us": timed.mean_us("serve.park"),
        "serve.queue_wait_us": timed.mean_us("serve.note_start"),
        "serve.worker_other_us": timed.mean_us("serve.worker_other"),
        "serve.resolve_us": timed.mean_us("serve.resolve"),
        "serve.ledger_us": timed.mean_us("serve.ledger"),
        "core.predict_us": timed.mean_us("core.predict", setup),
        "core.predict_per_klaunch": timed.per_klaunch("core.predict", launches),
        "core.run_dynamic_us": timed.mean_us("core.run_dynamic"),
        "core.gpu_group_frac": timed.frac("gpu_groups", "groups"),
        "interp.build_us": timed.mean_us("interp.build"),
        "interp.jit_compile_us": timed.mean_us("interp.jit_compile", setup),
        "interp.jit_compiles_per_klaunch": timed.per_klaunch(
            "interp.jit_compile", launches),
        "interp.cpu_run_us": timed.run_us("cpu"),
        "interp.gpu_run_us": timed.run_us("gpu"),
        "interp.cpu_tier_jit_frac": timed.frac("cpu_tier_jit", "cpu_executors"),
        "interp.cpu_tier_scalar_frac": timed.frac("cpu_tier_scalar",
                                                  "cpu_executors"),
        "interp.gpu_tier_scalar_frac": timed.frac("gpu_tier_scalar",
                                                  "gpu_executors"),
        "analysis.profile_us": timed.mean_us("analysis.profile", setup),
        "analysis.rw_summary_us": setup.mean_us("analysis.rw_summary"),
        "sim.simulate_us": timed.mean_us("sim.simulate", setup),
        "sim.calls_per_klaunch": timed.per_klaunch("sim.simulate", launches),
        "transform.malleable_us": setup.mean_us("transform.malleable"),
        "shard.submit_us": timed.mean_us("shard.submit"),
    }
    values.update(measured)
    absent = {}
    for name, (_unit, _better, spans) in METRICS.items():
        for span in spans:
            reason = timed.absent.get(span) or setup.absent.get(span)
            if reason:
                absent[name] = reason
                values[name] = 0.0
        values.setdefault(name, 0.0)
    return values, absent
