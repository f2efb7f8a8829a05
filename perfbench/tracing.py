"""Span tracing for the benchmark's traced run.

The tracer wraps the public entry points of each wl2link layer from
outside (module attributes and class methods), keeps one span per call in
memory -- name, start, end, parent -- and derives the per-layer metrics
from the spans afterwards. ``restore`` puts every original back.

An entry point that no longer exists is recorded as absent, and the
metrics that depend on it are left out of the result rather than reported
as zero.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import time

KINDS = ("WL1", "WL1_Label01", "WL2", "FWL2", "WL2_Local", "FWL2_Local")
POWER_KINDS = ("WL1", "WL2", "FWL2", "WL2_Local", "FWL2_Local")
LINKPRED_KINDS = ("WL1", "WL1_Label01", "WL2_Local", "FWL2_Local")
TREES = ("T_A", "T_B", "T_C", "T_D")


def _kind_arg(a, kw, r):
    return {"kind": a[0].value}


def _session_kind(a, kw, r):
    return {"kind": a[0].kind.value}


def _step(a, kw, r):
    return {"kind": a[0].kind.value, "units": a[0].num_units()}


# (module, attribute path, span name, attributes taken from (args, kwargs, result))
ENTRY_POINTS = (
    ("wl2link.graph", "Graph.without_edge", "graph.without_edge", None),
    ("wl2link.graph", "split_links", "graph.split", None),
    ("wl2link.graph", "sample_non_edges", "graph.split", None),
    ("wl2link.linkpred", "split_links", "graph.split", None),
    ("wl2link.linkpred", "sample_non_edges", "graph.split", None),
    ("wl2link.refine", "RefinementSession.__init__", "refine.session_init", _session_kind),
    ("wl2link.refine", "RefinementSession.step", "refine.step", _step),
    (
        "wl2link.refine", "indistinguishable", "refine.indistinguishable",
        lambda a, kw, r: {"kind": a[0].value, "distinguished": r.distinguished},
    ),
    (
        "wl2link.linkpred", "refine_to_stable", "refine.refine_to_stable",
        lambda a, kw, r: {"kind": a[0].value, "entries": sum(len(c.colors) for c in r.history)},
    ),
    ("wl2link.harness", "power_check", "harness.power_check", None),
    (
        "wl2link.harness", "batch_refine", "harness.batch_refine",
        lambda a, kw, r: {"kind": a[0].value, "instances": len(a[1]), "iterations": r.iterations},
    ),
    ("wl2link.harness", "oracle_soundness", "harness.oracle_soundness", None),
    ("wl2link.harness", "link_certificate", "unroll.link_certificate", None),
    ("wl2link.unroll", "unroll", "unroll.tree", lambda a, kw, r: {"tree": a[0]}),
    ("wl2link.unroll", "link_isomorphic", "unroll.link_isomorphic", None),
    ("wl2link.unroll", "link_certificate", "unroll.link_certificate", None),
    (
        "wl2link.linkpred", "benchmark", "linkpred.benchmark",
        lambda a, kw, r: {"kind": a[1].value, "test_auc": r.test_auc},
    ),
    ("wl2link.linkpred", "featurize", "linkpred.featurize", _kind_arg),
    ("wl2link.linkpred", "_color_ranks", "linkpred.color_rank", None),
    ("wl2link.linkpred", "train_scorer", "linkpred.train", None),
    ("wl2link.linkpred", "auc", "linkpred.auc", None),
)


def _metric_specs():
    """(name, unit, better, span it is derived from) for every per-layer metric."""
    specs = [
        ("graph.without_edge.calls", "count", "lower", "graph.without_edge"),
        ("graph.without_edge.s", "s", "lower", "graph.without_edge"),
        ("graph.split.s", "s", "lower", "graph.split"),
    ]
    for k in KINDS:
        specs += [
            (f"refine.session_init.s.{k}", "s", "lower", "refine.session_init"),
            (f"refine.session_init.calls.{k}", "count", "lower", "refine.session_init"),
            (f"refine.step.s.{k}", "s", "lower", "refine.step"),
            (f"refine.step.calls.{k}", "count", "lower", "refine.step"),
            (f"refine.units_per_step.{k}", "count", "lower", "refine.step"),
            (f"refine.iterations.{k}", "count", "lower", "refine.step"),
            (f"refine.indistinguishable.s.{k}", "s", "lower", "refine.indistinguishable"),
        ]
    specs.append(
        ("refine.indistinguishable.early_exit_ratio", "ratio", "higher", "refine.indistinguishable")
    )
    for k in POWER_KINDS:
        specs += [
            (f"harness.batch_refine.s.{k}", "s", "lower", "harness.batch_refine"),
            (f"harness.sessions.{k}", "count", "lower", "harness.batch_refine"),
            (f"harness.instances_per_session.{k}", "ratio", "higher", "harness.batch_refine"),
            (f"harness.iterations.{k}", "count", "lower", "harness.batch_refine"),
        ]
    specs += [
        ("harness.compare.s", "s", "lower", "harness.power_check"),
        ("harness.oracle_soundness.s", "s", "lower", "harness.oracle_soundness"),
    ]
    specs += [(f"unroll.tree.s.{t}", "s", "lower", "unroll.tree") for t in TREES]
    specs += [
        ("unroll.link_isomorphic.s", "s", "lower", "unroll.link_isomorphic"),
        ("unroll.link_certificate.s", "s", "lower", "unroll.link_certificate"),
        ("unroll.interner_entries", "count", "lower", "unroll.tree"),
    ]
    for k in LINKPRED_KINDS:
        specs += [
            (f"linkpred.benchmark.s.{k}", "s", "lower", "linkpred.benchmark"),
            (f"linkpred.test_auc.{k}", "auc", "higher", "linkpred.benchmark"),
            (f"linkpred.featurize.s.{k}", "s", "lower", "linkpred.featurize"),
            (f"linkpred.featurize_ms.p50.{k}", "ms", "lower", "linkpred.featurize"),
            (f"linkpred.featurize_ms.p90.{k}", "ms", "lower", "linkpred.featurize"),
            (f"linkpred.refine.s.{k}", "s", "lower", "linkpred.featurize"),
            (f"linkpred.color_rank.s.{k}", "s", "lower", "linkpred.color_rank"),
            (f"linkpred.sessions_per_target.{k}", "ratio", "lower", "linkpred.featurize"),
            (f"linkpred.history_entries.{k}", "count", "lower", "refine.refine_to_stable"),
        ]
    specs += [
        ("linkpred.train.s", "s", "lower", "linkpred.train"),
        ("linkpred.auc.s", "s", "lower", "linkpred.auc"),
        ("trace.spans", "count", "lower", None),
        ("trace.span_cost_us", "us", "lower", None),
        ("trace.overhead_s", "s", "lower", None),
        ("trace.overhead_share", "ratio", "lower", None),
    ]
    return specs


METRIC_SPECS = _metric_specs()


def _resolve(module_name, path):
    """(owner object, attribute name, original) or None if it has disappeared."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    if original is None:
        return None
    return owner, attr, original


class Tracer:
    """Wraps ENTRY_POINTS while installed and records one span per call."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, attributes]
        self.counts = {}
        self.absent = []
        self._stack = []
        self._patched = []
        self._paused = False

    # -- wrapping ----------------------------------------------------------

    def install(self):
        for module_name, path, name, attrs in ENTRY_POINTS:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            owner, attr, original = found
            setattr(owner, attr, self._wrap(original, name, attrs))
            self._patched.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name, attrs):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (output checks) are not traced."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def span_cost(self, calls=20000):
        """Seconds that wrapping adds to one call, measured on a no-op."""

        def noop():
            return None

        wrapped = self._wrap(noop, "trace.calibration", None)
        first = len(self.spans)
        clock = time.perf_counter
        t0 = clock()
        for _ in range(calls):
            noop()
        bare = clock() - t0
        t0 = clock()
        for _ in range(calls):
            wrapped()
        traced = clock() - t0
        del self.spans[first:]
        return (traced - bare) / calls

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "attributes"],
                    "absent": self.absent,
                    "spans": self.spans,
                },
                fh,
            )

    # -- per-layer metrics -------------------------------------------------

    def absent_spans(self):
        """Span names none of whose entry points exist any more."""
        present = {}
        for module_name, path, name, _ in ENTRY_POINTS:
            ok = f"{module_name}.{path}" not in self.absent
            present[name] = present.get(name, False) or ok
        return {name for name, ok in present.items() if not ok}

    def layer_metrics(self):
        """Per-layer totals over the traced plan; idle layers read 0."""
        spans = self.spans
        n = len(spans)
        dur = [s[2] - s[1] for s in spans]
        child_time = [0.0] * n
        feat = [-1] * n  # nearest enclosing featurize span
        batch = [-1] * n  # nearest enclosing batch_refine span
        in_refine = [False] * n  # some enclosing span belongs to refine
        in_split = [False] * n
        for i, (name, _, _, parent, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += dur[i]
                pname = spans[parent][0]
                feat[i] = parent if pname == "linkpred.featurize" else feat[parent]
                batch[i] = parent if pname == "harness.batch_refine" else batch[parent]
                in_refine[i] = in_refine[parent] or pname.startswith("refine.")
                in_split[i] = in_split[parent] or pname == "graph.split"

        m = {name: 0.0 for name, _, _, _ in METRIC_SPECS}
        units = {k: 0 for k in KINDS}
        feat_ms = {k: [] for k in LINKPRED_KINDS}
        feat_calls = {k: 0 for k in LINKPRED_KINDS}
        instances = {k: 0 for k in POWER_KINDS}
        distinguished = calls = 0

        def kind_of(j):
            return spans[j][4]["kind"] if j >= 0 and spans[j][4] else None

        for i, (name, _, _, _, attrs) in enumerate(spans):
            d = dur[i]
            fk = kind_of(feat[i])
            if name.startswith("refine.") and fk is not None and not in_refine[i]:
                m[f"linkpred.refine.s.{fk}"] += d
            if name == "graph.without_edge":
                m["graph.without_edge.calls"] += 1
                m["graph.without_edge.s"] += d
            elif name == "graph.split":
                if not in_split[i]:
                    m["graph.split.s"] += d
            elif name == "refine.session_init":
                k = attrs["kind"]
                m[f"refine.session_init.s.{k}"] += d
                m[f"refine.session_init.calls.{k}"] += 1
                bk = kind_of(batch[i])
                if bk is not None:
                    m[f"harness.sessions.{bk}"] += 1
                if fk is not None:
                    m[f"linkpred.sessions_per_target.{fk}"] += 1
            elif name == "refine.step":
                k = attrs["kind"]
                m[f"refine.step.s.{k}"] += d
                m[f"refine.step.calls.{k}"] += 1
                units[k] += attrs["units"]
            elif name == "refine.indistinguishable":
                m[f"refine.indistinguishable.s.{attrs['kind']}"] += d
                calls += 1
                distinguished += attrs["distinguished"]
            elif name == "refine.refine_to_stable":
                if fk is not None:
                    m[f"linkpred.history_entries.{fk}"] += attrs["entries"]
            elif name == "harness.power_check":
                m["harness.compare.s"] += d - child_time[i]
            elif name == "harness.batch_refine":
                k = attrs["kind"]
                m[f"harness.batch_refine.s.{k}"] += d
                m[f"harness.iterations.{k}"] += attrs["iterations"]
                instances[k] += attrs["instances"]
            elif name == "harness.oracle_soundness":
                m["harness.oracle_soundness.s"] += d
            elif name == "unroll.tree":
                m[f"unroll.tree.s.{attrs['tree']}"] += d
            elif name in ("unroll.link_isomorphic", "unroll.link_certificate"):
                m[f"{name}.s"] += d
            elif name == "linkpred.benchmark":
                k = attrs["kind"]
                m[f"linkpred.benchmark.s.{k}"] += d
                m[f"linkpred.test_auc.{k}"] = attrs["test_auc"]
            elif name == "linkpred.featurize":
                k = attrs["kind"]
                m[f"linkpred.featurize.s.{k}"] += d
                feat_ms[k].append(d * 1000.0)
                feat_calls[k] += 1
            elif name == "linkpred.color_rank":
                if fk is not None:
                    m[f"linkpred.color_rank.s.{fk}"] += d
            elif name == "linkpred.train":
                m["linkpred.train.s"] += d
            elif name == "linkpred.auc":
                m["linkpred.auc.s"] += d

        for k in KINDS:
            steps = m[f"refine.step.calls.{k}"]
            sessions = m[f"refine.session_init.calls.{k}"]
            m[f"refine.units_per_step.{k}"] = units[k] / steps if steps else 0.0
            m[f"refine.iterations.{k}"] = steps / sessions if sessions else 0.0
        m["refine.indistinguishable.early_exit_ratio"] = distinguished / calls if calls else 0.0
        for k in POWER_KINDS:
            sessions = m[f"harness.sessions.{k}"]
            m[f"harness.instances_per_session.{k}"] = instances[k] / sessions if sessions else 0.0
        for k in LINKPRED_KINDS:
            samples, targets = feat_ms[k], feat_calls[k]
            if len(samples) >= 2:
                deciles = statistics.quantiles(samples, n=10, method="inclusive")
                m[f"linkpred.featurize_ms.p50.{k}"] = deciles[4]
                m[f"linkpred.featurize_ms.p90.{k}"] = deciles[8]
            elif samples:
                m[f"linkpred.featurize_ms.p50.{k}"] = m[f"linkpred.featurize_ms.p90.{k}"] = samples[0]
            if targets:
                m[f"linkpred.sessions_per_target.{k}"] /= targets
                m[f"linkpred.history_entries.{k}"] /= targets
        m["unroll.interner_entries"] = self.counts.get("unroll.interner_entries", 0)
        m["trace.spans"] = n

        gone = self.absent_spans()
        for name, _, _, source in METRIC_SPECS:
            if source in gone:
                del m[name]
        return m
