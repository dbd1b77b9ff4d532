"""In-process tracing of ergosym's public functions, from outside the package.

`Tracer.install()` replaces each traced function in every ergosym module
that holds it (where it is defined and where it was imported by name) and
each traced method on its class with a wrapper that records a span
(name, start, end, parent, pass id, ok) and counts derived from the call's
arguments. `uninstall()` puts the originals back. Spans and counts stay in
memory; `layer_metrics` turns one pass of them into the per-layer metrics.
tracemalloc runs only around the top-level compute calls named in PEAKS.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import tracemalloc
from collections import Counter

import numpy as np

MODULES = ("averaging", "cli", "divergence", "formats", "operators",
           "return_times", "rng", "spaces", "weights")

DECODERS = ("space_from_json", "function_from_json", "operator_from_json",
            "weight_from_json")
EMITTERS = ("rearrangement_csv", "averaging_csv", "sweep_csv", "product_csv",
            "traces_csv", "json_report", "ds_report_payload", "certificate_payload")


def _count_stream(c, fn, a, k):
    bound = inspect.signature(fn).bind(*a, **k)
    bound.apply_defaults()
    args = bound.arguments
    steps = int(list(args["checkpoints"])[-1])
    atoms = args["T"].space.n_atoms
    c["averaging.steps"] += steps
    c["averaging.atom_steps"] += steps * atoms
    if not args["store_averages"]:
        c["averaging.probe_only_atoms"] += atoms
        c["averaging.probe_only_probes"] += len(args["probes"])


def _count_kernel(c, fn, a, k):
    n = a[0].space.n_atoms
    c["operators.kernel.apply_calls"] += 1
    c["operators.kernel.bytes_computed"] += (n * n + 2 * n) * 16


def _count_composition(c, fn, a, k):
    n = a[0].space.n_atoms
    c["operators.composition.apply_calls"] += 1
    # point map (int64) + multiplier, input and output (complex128)
    c["operators.composition.bytes_computed"] += n * (8 + 3 * 16)


def _count_powers(c, fn, a, k):
    lams = np.atleast_1d(a[0])
    c["weights.power_table_bytes"] += lams.size * int(a[1]) * 16


def _count_write(c, fn, a, k):
    text = a[1] if len(a) > 1 else k["text"]
    c["formats.bytes_written"] += len(text.encode())


# (module, attribute or Class.method, span name, counter)
TRACED = [
    ("cli", "validate", "cli.validate", None),
    *[("formats", f, "formats.decode", None) for f in DECODERS],
    *[("formats", f, "formats.emit", None) for f in EMITTERS],
    ("formats", "atomic_write_text", "formats.write", _count_write),
    ("rng", "SplitMix64.uniforms", "rng.uniforms",
     lambda c, fn, a, k: c.update({"rng.draws": int(a[1])})),
    ("spaces", "rearrangement", "spaces.rearrangement", None),
    ("spaces", "majorizes", "spaces.majorizes", None),
    ("spaces", "norm", "spaces.norms", None),
    ("spaces", "luxemburg_norm", "spaces.norms", None),
    ("spaces", "lorentz_norm", "spaces.norms", None),
    ("operators", "ds_certificate", "operators.ds_certificate", None),
    ("operators", "KernelOperator.apply_values", "operators.kernel.apply", _count_kernel),
    ("operators", "CompositionOperator.apply_values", "operators.composition.apply",
     _count_composition),
    ("averaging", "cesaro", "averaging.stream", _count_stream),
    ("averaging", "weighted", "averaging.stream", _count_stream),
    ("averaging", "majorization_trace", "averaging.majorization_trace", None),
    ("weights", "WeightSequence.values", "weights.values", None),
    ("weights", "unit_powers_matrix", "weights.unit_powers_matrix", _count_powers),
    ("return_times", "wiener_wintner_sweep", "return_times.sweep", None),
    ("return_times", "product_average", "return_times.product_average", None),
    ("return_times", "PointSystem.orbit", "return_times.orbit",
     lambda c, fn, a, k: c.update({"return_times.orbit_terms": int(a[2])})),
    ("return_times", "rotation_closed_form", "return_times.closed_form", None),
    ("divergence", "construct_certificate", "divergence.construct", None),
    ("divergence", "verify_certificate", "divergence.verify", None),
    ("divergence", "direct_averages", "divergence.direct_averages", None),
]

# spans around which tracemalloc measures the peak (top-level compute calls)
PEAKS = {"averaging.stream": "averaging.peak_mib",
         "return_times.sweep": "return_times.sweep_peak_mib"}


class Tracer:
    """Span and count recorder; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, pass, ok, command]
        self.counts: dict[int, Counter] = {}
        self.peaks: dict[int, dict[str, float]] = {}
        self.pass_id = 0
        self.command = ""
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # ------------------------------------------------------------ recording

    def span(self, name: str, fn, counter=None, peaks: bool = False):
        peak_key = PEAKS.get(name) if peaks else None

        @functools.wraps(fn)
        def wrapper(*a, **k):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            rec = [name, 0.0, 0.0, parent, self.pass_id, False, self.command]
            self.spans.append(rec)
            self._stack.append(idx)
            own_peak = peak_key is not None and not tracemalloc.is_tracing()
            if own_peak:
                tracemalloc.start()
            rec[1] = time.perf_counter()
            try:
                result = fn(*a, **k)
                rec[5] = True
                return result
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
                if own_peak:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    slot = self.peaks.setdefault(self.pass_id, {})
                    slot[peak_key] = max(slot.get(peak_key, 0.0), peak)
                if counter is not None:
                    counter(self.counts.setdefault(self.pass_id, Counter()), fn, a, k)

        return wrapper

    def run(self, name: str, fn, *args):
        """Call fn(*args) as a root span (one CLI command)."""
        self.command = name
        return self.span("cli.main", fn)(*args)

    # ------------------------------------------------------------ patching

    def install(self, package: str = "ergosym", peaks: bool = False) -> None:
        """Wrap every function in TRACED; with `peaks`, also measure the
        tracemalloc peak of the spans in PEAKS."""
        mods = [importlib.import_module(f"{package}.{m}") for m in MODULES]
        mods.append(importlib.import_module(package))
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in mods}
        for mod_name, attr, span_name, counter in TRACED:
            home = by_name[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self.span(span_name, orig, counter, peaks))
                continue
            orig = getattr(home, attr)
            wrapped = self.span(span_name, orig, counter, peaks)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, key, orig))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()


# ---------------------------------------------------------------- metrics


def layer_metrics(tracer: Tracer, pass_id: int, auto_window: set[str],
                  specs: int, draws_needed: int) -> dict[str, float]:
    """Per-layer metrics of one pass. Inclusive times (`incl`) count only the
    outermost span of a name, so recursion is not counted twice; self time
    is a span's duration minus that of its direct children."""
    incl, own, calls = Counter(), Counter(), Counter()
    path: dict[int, tuple] = {-1: ()}  # span index -> names of its ancestors
    attempts = useful = 0
    for i, (name, start, end, parent, pid, ok, command) in enumerate(tracer.spans):
        if pid != pass_id:
            continue
        dur = end - start
        path[i] = path[parent] + (name,)
        calls[name] += 1
        own[name] += dur
        if parent >= 0:
            own[tracer.spans[parent][0]] -= dur
        if name not in path[parent]:
            incl[name] += dur
        if name == "divergence.construct" and command in auto_window:
            attempts += 1
            useful += ok

    def ratio(num, den) -> float:
        return num / den if den else 0.0

    c = tracer.counts.get(pass_id, Counter())
    peaks = tracer.peaks.get(pass_id, {})
    return {
        "cli.validate_s": incl["cli.validate"],
        "cli.self_s": own["cli.main"],
        "cli.window_attempts": attempts,
        "cli.window_useful_ratio": ratio(useful, attempts),
        "formats.decode_s": incl["formats.decode"],
        "formats.decodes_per_config": ratio(calls["formats.decode"], specs),
        "formats.emit_s": incl["formats.emit"],
        "formats.write_s": incl["formats.write"],
        "formats.bytes_written": c["formats.bytes_written"],
        "rng.uniforms_s": incl["rng.uniforms"],
        "rng.draws": c["rng.draws"],
        "rng.useful_ratio": ratio(draws_needed, c["rng.draws"]),
        "spaces.rearrangement_s": incl["spaces.rearrangement"],
        "spaces.rearrangement_calls": calls["spaces.rearrangement"],
        "spaces.majorizes_s": incl["spaces.majorizes"],
        "spaces.norms_s": incl["spaces.norms"],
        "operators.ds_certificate_s": incl["operators.ds_certificate"],
        "operators.kernel.apply_s": incl["operators.kernel.apply"],
        "operators.kernel.apply_calls": c["operators.kernel.apply_calls"],
        "operators.kernel.bytes_computed": c["operators.kernel.bytes_computed"],
        "operators.composition.apply_s": incl["operators.composition.apply"],
        "operators.composition.apply_calls": c["operators.composition.apply_calls"],
        "operators.composition.bytes_computed": c["operators.composition.bytes_computed"],
        "averaging.stream_self_s": own["averaging.stream"],
        "averaging.steps": c["averaging.steps"],
        "averaging.atom_steps": c["averaging.atom_steps"],
        "averaging.probe_ratio": ratio(c["averaging.probe_only_probes"],
                                       c["averaging.probe_only_atoms"]),
        "averaging.majorization_trace_s": incl["averaging.majorization_trace"],
        "averaging.peak_mib": peaks.get("averaging.peak_mib", 0.0),
        "weights.values_s": incl["weights.values"],
        "weights.unit_powers_matrix_s": incl["weights.unit_powers_matrix"],
        "weights.power_table_bytes": c["weights.power_table_bytes"],
        "return_times.sweep_self_s": own["return_times.sweep"],
        "return_times.sweep_peak_mib": peaks.get("return_times.sweep_peak_mib", 0.0),
        "return_times.product_average_self_s": own["return_times.product_average"],
        "return_times.orbit_s": incl["return_times.orbit"],
        "return_times.orbit_terms": c["return_times.orbit_terms"],
        "return_times.closed_form_calls": calls["return_times.closed_form"],
        "return_times.closed_form_s": incl["return_times.closed_form"],
        "divergence.construct_s": incl["divergence.construct"],
        "divergence.construct_calls": calls["divergence.construct"],
        "divergence.verify_self_s": own["divergence.verify"],
        "divergence.direct_averages_s": incl["divergence.direct_averages"],
        "divergence.direct_calls": calls["divergence.direct_averages"],
    }


def is_count(metric: str) -> bool:
    """Counts and ratios of counts, which must repeat exactly for one seed."""
    return not metric.endswith(("_s", "_mib"))
