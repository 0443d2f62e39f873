"""Span tracing for the benchmark's traced runs.

Public mxspec functions are wrapped at the module attribute where the
package looks them up, so a call made inside the package (for example
``fiedler_bipartition`` calling ``eig_sym``) is recorded as well as a
call made by the benchmark.  Each call becomes a span with its name,
layer kind, start, end, parent span and op id, kept in memory; the
per-layer metrics are computed from the spans after the run.

A target that no longer exists makes installation fail, and a workload
whose run recorded no span of a layer it is known to exercise fails the
run, so a refactor cannot drop a layer from the trace unnoticed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from dataclasses import dataclass


class TraceTargetError(RuntimeError):
    """A wrapped name is gone, or a layer recorded no span."""


def _dim(args, result):
    return args[0].shape[0]


def _copies(args, result):
    return result.num_copies


def _degenerate(args, result):
    return int(result[2])


def _file_bytes(args, result):
    return os.path.getsize(args[0])


def _brute_copies(args, result):
    return args[0].num_copies


# (module, attribute, layer kind, size extractor).  The size is the
# operator dimension for eig_sym, the number of copies for builders and
# the brute-force oracle, the degenerate flag for fiedler_bipartition and
# the file size for load_network.
TARGETS = (
    ("mxspec.experiments", "run_fixed_sbm_experiment", "experiments.sweep", None),
    ("mxspec.experiments", "run_overlap_kway", "experiments.sweep", None),
    ("mxspec.experiments", "compute_instance", "experiments.instance", None),
    ("mxspec.experiments", "gen_fixed_sbm_multiplex", "generators", None),
    ("mxspec.experiments", "gen_overlap_multiplex", "generators", None),
    ("mxspec.experiments", "build_supra", "operators.build", _copies),
    ("mxspec.experiments", "build_dynamic", "operators.build", _copies),
    ("mxspec.experiments", "fiedler_bipartition", "spectral.select", _degenerate),
    ("mxspec.experiments", "spectral_kway", "spectral.select", None),
    ("mxspec.experiments", "match_partitions", "experiments.score", None),
    ("mxspec.experiments", "kway_target_partition", "experiments.score", None),
    ("mxspec.spectral", "eig_sym", "spectral.eig", _dim),
    ("mxspec.spectral", "fiedler_bipartition", "spectral.select", _degenerate),
    ("mxspec.operators", "connected_components", "operators.components", None),
    ("mxspec.operators", "build_supra", "operators.build", _copies),
    ("mxspec.operators", "build_dynamic", "operators.build", _copies),
    ("mxspec.cli", "main", "cli", None),
    ("mxspec.cli", "load_network", "core.load", _file_bytes),
    ("mxspec.cli", "build_supra", "operators.build", _copies),
    ("mxspec.cli", "build_dynamic", "operators.build", _copies),
    ("mxspec.cli", "fiedler_bipartition", "spectral.select", _degenerate),
    ("mxspec.cli", "eig_sym", "spectral.eig", _dim),
    ("mxspec.cuts", "brute_force_min_cut", "cuts.brute", _brute_copies),
    ("mxspec.cuts", "cut_cost", "cuts.identity", None),
    ("mxspec.cuts", "quadratic_form", "cuts.identity", None),
    ("mxspec.cuts", "decompose_supra", "cuts.identity", None),
    ("mxspec.cuts", "decompose_dynamic", "cuts.identity", None),
    ("mxspec.cuts", "build_supra", "operators.build", _copies),
    ("mxspec.cuts", "build_dynamic", "operators.build", _copies),
)

# a span of one of these kinds starts a new op
OP_KINDS = ("experiments.instance", "cli")


@contextlib.contextmanager
def patched(module_name: str, attr: str, make_wrapper):
    """Replace module_name.attr by make_wrapper(original) for the block."""
    module = importlib.import_module(module_name)
    if not hasattr(module, attr):
        raise TraceTargetError(
            f"{module_name}.{attr} no longer exists; update the benchmark's wrap table")
    original = getattr(module, attr)
    setattr(module, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


@dataclass
class Span:
    name: str
    kind: str
    start: float
    parent: int
    op: int
    end: float = 0.0
    child_time: float = 0.0
    size: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Records spans while installed; spans accumulate across installs."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1

    def begin_op(self) -> None:
        self.op += 1

    @contextlib.contextmanager
    def installed(self):
        with contextlib.ExitStack() as stack:
            for module_name, attr, kind, size in TARGETS:
                name = f"{module_name.removeprefix('mxspec.')}.{attr}"
                stack.enter_context(patched(
                    module_name, attr,
                    functools.partial(self._wrap, name=name, kind=kind, size=size)))
            yield

    def _wrap(self, fn, name, kind, size):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if kind in OP_KINDS:
                self.begin_op()
            span = Span(name, kind, clock(), stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_time += span.end - span.start
            if size is not None:
                span.size = size(args, result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "name": span.name, "kind": span.kind, "start": span.start,
                    "end": span.end, "parent": span.parent, "op": span.op,
                }) + "\n")

    def _outermost(self, kind: str) -> list[Span]:
        """Spans of `kind` with no ancestor of the same kind."""
        out = []
        for span in self.spans:
            if span.kind != kind:
                continue
            parent = span.parent
            while parent >= 0 and self.spans[parent].kind != kind:
                parent = self.spans[parent].parent
            if parent < 0:
                out.append(span)
        return out

    def check_kinds(self, expected) -> None:
        seen = {span.kind for span in self.spans}
        missing = sorted(set(expected) - seen)
        if missing:
            raise TraceTargetError(
                f"no spans recorded for layer(s) {', '.join(missing)}; "
                "a wrapped name is no longer on the call path")

    def layer_metrics(self, ops: int) -> dict:
        """Per-layer metrics, each per traced op unless its unit says otherwise."""
        def of(kind):
            return [span for span in self.spans if span.kind == kind]

        def busy(kind):
            return sum(span.duration for span in self._outermost(kind)) / ops

        def self_time(kind):
            return sum(span.self_time for span in of(kind)) / ops

        eig, builds, brute = of("spectral.eig"), of("operators.build"), of("cuts.brute")
        brute_time = sum(span.duration for span in brute)
        brute_vectors = sum(2 ** (span.size - 1) - 1 for span in brute)
        cli_ops = {span.op for span in of("cli")}
        cli_eig = sum(1 for span in eig if span.op in cli_ops)
        return {
            "spectral.eig_busy_s": (busy("spectral.eig"), "s/op"),
            "spectral.eig_calls": (len(eig) / ops, "1/op"),
            "spectral.eig_dim_max": (max((span.size for span in eig), default=0), "count"),
            "spectral.select_self_s": (self_time("spectral.select"), "s/op"),
            "spectral.degenerate_count": (
                sum(span.size for span in of("spectral.select")) / ops, "1/op"),
            "operators.components_busy_s": (busy("operators.components"), "s/op"),
            "operators.components_calls": (len(of("operators.components")) / ops, "1/op"),
            "operators.build_busy_s": (busy("operators.build"), "s/op"),
            "operators.build_calls": (len(builds) / ops, "1/op"),
            # adjacency and Laplacian, m*m float64 each
            "operators.dense_mb_computed": (
                sum(2 * span.size ** 2 * 8 for span in builds) / 1e6 / ops, "MB/op"),
            "core.load_busy_s": (busy("core.load"), "s/op"),
            "core.bytes_parsed": (sum(span.size for span in of("core.load")) / ops, "B/op"),
            "generators.busy_s": (busy("generators"), "s/op"),
            "generators.calls": (len(of("generators")) / ops, "1/op"),
            "cuts.brute_busy_s": (busy("cuts.brute"), "s/op"),
            "cuts.brute_vectors_per_s": (
                brute_vectors / brute_time if brute_time > 0 else 0.0, "1/s"),
            "cuts.identity_busy_s": (busy("cuts.identity"), "s/op"),
            "experiments.score_busy_s": (busy("experiments.score"), "s/op"),
            "experiments.self_s": (self_time("experiments.instance"), "s/op"),
            "experiments.task_overhead_s": (self_time("experiments.sweep"), "s/op"),
            "cli.self_s": (self_time("cli"), "s/op"),
            "cli.eig_calls_per_op": (cli_eig / len(cli_ops) if cli_ops else 0.0, "1/op"),
            "trace.spans_per_op": (len(self.spans) / ops, "1/op"),
        }
