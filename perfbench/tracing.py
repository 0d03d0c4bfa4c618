"""In-memory spans around the public functions of each ``gausspoisson`` module.

The library itself is not instrumented.  :class:`Tracer` replaces each traced
function at every place it is bound (the defining module and every module that
imported it by name), records one span per call (name, start, end, parent) and
puts the original functions back when it closes.  Per-layer metrics are
computed from the recorded spans; a layer's self time is its span's duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import time

# (module, attribute, span name); every public function a per-layer metric
# reads, plus run_suite so that suite-level work has a root span
TRACED_FUNCTIONS = (
    ("semigroup", "apply", "semigroup.apply"),
    ("semigroup", "apply_dzeta", "semigroup.apply_dzeta"),
    ("semigroup", "operator_bound", "semigroup.operator_bound"),
    ("semigroup", "trajectory", "semigroup.trajectory"),
    ("kernel", "kernel_tail_bound", "kernel.tail_bound"),
    ("kernel", "grid_for_time", "kernel.grid_for_time"),
    ("kernel", "kernel_mass", "kernel.mass"),
    ("kernel", "fourier_symbol_residual", "kernel.fourier_symbol_residual"),
    ("generator", "discrete_laplacian", "generator.laplacian"),
    ("generator", "time_integral", "generator.time_integral"),
    ("generator", "classical_residual", "generator.classical"),
    ("weights", "weighted_norm", "weights.norm"),
    ("grid_field", "sample", "grid_field.sample"),
    ("grid_field", "write_field_csv", "grid_field.csv_write"),
    ("grid_field", "read_field_csv", "grid_field.csv_read"),
    ("verify", "run_suite", "verify.run_suite"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent, iteration):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = {"iter": iteration}

    @property
    def duration(self) -> float:
        return self.end - self.start


def _digest(values) -> bytes:
    return hashlib.blake2b(values.tobytes(), digest_size=16).digest() + repr(values.shape).encode()


class Tracer:
    """Records spans while open; use as a context manager around traced work.

    ``mark()`` starts a new iteration: repeated-input shares are counted per
    iteration, so a kernel seen in the previous suite run does not count as a
    repeat in the next one.
    """

    def __init__(self):
        self.spans = []
        self.iteration = 0
        self._stack = []
        self._restore = []
        self._seen_kernels = set()
        self._seen_fields = set()

    # -- patching ------------------------------------------------------------

    def __enter__(self):
        import gausspoisson
        from gausspoisson import fields

        modules = [m for name, m in sys.modules.items() if name == "gausspoisson" or name.startswith("gausspoisson.")]
        for module_name, attr, span_name in TRACED_FUNCTIONS:
            original = getattr(getattr(gausspoisson, module_name), attr)
            wrapper = self._wrap(span_name, original)
            for module in modules:
                for bound_name, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, bound_name, original))
                        setattr(module, bound_name, wrapper)
        call = fields.GaussianMixture.__call__
        self._restore.append((fields.GaussianMixture, "__call__", call))
        fields.GaussianMixture.__call__ = self._wrap("fields.mixture_eval", call)
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        return False

    def mark(self) -> None:
        self.iteration += 1
        self._seen_kernels.clear()
        self._seen_fields.clear()

    def _wrap(self, name, fn):
        after = {
            "semigroup.apply": self._after_apply,
            "grid_field.csv_write": self._after_csv_write,
            "grid_field.csv_read": self._after_csv_read,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), self._stack[-1] if self._stack else None, self.iteration)
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return traced

    # -- per-call attributes, recorded after the span has closed -------------

    def _after_apply(self, span, args, kwargs, result):
        from gausspoisson.kernel import as_time

        zeta, f = args[0], args[1] if len(args) > 1 else kwargs["f"]
        method = result.meta.get("method", "identity") if result is not f else "identity"
        kernel_key = (as_time(zeta).value, f.grid, method)
        field_key = _digest(f.values)
        span.attrs.update(
            method=method,
            repeat_kernel=kernel_key in self._seen_kernels,
            repeat_field=field_key in self._seen_fields,
        )
        self._seen_kernels.add(kernel_key)
        self._seen_fields.add(field_key)

    def _after_csv_write(self, span, args, kwargs, result):
        f, path = args[0], args[1] if len(args) > 1 else kwargs["path"]
        span.attrs.update(rows=f.grid.size, bytes=os.path.getsize(path))

    def _after_csv_read(self, span, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        span.attrs.update(rows=result.grid.size, bytes=os.path.getsize(path))

    # -- output --------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                record = {
                    "id": i,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": None if s.parent is None else index[id(s.parent)],
                    **s.attrs,
                }
                fh.write(json.dumps(record, default=str) + "\n")


def layer_metrics(spans, iterations: int) -> dict:
    """Per-iteration layer metrics from the spans of ``iterations`` traced
    iterations (counts and times are divided by the iteration count)."""
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[id(s.parent)] = child_time.get(id(s.parent), 0.0) + s.duration

    def select(name, **attrs):
        return [s for s in spans if s.name == name and all(s.attrs.get(k) == v for k, v in attrs.items())]

    def total(name, **attrs):
        return sum(s.duration for s in select(name, **attrs))

    def self_time(name):
        return sum(s.duration - child_time.get(id(s), 0.0) for s in select(name))

    def share(items, attr):
        return sum(1 for s in items if s.attrs.get(attr)) / len(items) if items else 0.0

    applies = select("semigroup.apply")
    writes, reads = select("grid_field.csv_write"), select("grid_field.csv_read")
    write_s, read_s = total("grid_field.csv_write"), total("grid_field.csv_read")
    bytes_written = sum(s.attrs["bytes"] for s in writes)
    bytes_read = sum(s.attrs["bytes"] for s in reads)
    per = max(1, iterations)
    out = {
        "semigroup.apply.calls": (len(applies) / per, "count"),
        "semigroup.apply.quadrature_s": (total("semigroup.apply", method="quadrature") / per, "s"),
        "semigroup.apply.spectral_s": (total("semigroup.apply", method="spectral") / per, "s"),
        "semigroup.apply.repeat_kernel_share": (share(applies, "repeat_kernel"), "ratio"),
        "semigroup.apply.repeat_field_share": (share(applies, "repeat_field"), "ratio"),
        "semigroup.apply_dzeta_s": (total("semigroup.apply_dzeta") / per, "s"),
        "semigroup.operator_bound_s": (total("semigroup.operator_bound") / per, "s"),
        "semigroup.trajectory_s": (total("semigroup.trajectory") / per, "s"),
        "kernel.tail_bound.calls": (len(select("kernel.tail_bound")) / per, "count"),
        "kernel.tail_bound_s": (total("kernel.tail_bound") / per, "s"),
        "kernel.grid_for_time_s": (total("kernel.grid_for_time") / per, "s"),
        "kernel.mass_s": (total("kernel.mass") / per, "s"),
        "kernel.fourier_symbol_residual_s": (total("kernel.fourier_symbol_residual") / per, "s"),
        "generator.laplacian.calls": (len(select("generator.laplacian")) / per, "count"),
        "generator.laplacian_s": (total("generator.laplacian") / per, "s"),
        "generator.time_integral_self_s": (self_time("generator.time_integral") / per, "s"),
        "generator.classical_self_s": (self_time("generator.classical") / per, "s"),
        "weights.norm.calls": (len(select("weights.norm")) / per, "count"),
        "weights.norm_s": (total("weights.norm") / per, "s"),
        "fields.mixture_eval_s": (total("fields.mixture_eval") / per, "s"),
        "grid_field.sample.calls": (len(select("grid_field.sample")) / per, "count"),
        "grid_field.sample_self_s": (self_time("grid_field.sample") / per, "s"),
        "grid_field.csv_write_s": (write_s / per, "s"),
        "grid_field.csv_read_s": (read_s / per, "s"),
        "grid_field.csv_rows": (sum(s.attrs["rows"] for s in writes + reads) / per, "count"),
        "grid_field.csv_bytes_written": (bytes_written / per, "bytes"),
        "grid_field.csv_write_mb_per_s": (bytes_written / 1e6 / write_s if write_s > 0 else 0.0, "MB/s"),
        "grid_field.csv_read_mb_per_s": (bytes_read / 1e6 / read_s if read_s > 0 else 0.0, "MB/s"),
    }
    return out
