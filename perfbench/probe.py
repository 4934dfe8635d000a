"""Runs one fusecast CLI command inside a benchmark child process.

Usage:
    python3 perfbench/probe.py MARKS_JSON TRACE_NPZ|- -- <fusecast arguments>
    python3 perfbench/probe.py --machine

The probe imports ``fusecast.cli`` from the ``src`` directory on PYTHONPATH,
times that import, and then calls ``fusecast.cli.main`` with the given
arguments. It writes MARKS_JSON when the command ends: the import span, the
monotonic time of the first ``fusecast.model.forward`` call, and the peak
resident memory of the process. All times are ``time.monotonic_ns()``, which
on Linux is one system-wide clock, so the parent can subtract its own launch
time.

Without tracing (TRACE_NPZ is ``-``), the first forward call is marked by a
one-shot wrapper that restores the original bindings before it runs, so no
per-call wrapper remains in the timed work.

With tracing, every public function and public method defined in the
``fusecast`` modules is wrapped, at every binding that holds it: a name
bound with ``from .model import forward`` lives in the importing module's
namespace and is looked up there. Each call records a span (name, start,
end, parent span). Spans stay in memory and are written to TRACE_NPZ at the
end, with the run id that the benchmark shares among the processes of one
run (``PERFBENCH_RUN_ID``) and a few counters that spans cannot give:
distinct prompts embedded, items yielded by generators, artifact bytes
written and FLOPs computed from array shapes.
"""

from __future__ import annotations

import inspect
import json
import os
import resource
import sys
import time
from array import array

clock = time.monotonic_ns

MODULES = ("cli", "data", "descriptors", "textenc", "model", "train", "evaluation", "synth")


def model_flops(config, batch: int, segments: int):
    """(forward, backward) FLOPs of one batch, computed from array shapes.

    Counts 2 FLOPs per multiply-add in the matrix products and einsums that
    ``fusecast.model`` evaluates; elementwise work is left out.
    """
    s, d, k, n = config.segment_len, config.dim, config.experts, segments
    rows = batch * n
    attn = 2 * batch * n * n * d  # one (N, N) x (N, D/H) product summed over heads
    fwd = 2 * rows * s * d + 2 * rows * d * s  # segment embedding, output projection
    fwd += config.layers * (16 * rows * d * d + 2 * attn)  # QKV, Wo, FF (width 2D), QK^T, AV
    fwd += 2 * rows * d * k * d + 2 * rows * k * d  # expert projections and blend
    bwd = 2 * (2 * rows * d * s) + 2 * rows * s * d  # out_W, d_s_hat, seg_W
    bwd += config.layers * (32 * rows * d * d + 4 * attn)
    bwd += 2 * rows * k * d + 2 * (2 * rows * d * k * d)  # d_weights, experts_W, d_e_hat
    if config.gated:
        fwd += 2 * rows * d * k
        bwd += 2 * (2 * rows * d * k)
    return fwd, bwd


def fusecast_modules():
    return {name: mod for name, mod in sys.modules.items()
            if (name == "fusecast" or name.startswith("fusecast.")) and mod is not None}


def rebind(originals: dict) -> None:
    """Replace every module-level binding of each original by its replacement."""
    for mod in fusecast_modules().values():
        for attr, value in list(vars(mod).items()):
            replacement = originals.get(id(value))
            if replacement is not None and replacement[0] is value:
                setattr(mod, attr, replacement[1])


def mark_first_forward(model, marks: dict) -> None:
    original = model.forward

    def first_forward(*args, **kwargs):
        marks["first_forward_ns"] = clock()
        rebind({id(first_forward): (first_forward, original)})
        return original(*args, **kwargs)

    rebind({id(original): (original, first_forward)})


class Tracer:
    """Spans and counters of one process, kept in memory until ``save``."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.prompts: set = set()
        self.counters = {"cache_bytes": 0, "checkpoint_bytes": 0, "backward_flop": 0,
                         "train_step_flop": 0}

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(clock())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = clock()
        self.stack.pop()

    def wrap(self, qualname: str, fn, after=None):
        name_id = self.name_ids.setdefault(qualname, len(self.names))
        if name_id == len(self.names):
            self.names.append(qualname)
        if inspect.isgeneratorfunction(fn):
            yielded = f"{qualname}:yielded"
            self.counters[yielded] = 0

            def wrapper(*args, **kwargs):
                idx = self._open(name_id)
                try:
                    for item in fn(*args, **kwargs):
                        self.counters[yielded] += 1
                        yield item
                finally:
                    self._close(idx)
        else:
            def wrapper(*args, **kwargs):
                idx = self._open(name_id)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(idx)
                if after is not None:
                    after(args, kwargs)
                return result
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _after_hooks(self):
        counters = self.counters

        def embedded(args, kwargs):
            self.prompts.add(args[1])

        def saved(key):
            def hook(args, kwargs):
                counters[key] += os.path.getsize(args[-1])
            return hook

        def backwarded(args, kwargs):
            x = args[2].x
            fwd, bwd = model_flops(args[1], x.shape[0], x.shape[1])
            counters["backward_flop"] += bwd
            if not counters["train_step_flop"]:
                counters["train_step_flop"] = fwd + bwd

        return {
            "textenc.PromptEncoder.embed": embedded,
            "textenc.EmbeddingCache.embed": embedded,
            "textenc.ZeroTextSource.embed": embedded,
            "textenc.save_cache": saved("cache_bytes"),
            "model.save_checkpoint": saved("checkpoint_bytes"),
            "model.backward": backwarded,
        }

    def install(self) -> None:
        """Wrap the public functions and methods of each module at every binding."""
        hooks = self._after_hooks()
        mods = fusecast_modules()
        originals = {}
        for short in MODULES:
            mod = mods[f"fusecast.{short}"]
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == mod.__name__:
                    qualname = f"{short}.{attr}"
                    originals[id(value)] = (value, self.wrap(qualname, value, hooks.get(qualname)))
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    for meth, fn in list(vars(value).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            qualname = f"{short}.{attr}.{meth}"
                            setattr(value, meth, self.wrap(qualname, fn, hooks.get(qualname)))
        rebind(originals)

    def first_start(self, qualname: str):
        name_id = self.name_ids.get(qualname)
        for idx, value in enumerate(self.name):
            if value == name_id:
                return self.start[idx]
        return None

    def save(self, path) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names or [""]),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            counters=np.array(json.dumps({**self.counters, "embed_distinct": len(self.prompts)})),
            run_id=np.array(os.environ.get("PERFBENCH_RUN_ID", "")),
        )


def openblas_threads():
    """Thread count of the OpenBLAS library this process loaded, if it says."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                       and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine() -> dict:
    import numpy
    import scipy
    import fusecast.cli  # noqa: F401  (loads the BLAS the program uses)

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(),
    }


def main(argv) -> int:
    if argv[:1] == ["--machine"]:
        print(json.dumps(machine()))
        return 0
    marks_path, trace_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: probe.py MARKS_JSON TRACE_NPZ|- -- ARGS...")
    marks = {"import_start_ns": clock()}
    import fusecast.cli as cli

    marks["import_end_ns"] = clock()
    marks["fusecast"] = os.path.dirname(sys.modules["fusecast"].__file__)
    tracer = None
    if trace_path == "-":
        mark_first_forward(sys.modules["fusecast.model"], marks)
    else:
        tracer = Tracer()
        tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        marks["exit_ns"] = clock()
        marks["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.save(trace_path)
            marks["first_forward_ns"] = tracer.first_start("model.forward")
        with open(marks_path, "w", encoding="utf-8") as fh:
            json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
