"""Measurement machinery that acts on vqspectral from outside the package.

``Patch`` swaps a package function for a wrapper at every place the package
binds it (``from .x import f`` copies ``f`` into the importing module, so
patching only the defining module would miss those callers) and puts the
originals back afterwards. ``Tracer`` builds the wrappers of the traced run:
one span per call with a name, a start, an end, a parent and a trace id, kept
in memory until the run ends.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (metric prefix, module, attribute). The metric prefix is "<layer>.<function>";
# config.* covers the config/cli layer.
TRACED = (
    ("spectral.assemble_system", "spectral", "assemble_system"),
    ("spectral.forward_transform", "spectral", "forward_transform"),
    ("spectral.classical_solve", "spectral", "classical_solve"),
    ("spectral.reconstruct", "spectral", "reconstruct"),
    ("spectral.metrics", "spectral", "metrics"),
    ("pauli.decompose", "pauli", "decompose"),
    ("pauli.adjoint_product", "pauli", "adjoint_product"),
    ("pauli.normal_operator", "pauli", "normal_operator"),
    ("pauli.group_commuting", "pauli", "group_commuting"),
    ("pauli.PauliExpansion.to_matrix", "pauli", "PauliExpansion.to_matrix"),
    ("qsim.run_batch", "qsim", "run_batch"),
    ("qsim.run", "qsim", "run"),
    ("qsim.adjoint_gradient", "qsim", "adjoint_gradient"),
    ("anglenet.forward", "anglenet", "forward"),
    ("anglenet.backward", "anglenet", "backward"),
    ("anglenet.save_checkpoint", "anglenet", "save_checkpoint"),
    ("loss.grad_total", "loss", "grad_total"),
    ("loss.recover_solution", "loss", "recover_solution"),
    ("loss.context_for_system", "loss", "context_for_system"),
    ("loss.with_targets", "loss", "with_targets"),
    ("loss.loss_phase_aware", "loss", "loss_phase_aware"),
    ("loss.loss_unnormalized", "loss", "loss_unnormalized"),
    ("training.generate_dataset", "training", "generate_dataset"),
    ("training.TrainData.from_dataset", "training", "TrainData.from_dataset"),
    ("training.train", "training", "train"),
    ("training.adam_step", "training", "adam_step"),
    ("training.evaluate_split", "training", "evaluate_split"),
    ("training.write_run_record", "training", "write_run_record"),
    ("config.parse_config", "config", "parse_config"),
    ("config.build_system", "config", "build_system"),
)

# The end-to-end metrics a change to each layer is expected to move.
MOVES = {
    "spectral": "setup_s, eval_ms",
    "pauli": "wall_s; setup_s",
    "qsim": "epoch_ms_p50",
    "anglenet": "epoch_ms_p50",
    "loss": "epoch_ms_p50, eval_ms, setup_s",
    "training": "wall_s, epoch_ms_p50",
    "config": "setup_s",
}

# (name, unit, better, end-to-end metric it should move)
DERIVED = (
    ("pauli.kept_ratio", "ratio", "lower", "wall_s; setup_s"),
    ("pauli.pairs", "count", "lower", "wall_s; setup_s"),
    ("pauli.groups", "count", "lower", "wall_s; setup_s"),
    ("qsim.rows_per_call", "rows/call", "higher", "epoch_ms_p50"),
    ("qsim.forward_passes_per_epoch", "passes/epoch", "lower", "epoch_ms_p50"),
    ("anglenet.passes_per_epoch", "passes/epoch", "lower", "epoch_ms_p50"),
    ("training.resamples", "count", "lower", "wall_s, epoch_ms_p50"),
    ("trace.overhead_s", "s", "lower", "wall_s"),
)


def per_layer_units() -> dict:
    """Every per-layer metric of the traced run with its unit and direction."""
    units = {}
    for name, _, _ in TRACED:
        units[f"{name}.calls"] = ("count", "lower")
        units[f"{name}.self_ms"] = ("ms", "lower")
    for name, unit, better, _ in DERIVED:
        units[name] = (unit, better)
    return units


def package_modules() -> list:
    importlib.import_module("vqspectral.cli")  # imports every module of the package
    return [m for n, m in sorted(sys.modules.items()) if n.startswith("vqspectral.")]


class Patch:
    """Installs wrappers where callers look functions up; ``restore`` undoes it."""

    def __init__(self):
        self._undo: list = []
        self._modules = package_modules()

    def wrap(self, module: str, attr: str, make_wrapper) -> None:
        owner = importlib.import_module(f"vqspectral.{module}")
        *path, name = attr.split(".")
        if path:
            for part in path:
                owner = getattr(owner, part)
            raw = vars(owner)[name]
            if isinstance(raw, staticmethod):
                self._set(owner, name, staticmethod(make_wrapper(raw.__func__)))
            else:
                self._set(owner, name, make_wrapper(raw))
            return
        original = getattr(owner, name)
        wrapper = make_wrapper(original)
        for mod in self._modules:
            for bound, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, bound, wrapper)

    def _set(self, owner, name, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


class Tracer:
    """Spans of one operation, plus counts read off arguments and results.

    ``roots`` maps a traced name to the kind of trace it opens: each entry
    into such a function starts a new trace id (an epoch, an evaluation or a
    scaling size) that later spans carry until the next root entry.
    """

    def __init__(self, roots: dict):
        self.roots = roots
        self.spans: list = []  # (name, start, end, parent index, trace id)
        self.counts: dict = defaultdict(int)
        self._stack: list = []
        self._trace = "setup"
        self._opened: dict = defaultdict(int)

    def install(self, patch: Patch) -> None:
        for name, module, attr in TRACED:
            patch.wrap(module, attr, functools.partial(self._make, name))

    def _make(self, name: str, fn):
        tracer = self
        root = self.roots.get(name)
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if root is not None:
                tracer._trace = f"{root}:{tracer._opened[root]}"
                tracer._opened[root] += 1
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            trace = tracer._trace
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, trace)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def summary(self) -> dict:
        """Per-function calls and self time, and the derived counts and ratios."""
        calls: dict = defaultdict(int)
        self_s: dict = defaultdict(float)
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        in_epoch = defaultdict(int)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - children[i]
            ancestor = parent
            while ancestor >= 0:
                if self.spans[ancestor][0] == "loss.grad_total":
                    in_epoch[name] += 1
                    break
                ancestor = self.spans[ancestor][3]
        out = {}
        for name, _, _ in TRACED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_ms"] = self_s[name] * 1e3
        epochs = calls["loss.grad_total"]
        c = self.counts
        out["pauli.kept_ratio"] = c["pauli.kept"] / c["pauli.full"] if c["pauli.full"] else 0.0
        out["pauli.pairs"] = c["pauli.pairs"]
        out["pauli.groups"] = c["pauli.groups"]
        runs = calls["qsim.run_batch"]
        out["qsim.rows_per_call"] = c["qsim.rows"] / runs if runs else 0.0
        out["qsim.forward_passes_per_epoch"] = in_epoch["qsim.run_batch"] / epochs if epochs else 0.0
        passes = in_epoch["anglenet.forward"] + in_epoch["anglenet.backward"]
        out["anglenet.passes_per_epoch"] = passes / epochs if epochs else 0.0
        out["training.resamples"] = c["training.resamples"]
        return out

    def write_spans(self, path: Path, label: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for i, (name, start, end, parent, trace) in enumerate(self.spans):
                fh.write(f"{label},{i},{name},{start:.9f},{end:.9f},{parent},{trace}\n")


def _count_decompose(counts, args, kwargs, result):
    counts["pauli.kept"] += len(result)
    counts["pauli.full"] += 4**result.n_qubits


def _count_pairs(counts, args, kwargs, result):
    left = args[0] if args else kwargs["left"]
    right = args[1] if len(args) > 1 else kwargs["right"]
    counts["pauli.pairs"] += len(left) * len(right)


def _count_groups(counts, args, kwargs, result):
    counts["pauli.groups"] += result.n_groups


def _count_rows(counts, args, kwargs, result):
    counts["qsim.rows"] += result.shape[0]


def _count_resamples(counts, args, kwargs, result):
    counts["training.resamples"] += result.resample_count


_COUNTERS = {
    "pauli.decompose": _count_decompose,
    "pauli.adjoint_product": _count_pairs,
    "pauli.group_commuting": _count_groups,
    "qsim.run_batch": _count_rows,
    "training.generate_dataset": _count_resamples,
}


# ---------------------------------------------------------------------------
# Run metadata and statistics


def _blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, read through its C API."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))  # already loaded by numpy: the same handle
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_revision(root: Path) -> str:
    """HEAD of a git checkout at root, read from its files; "none" elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def metadata(root: Path, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "git_revision": _git_revision(root),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def median(values) -> float:
    return float(statistics.median(values))
