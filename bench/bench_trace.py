"""Span tracing of tpslab's layers, installed from outside the package.

Each seam is a module-level name that one layer calls: the tracer replaces
the name with a wrapper that records a span (name, start, end, parent id)
and the counts read off the call's arguments or result, and `restore` puts
every original back.  Nothing in tpslab is edited, so the seams are the
names the modules look up at call time (``tpslab.cli.optimize_tps``,
``tpslab.optimizer.least_squares``, ``numpy.linalg.svd``, ...).  A seam whose
name a refactor has removed is listed in `absent` instead of failing.

`kernel` spans (numpy.linalg calls made from a tpslab module) are
cross-cutting: they are reported as their own layer but are not subtracted
from the self time of the span that called them, so a layer's self time
includes the linear algebra it asked for.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from functools import wraps

KERNEL = "kernel."


def _matrices(a) -> int:
    shape = getattr(a, "shape", ())
    count = 1
    for d in shape[:-2]:
        count *= d
    return count


def _count_optimize(c: Counter, v: dict, args, result) -> None:
    v.setdefault("optimizer.objectives", []).extend(s.objective for s in result.restarts)


def _count_construct(c: Counter, v: dict, args, result) -> None:
    c["construct.attempts"] += result.attempts
    c["construct.found"] += bool(result.found)
    v.setdefault("construct.residuals", []).append(result.disentangling_residual)


def _count_nfev(prefix):
    def count(c: Counter, v: dict, args, result) -> None:
        c[prefix + ".nfev"] += int(getattr(result, "nfev", 0) or 0)
        c[prefix + ".njev"] += int(getattr(result, "njev", 0) or 0)
        c[prefix + ".nit"] += int(getattr(result, "nit", 0) or 0)

    return count


def _count_samples(name):
    def count(c: Counter, v: dict, args, result) -> None:
        c[name] += len(args[0])

    return count


def _count_result_len(name):
    def count(c: Counter, v: dict, args, result) -> None:
        c[name] += len(result)

    return count


def _count_certified(c: Counter, v: dict, args, result) -> None:
    c["obstruction.certified"] += result.verdict.value == "CertifiedNoDisentanglingTPS"


def _count_svd_matrices(c: Counter, v: dict, args, result) -> None:
    c["kernel.svd.matrices"] += _matrices(args[0])


# (module, attribute, span name, counter or None)
SEAMS = (
    ("tpslab.cli", "main", "cli", None),
    ("tpslab.cli", "optimize_tps", "optimizer", _count_optimize),
    ("tpslab.optimizer", "least_squares", "optimizer.gn", _count_nfev("optimizer.gn")),
    ("tpslab.optimizer", "minimize", "optimizer.lbfgs", _count_nfev("optimizer.lbfgs")),
    ("tpslab.cli", "entanglement_profile", "entanglement.profile", _count_samples("entanglement.profile.samples")),
    ("tpslab.optimizer", "entanglement_profile", "entanglement.profile", _count_samples("entanglement.profile.samples")),
    ("tpslab.cli", "construct_disentangler", "construct", _count_construct),
    ("tpslab.construct", "least_squares", "construct.solve", _count_nfev("construct.solve")),
    ("tpslab.construct", "verify_disentangler", "construct.verify", None),
    ("tpslab.cli", "separable_projection", "hamiltonian.projection", None),
    ("tpslab.cli", "stationarity_gradient", "hamiltonian.stationarity", None),
    ("tpslab.cli", "certify_no_disentangling", "obstruction.certify", _count_certified),
    ("tpslab.cli", "load_trajectory", "fileio.load", None),
    ("tpslab.cli", "load_matrix_document", "fileio.load", None),
    ("tpslab.cli", "load_tps", "fileio.load", None),
    ("tpslab.cli", "profile_to_csv", "fileio.csv", None),
    ("tpslab.cli", "sample_trig", "trajectory.sample", _count_result_len("trajectory.samples")),
    ("tpslab.cli", "evolve_under_hamiltonian", "trajectory.sample", _count_result_len("trajectory.samples")),
    ("tpslab.construct", "sample_trig", "trajectory.sample", _count_result_len("trajectory.samples")),
    ("numpy.linalg", "svd", "kernel.svd", _count_svd_matrices),
    ("numpy.linalg", "eigh", "kernel.eigh", None),
    ("numpy.linalg", "eigvalsh", "kernel.eigh", None),
)


class Tracer:
    """Records spans in memory while installed; see the module docstring."""

    def __init__(self, seams=SEAMS):
        self.seams = seams
        self.spans = []  # [id, name, parent id or None, start, end]
        self.counts = Counter()
        self.values = {}  # per-call quality numbers, e.g. restart objectives
        self.absent = []
        self._stack = []
        self._originals = []

    def _wrap(self, fn, name, counter, kernel):
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            # numpy.linalg is called from everywhere; only tpslab's calls count
            if kernel and not sys._getframe(1).f_globals.get("__name__", "").startswith("tpslab"):
                return fn(*args, **kwargs)
            span = [len(tracer.spans), name, tracer._stack[-1] if tracer._stack else None, 0.0, 0.0]
            tracer.spans.append(span)
            tracer._stack.append(span[0])
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                tracer._stack.pop()
            tracer.counts[name + ".calls"] += 1
            if counter is not None:
                counter(tracer.counts, tracer.values, args, result)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, counter in self.seams:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counter, name.startswith(KERNEL)))

    def restore(self) -> None:
        while self._originals:
            module, attr, fn = self._originals.pop()
            setattr(module, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def layer_times(self) -> tuple[Counter, Counter]:
        """Total and self seconds per span name.

        Self time is a span's duration minus the durations of its non-kernel
        children; single-threaded children never overlap, so no interval
        arithmetic is needed.
        """
        total, child = Counter(), Counter()
        for sid, name, parent, start, end in self.spans:
            total[name] += end - start
            if parent is not None and not name.startswith(KERNEL):
                child[parent] += end - start
        self_time = Counter()
        for sid, name, parent, start, end in self.spans:
            self_time[name] += (end - start) - child[sid]
        return total, self_time
