"""Spans around the public functions of every decopoles layer, from outside.

``Tracer.installed()`` swaps each traced function (and each module-level
alias of it, such as ``preferred_basis.eigh``) for a wrapper that records
a span: id, name, start, end, parent span and op id.  Nothing in ``src/``
changes; leaving the context restores the originals.

Spans stay in memory and are written out once the run ends, except that
only the first ``SPANS_KEPT_PER_NAME`` spans of each name are kept: the
CLI calls ``nd_block`` and ``macroscopicity_check`` once per grid point,
which would be millions of spans per run.  The per-name aggregates count
every call, kept or not: calls, busy time (span duration) and self time
(duration minus the time covered by child spans), plus per-layer
counters.  ``dropped`` holds the number of spans not kept, per name.
"""

from __future__ import annotations

import contextlib
import functools
import json
from time import perf_counter

LAYERS = ("cli", "pole_models", "numerics", "friedrich", "omnes", "preferred_basis")

_COMPLEX_BYTES = 16
SPANS_KEPT_PER_NAME = 5_000


def _rows_of_argument(st, args, kwargs, result, failed):
    st["rows"] = st.get("rows", 0) + len(args[0] if args else kwargs["signal"])


def _rows_of_result(st, args, kwargs, result, failed):
    if not failed:
        st["rows"] = st.get("rows", 0) + len(result)


def _modes_evaluated(st, args, kwargs, result, failed):
    keep = args[2] if len(args) > 2 else kwargs.get("keep")
    st["modes"] = st.get("modes", 0) + (len(args[0].poles) if keep is None else len(keep))


def _modes_dropped(st, args, kwargs, result, failed):
    dropped = args[2] if len(args) > 2 else kwargs["dropped"]
    st["modes"] = st.get("modes", 0) + len(dropped)


def _pencil(st, args, kwargs, result, failed):
    """Accepted fits, and the Hankel block size computed from n and the window."""
    st["accepted"] = st.get("accepted", 0) + (0 if failed else 1)
    n = len(args[0] if args else kwargs["times"])
    order = args[2] if len(args) > 2 else kwargs["order"]
    if order >= 1 and n >= 2 * order + 2:
        window = min(max(n // 2, order), n - order)
        mb = (n - window) * (window + 1) * _COMPLEX_BYTES / 2**20
        st["hankel_mb"] = max(st.get("hankel_mb", 0.0), mb)


def _targets(mods: dict):
    """(span name, layer, [(owner, attribute), ...], counter hook)."""
    cli, pm, nu = mods["cli"], mods["pole_models"], mods["numerics"]
    fr, om, pb = mods["friedrich"], mods["omnes"], mods["preferred_basis"]
    return [
        ("cli.main", "cli", [(cli, "main")], None),
        ("signal_to_csv", "pole_models", [(pm, "signal_to_csv")], _rows_of_argument),
        ("signal_from_csv", "pole_models", [(pm, "signal_from_csv")], _rows_of_result),
        ("synthesize", "pole_models", [(pm, "synthesize"), (pb, "synthesize")], None),
        ("preferred_signal", "pole_models", [(pm, "preferred_signal")], None),
        ("partition_report", "pole_models", [(pm, "partition_report")], None),
        ("CatalogueMatrix.evaluate", "pole_models", [(pm.CatalogueMatrix, "evaluate")], _modes_evaluated),
        ("CatalogueMatrix.dropped_envelope", "pole_models",
         [(pm.CatalogueMatrix, "dropped_envelope")], _modes_dropped),
        ("matrix_pencil_fit", "numerics", [(nu, "matrix_pencil_fit")], _pencil),
        ("fit_residual", "numerics", [(nu, "fit_residual")], None),
        ("eigh", "numerics", [(nu, "eigh"), (pb, "eigh")], None),
        ("DensityMatrix.min_eigenvalue", "numerics", [(nu.DensityMatrix, "min_eigenvalue")], None),
        ("principal_value_integral", "numerics",
         [(nu, "principal_value_integral"), (fr, "principal_value_integral")], None),
        ("perturbative_pole", "friedrich", [(fr, "perturbative_pole")], None),
        ("nd_block", "omnes", [(om, "nd_block")], None),
        ("macroscopicity_check", "omnes", [(om, "macroscopicity_check")], None),
        ("collective_rate", "omnes", [(om, "collective_rate")], None),
        ("frame_catalogue_matrix", "omnes", [(om, "frame_catalogue_matrix")], None),
        ("frame_projection", "omnes", [(om, "frame_projection")], None),
        ("build_density_matrix", "omnes", [(om, "build_density_matrix")], None),
        ("preferred_state", "preferred_basis", [(pb, "preferred_state")], None),
        ("convergence_profile", "preferred_basis", [(pb, "convergence_profile")], None),
        ("moving_eigenbasis", "preferred_basis", [(pb, "moving_eigenbasis")], None),
        ("bifriedrich_run", "preferred_basis", [(pb, "bifriedrich_run")], None),
    ]


class Tracer:
    """In-memory span recorder; install it around traced ops only."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list = []
        self.dropped: dict = {}
        self.stats: dict = {}
        self.layer_of: dict = {}
        self.root_busy = 0.0
        self.density_evals = 0
        self.op = None
        self._stack: list = []
        self._next_id = 0
        self._patches: list = []
        for name, layer, _, _ in _targets(modules):
            self.layer_of[name] = layer
            self.stats[name] = {"calls": 0, "busy": 0.0, "self": 0.0}

    def _wrap(self, name, fn, hook):
        st = self.stats[name]
        stack = self._stack

        def finish(frame, t0, args, kwargs, result, failed):
            t1 = perf_counter()
            stack.pop()
            dur = t1 - t0
            if stack:
                stack[-1][1] += dur
            else:
                self.root_busy += dur
            st["calls"] += 1
            st["busy"] += dur
            st["self"] += dur - frame[1]
            if st["calls"] <= SPANS_KEPT_PER_NAME:
                self.spans.append((frame[0], name, t0, t1, frame[2], self.op))
            else:
                self.dropped[name] = self.dropped.get(name, 0) + 1
            if hook is not None:
                hook(st, args, kwargs, result, failed)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [self._next_id, 0.0, stack[-1][0] if stack else -1]
            self._next_id += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                finish(frame, t0, args, kwargs, None, True)
                raise
            finish(frame, t0, args, kwargs, result, False)
            return result

        return traced

    def _count_density(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.density_evals += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Swap every target for its traced wrapper; restore on exit."""
        wrappers: dict = {}
        try:
            for name, _, places, hook in _targets(self.modules):
                for owner, attr in places:
                    original = owner.__dict__[attr]
                    if id(original) not in wrappers:
                        wrappers[id(original)] = self._wrap(name, original, hook)
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, wrappers[id(original)])
            sd = self.modules["friedrich"].SpectralDensity
            self._patches.append((sd, "__call__", sd.__dict__["__call__"]))
            sd.__call__ = self._count_density(sd.__dict__["__call__"])
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def layer_self(self, layer: str) -> float:
        return sum(st["self"] for n, st in self.stats.items() if self.layer_of[n] == layer)

    def write_spans(self, path: str):
        """One JSON object per span: id, name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")
