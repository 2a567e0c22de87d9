"""Span recorder for the traced run, and the per-layer metrics built from it.

The recorder wraps public functions where one ``spherefit`` module calls
another (``synth -> match``, ``match -> reconstruct``, ``cli -> fileio``,
...) by swapping the name in the calling module's namespace, so calls
inside a module, such as the epipolar distances inside ``match``, are left
alone.  The one exception is ``synth.reconstruct_subset``, which the sweep
calls from inside ``synth`` once per trial; its span is the per-trial time.
The package itself is not changed.

Each span keeps its name, start, end, parent, operation id, a raised flag
and one number taken from the call (rows read, bytes written, matches
kept, ...).  Spans stay in memory, in flat arrays, until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import statistics
import time
from array import array

import numpy as np

from spherefit import cli, fileio, match, synth


def _views(args, result):
    return len(args[0])


def _accepted(args, result):
    return float(result.accepted)


def _kept(args, result):
    return len(result.matches)


def _pairs(args, result):
    return math.comb(len(args[0].views), 2)


def _rows(args, result):
    return len(result)


def _file_bytes(args, result):
    return os.path.getsize(args[1])


def _text_bytes(args, result):
    return len(args[1].encode())


#: (calling module, name in it, span name, value taken from the call).
BOUNDARIES = (
    (synth, "reconstruct_subset", "synth.reconstruct_subset", _views),
    (synth, "classify_spherical", "gate.classify_spherical", _accepted),
    (synth, "match_ellipses", "match.match_ellipses", _kept),
    (synth, "reconstruct_sphere", "reconstruct.reconstruct_sphere", _views),
    (synth, "best_pair", "netselect.best_pair", _pairs),
    (match, "reconstruct_sphere", "reconstruct.reconstruct_sphere", _views),
    (match, "project_sphere_into_view", "projection.project_sphere_into_view", None),
    (cli, "classify_spherical", "gate.classify_spherical", _accepted),
    (cli, "match_ellipses", "match.match_ellipses", _kept),
    (cli, "best_pair", "netselect.best_pair", _pairs),
)

#: fileio functions the CLI calls, and the value each span keeps.
FILEIO = {
    "load_network": None,
    "load_ellipses": _rows,
    "save_ellipses": _file_bytes,
    "save_spheres": _file_bytes,
    "save_network": _file_bytes,
    "atomic_write_text": _text_bytes,
}


class _ModuleView:
    """Stands in for a module inside one caller: the given functions are
    traced, every other attribute is the module's own."""

    def __init__(self, module, traced: dict):
        self._module = module
        self.__dict__.update(traced)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


class Recorder:
    """Flat in-memory span store plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._codes: dict = {}
        self.code = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.raised = array("b")
        self.value = array("d")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._op = -1
        self._patches = [(module, attr, getattr(module, attr),
                          self.wrap(name, getattr(module, attr), value))
                         for module, attr, name, value in BOUNDARIES]
        view = _ModuleView(fileio, {attr: self.wrap(f"fileio.{attr}", getattr(fileio, attr), value)
                                    for attr, value in FILEIO.items()})
        self._patches.append((cli, "fileio", cli.fileio, view))

    def _open(self, name: str) -> int:
        code = self._codes.setdefault(name, len(self._codes))
        if code == len(self.names):
            self.names.append(name)
        index = len(self.code)
        self.code.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.raised.append(0)
        self.value.append(0.0)
        self.end.append(math.nan)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int, raised: bool) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()
        self.raised[index] = raised

    def wrap(self, name: str, fn, value=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(index, True)
                raise
            self._close(index, False)
            if value is not None:
                self.value[index] = value(args, result)
            return result
        return traced

    @contextlib.contextmanager
    def operation(self, op_id: int, name: str):
        """Trace one benchmark operation as a root span named ``name``."""
        for module, attr, _, traced in self._patches:
            setattr(module, attr, traced)
        self._op = op_id
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index, False)
            self._op = -1
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)


class SpanTable:
    """The recorded spans as numpy arrays, with child and self times."""

    def __init__(self, recorder: Recorder):
        self.names = recorder.names
        self.code = np.frombuffer(recorder.code, dtype=np.int32)
        self.parent = np.frombuffer(recorder.parent, dtype=np.int32)
        self.op = np.frombuffer(recorder.op, dtype=np.int32)
        self.raised = np.frombuffer(recorder.raised, dtype=np.int8).astype(bool)
        self.value = np.frombuffer(recorder.value)
        self.duration = np.frombuffer(recorder.end) - np.frombuffer(recorder.start)
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.duration[has_parent],
                            minlength=len(self.code))
        self.self_time = self.duration - child

    def select(self, name: str, parent: str | None = None, ops=None) -> np.ndarray:
        """Mask of spans called ``name``, optionally under a parent called
        ``parent`` and inside the operations ``ops``."""
        if name not in self.names:
            return np.zeros(len(self.code), dtype=bool)
        mask = self.code == self.names.index(name)
        if parent is not None:
            parent_code = self.names.index(parent) if parent in self.names else -2
            parent_of = np.where(self.parent >= 0, self.code[self.parent], -1)
            mask &= parent_of == parent_code
        if ops is not None:
            mask &= np.isin(self.op, list(ops))
        return mask


def time_share(table: SpanTable, layer: str) -> float:
    """Share of the traced operations' time spent inside ``layer``: the
    inclusive time of its outermost spans over the time of the root spans."""
    layer_of = np.array([name.split(".")[0] for name in table.names])[table.code]
    parent_layer = np.where(table.parent >= 0, layer_of[table.parent], "")
    outermost = (layer_of == layer) & (parent_layer != layer) & (table.parent >= 0)
    total = table.duration[table.parent < 0].sum()
    return float(table.duration[outermost].sum() / total) if total else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def layer_metrics(table: SpanTable, first_pass: set) -> dict:
    """Per-layer metrics from the spans.  Counts come from the traced
    operations of the first pass over the inputs, so that they repeat
    exactly for a fixed seed; times use every traced operation."""
    span = table.select
    match_all = span("match.match_ellipses")
    match_first = span("match.match_ellipses", ops=first_pass)
    hyp_all = span("reconstruct.reconstruct_sphere", parent="match.match_ellipses")
    hyp_first = span("reconstruct.reconstruct_sphere", parent="match.match_ellipses",
                     ops=first_pass)
    track_all = span("reconstruct.reconstruct_sphere", parent="synth.reconstruct_subset")
    track_first = span("reconstruct.reconstruct_sphere", parent="synth.reconstruct_subset",
                       ops=first_pass)
    reproject_all = span("projection.project_sphere_into_view")
    gate_all = span("gate.classify_spherical")
    gate_first = span("gate.classify_spherical", ops=first_pass)
    pair_all = span("netselect.best_pair")
    trials = span("synth.reconstruct_subset")
    load_ellipses = span("fileio.load_ellipses")
    writes = np.zeros(len(table.code), dtype=bool)
    for attr in ("save_ellipses", "save_spheres", "save_network", "atomic_write_text"):
        writes |= span(f"fileio.{attr}", ops=first_pass)
    roots = span("cli.main")
    dur, self_time, value = table.duration, table.self_time, table.value
    hypotheses = int(hyp_first.sum())
    gate_calls = int(gate_first.sum())
    trials_k2 = trials & (value == 2)
    trials_k8 = trials & (value == 8)
    return {
        **{f"{layer}.time_share": time_share(table, layer)
           for layer in ("match", "netselect", "gate", "fileio")},
        "match.calls": int(match_first.sum()),
        "match.ms_per_pair": 1e3 * _mean(dur[match_all]),
        "match.self_ms_per_pair": 1e3 * _mean(self_time[match_all]),
        "match.hypotheses": hypotheses,
        "match.kept_share": float(value[match_first].sum()) / hypotheses if hypotheses else 0.0,
        "reconstruct.hypothesis_us": 1e6 * _mean(dur[hyp_all]),
        "reconstruct.track_us": 1e6 * _mean(dur[track_all]),
        "reconstruct.track_calls": int(track_first.sum()),
        "reconstruct.degenerate": int((table.raised & (hyp_first | track_first)).sum()),
        "projection.reproject_us": 1e6 * _mean(dur[reproject_all]),
        "projection.reproject_calls": int(span("projection.project_sphere_into_view",
                                               ops=first_pass).sum()),
        "gate.calls": gate_calls,
        "gate.us_per_call": 1e6 * _mean(dur[gate_all]),
        "gate.accept_share": float(value[gate_first].sum()) / gate_calls if gate_calls else 0.0,
        "netselect.best_pair_ms": 1e3 * _mean(dur[pair_all]),
        "netselect.pairs_scored": int(value[span("netselect.best_pair", ops=first_pass)].sum()),
        "fileio.load_ellipses_ms": 1e3 * _mean(dur[load_ellipses]),
        "fileio.load_ellipses_rows_per_s": (float(value[load_ellipses].sum() / dur[load_ellipses].sum())
                                            if load_ellipses.any() else 0.0),
        "fileio.save_ellipses_ms": 1e3 * _mean(dur[span("fileio.save_ellipses")]),
        "fileio.write_bytes": int(value[writes].sum()),
        "fileio.load_network_ms": 1e3 * _mean(dur[span("fileio.load_network")]),
        "synth.trial_ms.k2.p50": 1e3 * _median(dur[trials_k2]),
        "synth.trial_ms.k8.p50": 1e3 * _median(dur[trials_k8]),
        "synth.merge_self_ms": 1e3 * _median(self_time[trials_k8]),
        "cli.self_ms": 1e3 * _mean(self_time[roots]),
    }
