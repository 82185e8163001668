"""Spans recorded around calls into polarlab, from the benchmark's side.

A wrapper replaces a module-level function or a class method for the
traced part of a run and is removed afterwards; nothing under ``src/``
changes. Each span is ``[name, start, end, parent, value]`` with ``parent``
the index of the enclosing span (-1 at top level). Spans stay in memory and
are written once, when the run ends.
"""

import contextlib
import functools
import json
import pickle
import statistics
import time
from collections import defaultdict

LAYER_TYPES = ("Affine", "Conv1D", "MaxPool1D", "ReLU", "Sigmoid", "LSTM")
POLAR_BUSY = ("encode", "bpsk_modulate", "awgn_channel", "sc_decode_batch")
SETUP_BUSY = ("gen_dataset", "save_checkpoint", "load_checkpoint")
POOL_SUBMIT = "evaluation.pool.submit"


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def _open(self, name, value=None):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, value])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def event(self, name, value):
        self._open(name, value)
        self._close()

    def wrap(self, owner, attr, name):
        original = vars(owner)[attr]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self._close()

        self._patch(owner, attr, traced, original)

    def count_pool_submits(self, module):
        """Record the pickled size of every task the module's process pool
        is handed. Only the parent calls ``submit``."""
        tracer = self
        base = module.ProcessPoolExecutor

        class CountingPool(base):
            def submit(self, fn, /, *args, **kwargs):
                tracer.event(POOL_SUBMIT, len(pickle.dumps((fn, args, kwargs))))
                return super().submit(fn, *args, **kwargs)

        self._patch(module, "ProcessPoolExecutor", CountingPool, base)

    def _patch(self, owner, attr, new, original):
        setattr(owner, attr, new)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def groups(self, name):
        """Index ranges of the spans inside each top-level span ``name``."""
        tops = [i for i, s in enumerate(self.spans) if s[3] == -1]
        ends = tops[1:] + [len(self.spans)]
        return [(i + 1, end) for i, end in zip(tops, ends)
                if self.spans[i][0] == name]

    def stats(self, lo, hi):
        """Per span name over ``spans[lo:hi]``: count, busy seconds (spans not
        nested in a span of the same name), self seconds (minus child
        spans), summed values and counts of direct children by name."""
        spans = self.spans
        child_time = defaultdict(float)
        for i in range(lo, hi):
            if spans[i][3] >= lo:
                child_time[spans[i][3]] += spans[i][2] - spans[i][1]
        out = defaultdict(lambda: {"count": 0, "busy": 0.0, "self": 0.0,
                                   "value": 0, "children": defaultdict(int)})
        for i in range(lo, hi):
            name, start, end, parent, value = spans[i]
            s = out[name]
            s["count"] += 1
            s["self"] += end - start - child_time[i]
            s["value"] += value or 0
            if parent >= lo:
                out[spans[parent][0]]["children"][name] += 1
            p = parent
            while p >= lo and spans[p][0] != name:
                p = spans[p][3]
            if p < lo:
                s["busy"] += end - start
        return out

    def write(self, path, header):
        with open(path, "w") as fh:
            json.dump({**header, "spans": self.spans,
                       "span_fields": ["name", "start", "end", "parent", "value"]}, fh)


def ber_blocks(stats):
    """Monte-Carlo blocks: tasks handed to the pool, or, in the serial
    branch, encodes called straight from ber_eval (one per block)."""
    blocks = stats[POOL_SUBMIT]["count"] if POOL_SUBMIT in stats else 0
    if "evaluation.ber_eval" in stats:
        blocks += stats["evaluation.ber_eval"]["children"]["polar.encode"]
    return blocks


def layer_metrics(tracer, rounds, retained, checkpoint_bytes, overhead_pct):
    """Every per-layer metric, as {name: (value, unit)}.

    Times and counts are per round (median over the traced rounds); set-up
    numbers are the median over the set-ups. ``rounds`` carries each traced
    round's CPU seconds of this process and of its waited-for children.
    """
    per_round = [tracer.stats(lo, hi) for lo, hi in tracer.groups("round")]
    per_setup = [tracer.stats(lo, hi) for lo, hi in tracer.groups("setup")]

    def med(stats, name, key):
        return statistics.median(s[name][key] if name in s else 0 for s in stats)

    def count(name, key="count"):
        return int(med(per_round, name, key))

    m = {}
    for t in LAYER_TYPES:
        m[f"nn.{t}.fwd_s"] = (med(per_round, f"nn.{t}.forward", "busy"), "s")
        m[f"nn.{t}.bwd_s"] = (med(per_round, f"nn.{t}.backward", "busy"), "s")
        m[f"nn.{t}.calls"] = (count(f"nn.{t}.forward"), "count")
    m["nn.Adam.step_s"] = (med(per_round, "nn.Adam.step", "busy"), "s")
    for name in ("models.Model.loss", "models.Model.forward", "training.train",
                 "evaluation.ber_eval", "evaluation.snr_gain", "evaluation.pdf_hist"):
        m[f"{name}.self_s"] = (med(per_round, name, "self"), "s")
    for name in POLAR_BUSY:
        m[f"polar.{name}.busy_s"] = (med(per_round, f"polar.{name}", "busy"), "s")
    m["polar.bit_reversal_permutation.calls"] = (
        count("polar.bit_reversal_permutation"), "count")
    m["evaluation.blocks"] = (int(statistics.median(ber_blocks(s) for s in per_round)),
                              "count")
    for family, size in retained.items():
        m[f"nn.retained_bytes.{family}"] = (size, "bytes")
    m["evaluation.pool.bytes_sent"] = (count(POOL_SUBMIT, "value"), "bytes")
    m["evaluation.pool.parent_cpu_s"] = (
        statistics.median(r["parent_cpu_s"] for r in rounds), "s")
    m["evaluation.pool.child_cpu_s"] = (
        statistics.median(r["child_cpu_s"] for r in rounds), "s")
    for name in SETUP_BUSY:
        m[f"training.{name}.busy_s"] = (med(per_setup, f"training.{name}", "busy"), "s")
    m["training.checkpoint_bytes"] = (checkpoint_bytes, "bytes")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return m
