"""In-memory span tracing by wrapping golfer's public functions from outside.

A traced run replaces each wrapped function where the program looks it up (a
module attribute or a class attribute) with a wrapper that records a span:
name, start, end, parent span and the current item id. Counters wrap a call
site the same way but record only how often it ran. Nothing inside the
program changes; uninstalling puts the original objects back.

A wrapped name that no longer exists is listed in `absent`, and the metrics
built on it are left out instead of failing the run.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict

from golfer import ensemble, model, numerics, scene, training

# (layer name, owner, attribute): the owner is where the program looks the
# function up, so every caller inside golfer reaches the wrapper.
SPAN_TARGETS = (
    ("scene.generate", scene, "generate_dataset"),
    ("scene.write_dataset", scene, "write_dataset"),
    ("scene.read_dataset", scene, "read_dataset"),
    ("scene.goal_masking", training, "apply_goal_masking"),
    ("model.forward", model, "forward_nodes"),
    ("model.forward", training, "forward_nodes"),
    ("model.encode_element", model, "encode_element"),
    ("mnm.query_block", model, "mnm_query"),
    ("model.interact", model, "interact"),
    ("model.decode", model, "decode"),
    ("model.save", model, "save_params"),
    ("model.load", model, "load_params"),
    ("numerics.backward", numerics.Tape, "backward"),
    ("training.loss", training, "total_loss_nodes"),
    ("training.optimizer_step", training, "optimizer_step"),
    ("ensemble.kmeans", ensemble, "weighted_kmeans"),
)
COUNT_TARGETS = (("numerics.tape_records", numerics.Tape, "record"),)


class Tracer:
    """Spans as [name, start, end, parent index, item id, phase] lists."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.phase = "setup"
        self.item = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, self.phase]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(name, self.phase)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        targets = [(n, o, a, self._span_wrapper) for n, o, a in SPAN_TARGETS]
        targets += [(n, o, a, self._count_wrapper) for n, o, a in COUNT_TARGETS]
        installed = set()
        for name, owner, attr, make in targets:
            original = getattr(owner, attr, None)
            if original is not None:
                self._saved.append((owner, attr, original))
                setattr(owner, attr, make(name, original))
                installed.add(name)
        self.absent = sorted({name for name, *_ in targets} - installed)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reduction ----------------------------------------------------------

    def phase_spans(self, phase: str) -> list[list]:
        return [s for s in self.spans if s[5] == phase]

    def self_times(self, phase: str) -> dict[int, float]:
        """Span index -> duration minus the time its direct children cover."""
        own = {}
        for index, span in enumerate(self.spans):
            if span[5] == phase:
                own[index] = own.get(index, 0.0) + span[2] - span[1]
                if span[3] >= 0:
                    own[span[3]] = own.get(span[3], 0.0) - (span[2] - span[1])
        return own

    def dump(self, path, summary: dict) -> None:
        """Write the spans (times relative to the first span) and a summary."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[s[0], round(s[1] - origin, 9), round(s[2] - origin, 9), s[3], s[4], s[5]]
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"summary": summary,
                       "fields": ["name", "start_s", "end_s", "parent", "item", "phase"],
                       "spans": rows}, fh)
