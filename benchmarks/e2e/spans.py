"""In-memory spans for the traced run.

One root span wraps the public call that serves a request; child spans
are the layer calls behind it, *re-executed from the benchmark's files*
on that request's inputs right after the root returns (spans inside
``src/`` are a later change).  Spans of one request share its request
id.  Nothing is written until the run ends.

A layer's self time is computed on quiet times: the fastest root of a
request minus the fastest of each of its children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path


class SpanRecorder:
    """Collects ``(id, parent, request, pass, name, kind, start, end)``."""

    def __init__(self) -> None:
        self._origin = time.perf_counter()
        self.spans: list[dict] = []

    def add(
        self,
        name: str,
        request: int,
        pass_index: int,
        start: float,
        end: float,
        parent: int | None = None,
        kind: str = "call",
    ) -> int:
        """Record one finished span; returns its id.

        ``kind`` is ``"call"`` (the timed public call itself),
        ``"reexec"`` (a layer call repeated on the same inputs) or
        ``"counter"`` (a duration the program reported, e.g. the chain
        walk's ``LinkDecision.elapsed_us``, placed at its parent's
        start).
        """
        span_id = len(self.spans)
        self.spans.append(
            {
                "id": span_id,
                "parent": parent,
                "request": request,
                "pass": pass_index,
                "name": name,
                "kind": kind,
                "start_us": (start - self._origin) * 1e6,
                "end_us": (end - self._origin) * 1e6,
            }
        )
        return span_id

    def quiet_by_request(self) -> dict[int, dict[str | None, dict[str, float]]]:
        """``{request: {parent's name (None for roots): {name: quiet seconds}}}``.

        Spans are grouped by request and by their parent's *name* (the
        same layer call recurs in every pass), and each group keeps its
        fastest repetition.
        """
        names = {span["id"]: span["name"] for span in self.spans}
        quiet: dict = defaultdict(lambda: defaultdict(dict))
        for span in self.spans:
            parent = names.get(span["parent"])
            seconds = (span["end_us"] - span["start_us"]) * 1e-6
            group = quiet[span["request"]][parent]
            group[span["name"]] = min(seconds, group.get(span["name"], float("inf")))
        return quiet

    def self_times(self) -> dict[str, float]:
        """Per span name, quiet self seconds summed over all requests."""
        totals: dict[str, float] = defaultdict(float)
        for groups in self.quiet_by_request().values():
            for parent, members in groups.items():
                for name, seconds in members.items():
                    children = sum(groups.get(name, {}).values())
                    totals[name] += seconds - children
        return dict(totals)

    def child_cover_ratio(self) -> float:
        """Sum of direct children's quiet time over the roots' quiet time."""
        roots = children = 0.0
        for groups in self.quiet_by_request().values():
            for name, seconds in groups.get(None, {}).items():
                roots += seconds
                children += sum(groups.get(name, {}).values())
        return children / roots if roots else 0.0

    def write(self, path: Path, header: dict) -> None:
        """Write the whole trace as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        document = dict(header)
        document["self_seconds"] = self.self_times()
        document["spans"] = self.spans
        path.write_text(json.dumps(document))
