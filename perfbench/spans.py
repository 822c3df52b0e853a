"""Span recording from outside the program, and the arithmetic over spans.

A :class:`Tracer` replaces chosen functions and methods of the program
with wrappers that record one span per call — name, start, end, the
span that caused it, and the request it belongs to — in memory, and
:meth:`Tracer.uninstall` puts every original back, so an untraced run
executes the unmodified program. Spans are written out only when the
run ends.

Two kinds of causality are kept:

* ``parent``: the innermost open span on the calling thread;
* ``links``: for work handed to another thread through a future — the
  micro-batch engine's shard workers — the spans that were open when
  each future in the batch was submitted. A batch that serves several
  requests links to all of them.

The analysis functions treat both as children: a span's *self time* is
its duration minus the part of its interval covered by the union of its
children's and linked spans' intervals, whichever thread they ran on.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None = None
    request: int | None = None
    thread: int = 0
    links: tuple[int, ...] = ()
    #: items the call worked on (graphs, records, ...) when known
    items: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(**{**data, "links": tuple(data.get("links", ()))})


@dataclass
class Target:
    """One function to wrap: ``owner.attr`` recorded as span ``name``.

    ``root`` spans open a new request id; ``items`` maps the call's
    arguments to the item count recorded on the span. ``name=None``
    records no span: the call returns futures, and the batch that later
    resolves them links back to the span open at submission. ``batch``
    marks the call that runs such a batch (its first positional argument
    after ``self`` is the list of requests, each with a ``future``).
    """

    owner: object
    attr: str
    name: str | None
    root: bool = False
    items: object = None
    batch: bool = False


@dataclass
class _Open:
    id: int
    request: int | None


class Tracer:
    """In-memory span recorder over monkeypatched program functions."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object, bool]] = []
        #: future -> span open when it was submitted (popped by the batch)
        self._submitted: dict = {}

    # -- recording -----------------------------------------------------
    def _stack(self) -> list[_Open]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1].id if stack else None

    @contextlib.contextmanager
    def span(self, name: str, root: bool = False):
        """Record the ``with`` block as a span; yields its id."""
        opened, start, parent = self._open(root)
        try:
            yield opened.id
        finally:
            self._close(opened, name, start, parent, ())

    def _open(self, root: bool) -> tuple[_Open, float, int | None]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if root or parent is None:
            request = next(self._requests) if root else None
        else:
            request = parent.request
        opened = _Open(next(self._ids), request)
        stack.append(opened)
        return opened, self.clock(), parent.id if parent is not None else None

    def _close(self, opened: _Open, name: str, start: float, parent, links, items=0) -> None:
        end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is opened:
            stack.pop()
        span = Span(
            id=opened.id,
            name=name,
            start=start,
            end=end,
            parent=parent,
            request=opened.request,
            thread=threading.get_ident(),
            links=tuple(links),
            items=items,
        )
        with self._lock:
            self.spans.append(span)

    # -- patching ------------------------------------------------------
    def install(self, targets: list[Target]) -> None:
        """Wrap every target; safe to call again after :meth:`uninstall`."""
        for target in targets:
            owner, attr = target.owner, target.attr
            # a class's own attribute is restored; an inherited method's
            # override is deleted again (modules always own theirs)
            is_class = isinstance(owner, type)
            restore = not is_class or attr in vars(owner)
            original = vars(owner)[attr] if is_class and restore else getattr(owner, attr)
            self._patched.append((owner, attr, original, restore))
            setattr(owner, attr, self._wrapper(original, target))

    def uninstall(self) -> None:
        """Restore every wrapped function, newest first."""
        while self._patched:
            owner, attr, original, restore = self._patched.pop()
            if restore:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        with self._lock:
            self._submitted.clear()

    @property
    def installed(self) -> bool:
        return bool(self._patched)

    def _note_submitted(self, futures) -> None:
        caller = self.current()
        if caller is not None:
            with self._lock:
                for future in futures:
                    self._submitted[future] = caller

    def _take_submitted(self, requests) -> tuple[int, ...]:
        with self._lock:
            found = {self._submitted.pop(r.future, None) for r in requests}
        found.discard(None)
        return tuple(sorted(found))

    def _wrapper(self, original, target: Target):
        tracer = self

        @functools.wraps(original)
        def wrapped(*args, **kwargs):
            if target.name is None:  # a submit hook only, no span
                result = original(*args, **kwargs)
                tracer._note_submitted(result)
                return result
            links: tuple[int, ...] = ()
            if target.batch:
                links = tracer._take_submitted(args[1])
            items = target.items(*args, **kwargs) if target.items else 0
            opened, start, parent = tracer._open(target.root)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(opened, target.name, start, parent, links, items)

        return wrapped


# -- arithmetic ----------------------------------------------------------
def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


@dataclass
class SpanIndex:
    """Spans with their children resolved (parents and links both)."""

    spans: list[Span]
    children: dict[int, list[Span]] = field(init=False)

    def __post_init__(self) -> None:
        self.children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                self.children[span.parent].append(span)
            for link in span.links:
                if link != span.parent:
                    self.children[link].append(span)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_time(self, span: Span) -> float:
        """Duration minus the union of its children's intervals."""
        kids = self.children.get(span.id, ())
        covered = union_length(((k.start, k.end) for k in kids), span.start, span.end)
        return span.duration - covered

    def descendants(self, span: Span) -> list[Span]:
        out: list[Span] = []
        seen = {span.id}
        todo = [span]
        while todo:
            for kid in self.children.get(todo.pop().id, ()):
                if kid.id not in seen:
                    seen.add(kid.id)
                    out.append(kid)
                    todo.append(kid)
        return out

    def time_in(self, span: Span, names: set[str]) -> float:
        """Wall time inside ``span`` covered by descendants named ``names``."""
        intervals = [(d.start, d.end) for d in self.descendants(span) if d.name in names]
        return union_length(intervals, span.start, span.end)

    def total_self(self, name: str) -> float:
        return sum(self.self_time(s) for s in self.named(name))

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))
