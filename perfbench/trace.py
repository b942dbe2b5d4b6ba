"""In-memory spans around widthlab's public functions, installed from outside
the package and removed again when the traced section ends.

A span records a name, a start, an end, the span that was open when it began
(its parent) and a few counters read off the call.  Everything stays in
memory until the run ends; the benchmark is single-threaded, so the open
spans form one stack.
"""
from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, end=0.0, parent=-1, attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent    # index in Tracer.spans, -1 for a root
        self.attrs = attrs      # dict of counters, or None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._open = []

    def begin(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), parent=parent))
        self._open.append(len(self.spans) - 1)
        return self.spans[-1]

    def finish(self, span):
        span.end = self.clock()
        self._open.pop()

    @contextmanager
    def span(self, name):
        sp = self.begin(name)
        try:
            yield sp
        finally:
            self.finish(sp)

    def wrap(self, fn, name, observe=None):
        """`fn` recording one span per call.  `name` is a string or a function
        of (args, kwargs); `observe(span, args, kwargs, result)` runs after
        the span has closed, so its cost is not charged to `fn`."""
        pick = name if callable(name) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sp = self.begin(pick(args, kwargs) if pick else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                sp.attrs = {"raised": type(exc).__name__}
                raise
            finally:
                self.finish(sp)
            if observe is not None:
                observe(sp, args, kwargs, result)
            return result

        return wrapper


# ---------------------------------------------------------------------------
# installing wrappers

def _references(obj, package):
    """(container, key, is_item) for every module attribute, and every entry
    of a module-level dict, of `package` that holds `obj`."""
    refs = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for key, val in list(vars(mod).items()):
            if val is obj:
                refs.append((mod, key, False))
            elif isinstance(val, dict):
                refs.extend((val, k, True) for k, v in val.items() if v is obj)
    return refs


@contextmanager
def instrument(tracer, probes, package="widthlab"):
    """Replace each probed function by its traced wrapper wherever `package`
    refers to it, and put every original back on exit.

    A probe is (owner, attr, name, observe).  A module owner is patched at
    every reference in the package, so `from x import f` copies and lookup
    tables see the wrapper too; a class owner is patched on that class.
    """
    undo = []
    try:
        for owner, attr, name, observe in probes:
            orig = vars(owner)[attr]
            new = tracer.wrap(orig, name, observe)
            refs = [(owner, attr, False)] if isinstance(owner, type) else \
                _references(orig, package)
            for container, key, is_item in refs:
                undo.append((container, key, is_item, orig))
                if is_item:
                    container[key] = new
                else:
                    setattr(container, key, new)
        yield tracer
    finally:
        for container, key, is_item, orig in reversed(undo):
            if is_item:
                container[key] = orig
            else:
                setattr(container, key, orig)


# ---------------------------------------------------------------------------
# span arithmetic

def children_of(spans):
    kids = [[] for _ in spans]
    for i, sp in enumerate(spans):
        if sp.parent >= 0:
            kids[sp.parent].append(i)
    return kids


def self_times(spans):
    """Duration of each span minus the part of it that its child spans
    cover (overlapping children are counted once)."""
    kids = children_of(spans)
    out = []
    for sp, ks in zip(spans, kids):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[k].start, sp.start), min(spans[k].end, sp.end))
                             for k in ks):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(sp.duration - covered)
    return out


def outermost(spans):
    """Flags: True for a span with no ancestor of the same name, so inclusive
    totals do not count recursive calls twice."""
    flags = []
    for sp in spans:
        p = sp.parent
        while p >= 0 and spans[p].name != sp.name:
            p = spans[p].parent
        flags.append(p < 0)
    return flags
