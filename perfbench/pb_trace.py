"""Per-layer timing for the archive benchmark, installed from outside ``src/``.

:class:`LayerClock` times one span per call into a layer; its parent is
the innermost span still open on the same thread.  A span's *self time*
is its duration minus the durations of its children; spans on other
threads never subtract, because they ran concurrently rather than
inside it.  The clock keeps per-layer sums of self time and call counts
over every thread, alongside per-layer counters.

:class:`Instrumentation` wraps the public functions of the ``repro``
modules listed in :data:`TARGETS` so every call records a span, and puts
every original object back on :meth:`Instrumentation.remove`.  A
module that did ``from x import f`` holds its own reference to ``f``, so
every loaded ``repro`` module binding the same object is patched too.
:func:`assert_uninstrumented` proves no wrapper is left anywhere before
an untraced measurement.

:func:`phase_breakdown` reads a job's own merged trace and counts only
the client's top-level phases, so the grafted server-side ``query``
root of a remote job is never counted a second time.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import threading
import time

#: attribute marking a benchmark wrapper (found by assert_uninstrumented)
WRAPPER_MARK = "__perfbench_layer__"


class _ThreadState:
    __slots__ = ("stack", "self_s", "calls", "counts")

    def __init__(self):
        #: open spans on this thread: [name, started_at, child_seconds]
        self.stack = []
        self.self_s = {}
        self.calls = {}
        self.counts = {}


class LayerClock:
    """Self time and counters per layer, summed over all threads.

    ``now`` is the clock spans read (``time.perf_counter``).
    """

    def __init__(self, now=time.perf_counter):
        self._now = now
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def enter(self, name):
        self._state().stack.append([name, self._now(), 0.0])

    def exit(self):
        ended = self._now()
        state = self._state()
        name, started, child_s = state.stack.pop()
        duration = ended - started
        if state.stack:
            state.stack[-1][2] += duration
        state.self_s[name] = state.self_s.get(name, 0.0) + duration - child_s
        state.calls[name] = state.calls.get(name, 0) + 1

    def span(self, name):
        """Context manager recording one span around its body."""
        return _Span(self, name)

    def count(self, name, n=1):
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + n

    def _merged(self, attr):
        with self._lock:
            states = list(self._states)
        merged = {}
        for state in states:
            for name, value in getattr(state, attr).copy().items():
                merged[name] = merged.get(name, 0) + value
        return merged

    def self_seconds(self):
        """``{layer: self seconds}`` summed over every thread."""
        return self._merged("self_s")

    def calls(self):
        """``{layer: completed spans}`` summed over every thread."""
        return self._merged("calls")

    def counts(self):
        """``{counter: total}`` summed over every thread."""
        return self._merged("counts")


class _Span:
    __slots__ = ("clock", "name")

    def __init__(self, clock, name):
        self.clock = clock
        self.name = name

    def __enter__(self):
        self.clock.enter(self.name)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.clock.exit()
        return False


# ----------------------------------------------------------------------
# wrapping the program's layers
# ----------------------------------------------------------------------


def _count_predicate_rows(clock, args, result):
    clock.count("query.rows_examined", len(args[0]))


def _count_encoded_bytes(clock, args, result):
    clock.count("net.wire_bytes", len(result[1]))


def _count_decoded_rows(clock, args, result):
    clock.count("net.wire_rows", len(result))


def _wrap_predicate_factory(clock, args, result):
    """compile_predicate returns the callable the scan runs per morsel;
    time those calls as ``query.predicate``."""
    return _wrapped(result, clock, "query.predicate", _count_predicate_rows)


#: (module, attribute, layer, hook).  An attribute ``Class.method``
#: wraps a method on the class.  A hook runs after each call with
#: ``(clock, args, result)``; a hook returning non-None replaces the
#: result (used to wrap the predicates compile_predicate returns).
TARGETS = (
    ("repro.machines.sweep", "SweepScanner.step", "machines.sweep_step", None),
    ("repro.storage.buffer", "BufferPool.fetch_many", "storage.fetch", None),
    ("repro.catalog.table", "ObjectTable.concat_all", "catalog.concat", None),
    ("repro.query.predicates", "compile_predicate", "query.plan",
     _wrap_predicate_factory),
    ("repro.htm.cover", "cover_region", "htm.cover", None),
    ("repro.query.parser", "parse_query", "query.parse", None),
    ("repro.query.optimizer", "plan_query", "query.plan", None),
    ("repro.query.optimizer", "split_plan", "distributed.route", None),
    ("repro.distributed.routing", "route_plan", "distributed.route", None),
    # Counted, not reported as time: net.connections_per_op.
    ("repro.net.client", "open_connection", "net.connect", None),
    ("repro.net.client", "authenticate_connection", "net.hello", None),
    ("repro.net.protocol", "table_to_wire", "net.encode", _count_encoded_bytes),
    ("repro.net.protocol", "table_from_wire", "net.decode", _count_decoded_rows),
    ("repro.service.cache", "ResultCache.lookup", "service.cache", None),
    ("repro.service.cache", "ResultCache.fill", "service.cache", None),
    ("repro.service.mydb", "MyDBManager.save", "service.mydb_save", None),
    ("repro.session.core", "Session.submit", "session.submit", None),
    ("repro.obs.trace", "assemble_job_trace", "obs.assemble", None),
)


def _wrapped(fn, clock, layer, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        clock.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            clock.exit()
        if hook is not None:
            replaced = hook(clock, args, result)
            if replaced is not None:
                return replaced
        return result

    setattr(wrapper, WRAPPER_MARK, layer)
    return wrapper


def import_program_modules():
    """Import every ``repro`` module, so none imports a wrapped function
    lazily while wrappers are installed (it would keep the wrapper)."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def _program_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _is_wrapper(value):
    inner = getattr(value, "__func__", value)
    return getattr(inner, WRAPPER_MARK, None) is not None


class Instrumentation:
    """Installs :data:`TARGETS` wrappers feeding one :class:`LayerClock`."""

    def __init__(self, clock):
        self.clock = clock
        #: (owner, attribute, original) for every patched binding
        self._patched = []

    def install(self):
        if self._patched:
            raise RuntimeError("instrumentation is already installed")
        import_program_modules()
        try:
            self._install(_program_modules())
        except BaseException:
            self.remove()
            raise
        return self

    def _install(self, modules):
        for module_name, attr, layer, hook in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                class_name, method = attr.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                if isinstance(original, staticmethod):
                    replacement = staticmethod(
                        _wrapped(original.__func__, self.clock, layer, hook)
                    )
                else:
                    replacement = _wrapped(original, self.clock, layer, hook)
                self._patch(owner, method, original, replacement)
                continue
            original = getattr(module, attr)
            replacement = _wrapped(original, self.clock, layer, hook)
            for holder in modules:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, name, original, replacement)

    def _patch(self, owner, name, original, replacement):
        setattr(owner, name, replacement)
        self._patched.append((owner, name, original))

    def remove(self):
        """Put every original back and check that it is there again."""
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        patched, self._patched = self._patched, []
        for owner, name, original in patched:
            if vars(owner)[name] is not original:
                raise RuntimeError(f"{owner!r}.{name} was not restored")
        assert_uninstrumented()

    def __enter__(self):
        return self.install()

    def __exit__(self, exc_type, exc, tb):
        self.remove()
        return False


def assert_uninstrumented():
    """Raise if any loaded ``repro`` module or class still holds a
    benchmark wrapper (an untraced run must measure the bare program)."""
    for module in _program_modules():
        for name, value in list(vars(module).items()):
            if _is_wrapper(value):
                raise RuntimeError(f"{module.__name__}.{name} is still wrapped")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in list(vars(value).items()):
                    if _is_wrapper(member):
                        raise RuntimeError(
                            f"{module.__name__}.{name}.{attr} is still wrapped"
                        )


# ----------------------------------------------------------------------
# the job's own trace
# ----------------------------------------------------------------------

#: the client-side phases Session.submit records under its ``query`` root
PHASES = ("parse", "plan", "queue", "execute")


def phase_breakdown(trace):
    """Seconds per client phase of one job trace.

    Only direct children of the trace's root ``query`` span count.  A
    remote job's trace also holds the server's own ``query`` root and its
    parse/plan/execute, grafted under a QET node span; summing spans by
    name would count that remote time twice.
    """
    roots = [span for span in trace.roots() if span.name == "query"]
    totals = {phase: 0.0 for phase in PHASES}
    if not roots:
        return totals
    for span in trace.children_of(roots[0]):
        duration = span.duration()
        if span.name in totals and duration is not None:
            totals[span.name] += duration
    return totals
