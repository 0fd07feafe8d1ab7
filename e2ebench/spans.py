"""Layer spans for the traced benchmark pass.

The benchmark wraps calls into each layer's public functions from the
outside: nothing in ``src/repro`` is edited.  A wrapper records one span
per call; a layer's self time is its spans' time minus the time covered by
child spans.  Spans are folded into per-layer totals as they close and kept
in memory; the caller writes them once at the end of the run.

Callbacks handed to the kernel (``EventQueue.schedule``/``schedule_at``,
which ``Component.schedule``/``call_after`` reach) are attributed to the
layer of the module that defines them; channel deliveries
(``Component._dispatch``) to the layer of the receiving component.
Callbacks handed to the transport (socket and connection handlers) are
attributed the same way, so application time is split from protocol time.

Layers are named after ``src/repro`` subpackages.  Install the wrappers
before the workload is built, so that bound methods components cache at
construction pick them up, and remove them with :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import importlib
import statistics
import time
from typing import Callable, Dict, List, Tuple

#: Module prefix -> layer, most specific first.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.kernel", "kernel"),
    ("repro.parallel.shm_ring", "parallel.shm_ring"),
    ("repro.parallel", "parallel"),
    ("repro.channels.trunk", "channels.trunk"),
    ("repro.channels.wire", "channels.wire"),
    ("repro.channels", "channels"),
    ("repro.netsim.routing", "netsim.routing"),
    ("repro.netsim.link", "netsim.link"),
    ("repro.netsim.switch", "netsim.switch"),
    ("repro.netsim.queues", "netsim.queues"),
    ("repro.netsim.transport", "netsim.transport"),
    ("repro.netsim.apps", "netsim.apps"),
    ("repro.netsim.fluid", "netsim.fluid"),
    ("repro.netsim", "netsim"),
    ("repro.hostsim", "hostsim"),
    ("repro.nicsim", "nicsim"),
    ("repro.obs.timeline", "obs.timeline"),
    ("repro.obs.audit", "obs.audit"),
    ("repro.obs", "obs"),
    ("repro.orchestration", "orchestration"),
)

#: (module, class or None, attribute, layer) of every wrapped function.
#: Module-level functions are also replaced in the modules that imported
#: them by name (listed after a ``|``).
WRAPPED: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.parallel.simulation", "Simulation", "run", "parallel"),
    ("repro.kernel.component", "Component", "advance", "kernel"),
    ("repro.kernel.events", "EventQueue", "run_until", "kernel"),
    ("repro.channels.channel", "ChannelEnd", "send", "channels"),
    ("repro.channels.channel", "ChannelEnd", "poll", "channels"),
    ("repro.channels.channel", "ChannelEnd", "maybe_sync", "channels"),
    ("repro.channels.channel", "ChannelEnd", "flush", "channels"),
    ("repro.channels.trunk", "TrunkPort", "send", "channels.trunk"),
    ("repro.channels.trunk", "TrunkEnd", "dispatch", "channels.trunk"),
    ("repro.channels.wire", None, "encode|repro.parallel.shm_ring",
     "channels.wire"),
    ("repro.channels.wire", None, "decode|repro.parallel.shm_ring",
     "channels.wire"),
    ("repro.parallel.shm_ring", "ShmRing", "send_batch", "parallel.shm_ring"),
    ("repro.parallel.shm_ring", "ShmRing", "recv_batch", "parallel.shm_ring"),
    ("repro.netsim.link", "LinkDirection", "transmit", "netsim.link"),
    ("repro.netsim.switch", "Switch", "receive", "netsim.switch"),
    ("repro.netsim.queues", "DropTailQueue", "enqueue", "netsim.queues"),
    ("repro.netsim.queues", "DropTailQueue", "dequeue", "netsim.queues"),
    ("repro.netsim.transport.stack", "Stack", "handle_packet",
     "netsim.transport"),
    ("repro.netsim.transport.stack", "UdpSocket", "sendto",
     "netsim.transport"),
    ("repro.netsim.transport.tcp", "TcpConnection", "send",
     "netsim.transport"),
    ("repro.netsim.routing", None, "compute_fib|repro.netsim.topology",
     "netsim.routing"),
    ("repro.orchestration.instantiate", "Instantiation", "build",
     "orchestration"),
    ("repro.obs.timeline", "TimelineRecorder", "sample", "obs.timeline"),
    ("repro.obs.timeline", "TimelineRecorder", "start", "obs.timeline"),
    ("repro.obs.audit", "AuditRecorder", "on_round", "obs.audit"),
    ("repro.obs.audit", "AuditRecorder", "finish", "obs.audit"),
)


def layer_of_module(module) -> str:
    """Layer of a ``repro`` module name (``"other"`` outside the package)."""
    if module:
        for prefix, layer in MODULE_LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return "other"


class SpanRecorder:
    """Folds nested spans into per-layer self time and call counts."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        #: layer -> spans that closed directly inside one of its spans
        self.child_calls: Dict[str, int] = {}
        #: time covered by outermost spans (the rest is unattributed)
        self.root_s = [0.0]
        self._stack: List[float] = []
        self._kids: List[int] = []

    def reset(self) -> None:
        """Forget everything recorded (the wrappers keep working)."""
        self.self_s.clear()
        self.calls.clear()
        self.child_calls.clear()
        self.root_s[0] = 0.0
        self._stack.clear()
        self._kids.clear()

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "child_calls": dict(self.child_calls),
                "root_s": self.root_s[0]}

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` recording one ``layer`` span per call."""
        stack, kids = self._stack, self._kids
        self_s, calls, child_calls = self.self_s, self.calls, self.child_calls
        root_s = self.root_s
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            kids.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                self_s[layer] = self_s.get(layer, 0.0) + dt - child
                calls[layer] = calls.get(layer, 0) + 1
                child_calls[layer] = child_calls.get(layer, 0) + kids.pop()
                if stack:
                    stack[-1] += dt
                    kids[-1] += 1
                else:
                    root_s[0] += dt

        span.__wrapped__ = fn
        return span


def _noop() -> None:
    pass


def span_cost(n: int = 10_000, rounds: int = 15) -> Tuple[float, float]:
    """Seconds one span adds inside itself and to its parent's self time.

    Measured on a no-op, median over ``rounds``; the traced pass subtracts
    ``calls * inside + child_calls * outside`` from each layer's self time.
    """
    inside, outside = [], []
    for _ in range(rounds):
        probe = SpanRecorder()
        inner = probe.wrap("inner", _noop)

        def wrapped_loop():
            for _ in range(n):
                inner()

        def plain_loop():
            for _ in range(n):
                _noop()

        probe.wrap("wrapped", wrapped_loop)()
        probe.wrap("plain", plain_loop)()
        inside.append(probe.self_s["inner"] / n)
        outside.append((probe.self_s["wrapped"] - probe.self_s["plain"]) / n)
    return statistics.median(inside), max(0.0, statistics.median(outside))


def _invoke(fn, *args):
    return fn(*args)


class Tracer:
    """Installs span wrappers into the ``repro`` layers and removes them."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[object, str, object]] = []
        #: layer -> span-recording trampoline ``caller(fn, *args)``
        self._callers: Dict[str, Callable] = {}
        self._caller_set: set = set()
        self._module_layer: Dict[str, str] = {}

    def _caller(self, layer: str) -> Callable:
        caller = self._callers.get(layer)
        if caller is None:
            caller = self._callers[layer] = self.recorder.wrap(layer, _invoke)
            self._caller_set.add(caller)
        return caller

    def _callback_layer(self, fn, owner) -> str:
        if getattr(fn, "__name__", None) == "_dispatch" and owner is not None:
            module = type(owner).__module__
        else:
            module = getattr(fn, "__module__", None)
        layer = self._module_layer.get(module)
        if layer is None:
            layer = self._module_layer[module] = layer_of_module(module)
        return layer

    def _set(self, target, attr: str, value) -> None:
        self._saved.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def install(self) -> None:
        """Wrap every function in :data:`WRAPPED` plus the callback and
        handler entry points of the kernel and the transport."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrap = self.recorder.wrap
        for module_name, cls_name, attr, layer in WRAPPED:
            module = importlib.import_module(module_name)
            attr, _, importers = attr.partition("|")
            if cls_name is None:
                wrapped = wrap(layer, getattr(module, attr))
                self._set(module, attr, wrapped)
                for other in filter(None, importers.split(",")):
                    self._set(importlib.import_module(other), attr, wrapped)
            else:
                cls = getattr(module, cls_name)
                self._set(cls, attr, wrap(layer, cls.__dict__[attr]))
        self._install_callbacks()
        self._install_handlers()
        self._install_audit_hook()

    def _install_callbacks(self) -> None:
        from repro.kernel.events import EventQueue
        callers = self._caller_set
        layer_of = self._callback_layer
        caller_for = self._caller
        orig_at = EventQueue.schedule_at
        orig = EventQueue.schedule

        def schedule_at(queue, owner, ts, fn, *args):
            if fn in callers:  # rescheduled event: already wrapped
                return orig_at(queue, owner, ts, fn, *args)
            caller = caller_for(layer_of(fn, owner))
            return orig_at(queue, owner, ts, caller, fn, *args)

        def schedule(queue, ts, fn, *args, owner=None):
            if fn in callers:
                return orig(queue, ts, fn, *args, owner=owner)
            caller = caller_for(layer_of(fn, owner))
            return orig(queue, ts, caller, fn, *args, owner=owner)

        self._set(EventQueue, "schedule_at", schedule_at)
        self._set(EventQueue, "schedule", schedule)

    def _install_handlers(self) -> None:
        """Wrap application handlers handed to the transport layer."""
        from repro.netsim.transport.stack import Stack
        wrap = self.recorder.wrap

        def handler_span(fn):
            if fn is None:
                return None
            return wrap(layer_of_module(getattr(fn, "__module__", None)), fn)

        orig_udp, orig_listen = Stack.udp_socket, Stack.tcp_listen
        orig_connect = Stack.tcp_connect

        def udp_socket(stack, port=None, on_dgram=None):
            return orig_udp(stack, port, handler_span(on_dgram))

        def tcp_listen(stack, port, on_conn, *args, **kwargs):
            return orig_listen(stack, port, handler_span(on_conn),
                               *args, **kwargs)

        def tcp_connect(stack, *args, on_connected=None, **kwargs):
            return orig_connect(stack, *args,
                                on_connected=handler_span(on_connected),
                                **kwargs)

        self._set(Stack, "udp_socket", udp_socket)
        self._set(Stack, "tcp_listen", tcp_listen)
        self._set(Stack, "tcp_connect", tcp_connect)

    def _install_audit_hook(self) -> None:
        """Span the audit ledger's per-event hook, installed by its start."""
        from repro.obs.audit import AuditRecorder
        wrap = self.recorder.wrap
        orig_start = AuditRecorder.__dict__["start"]

        def start(audit, until_ps):
            orig_start(audit, until_ps)
            for queue, _prev in audit._installed:
                queue.trace = wrap("obs.audit", queue.trace)

        self._set(AuditRecorder, "start", wrap("obs.audit", start))

    def uninstall(self) -> None:
        """Restore every wrapped function, newest first."""
        while self._saved:
            target, attr, value = self._saved.pop()
            setattr(target, attr, value)
