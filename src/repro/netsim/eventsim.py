"""A small discrete-event simulation engine.

The hierarchical state-distribution protocol (paper Section 4) runs on this
engine: proxies are :class:`Process` subclasses, messages are delivered after
the physical delay between sender and receiver, and periodic behaviour is
expressed with :meth:`Simulator.schedule_every`.

The engine is deliberately minimal. One loop, :meth:`Simulator._run`,
drains the event heap; ``run_until``, ``run_all`` and every lane of the
sharded engine (:mod:`repro.netsim.shard`, in-process and worker mode)
call it. A heap entry is ``(time, seq, fn, arg)`` and ties break on the
insertion sequence ``seq``, so event order is deterministic. A timer from
:meth:`Simulator.schedule` is stored with ``arg=None`` and runs as
``fn()``; a message delivery carries ``(message, sent_at)`` to the
simulator's bound ``_deliver``, so no closure is built per message.

Delivery telemetry is deferred: per-kind sent and duplicated counts,
delivered bytes and latency samples accumulate in plain containers and
fold into the metrics registry whenever the loop returns (a window
barrier, a ``run_*`` return, or an exception raised from a handler), every
:data:`FOLD_EVERY` events of a long run, and before any property that reads
the registry. Samples fold in delivery order, so the registry holds exactly
what recording each event would. Drops are rare and count immediately.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from collections import defaultdict
from contextlib import contextmanager
from typing import (
    Any, Callable, DefaultDict, Dict, Hashable, Iterator, List, NamedTuple, Optional, Tuple,
)

from repro.telemetry import Counter, Histogram, Telemetry, get_telemetry
from repro.util.errors import StateError

#: delivery-latency histogram buckets (simulated ms)
DELIVERY_LATENCY_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0,
)

#: events between telemetry folds inside one long run (bounds the samples held)
FOLD_EVERY = 1 << 16

Address = Hashable

#: A delivery interceptor: called once per :meth:`Simulator.send` with the
#: message and its nominal delay; returns the list of delays at which
#: copies of the message should actually be delivered. ``None`` means
#: "deliver normally" (equivalent to ``[delay]``), an empty list drops the
#: message, two entries duplicate it, and a perturbed delay models jitter
#: or reordering. The fault-injection layer is the canonical implementor.
DeliveryInterceptor = Callable[["Message", float], Optional[List[float]]]


class Message(NamedTuple):
    """A protocol message in flight (immutable).

    Attributes:
        sender: address of the sending process.
        recipient: address of the receiving process.
        kind: message type tag (e.g. ``"local_state"``).
        payload: arbitrary message body.
        size: abstract size used by overhead accounting (e.g. number of
            service names carried).
    """

    sender: Address
    recipient: Address
    kind: str
    payload: Any
    size: int = 1


#: one heap entry: (time, seq, fn, arg); runs ``fn()`` if arg is None else ``fn(arg)``
Event = Tuple[float, int, Callable[..., None], Any]


class Simulator:
    """Event heap with simulated clock and message-delivery bookkeeping.

    Every simulator owns a private :class:`~repro.telemetry.Telemetry`
    scope (pass one to share): per-kind delivered-message/byte counters
    and delivery-latency histograms accumulate there, and the run loops
    mark the simulator as the active clock source so spans and events
    emitted by code running under the engine are stamped with ``now``.
    A finished experiment folds the scope into the process-wide one with
    ``sim.telemetry.publish()``.
    """

    def __init__(self, telemetry: Optional[Telemetry] = None) -> None:
        self.now: float = 0.0
        self._heap: List[Event] = []
        self._counter = itertools.count()
        self._processes: Dict[Address, "Process"] = {}
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._deliver_fn = self._deliver  # one bound method for every delivery entry
        # deferred per-kind telemetry, folded into the registry by _fold
        self._sent: DefaultDict[str, int] = defaultdict(int)
        self._duplicated: DefaultDict[str, int] = defaultdict(int)
        self._latencies: DefaultDict[str, List[float]] = defaultdict(list)
        self._bytes: DefaultDict[str, int] = defaultdict(int)
        #: per-kind (message counter, byte counter, latency histogram)
        self._delivery_handles: Dict[str, Tuple[Counter, Counter, Histogram]] = {}
        #: per-kind (sent counter, duplicated counter)
        self._send_handles: Dict[str, Tuple[Counter, Counter]] = {}
        #: per-(kind, cause) drop counter
        self._drop_handles: Dict[Tuple[str, str], Counter] = {}
        #: optional hook on the delivery path (see :data:`DeliveryInterceptor`)
        self.interceptor: Optional[DeliveryInterceptor] = None
        # Plain-int mirrors of the conservation counters so the invariant
        # `sent + duplicated == delivered + dropped + pending` can be checked
        # every window barrier without scanning the metrics registry.
        self._n_sent = 0
        self._n_duplicated = 0
        self._n_delivered = 0
        self._n_dropped = 0
        self._n_undelivered = 0
        self._n_events = 0

    # -- telemetry -----------------------------------------------------------

    @property
    def messages_delivered(self) -> int:
        """Total delivered messages (all kinds), from the metrics registry."""
        self._fold()
        return self.telemetry.registry.total("sim.messages.delivered")

    @property
    def bytes_delivered(self) -> int:
        """Total delivered size units (all kinds), from the registry."""
        self._fold()
        return self.telemetry.registry.total("sim.bytes.delivered")

    @property
    def messages_sent(self) -> int:
        """Total messages handed to :meth:`send` (before fan-out or drops)."""
        return self._n_sent

    @property
    def messages_dropped(self) -> int:
        """Total message copies dropped (interceptor + unregistered)."""
        return self._n_dropped

    @property
    def messages_pending(self) -> int:
        """Message copies scheduled but not yet delivered or dropped."""
        return self._n_undelivered

    @property
    def events_processed(self) -> int:
        """Total events popped off the heap by the run loop."""
        return self._n_events

    def conservation(self) -> Dict[str, int]:
        """Message-conservation tallies; ``balanced`` asserts the invariant.

        The invariant is ``sent + duplicated == delivered + dropped + pending``
        where every term counts message *copies* (a duplicated send yields two
        copies, an interceptor drop resolves the nominal copy as dropped).
        """
        tallies = {
            "sent": self._n_sent,
            "duplicated": self._n_duplicated,
            "delivered": self._n_delivered,
            "dropped": self._n_dropped,
            "pending": self._n_undelivered,
        }
        tallies["balanced"] = int(
            tallies["sent"] + tallies["duplicated"]
            == tallies["delivered"] + tallies["dropped"] + tallies["pending"]
        )
        return tallies

    def _fold(self) -> None:
        """Move the deferred telemetry into the registry (metrics are created
        in first-send and first-delivery order, as per-event recording would)."""
        registry = self.telemetry.registry
        for kind, count in self._sent.items():
            sends = self._send_handles.get(kind)
            if sends is None:
                sends = self._send_handles[kind] = (
                    registry.counter("sim.messages.sent", kind=kind),
                    registry.counter("sim.messages.duplicated", kind=kind),
                )
            sends[0].inc(count)
            sends[1].inc(self._duplicated.get(kind, 0))
        for kind, samples in self._latencies.items():
            handles = self._delivery_handles.get(kind)
            if handles is None:
                handles = self._delivery_handles[kind] = (
                    registry.counter("sim.messages.delivered", kind=kind),
                    registry.counter("sim.bytes.delivered", kind=kind),
                    registry.histogram(
                        "sim.delivery.latency", DELIVERY_LATENCY_BUCKETS, kind=kind
                    ),
                )
            handles[0].inc(len(samples))
            handles[1].inc(self._bytes[kind])
            handles[2].observe_many(samples)
        self._sent.clear()
        self._duplicated.clear()
        self._latencies.clear()
        self._bytes.clear()

    def _record_drop(self, message: Message, cause: str) -> None:
        key = (message.kind, cause)
        counter = self._drop_handles.get(key)
        if counter is None:
            counter = self.telemetry.registry.counter(
                "sim.messages.dropped", kind=message.kind, cause=cause
            )
            self._drop_handles[key] = counter
        counter.inc()
        self._n_dropped += 1

    @contextmanager
    def _running(self) -> Iterator[None]:
        """Mark this simulator as the active clock source while executing."""
        default = get_telemetry()
        with self.telemetry.simulation(self):
            if default is self.telemetry:
                yield
            else:
                with default.simulation(self):
                    yield

    # -- process registry ----------------------------------------------------

    def register(self, process: "Process") -> None:
        """Attach *process*; its :meth:`Process.start` runs at time now."""
        if process.address in self._processes:
            raise StateError(f"duplicate process address {process.address!r}")
        self._processes[process.address] = process
        process.simulator = self
        self.schedule(0.0, process.start)

    def deregister(self, address: Address) -> "Process":
        """Detach and return the process at *address*.

        Deliveries to the address afterwards become counted drops
        (``sim.messages.dropped`` with ``cause="unregistered"``) instead of
        :class:`StateError` crashes, and periodic schedules installed with
        ``schedule_every(..., owner=address)`` stop re-arming.
        """
        try:
            process = self._processes.pop(address)
        except KeyError:
            raise StateError(f"no process registered at {address!r}") from None
        process.simulator = None
        return process

    def is_registered(self, address: Address) -> bool:
        """Whether a process is currently registered at *address*."""
        return address in self._processes

    @property
    def process_count(self) -> int:
        """Number of currently registered processes."""
        return len(self._processes)

    def process(self, address: Address) -> "Process":
        """The registered process at *address*."""
        try:
            return self._processes[address]
        except KeyError:
            raise StateError(f"no process registered at {address!r}") from None

    # -- scheduling ------------------------------------------------------------

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Run *action* after *delay* simulated time units."""
        if delay < 0:
            raise StateError(f"cannot schedule in the past (delay={delay})")
        heapq.heappush(self._heap, (self.now + delay, next(self._counter), action, None))

    def schedule_every(
        self,
        period: float,
        action: Callable[[], None],
        *,
        first_delay: Optional[float] = None,
        until: Optional[float] = None,
        owner: Optional[Address] = None,
    ) -> None:
        """Run *action* periodically every *period* units.

        The first firing happens after ``first_delay`` (default: one period).
        If *until* is given, firings at or after that time are suppressed.
        If *owner* is given, the schedule is tied to that process address and
        stops firing once the address is deregistered.
        """
        if period <= 0:
            raise StateError(f"period must be positive, got {period}")

        def fire() -> None:
            if until is not None and self.now >= until:
                return
            if owner is not None and not self.is_registered(owner):
                return
            action()
            self.schedule(period, fire)

        self.schedule(period if first_delay is None else first_delay, fire)

    def send(self, message: Message, delay: float) -> None:
        """Deliver *message* to its recipient after *delay* units.

        If an :attr:`interceptor` is installed it decides the fate of the
        message first: the nominal single delivery can become a drop, a
        duplicate, or a perturbed-delay delivery (jitter/reordering). The
        protocol layers above never see the difference — exactly the point
        of hooking faults in here.
        """
        decided = None if self.interceptor is None else self.interceptor(message, delay)
        self._n_sent += 1
        self._sent[message.kind] += 1
        if decided is None:
            self._schedule_delivery(message, self.now, delay)
            return
        if not decided:
            # The nominal copy was swallowed by the interceptor: account for
            # it so `sent + duplicated == delivered + dropped + pending`.
            self._record_drop(message, "intercepted")
            return
        if len(decided) > 1:
            self._duplicated[message.kind] += len(decided) - 1
            self._n_duplicated += len(decided) - 1
        for actual in decided:
            self._schedule_delivery(message, self.now, actual)

    def _schedule_delivery(self, message: Message, sent_at: float, delay: float) -> None:
        """Queue one copy of *message*, sent at *sent_at*, after *delay*.

        The sharded engine's lanes override this to route copies whose
        recipient lives on another shard.
        """
        if delay < 0:
            raise StateError(f"cannot schedule in the past (delay={delay})")
        self._n_undelivered += 1
        heapq.heappush(
            self._heap,
            (sent_at + delay, next(self._counter), self._deliver_fn, (message, sent_at)),
        )

    def _deliver(self, copy: Tuple[Message, float]) -> None:
        """Hand one delivered copy ``(message, sent_at)`` to its recipient."""
        message, sent_at = copy
        self._n_undelivered -= 1
        recipient = self._processes.get(message.recipient)
        if recipient is None:
            self._record_drop(message, "unregistered")
            return
        self._n_delivered += 1
        self._latencies[message.kind].append(self.now - sent_at)
        self._bytes[message.kind] += message.size
        recipient.receive(message)

    # -- execution ---------------------------------------------------------------

    def _run(self, limit: float, budget: int = sys.maxsize) -> bool:
        """The event loop: execute queued events stamped ``<= limit``.

        Returns True once no queued event is stamped ``<= limit``, False
        if *budget* events ran first. Deferred telemetry folds into the
        registry however the loop exits.
        """
        heap = self._heap
        pop = heapq.heappop
        try:
            while budget > 0:
                chunk = min(budget, FOLD_EVERY)
                budget -= chunk
                for _ in itertools.repeat(None, chunk):
                    if not heap or heap[0][0] > limit:
                        return True
                    self.now, _, fn, arg = pop(heap)
                    self._n_events += 1
                    if arg is None:
                        fn()
                    else:
                        fn(arg)
                self._fold()
            return not heap or heap[0][0] > limit
        finally:
            self._fold()

    def run_until(self, end_time: float) -> None:
        """Process events with timestamp <= *end_time*; clock ends there."""
        with self._running():
            self._run(end_time)
            self.now = max(self.now, end_time)

    def run_all(self, max_events: int = 1_000_000) -> None:
        """Drain the event heap completely (bounded by *max_events*)."""
        with self._running():
            if not self._run(math.inf, max_events):
                raise StateError(f"run_all exceeded {max_events} events; runaway schedule?")

    @property
    def pending_events(self) -> int:
        """Number of events still queued."""
        return len(self._heap)


class Process:
    """Base class for simulated protocol participants."""

    def __init__(self, address: Address) -> None:
        self.address = address
        self.simulator: Optional[Simulator] = None

    def start(self) -> None:
        """Hook invoked once when the simulation registers the process."""

    def receive(self, message: Message) -> None:
        """Hook invoked on message delivery."""

    def send(
        self,
        recipient: Address,
        kind: str,
        payload: Any,
        delay: float,
        size: int = 1,
    ) -> None:
        """Send a message to *recipient*, delivered after *delay*."""
        if self.simulator is None:
            raise StateError(f"process {self.address!r} is not registered")
        self.simulator.send(
            Message(self.address, recipient, kind, payload, size), delay
        )
