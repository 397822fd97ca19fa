"""Message transport with latency, loss, and RPC semantics.

Peers in the paper communicate over a LAN with "known bounded delay"
(Section 2.1).  The :class:`Network` models that channel:

* every message experiences a latency drawn from a pluggable
  :class:`LatencyModel` (constant, uniform, or LAN-vs-WAN two-tier);
* messages may be dropped with probability ``drop_probability``;
* a request to a failed peer is silently lost, so the caller
  observes an :class:`RpcTimeout` after ``rpc_timeout`` seconds -- this is how
  failure detection costs enter the latency measurements (Figure 23).

The only communication primitive higher layers use is :meth:`Network.call`:
request/response RPC addressed by peer address and handler name.

Scenario specs select the model declaratively: a
:class:`~repro.harness.scenarios.LatencySpec` (model name + flat JSON-able
parameters) resolves through :func:`latency_model_from_params` into
``NetworkConfig.latency_model``, so e.g. the 4-site ``lan_wan`` WAN cells are
registry entries rather than bespoke network wiring.

Scalability notes
-----------------
* The RPC expiry is *lazy*.  A call reserves the expiry's place in the
  engine's ``(time, seq)`` order (its deadline and a seq taken at once) but
  pushes the heap entry only when the reply can no longer be counted on: the
  request or the reply is dropped, either is posted to land at or after the
  deadline, the destination is missing or dead on delivery, or the handler
  is a generator (armed as soon as it starts).  An entry pushed before its
  time with an older seq sorts exactly where an eager one would, so no
  simulated number moves; a call answered in time -- nearly every call on a
  settled ring -- costs the heap nothing for its expiry.  An armed expiry
  is cancelled (tombstoned in place) when the reply wins.
* The per-RPC bookkeeping records -- expiry records, delivery/reply
  transfer records, reply continuations and :class:`RpcRequest` objects --
  are recycled through freelists, so steady-state RPC traffic allocates only
  the caller-visible reply :class:`Event`.
* Under a :class:`ConstantLatency` model, messages due at exactly the same
  instant are *batched*: one engine entry drains the whole batch, so a
  replication fan-out to ``k`` successors costs one queue operation instead
  of ``k``.  Under a sampled model two messages essentially never share an
  instant, so each is its own engine entry (delivered in send order should
  they collide) and the batch bookkeeping is skipped.
* A reply under a sampled model and an RPC expiry are each their own engine
  entry, and settling the caller is the entry's last step, so the caller
  resumes in place (the engine's in-place rule) instead of one ready-queue
  hop later.  A reply inside a batch queues its caller, as before.
* :meth:`Network.cast` is a fire-and-forget fast path for messages nobody
  waits on (replication refreshes, delete propagation): no reply event, no
  expiry timer, no reply message.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import partial
from heapq import heappush
from typing import Any, Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.sim.engine import Event, SimulationError, Simulator

# The RPC failure hierarchy, request record and stats counters are shared by
# every transport; they live in the dependency-free contract module and are
# re-exported here so historical ``repro.sim.network`` imports keep working.
from repro.transport.api import (  # noqa: F401  (re-exported)
    NetworkStats,
    RpcError,
    RpcRemoteError,
    RpcRequest,
    RpcTimeout,
    RpcUnreachable,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.transport.endpoint import Endpoint as Node


# --------------------------------------------------------------------------- latency models
class LatencyModel:
    """Per-message latency as a function of the two endpoint addresses."""

    def sample(self, rng, source: str, destination: str) -> float:
        raise NotImplementedError

    def validate(self) -> None:
        """Raise ``ValueError`` for physically meaningless settings."""


@dataclass(frozen=True)
class ConstantLatency(LatencyModel):
    """Every message takes exactly ``value`` seconds (fully batchable)."""

    value: float = 0.001

    def sample(self, rng, source: str, destination: str) -> float:
        return self.value

    def validate(self) -> None:
        if self.value < 0:
            raise ValueError("constant latency must be >= 0")


@dataclass(frozen=True)
class UniformLatency(LatencyModel):
    """Latency drawn uniformly from ``[low, high]`` (the paper's LAN model)."""

    low: float = 0.0005
    high: float = 0.003

    def sample(self, rng, source: str, destination: str) -> float:
        if self.high <= self.low:
            return self.low
        return rng.uniform(self.low, self.high)

    def validate(self) -> None:
        if self.low < 0 or self.high < self.low:
            raise ValueError("latency bounds must satisfy 0 <= low <= high")


@dataclass(frozen=True)
class LanWanLatency(LatencyModel):
    """Two-tier model: peers hash into ``sites``; cross-site messages pay WAN cost.

    Addresses are assigned to sites by a stable CRC hash, so the site layout is
    a pure function of the deployment's addresses (reproducible across runs and
    processes).
    """

    sites: int = 4
    lan: UniformLatency = UniformLatency(0.0005, 0.003)
    wan: UniformLatency = UniformLatency(0.02, 0.08)

    def site_of(self, address: str) -> int:
        return zlib.crc32(address.encode("utf-8")) % self.sites

    def sample(self, rng, source: str, destination: str) -> float:
        if self.site_of(source) == self.site_of(destination):
            return self.lan.sample(rng, source, destination)
        return self.wan.sample(rng, source, destination)

    def validate(self) -> None:
        if self.sites < 1:
            raise ValueError("LanWanLatency needs at least one site")
        self.lan.validate()
        self.wan.validate()


LATENCY_MODELS = {
    "constant": ConstantLatency,
    "uniform": UniformLatency,
    "lan_wan": LanWanLatency,
}


def latency_model_from_params(name: str, **params) -> LatencyModel:
    """Instantiate a registered latency model from flat keyword parameters.

    Scenario specs describe the network as JSON-able mappings, so the nested
    :class:`UniformLatency` objects of ``lan_wan`` cannot appear there
    directly; this factory accepts the flattened ``lan_low`` / ``lan_high`` /
    ``wan_low`` / ``wan_high`` bounds instead.  The returned model is
    validated.
    """
    if name not in LATENCY_MODELS:
        raise ValueError(
            f"unknown latency model {name!r}; known: {', '.join(sorted(LATENCY_MODELS))}"
        )
    if name == "lan_wan":
        defaults = LanWanLatency()
        model: LatencyModel = LanWanLatency(
            sites=params.pop("sites", defaults.sites),
            lan=UniformLatency(
                params.pop("lan_low", defaults.lan.low),
                params.pop("lan_high", defaults.lan.high),
            ),
            wan=UniformLatency(
                params.pop("wan_low", defaults.wan.low),
                params.pop("wan_high", defaults.wan.high),
            ),
        )
        if params:
            raise ValueError(f"unknown lan_wan parameters: {', '.join(sorted(params))}")
    else:
        model = LATENCY_MODELS[name](**params)
    model.validate()
    return model


@dataclass
class NetworkConfig:
    """Tunable parameters of the message channel.

    The defaults approximate the paper's LAN cluster: sub-millisecond to a few
    milliseconds per message (uniform), no loss.
    """

    drop_probability: float = 0.0
    rpc_timeout: float = 0.5
    latency_model: LatencyModel = UniformLatency(0.0005, 0.003)

    def validate(self) -> None:
        """Raise ``ValueError`` for physically meaningless settings."""
        if not 0.0 <= self.drop_probability < 1.0:
            raise ValueError("drop_probability must be in [0, 1)")
        if self.rpc_timeout <= 0:
            raise ValueError("rpc_timeout must be positive")
        self.latency_model.validate()


class _ReplyHandle:
    """The reply continuation handed to :meth:`Node._handle_rpc`.

    Replaces the per-RPC closure the network used to allocate; instances are
    recycled through ``Network._reply_free`` after their single invocation.
    A handle abandoned without being called (its node died mid-handler) is
    simply dropped; reference counting frees it.
    """

    __slots__ = ("net", "request", "result", "pending")

    def __init__(self, net: "Network"):
        self.net = net
        self.request: Optional[RpcRequest] = None
        self.result: Optional[Event] = None
        self.pending: Optional[list] = None

    def __call__(self, value: Any, error: Optional[BaseException]) -> None:
        """Transmit the reply message (or lose it) and recycle the records.

        ``pending`` is the call's expiry record, read only while ``result``
        has not fired: once it has, the record may be serving another call.
        """
        net = self.net
        request, result, pending = self.request, self.result, self.pending
        self.request = self.result = self.pending = None
        net._reply_free.append(self)
        source, destination = request.destination, request.source
        request.payload = None
        net._request_free.append(request)
        stats = net.stats
        stats.messages_sent += 1
        prob = net.config.drop_probability
        if prob > 0 and net.rng.random() < prob:
            stats.messages_dropped += 1
            if not result._triggered:
                net._arm(pending)
            return
        # A ConstantLatency batch delivers several messages in one entry, so
        # only a reply that is its own entry may settle its caller in place.
        deliver = net._deliver_reply if net._fixed_latency is None else net._deliver_batched_reply
        arrival = net._post(source, destination, deliver, result, pending, value, error)
        if not result._triggered and arrival >= pending[3]:
            net._arm(pending)  # too late: at a tie the expiry's older seq wins


# Metric series fed to an attached collector under a LanWanLatency model.
INTRA_SITE_LATENCY_METRIC = "net_latency_intra_site"
CROSS_SITE_LATENCY_METRIC = "net_latency_cross_site"


class Network:
    """Connects :class:`~repro.transport.endpoint.Endpoint` instances by address.

    ``metrics`` is an optional collector (anything with a
    ``record(name, value)`` method, e.g. :class:`repro.harness.metrics.Metrics`).
    When the resolved latency model is site-aware (:class:`LanWanLatency`),
    every message's sampled latency is recorded into the intra-site or
    cross-site series so WAN experiments can report latency histograms, and
    ``stats.per_site_rpcs`` counts RPCs by originating site.  Other models pay
    no per-message overhead.
    """

    def __init__(
        self,
        sim: Simulator,
        rng,
        config: Optional[NetworkConfig] = None,
        metrics=None,
    ):
        self.sim = sim
        self.rng = rng
        self.metrics = metrics
        self.config = config or NetworkConfig()
        self.config.validate()
        self.reconfigure()
        self.stats = NetworkStats()
        self._nodes: Dict[str, "Node"] = {}
        self._next_request_id = 0
        # Pending same-instant delivery batches, keyed on absolute delivery time.
        self._batches: Dict[float, List[Tuple[Callable[[Any], None], Any]]] = {}
        # The clock's cancel, bound once: it sits on the per-RPC path.
        self._cancel_timer = sim.cancel_timer
        # Freelists recycling the per-RPC bookkeeping records, so steady-state
        # traffic allocates only the caller-visible reply Event.  An expiry
        # record is [result, method, destination, deadline, seq, entry]; entry
        # is the armed heap entry, or None while the expiry is not pushed.
        self._expiry_free: List[list] = []
        self._transfer_free: List[list] = []  # 4-slot delivery/reply records
        self._reply_free: List[_ReplyHandle] = []
        self._request_free: List[RpcRequest] = []
        self._deliver_batched_reply = partial(self._deliver_reply, in_place=False)
        # Optional RPC observer: anything with ``rpc_issued(source,
        # destination, method)`` / ``rpc_completed(destination)``.  Every
        # ``call`` issues exactly one completion -- on reply delivery or on
        # expiry, whichever settles the caller's event -- so an observer can
        # maintain per-destination in-flight counts (the serve layer's
        # :class:`~repro.serve.tracker.InFlightTracker` does).  Casts are not
        # observed: they have no completion signal.
        self.observer = None

    # -- membership --------------------------------------------------------
    def register(self, node: "Node") -> None:
        """Attach ``node`` so other peers can address it."""
        self._nodes[node.address] = node

    # -- latency model -----------------------------------------------------
    def reconfigure(self) -> None:
        """Re-resolve the latency model after mutating ``config`` mid-run.

        ``drop_probability`` and ``rpc_timeout`` are read live on every call;
        the latency model (and its constant-value fast path) is resolved here
        once, so experiments that switch latency regimes mid-run must call
        this after replacing ``config.latency_model``.
        """
        self.latency_model = model = self.config.latency_model
        model.validate()  # a negative latency would queue a delivery in the past
        # Fast path: a constant model needs no rng and no per-message dispatch,
        # and it alone makes same-instant deliveries common enough to batch.
        self._fixed_latency: Optional[float] = (
            model.value if isinstance(model, ConstantLatency) else None
        )
        # Fast path: a plain uniform model is drawn in place as
        # ``low + span * rng.random()`` -- the float ``rng.uniform`` returns.
        self._uniform_low = self._uniform_span = None
        if type(model) is UniformLatency and model.high > model.low:
            self._uniform_low = model.low
            self._uniform_span = model.high - model.low
        # Site-aware instrumentation only exists under a two-tier model.
        self._site_of: Optional[Callable[[str], int]] = (
            self.latency_model.site_of
            if isinstance(self.latency_model, LanWanLatency)
            else None
        )

    def _latency(self, source: str, destination: str) -> float:
        fixed = self._fixed_latency
        if fixed is not None:
            return fixed
        latency = self.latency_model.sample(self.rng, source, destination)
        site_of = self._site_of
        if site_of is not None and self.metrics is not None:
            self.metrics.record(
                INTRA_SITE_LATENCY_METRIC
                if site_of(source) == site_of(destination)
                else CROSS_SITE_LATENCY_METRIC,
                latency,
            )
        return latency

    # -- delivery ------------------------------------------------------------
    def _post(
        self, source: str, destination: str, deliver: Callable[[list], None],
        a: Any, b: Any, c: Any, d: Any,
    ) -> float:
        """Queue ``deliver([a, b, c, d])`` one latency draw from now.

        The whole per-message path in one frame: transfer record, latency,
        engine entry.  Entries are pushed straight onto the simulator's heap
        in its ``[time, seq, func, arg]`` shape (what ``schedule_at`` does).
        Returns the delivery instant.
        """
        free = self._transfer_free
        if free:
            transfer = free.pop()
            transfer[0] = a
            transfer[1] = b
            transfer[2] = c
            transfer[3] = d
        else:
            transfer = [a, b, c, d]
        sim = self.sim
        stats = self.stats
        fixed = self._fixed_latency
        if fixed is not None:
            # Same-instant messages share one heap entry.
            time = sim._now + fixed
            batch = self._batches.get(time)
            if batch is None:
                self._batches[time] = batch = []
                sim.schedule_at(time, self._run_batch, time)
                stats.delivery_batches += 1
            batch.append((deliver, transfer))
            return time
        span = self._uniform_span
        if span is not None:
            latency = self._uniform_low + span * self.rng.random()
        else:
            latency = self._latency(source, destination)
            if latency < 0:
                raise SimulationError(f"cannot deliver in the past (latency={latency})")
        stats.delivery_batches += 1
        sim._sequence += 1
        time = sim._now + latency
        heappush(sim._queue, [time, sim._sequence, deliver, transfer])
        return time

    def _run_batch(self, time: float) -> None:
        for deliver, transfer in self._batches.pop(time):
            deliver(transfer)

    # -- RPC ----------------------------------------------------------------
    def call(
        self,
        source: str,
        destination: str,
        method: str,
        payload: Any = None,
        timeout: Optional[float] = None,
    ) -> Event:
        """Issue an RPC and return the event carrying the reply.

        The event succeeds with the handler's return value, or fails with an
        :class:`RpcError` subclass.  Callers are simulated processes and simply
        ``yield`` the returned event.
        """
        config = self.config
        if timeout is None:
            timeout = config.rpc_timeout
        elif timeout < 0:
            raise SimulationError(f"cannot schedule in the past (delay={timeout})")
        sim = self.sim
        result = Event(sim)
        stats = self.stats
        stats.rpc_calls += 1
        per_method = stats.per_method
        per_method[method] = per_method.get(method, 0) + 1
        site_of = self._site_of
        if site_of is not None:
            key = f"site{site_of(source)}"
            per_site = stats.per_site_rpcs
            per_site[key] = per_site.get(key, 0) + 1
        self._next_request_id += 1
        # The expiry takes its seq now and its heap entry only if it needs one.
        sim._sequence += 1
        deadline = sim._now + timeout
        free = self._expiry_free
        if free:
            pending = free.pop()
            pending[0] = result
            pending[1] = method
            pending[2] = destination
            pending[3] = deadline
            pending[4] = sim._sequence
        else:
            pending = [result, method, destination, deadline, sim._sequence, None]
        if self.observer is not None:
            self.observer.rpc_issued(source, destination, method)
        stats.messages_sent += 1
        prob = config.drop_probability
        if prob > 0 and self.rng.random() < prob:
            stats.messages_dropped += 1
            self._arm(pending)
        else:
            free = self._request_free
            if free:
                request = free.pop()
                request.source = source
                request.destination = destination
                request.method = method
                request.payload = payload
                request.request_id = self._next_request_id
            else:
                request = RpcRequest(source, destination, method, payload, self._next_request_id)
            if self._post(
                source, destination, self._deliver_request, request, result, pending, None
            ) >= deadline:
                self._arm(pending)
        return result

    def cast(self, source: str, destination: str, method: str, payload: Any = None) -> None:
        """Send a one-way message: no reply event, no expiry timer, no reply.

        The fire-and-forget fast path for traffic nobody waits on (replication
        refresh fan-outs, delete propagation).  The message still pays latency
        and loss like any other, still counts in the per-method call stats,
        and a dead destination swallows it silently -- exactly what a caller
        that discards the reply event of :meth:`call` observed, minus the
        event, timer and reply-message overhead.
        """
        stats = self.stats
        stats.rpc_calls += 1
        per_method = stats.per_method
        per_method[method] = per_method.get(method, 0) + 1
        site_of = self._site_of
        if site_of is not None:
            key = f"site{site_of(source)}"
            per_site = stats.per_site_rpcs
            per_site[key] = per_site.get(key, 0) + 1
        self._next_request_id += 1
        stats.messages_sent += 1
        prob = self.config.drop_probability
        if prob > 0 and self.rng.random() < prob:
            stats.messages_dropped += 1
            return
        request = self._make_request(source, destination, method, payload)
        self._post(source, destination, self._deliver_cast, request, None, None, None)

    # -- internals ----------------------------------------------------------
    def _make_request(
        self, source: str, destination: str, method: str, payload: Any
    ) -> RpcRequest:
        free = self._request_free
        if free:
            request = free.pop()
            request.source = source
            request.destination = destination
            request.method = method
            request.payload = payload
            request.request_id = self._next_request_id
            return request
        return RpcRequest(source, destination, method, payload, self._next_request_id)

    def _recycle_request(self, request: RpcRequest) -> None:
        request.payload = None
        self._request_free.append(request)

    def _arm(self, pending: list) -> None:
        """Push the call's expiry entry, once: its reply can no longer be counted on.

        Every caller arms in the call's own action or while the clock is
        short of the deadline (a message due at or after it armed the expiry
        when it was posted), so the entry, with the seq the call reserved,
        fires exactly when an eager one would: the engine's reserved-seq rule.
        """
        if pending[5] is None:
            pending[5] = entry = [pending[3], pending[4], self._expire, pending]
            heappush(self.sim._queue, entry)

    def _expire(self, pending: list) -> None:
        result, method, destination = pending[0], pending[1], pending[2]
        pending[0] = pending[2] = pending[5] = None
        self._expiry_free.append(pending)
        if not result._triggered:
            if self.observer is not None:
                self.observer.rpc_completed(destination)
            self.stats.rpc_timeouts += 1
            # The expiry is its own timer entry: the in-place rule applies.
            result._trigger_last(False, RpcTimeout(f"{method} -> {destination} timed out"))

    def _deliver_request(self, transfer: list) -> None:
        request, result, pending = transfer[0], transfer[1], transfer[2]
        transfer[0] = transfer[1] = transfer[2] = None
        self._transfer_free.append(transfer)
        node = self._nodes.get(request.destination)
        if node is None or not node.alive:
            # A dead or missing peer never answers; the caller times out.
            self._recycle_request(request)
            if not result._triggered:
                self._arm(pending)
            return
        free = self._reply_free
        reply = free.pop() if free else _ReplyHandle(self)
        reply.request = request
        reply.result = result
        reply.pending = pending
        node._handle_rpc(request, reply)
        if reply.result is result and not result._triggered:
            # Not answered yet (a generator handler): it may answer too late.
            self._arm(pending)

    def _deliver_cast(self, transfer: list) -> None:
        request = transfer[0]
        transfer[0] = None
        self._transfer_free.append(transfer)
        node = self._nodes.get(request.destination)
        if node is None or not node.alive:
            self._recycle_request(request)
            return
        if node._handle_cast(request):
            # Handled synchronously: nothing can still reference the record.
            self._recycle_request(request)

    def _deliver_reply(self, transfer: list, in_place: bool = True) -> None:
        """Settle the caller's reply event.

        A reply under a sampled latency is its own heap entry, and settling
        the caller is that entry's last step, so its waiter runs in place
        (the engine's in-place rule).  Inside a ConstantLatency batch
        (``in_place=False``) the waiter queues: the rest of the batch is
        delivered first, as before.
        """
        result, pending, value, error = transfer
        transfer[0] = transfer[1] = transfer[2] = transfer[3] = None
        self._transfer_free.append(transfer)
        if result._triggered:
            # The expiry won the race: the caller already holds its
            # RpcTimeout, and the late reply is dropped.
            return
        # The reply made it first: cancel an armed expiry, reclaim the record.
        if pending[5] is not None:
            self._cancel_timer(pending[5])
        if self.observer is not None:
            self.observer.rpc_completed(pending[2])
        pending[0] = pending[2] = pending[5] = None
        self._expiry_free.append(pending)
        if in_place:
            if error is None:
                result._trigger_last(True, value)
            else:
                result._trigger_last(False, error)
        elif error is None:
            result.succeed(value)
        else:
            result.fail(error)
