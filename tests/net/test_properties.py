"""Property-based tests on transport invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calibration import IB_EAGER, IB_RDMA, IPOIB_QDR, TEN_GIGE
from repro.net import Endpoint, Fabric, ListenerSocket, QueuePair, connect
from repro.simcore import Environment, Resource


def make_pair():
    env = Environment()
    fabric = Fabric(env)
    server_node = fabric.add_node("server")
    client_node = fabric.add_node("client")
    listener = ListenerSocket(fabric, server_node, 9000)
    result = {}

    def server(env):
        result["server"] = yield listener.accept()

    def client(env):
        result["client"] = yield connect(
            fabric, client_node, listener.address, IPOIB_QDR
        )

    env.process(server(env))
    env.process(client(env))
    env.run()
    return env, result["client"], result["server"]


@given(st.lists(st.binary(min_size=1, max_size=200_000), min_size=1, max_size=10))
@settings(max_examples=30, deadline=None)
def test_socket_stream_preserves_bytes_for_any_chunking(chunks):
    """Whatever the sender's write sizes (including > the 64 KB wire
    chunk), the receiver reads the exact concatenation, in order."""
    env, client, server = make_pair()
    total = sum(len(c) for c in chunks)
    received = {}

    def sender(env):
        for chunk in chunks:
            yield client.send(chunk)

    def receiver(env):
        received["data"] = yield server.recv(total)

    env.process(sender(env))
    env.process(receiver(env))
    env.run()
    assert received["data"] == b"".join(chunks)


@given(
    st.lists(
        st.tuples(st.binary(min_size=1, max_size=20_000), st.booleans()),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=30, deadline=None)
def test_verbs_messages_arrive_in_post_order(messages):
    """Eager and RDMA messages interleave but never reorder (the tx
    queue models the NIC's in-order work queue)."""
    env = Environment()
    fabric = Fabric(env)
    a = Endpoint(fabric, fabric.add_node("a"))
    b = Endpoint(fabric, fabric.add_node("b"))
    qa, qb = QueuePair.pair(a, b)
    seen = []

    def sender(env):
        for i, (payload, force_eager) in enumerate(messages):
            threshold = len(payload) if force_eager else 0
            yield qa.post_send(payload, rdma_threshold=threshold, context=i)

    def receiver(env):
        for _ in messages:
            message = yield qb.recv()
            seen.append((message.context, message.data))

    env.process(sender(env))
    env.process(receiver(env))
    env.run()
    assert seen == [(i, payload) for i, (payload, _) in enumerate(messages)]


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=20))
@settings(max_examples=20, deadline=None)
def test_incast_transfer_conservation(senders, transfers_each):
    """N senders to one receiver: every transfer completes exactly once
    and the receive engine never loses work under contention."""
    env = Environment()
    fabric = Fabric(env)
    sink = fabric.add_node("sink")
    sources = fabric.add_nodes("src", senders)
    done = []

    def one(env, src):
        for _ in range(transfers_each):
            yield fabric.transfer(src, sink, 100_000, IPOIB_QDR)
            done.append(src.name)

    procs = [env.process(one(env, s)) for s in sources]
    env.run(env.all_of(procs))
    assert len(done) == senders * transfers_each


class _ResourceNics:
    """Reference NIC model: each engine a capacity-1 :class:`Resource`,
    held by one process per pipeline side of every transfer.  The
    fabric's closed-form engines must reproduce its completion times
    exactly."""

    def __init__(self, env, model):
        self.env = env
        self.model = model
        self.tx = {}
        self.rx = {}

    def transfer(self, src, dst, nbytes, spec):
        return self.env.process(self._transfer_proc(src, dst, nbytes, spec))

    def _engine(self, engines, node):
        if node not in engines:
            engines[node] = Resource(self.env, capacity=1)
        return engines[node]

    def _hold(self, resource, delay_before, serialization_us):
        if delay_before:
            yield self.env.timeout(delay_before)
        with resource.request() as req:
            yield req
            yield self.env.timeout(serialization_us)

    def _transfer_proc(self, src, dst, nbytes, spec):
        if src is dst:
            yield self.env.timeout(1.0 + nbytes * self.model.memory.memcpy_per_byte_us)
            return True
        serialization_us = nbytes / spec.bandwidth
        tx_side = self.env.process(
            self._hold(self._engine(self.tx, src), 0.0, serialization_us)
        )
        rx_side = self.env.process(
            self._hold(self._engine(self.rx, dst), spec.latency_us, serialization_us)
        )
        yield tx_side & rx_side
        return True


def _run_schedule(schedule, node_count, reference):
    """Start every ``(at, src, dst, spec, nbytes)`` transfer at its time;
    return ``(index, completion time, value)`` in resume order."""
    env = Environment()
    fabric = Fabric(env)
    nodes = fabric.add_nodes("n", node_count)
    transfer = _ResourceNics(env, fabric.model).transfer if reference else fabric.transfer
    resumed = []

    def caller(env, index, at, src, dst, spec, nbytes):
        yield env.timeout(at)
        value = yield transfer(nodes[src], nodes[dst], nbytes, spec)
        resumed.append((index, env.now, value))

    for index, (at, src, dst, spec, nbytes) in enumerate(schedule):
        env.process(caller(env, index, at, src % node_count, dst % node_count, spec, nbytes))
    env.run()
    return resumed


@given(
    st.integers(min_value=2, max_value=5),
    st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.5, 1.5, 2.2, 3.0, 10.0]),
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=0, max_value=4),
            st.sampled_from([IB_EAGER, IB_RDMA, IPOIB_QDR, TEN_GIGE]),
            st.one_of(
                st.sampled_from([0, 1, 512, 4096, 65536]),
                st.integers(min_value=0, max_value=1 << 20),
            ),
        ),
        min_size=1,
        max_size=24,
    ),
)
@settings(max_examples=300, deadline=None)
def test_closed_form_nics_match_resource_model(node_count, schedule):
    """Random schedules — same-instant ties, loopback, zero-byte
    messages, and specs whose latencies reorder arrivals at a receive
    engine — complete at exactly the reference model's times, with its
    values."""
    closed_form = _run_schedule(schedule, node_count, reference=False)
    reference = _run_schedule(schedule, node_count, reference=True)
    assert sorted(closed_form) == sorted(reference)
    # Waiters resume in time order in both models.
    assert [t for _, t, _ in closed_form] == [t for _, t, _ in reference]


def test_equal_time_completions_resume_in_arrival_order():
    """Transfers finishing at one instant resume in the order their
    bytes arrived.  Here 0 and 1 reach n0 together (1 queues behind 0
    on the receive engine) and 1 finishes with 2, which arrived later:
    1 resumes first.  The reference model resumes 2 first — it ordered
    ties by when the last engine began serving — so only the tie order
    differs, never a completion time."""
    ser = 2250 / IPOIB_QDR.bandwidth
    schedule = [
        (0.0, 2, 0, IPOIB_QDR, 2250),
        (0.0, 1, 0, IPOIB_QDR, 2250),
        (ser, 3, 4, IPOIB_QDR, 2250),
    ]
    finish = IPOIB_QDR.latency_us + 2 * ser
    assert _run_schedule(schedule, 5, reference=False) == [
        (0, IPOIB_QDR.latency_us + ser, True),
        (1, finish, True),
        (2, finish, True),
    ]
    assert [i for i, _, _ in _run_schedule(schedule, 5, reference=True)] == [0, 2, 1]
