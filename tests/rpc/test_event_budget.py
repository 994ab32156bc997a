"""Event budget of one RPC call: a deterministic cost pin per transport.

The simulator's host speed is dominated by how many events and
processes each call schedules, and both counts are exact functions of
the model.  After the warm-up call has set the connection up, every
uncontended 512 B echo must schedule exactly the pinned number of
events (``env._eid`` delta) and construct exactly the pinned number of
:class:`Process` objects, call after call.  A change that makes a
transport leaner lowers the pin on purpose; one that adds an event or
a process per call fails here first.
"""

import pytest

from repro.io.writables import BytesWritable
from repro.rpc.client import IBConnection, SocketConnection
from repro.simcore import Process

from tests.rpc.conftest import RpcHarness

#: case -> (connection class, ipc.client.async.enabled, events per
#: call, processes per call).  Sockets: the client's call process, then
#: one send and two receive processes per direction.  RPCoIB: the call
#: process, one post per direction and one receive.  With async on the
#: caller enqueues and the connection's sender flushes a one-call batch:
#: the same processes, plus the sender's wake-up and the hand-off.
BUDGET = {
    "sockets": (SocketConnection, False, 49, 7),
    "rpcoib": (IBConnection, False, 41, 4),
    "sockets-async": (SocketConnection, True, 54, 7),
    "rpcoib-async": (IBConnection, True, 47, 4),
}


@pytest.fixture
def spawned(monkeypatch):
    """Every Process constructed from now on, in order."""
    made = []
    init = Process.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Process, "__init__", counting_init)
    return made


@pytest.mark.parametrize("case", list(BUDGET))
def test_one_call_schedules_a_fixed_event_budget(spawned, case):
    conn_class, async_on, events, processes = BUDGET[case]
    harness = RpcHarness(ib=conn_class is IBConnection)
    harness.conf.set("ipc.client.async.enabled", async_on)
    env = harness.env
    per_call = []

    def caller(env):
        payload = BytesWritable(b"\x5a" * 512)
        yield harness.proxy.echo(payload)  # warm-up: connect + handshake
        for _ in range(3):
            eid, made = env._eid, len(spawned)
            echoed = yield harness.proxy.echo(payload)
            assert echoed.value == payload.value
            per_call.append((env._eid - eid, len(spawned) - made))

    harness.run(caller)
    connections = list(harness.client._connections.values())
    assert [type(conn) for conn in connections] == [conn_class]
    assert (connections[0].mux is not None) == async_on
    assert per_call == [(events, processes)] * 3
