"""The asyncio frame-server skeleton (DESIGN.md §12.1), once per daemon
built on it: bind conflicts surface from the constructor, ``shutdown()``
returns whether or not the loop is running, and a stop cancels the
connections it finds open.
"""

import socket
import threading
import time

import pytest

from repro.frontdoor.membership import ClusterMembership
from repro.frontdoor.router import FrontDoorRouter
from repro.net import messages as m
from repro.net.framing import Frame, read_frame
from repro.net.server import VaultProtocolServer
from repro.system.vault import DebarVault


def make_daemon(tmp_path, **kw):
    vault = DebarVault(tmp_path / "vault")
    try:
        return VaultProtocolServer(vault, **kw)
    except OSError:
        vault.close()
        raise


def make_router(tmp_path, **kw):
    return FrontDoorRouter(
        ClusterMembership(tmp_path / "state"), state_dir=tmp_path / "state",
        probe_interval=3600.0, **kw
    )


@pytest.fixture(params=[make_daemon, make_router], ids=["daemon", "router"])
def make_server(request, tmp_path):
    made = []

    def make(**kw):
        server = request.param(tmp_path, **kw)
        made.append(server)
        return server

    yield make
    for server in made:
        server.shutdown()
        server.server_close()
        if hasattr(server, "vault"):
            server.vault.close()


def serve_in_thread(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


def test_bind_conflict_raises_from_the_constructor(make_server, tmp_path):
    holder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    holder.bind(("127.0.0.1", 0))
    holder.listen(1)
    try:
        with pytest.raises(OSError):
            make_server(port=holder.getsockname()[1])
    finally:
        holder.close()


def test_address_is_valid_before_serving(make_server):
    server = make_server()
    assert server.server_address == (server.host, server.port)
    assert server.port > 0
    assert server.address == f"{server.host}:{server.port}"


def test_shutdown_before_serve_forever_returns(make_server):
    server = make_server()
    server.shutdown()  # nothing running: must not block
    thread = serve_in_thread(server)  # sees the stop request and exits
    thread.join(timeout=5.0)
    assert not thread.is_alive()


def test_shutdown_during_serve_forever_returns(make_server):
    server = make_server()
    thread = serve_in_thread(server)
    with socket.create_connection(server.server_address, timeout=2.0) as sock:
        sock.sendall(Frame(m.PING, 7, b"up").encode())
        assert read_frame(sock.recv).payload == b"up"
    t0 = time.monotonic()
    server.shutdown()
    assert time.monotonic() - t0 < 5.0
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    server.server_close()
    with pytest.raises(OSError):
        socket.create_connection(server.server_address, timeout=0.5)


def test_open_connections_are_cancelled_on_stop(make_server):
    server = make_server()
    thread = serve_in_thread(server)
    idle = socket.create_connection(server.server_address, timeout=5.0)
    try:
        # A round trip proves the pump is up before the stop finds it.
        idle.sendall(Frame(m.PING, 1, b"x").encode())
        assert read_frame(idle.recv).msg_type == m.PONG
        assert server._tasks
        server.shutdown()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert idle.recv(1) == b""  # the pump was cancelled, the socket closed
        assert not server._tasks
    finally:
        idle.close()
