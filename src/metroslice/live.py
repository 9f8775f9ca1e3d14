"""Live UDP probe: sender and reflector for real-network smoke tests.

The reflector echoes probe datagrams from one reused buffer (TWAMP-Light,
RFC 5357 Appendix I). Each echo carries the sender's monotonic send stamp
back, so RTT needs no clock sync. Echoes fold into the simulated probe's
``TrainReduction`` per ``probe.CHUNK`` block, with one bit per packet so a
duplicate (RFC 5560) counts once. Both ends ignore short datagrams and
ones of another magic or header version; the sender also ignores other
trains.

The echoes clock the sender (Jacobson, SIGCOMM 1988): it keeps at most
``_WINDOW`` packets beyond the newest echo in flight, so a loopback RTT
includes at most that much self-queueing. The window counts from the
newest echo, not from the missing ones, so a lost packet never stalls the
train. At ``timeout_ms`` the sender stops, sent or not, and reports the
partial train. Both ends read without blocking (``MSG_DONTWAIT``) from
sockets that have no timeout, and wait in ``select`` only when there is
nothing to read, so no receive or send pays for a ``poll``.
"""

from __future__ import annotations

import logging
import select
import socket
import threading
import time
from array import array

import numpy as np

from .probe import (
    CHUNK,
    HEADER_LEN,
    HEADER_STRUCT,
    MAGIC,
    VERSION,
    ProbeError,
    ProbeTimeout,
    TrainConfig,
    TrainReduction,
    TrainStats,
    bert_payload,
    compute_stats,
)

log = logging.getLogger(__name__)

_RCVBUF = 1 << 22
_WINDOW = 64  # packets in flight beyond the newest echo


class PortBindFailure(ProbeError):
    pass


def _bound_socket(bind: tuple[str, int]) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, _RCVBUF)
        sock.bind(bind)
    except OSError as exc:
        sock.close()
        raise PortBindFailure(f"cannot bind {bind[0]}:{bind[1]}: {exc}") from exc
    return sock


def live_reflect(
    bind: tuple[str, int],
    stop: threading.Event | None = None,
    max_packets: int | None = None,
    ready: threading.Event | None = None,
) -> int:
    """Echo probe datagrams until stopped. Returns the reflected count."""
    sock = _bound_socket(bind)
    if ready is not None:
        ready.set()
    view = memoryview(bytearray(65535))
    reflected = 0
    try:
        while not (stop is not None and stop.is_set()):
            try:
                nbytes, addr = sock.recvfrom_into(view, 0, socket.MSG_DONTWAIT)
            except BlockingIOError:
                select.select([sock], [], [], 0.2)  # idle: check ``stop``
                continue
            if nbytes < HEADER_LEN or HEADER_STRUCT.unpack_from(view)[:2] != (MAGIC, VERSION):
                continue
            sock.sendto(view[:nbytes], addr)
            reflected += 1
            if max_packets is not None and reflected >= max_packets:
                break
    finally:
        sock.close()
    log.info("reflector on %s:%d echoed %d packets", bind[0], bind[1], reflected)
    return reflected


def live_measure(
    cfg: TrainConfig,
    dst: tuple[str, int],
    bind: tuple[str, int] = ("0.0.0.0", 0),
) -> TrainStats:
    """Send one train to a reflector and account the echoes.

    Raises ProbeTimeout (with the partial statistics attached) if the
    train does not complete within cfg.timeout_ms. The sender stops at
    that deadline, so unsent packets count as lost against cfg.count.
    """
    n = cfg.count
    # The header is left blank here: each send packs all of it.
    wire = bytearray(HEADER_LEN) + bert_payload(cfg.bert_type, cfg.bert_payload_len)
    buf = bytearray(65535)
    seen = bytearray((n + 7) // 8)
    echoes = array("Q")  # (tx, rx) pairs not yet folded
    red = TrainReduction()
    pending = n
    top = -1  # highest seq echoed so far

    def fold() -> None:
        # Stamps count from the first send, subtracted in integers: float64
        # holds every nanosecond of an offset, but not of a raw stamp past
        # 2**53 ns of uptime.
        block = (np.array(echoes, dtype=np.int64) - first_tx).astype(np.float64)
        red.fold(block[0::2], block[1::2], 0.0)
        del echoes[:]

    def drain(deadline: int, floor: int) -> bool:
        """Fold every queued echo, then wait for more while ``top < floor``.

        Returns False once the monotonic ``deadline`` (ns) passes: a
        datagram, counted or not, stamped at or after it, or no datagram
        before it.
        """
        nonlocal pending, top
        while pending:
            try:
                nbytes = sock.recv_into(buf, 0, socket.MSG_DONTWAIT)
            except BlockingIOError:
                if top >= floor:
                    return True
                left = deadline - time.monotonic_ns()
                if left <= 0 or not select.select([sock], [], [], left / 1e9)[0]:
                    return False
                continue
            now = time.monotonic_ns()
            if now >= deadline:
                return False
            if nbytes < HEADER_LEN:
                continue
            magic, version, _f, _vlan, train_id, seq, _c, tx = HEADER_STRUCT.unpack_from(buf)
            if (magic != MAGIC or version != VERSION or train_id != cfg.train_id
                    or seq >= n or seen[seq >> 3] >> (seq & 7) & 1):
                continue
            seen[seq >> 3] |= 1 << (seq & 7)
            pending -= 1
            if seq > top:
                top = seq
            echoes.extend((tx, now))
            if len(echoes) == 2 * CHUNK:
                fold()
        return True

    sock = _bound_socket(bind)
    try:
        now = first_tx = time.monotonic_ns()
        deadline = now + cfg.timeout_ms * 1_000_000
        for seq in range(n):
            HEADER_STRUCT.pack_into(wire, 0, MAGIC, VERSION, 0, cfg.vlan_id,
                                    cfg.train_id, seq, n, now)
            sock.sendto(wire, dst)
            if seq - top >= _WINDOW and not drain(deadline, seq - _WINDOW + 1):
                break
            now = time.monotonic_ns()
        else:
            drain(deadline, n)  # top < n always: wait for every echo
    finally:
        sock.close()

    fold()
    stats = compute_stats(cfg, red, two_way_propagation_us=0.0)
    if pending:
        raise ProbeTimeout(f"train incomplete after {cfg.timeout_ms} ms: "
                           f"{stats.received}/{cfg.count} echoed", stats=stats)
    return stats
