"""Live UDP probe: sender and reflector for real-network smoke tests.

The reflector echoes probe datagrams from one reused buffer (TWAMP-Light,
RFC 5357 Appendix I). Each echo carries the sender's monotonic send stamp
back, so RTT needs no clock sync. Echoes fold into the simulated probe's
``TrainReduction`` per ``probe.CHUNK`` block, with one bit per packet so a
duplicate (RFC 5560) counts once; short and foreign datagrams are ignored.
"""

from __future__ import annotations

import logging
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
    ProbePacket,
    ProbeTimeout,
    TrainConfig,
    TrainReduction,
    TrainStats,
    bert_payload,
    compute_stats,
)

log = logging.getLogger(__name__)

_RCVBUF = 1 << 22
_PACE_EVERY = 64
_PACE_SLEEP_S = 0.0002


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
    sock.settimeout(0.2)
    if ready is not None:
        ready.set()
    view = memoryview(bytearray(65535))
    reflected = 0
    try:
        while not (stop is not None and stop.is_set()):
            try:
                nbytes, addr = sock.recvfrom_into(view)
            except socket.timeout:
                continue
            if nbytes < HEADER_LEN or HEADER_STRUCT.unpack_from(view)[0] != MAGIC:
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
    train does not complete within cfg.timeout_ms.
    """
    n = cfg.count
    payload = bert_payload(cfg.bert_type, cfg.bert_payload_len)
    wire = bytearray(ProbePacket(cfg.train_id, 0, n, cfg.vlan_id, 0,
                                 payload=payload).encode())
    buf = bytearray(65535)
    seen = bytearray((n + 7) // 8)
    echoes = array("Q")  # (tx, rx) pairs not yet folded
    red = TrainReduction()
    pending = n

    def fold() -> None:
        block = np.array(echoes, dtype=np.float64)
        red.fold(block[0::2], block[1::2], first_tx)
        del echoes[:]

    def drain(timeout: float) -> None:
        nonlocal pending
        sock.settimeout(timeout)
        while pending:
            try:
                nbytes = sock.recv_into(buf)
            except (BlockingIOError, socket.timeout):
                return
            now = time.monotonic_ns()
            magic, _v, _f, _vlan, train_id, seq, _c, tx = HEADER_STRUCT.unpack_from(buf)
            if (nbytes < HEADER_LEN or magic != MAGIC or train_id != cfg.train_id
                    or seq >= n or seen[seq >> 3] >> (seq & 7) & 1):
                continue
            seen[seq >> 3] |= 1 << (seq & 7)
            pending -= 1
            echoes.extend((tx, now))
            if len(echoes) == 2 * CHUNK:
                fold()

    sock = _bound_socket(bind)
    deadline = time.monotonic() + cfg.timeout_ms / 1000.0
    try:
        now = first_tx = time.monotonic_ns()
        for seq in range(n):
            HEADER_STRUCT.pack_into(wire, 0, MAGIC, VERSION, 0, cfg.vlan_id,
                                    cfg.train_id, seq, n, now)
            sock.sendto(wire, dst)
            if seq % _PACE_EVERY == _PACE_EVERY - 1:
                time.sleep(_PACE_SLEEP_S)
                drain(0.0)
            now = time.monotonic_ns()
        while pending and time.monotonic() < deadline:
            drain(0.05)
    finally:
        sock.close()

    fold()
    stats = compute_stats(cfg, red, two_way_propagation_us=0.0)
    if pending:
        raise ProbeTimeout(f"train incomplete after {cfg.timeout_ms} ms: "
                           f"{stats.received}/{cfg.count} echoed", stats=stats)
    return stats
