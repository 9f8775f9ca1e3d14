"""Live UDP sender and reflector over loopback."""

import itertools
import socket
import threading
import time
import tracemalloc

import numpy as np
import pytest

from metroslice import live
from metroslice.cli import main
from metroslice.live import PortBindFailure, live_measure, live_reflect
from metroslice.probe import (
    HEADER_STRUCT,
    IP_UDP_HEADER_BYTES,
    MAGIC,
    VERSION,
    BertType,
    ProbeTimeout,
    TrainConfig,
    TrainReduction,
    bert_payload,
    compute_stats,
    decode_packet,
)


def _free_port():
    try:
        s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        s.bind(("127.0.0.1", 0))
    except OSError:
        pytest.skip("loopback UDP sockets unavailable")
    port = s.getsockname()[1]
    s.close()
    return port


def _reflector(port, max_packets):
    ready = threading.Event()
    stop = threading.Event()
    result = {}

    def run():
        result["count"] = live_reflect(
            ("127.0.0.1", port), stop=stop, max_packets=max_packets, ready=ready
        )

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(5.0), "reflector did not come up"
    return thread, stop, result


class TestLoopback:
    def test_train_round_trip(self):
        port = _free_port()
        thread, stop, result = _reflector(port, max_packets=1000)
        try:
            stats = live_measure(
                TrainConfig(count=1000, ip_payload_bytes=256, timeout_ms=10_000),
                dst=("127.0.0.1", port),
            )
        finally:
            stop.set()
            thread.join(5.0)
        assert stats.received == 1000
        assert stats.loss_rate == 0.0
        assert stats.rtt_us > 0.0
        assert stats.rtt_mean_us >= stats.rtt_us
        assert stats.jitter_ns >= 0.0
        assert result["count"] == 1000

    def test_echoes_fold_block_by_block(self, monkeypatch):
        # With 100-echo blocks a 1000-packet train folds ten full blocks
        # and an empty tail, and reduces as one fold of every pair would.
        blocks = []
        fold = TrainReduction.fold

        def spy(red, tx, rx, sent_from):
            blocks.append((tx.copy(), rx.copy()))
            fold(red, tx, rx, sent_from)

        monkeypatch.setattr(live, "CHUNK", 100)
        monkeypatch.setattr(TrainReduction, "fold", spy)
        cfg = TrainConfig(count=1000, ip_payload_bytes=256, timeout_ms=10_000)
        port = _free_port()
        thread, stop, _ = _reflector(port, max_packets=1000)
        try:
            stats = live_measure(cfg, dst=("127.0.0.1", port))
        finally:
            stop.set()
            thread.join(5.0)
        assert [tx.size for tx, _ in blocks] == [100] * 10 + [0]
        tx = np.concatenate([tx for tx, _ in blocks])
        rx = np.concatenate([rx for _, rx in blocks])
        assert np.unique(tx).size == 1000
        whole = TrainReduction()
        fold(whole, tx, rx, float(tx.min()))
        ref = compute_stats(cfg, whole, two_way_propagation_us=0.0)
        assert (stats.received, stats.rtt_us, stats.duration_s) == (
            ref.received, ref.rtt_us, ref.duration_s)
        assert stats.rtt_mean_us == pytest.approx(ref.rtt_mean_us, rel=1e-12)
        assert stats.jitter_ns == pytest.approx(ref.jitter_ns, rel=1e-9)

    def test_rtts_exact_past_2_53_ns_of_uptime(self, monkeypatch):
        # A clock past 2**53 ns, where float64 cannot hold every raw stamp,
        # stepping 1000 ns a call: every RTT and the duration are whole
        # microseconds, and so must the statistics be.
        ticks = itertools.count(2**60, 1000)
        monkeypatch.setattr(live.time, "monotonic_ns", lambda: next(ticks))
        port = _free_port()
        thread, stop, _ = _reflector(port, max_packets=500)
        try:
            stats = live_measure(
                TrainConfig(count=500, ip_payload_bytes=256, timeout_ms=10_000),
                dst=("127.0.0.1", port),
            )
        finally:
            stop.set()
            thread.join(5.0)
        assert stats.received == 500
        assert round(stats.duration_s * 1e9) % 1000 == 0
        total_us = stats.rtt_mean_us * stats.received
        assert total_us == pytest.approx(round(total_us), abs=1e-6)

    def test_single_packet_has_zero_jitter(self):
        port = _free_port()
        thread, stop, _ = _reflector(port, max_packets=1)
        try:
            stats = live_measure(
                TrainConfig(count=1, ip_payload_bytes=128, timeout_ms=5_000),
                dst=("127.0.0.1", port),
            )
        finally:
            stop.set()
            thread.join(5.0)
        assert stats.received == 1
        assert stats.jitter_ns == 0.0
        assert stats.throughput_mbps is None

    def test_cli_prints_single_packet_train(self, capsys):
        # One packet has no throughput: the text output shows n/a.
        port = _free_port()
        thread, stop, _ = _reflector(port, max_packets=1)
        try:
            rc = main(["measure", "--dst", f"127.0.0.1:{port}", "--count", "1"])
        finally:
            stop.set()
            thread.join(5.0)
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("1/1 echoed, rtt min ")
        assert out.rstrip().endswith("throughput n/a Mb/s")

    def test_reflector_ignores_garbage(self):
        port = _free_port()
        thread, stop, result = _reflector(port, max_packets=3)
        try:
            junk = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            junk.sendto(b"short", ("127.0.0.1", port))
            junk.sendto(b"\x00" * 64, ("127.0.0.1", port))  # wrong magic
            other = bytearray(64)
            HEADER_STRUCT.pack_into(other, 0, MAGIC, VERSION + 1, 0, 100, 1, 0, 3, 0)
            junk.sendto(other, ("127.0.0.1", port))  # another header version
            junk.close()
            stats = live_measure(
                TrainConfig(count=3, ip_payload_bytes=128, timeout_ms=5_000),
                dst=("127.0.0.1", port),
            )
        finally:
            stop.set()
            thread.join(5.0)
        assert stats.received == 3
        assert result["count"] == 3

    def test_duplicate_and_foreign_echoes_count_once(self):
        # Every probe is echoed twice, and the first one also draws a short
        # datagram, one of another train, one past the train's end and one
        # of another header version. All but the first echo carry a send
        # stamp far in the future, so any of them counted shows as a
        # negative RTT.
        count = 500
        port = _free_port()
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 22)
        sock.bind(("127.0.0.1", port))
        sock.settimeout(0.2)
        stop = threading.Event()

        def stamped(data, **changes):
            magic, ver, flags, vlan, train_id, seq, n, _ = HEADER_STRUCT.unpack_from(data)
            head = dict(ver=ver, train_id=train_id, seq=seq, tx=2**63) | changes
            out = bytearray(data)
            HEADER_STRUCT.pack_into(out, 0, magic, head["ver"], flags, vlan,
                                    head["train_id"], head["seq"], n, head["tx"])
            return out

        def run():
            first = True
            while not stop.is_set():
                try:
                    data, addr = sock.recvfrom(65535)
                except socket.timeout:
                    continue
                if first:
                    sock.sendto(data[:10], addr)
                    sock.sendto(stamped(data, train_id=9, seq=count - 1), addr)
                    sock.sendto(stamped(data, seq=count), addr)
                    sock.sendto(stamped(data, ver=VERSION + 1), addr)
                    first = False
                sock.sendto(data, addr)
                sock.sendto(stamped(data), addr)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        try:
            stats = live_measure(
                TrainConfig(count=count, ip_payload_bytes=128, train_id=8,
                            timeout_ms=10_000),
                dst=("127.0.0.1", port),
            )
        finally:
            stop.set()
            thread.join(5.0)
            sock.close()
        assert not thread.is_alive()
        assert stats.received == count
        assert stats.loss_rate == 0.0
        assert stats.rtt_us > 0.0

    def test_sender_memory_is_bounded(self):
        # 20 000 packets to a port nobody reads: the sender holds one bit
        # per packet and one receive buffer, not per-packet arrays.
        port = _free_port()
        cfg = TrainConfig(count=20_000, ip_payload_bytes=64, timeout_ms=100)
        tracemalloc.start()
        try:
            with pytest.raises(ProbeTimeout) as exc:
                live_measure(cfg, dst=("127.0.0.1", port))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert exc.value.stats.received == 0
        assert peak < 256 * 1024

    def test_window_bounds_packets_in_flight(self):
        # A peer that never echoes receives one window of the train, not
        # the whole of it, and the partial stats still count every packet.
        port = _free_port()
        sink = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sink.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 22)
        sink.bind(("127.0.0.1", port))
        try:
            with pytest.raises(ProbeTimeout) as exc:
                live_measure(TrainConfig(count=20_000, ip_payload_bytes=64, timeout_ms=100),
                             dst=("127.0.0.1", port))
            queued = 0
            while True:
                try:
                    sink.recv(65535, socket.MSG_DONTWAIT)
                except BlockingIOError:
                    break
                queued += 1
        finally:
            sink.close()
        assert queued == live._WINDOW
        assert (exc.value.stats.count, exc.value.stats.received) == (20_000, 0)

    def test_lost_packets_do_not_stall_the_train(self):
        # The reflector drops every 100th probe. The window counts from the
        # newest echo, so the rest of the train still goes out and returns.
        port = _free_port()
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 22)
        sock.bind(("127.0.0.1", port))
        sock.settimeout(0.2)
        stop = threading.Event()

        def run():
            probes = 0
            while not stop.is_set():
                try:
                    data, addr = sock.recvfrom(65535)
                except socket.timeout:
                    continue
                probes += 1
                if probes % 100:
                    sock.sendto(data, addr)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        try:
            with pytest.raises(ProbeTimeout) as exc:
                live_measure(TrainConfig(count=5000, ip_payload_bytes=64, timeout_ms=2000),
                             dst=("127.0.0.1", port))
        finally:
            stop.set()
            thread.join(5.0)
            sock.close()
        assert not thread.is_alive()
        assert exc.value.stats.received == 4950

    def test_foreign_trickle_does_not_hold_past_deadline(self):
        # One datagram of another train every 10 ms reaches the sender's
        # port for up to 3 s. A train to a dead port still ends at its
        # timeout_ms, not when the trickle stops.
        port, dead = _free_port(), _free_port()
        foreign = bytearray(64)
        HEADER_STRUCT.pack_into(foreign, 0, MAGIC, VERSION, 0, 100, 99, 0, 10, 0)
        stop = threading.Event()

        def trickle():
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
                end = time.monotonic() + 3.0
                while not stop.is_set() and time.monotonic() < end:
                    s.sendto(foreign, ("127.0.0.1", port))
                    stop.wait(0.01)

        thread = threading.Thread(target=trickle, daemon=True)
        thread.start()
        t0 = time.monotonic()
        try:
            with pytest.raises(ProbeTimeout) as exc:
                live_measure(TrainConfig(count=10, ip_payload_bytes=128, train_id=1,
                                         timeout_ms=300),
                             dst=("127.0.0.1", dead), bind=("127.0.0.1", port))
            elapsed = time.monotonic() - t0
        finally:
            stop.set()
            thread.join(5.0)
        assert not thread.is_alive()
        assert elapsed < 1.0
        assert exc.value.stats.received == 0

    def test_no_reflector_times_out_with_partial(self):
        port = _free_port()  # nobody listening on it
        with pytest.raises(ProbeTimeout) as exc:
            live_measure(
                TrainConfig(count=10, ip_payload_bytes=128, timeout_ms=300),
                dst=("127.0.0.1", port),
            )
        partial = exc.value.stats
        assert partial is not None
        assert partial.received == 0
        assert partial.loss_rate == 1.0

    def test_sent_datagrams_decode(self):
        # A peer that never echoes keeps every datagram of a train shorter
        # than the window; each decodes with the reference codec.
        cfg = TrainConfig(count=10, ip_payload_bytes=200, train_id=7, vlan_id=321,
                          bert_type=BertType.INCREMENTING, timeout_ms=100)
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sink:
            sink.bind(("127.0.0.1", 0))
            with pytest.raises(ProbeTimeout):
                live_measure(cfg, dst=sink.getsockname())
            sent = []
            while True:
                try:
                    sent.append(sink.recv(65535, socket.MSG_DONTWAIT))
                except BlockingIOError:
                    break
        payload = bert_payload(cfg.bert_type, cfg.bert_payload_len)
        assert [len(buf) for buf in sent] == [cfg.ip_payload_bytes - IP_UDP_HEADER_BYTES] * 10
        pkts = [decode_packet(buf) for buf in sent]
        assert [p.seq for p in pkts] == list(range(cfg.count))
        assert {(p.train_id, p.count, p.vlan_id, p.flags, p.payload) for p in pkts} == {
            (7, 10, 321, 0, payload)}

    def test_bind_conflict(self):
        port = _free_port()
        holder = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        holder.bind(("127.0.0.1", port))
        try:
            with pytest.raises(PortBindFailure):
                live_reflect(("127.0.0.1", port), max_packets=1)
        finally:
            holder.close()
