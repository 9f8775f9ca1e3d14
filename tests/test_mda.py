"""MDA controller: measurement store, verdicts, soft-failure detection."""

import functools
import json
import math
import operator
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from metroslice.dataplane import DegradationScenario, QualitySeries, evolve_quality
from metroslice.mda import (
    FEC_LIMIT_BER,
    DetectorConfig,
    MdaController,
    MeasurementRecord,
    SoftFailureReport,
    detect_soft_failure,
)
from metroslice.optical import ChannelState, FrequencySlot, MediaChannel, VirtualClock
from metroslice.orchestrator import KpiReport, WorkflowEvent
from metroslice.planner import BlockReason, PlacementDecision, ServiceChainCandidate
from metroslice.probe import LatencyBudget, ProbeTimeout, TrainConfig, TrainStats
from metroslice.records import ConfigError, read_jsonl, write_jsonl

from oracles import QualitySample, per_sample_detect, per_sample_quality


def _stats(rtt=100.0, duration=0.5, received=1000, count=1000):
    return TrainStats(
        count=count,
        received=received,
        rtt_us=rtt,
        rtt_mean_us=rtt,
        jitter_ns=1.0,
        throughput_mbps=9000.0,
        duration_s=duration,
        two_way_propagation_us=None,
    )


class _FixedProbe:
    def __init__(self, stats):
        self._stats = stats

    def run(self, cfg):
        return self._stats


class _TimeoutProbe:
    def __init__(self, partial):
        self._partial = partial

    def run(self, cfg):
        raise ProbeTimeout("train incomplete after 10000 ms", self._partial)


class TestMeasureCircuit:
    def test_pass_advances_clock_by_duration(self):
        mda = MdaController(VirtualClock(7.0))
        rec = mda.measure_circuit("mc-1", max_rtt_us=200.0,
                                  probe=_FixedProbe(_stats(rtt=100.0, duration=0.5)),
                                  cfg=TrainConfig(count=1000))
        assert rec.verdict == "pass" and rec.reason is None
        assert rec.t_virtual_s == pytest.approx(7.5)
        assert mda.clock.now_s == pytest.approx(7.5)
        assert mda.query_records() == [rec]

    def test_fail_on_rtt_bound(self):
        mda = MdaController()
        rec = mda.measure_circuit("mc-1", max_rtt_us=50.0,
                                  probe=_FixedProbe(_stats(rtt=100.0)),
                                  cfg=TrainConfig(count=1000))
        assert rec.verdict == "fail"
        assert "exceeds" in rec.reason

    def test_bound_is_inclusive(self):
        mda = MdaController()
        rec = mda.measure_circuit("mc-1", max_rtt_us=100.0,
                                  probe=_FixedProbe(_stats(rtt=100.0)),
                                  cfg=TrainConfig(count=1000))
        assert rec.verdict == "pass"

    def test_fully_lost_train_advances_by_timeout(self):
        dead = TrainStats(1000, 0, None, None, None, None, None)
        mda = MdaController()
        rec = mda.measure_circuit("mc-1", max_rtt_us=100.0,
                                  probe=_FixedProbe(dead),
                                  cfg=TrainConfig(count=1000, timeout_ms=4000))
        assert rec.verdict == "fail"
        assert rec.reason == "no packets received"
        assert mda.clock.now_s == pytest.approx(4.0)

    def test_probe_timeout_recorded_not_raised(self):
        partial = _stats(rtt=90.0, duration=None, received=10, count=1000)
        mda = MdaController()
        rec = mda.measure_circuit("mc-1", max_rtt_us=200.0,
                                  probe=_TimeoutProbe(partial),
                                  cfg=TrainConfig(count=1000, timeout_ms=2000))
        assert rec.verdict == "fail"
        assert "incomplete" in rec.reason
        assert rec.stats == partial
        assert mda.clock.now_s == pytest.approx(2.0)

    def test_repeated_measurements_monotone_in_time(self):
        mda = MdaController()
        times = [
            mda.measure_circuit("mc-1", 200.0,
                                _FixedProbe(_stats(duration=0.25)),
                                TrainConfig(count=10)).t_virtual_s
            for _ in range(10)
        ]
        assert times == sorted(times)
        assert all(b > a for a, b in zip(times, times[1:]))


_CAND = ServiceChainCandidate(("vim-amen", "vim-mcen"), 798.2156768000001)
_FULL = TrainStats(1000, 999, 799.0219000000001, 799.055685749586, 7.184151033901722,
                   97196.25881112232, 0.12063893660000001, 783.8556768)
_MEASURED = MeasurementRecord("circuit-1", 100, 137.1206389366, _FULL, 750.0, "fail",
                              "rtt 799.022 us exceeds 750.000 us")

#: A fixed instance of each record class, with the JSON the package wrote
#: for it before the classes shared one codec (for ``LatencyBudget``, the
#: ``budget`` entry of ``budget.json``).
RECORDS = [
    (FrequencySlot(-3, 2),
     '{"center_thz": 193.08124999999998, "m": 2, "n": -3, "width_ghz": 25.0}'),
    (MediaChannel("mc-0007", "sip-a", "sip-z", FrequencySlot(5), ("l-ab", "l-bc"),
                  ChannelState.DELETED),
     '{"a_sip": "sip-a", "mc_id": "mc-0007", "route": ["l-ab", "l-bc"], "slot": '
     '{"center_thz": 193.13125, "m": 4, "n": 5, "width_ghz": 50.0}, '
     '"state": "Deleted", "z_sip": "sip-z"}'),
    (_CAND, '{"cost_us": 798.2156768000001, "vim_ids": ["vim-amen", "vim-mcen"]}'),
    (PlacementDecision(_CAND, None),
     '{"block_reason": null, "candidate": {"cost_us": 798.2156768000001, '
     '"vim_ids": ["vim-amen", "vim-mcen"]}, "placed": true}'),
    (PlacementDecision(None, BlockReason.RTT_EXCEEDED, ranked=(_CAND,)),
     '{"block_reason": "RttExceeded", "candidate": null, "placed": false}'),
    (_FULL,
     '{"count": 1000, "duration_s": 0.12063893660000001, "jitter_ns": 7.184151033901722, '
     '"loss_rate": 0.001, "received": 999, "rtt_mean_us": 799.055685749586, '
     '"rtt_us": 799.0219000000001, "throughput_mbps": 97196.25881112232, '
     '"two_way_propagation_us": 783.8556768}'),
    (TrainStats(10, 0, None, None, None, None, None),
     '{"count": 10, "duration_s": null, "jitter_ns": null, "loss_rate": 1.0, '
     '"received": 0, "rtt_mean_us": null, "rtt_us": null, "throughput_mbps": null, '
     '"two_way_propagation_us": null}'),
    (_MEASURED,
     '{"circuit_id": "circuit-1", "max_rtt_us": 750.0, '
     '"reason": "rtt 799.022 us exceeds 750.000 us", "stats": {"count": 1000, '
     '"duration_s": 0.12063893660000001, "jitter_ns": 7.184151033901722, '
     '"loss_rate": 0.001, "received": 999, "rtt_mean_us": 799.055685749586, '
     '"rtt_us": 799.0219000000001, "throughput_mbps": 97196.25881112232, '
     '"two_way_propagation_us": 783.8556768}, "t_virtual_s": 137.1206389366, '
     '"verdict": "fail", "vlan_id": 100}'),
    (SoftFailureReport(True, 212.0, 268.37651477928224, 56.37651477928224),
     '{"anticipation_s": 56.37651477928224, "detected": true, "t_detect_s": 212.0, '
     '"t_fec_s": 268.3765147792822}'),
    (SoftFailureReport(False),
     '{"anticipation_s": null, "detected": false, "t_detect_s": null, "t_fec_s": null}'),
    (WorkflowEvent(4, 3.0, "nfvo", "m04_vnf_instantiation_dispatch",
                   {"vims": ["vim-amen", "vim-mcen"]}),
     '{"actor": "nfvo", "detail": {"vims": ["vim-amen", "vim-mcen"]}, '
     '"label": "m04_vnf_instantiation_dispatch", "seq": 4, "t_virtual_s": 3.0}'),
    (KpiReport(132.0, 134.0, 137.0, 50.0, {"laser_warmup": 125.0, "media_channel": 5.0}),
     '{"excl_transponder_s": 50.0, "kpi1_s": 132.0, "kpi2_s": 134.0, "kpi3_s": 137.0, '
     '"phases": {"laser_warmup": 125.0, "media_channel": 5.0}}'),
    (LatencyBudget(1.25, 0.5000000000000001, 3.0),
     '{"optical_us": 3.0, "probe_us": 1.25, "switches_us": 0.5000000000000001}'),
]


class TestStore:
    def _seed(self, mda):
        for i, (cid, t) in enumerate([("mc-1", 1.0), ("mc-2", 2.0), ("mc-1", 3.0)]):
            mda.append(MeasurementRecord(
                circuit_id=cid, vlan_id=100, t_virtual_s=t,
                stats=_stats(rtt=10.0 + i), max_rtt_us=100.0, verdict="pass",
            ))

    def test_query_filters(self):
        mda = MdaController()
        self._seed(mda)
        assert [r.t_virtual_s for r in mda.query_records()] == [1.0, 2.0, 3.0]
        assert [r.t_virtual_s for r in mda.query_records(circuit_id="mc-1")] == [1.0, 3.0]
        assert [r.t_virtual_s for r in mda.query_records(t_min_s=2.0)] == [2.0, 3.0]
        assert [r.t_virtual_s for r in mda.query_records(t_min_s=1.5, t_max_s=2.5)] == [2.0]

    def test_jsonl_round_trip(self, tmp_path):
        mda = MdaController()
        self._seed(mda)
        path = tmp_path / "records.jsonl"
        assert mda.export_jsonl(path) == 3
        again = MdaController.load_jsonl(path)
        assert again.query_records() == mda.query_records()
        # Every record class reads back what it wrote; derived keys are
        # ignored on the way in, omitted fields take their defaults.
        for obj, text in RECORDS:
            back = type(obj).from_record(json.loads(text))
            assert json.dumps(back.to_record(), sort_keys=True) == text
        with pytest.raises(ConfigError, match="record: stats.received: expected int"):
            MeasurementRecord.from_record(
                {**_MEASURED.to_record(), "stats": {"count": 1, "received": 1.0}}
            )

    @pytest.mark.parametrize("obj, text", RECORDS,
                             ids=[type(obj).__name__ for obj, _ in RECORDS])
    def test_record_schema(self, obj, text):
        assert json.dumps(obj.to_record(), sort_keys=True) == text

    @pytest.mark.parametrize("obj", [obj for obj, _ in RECORDS],
                             ids=[type(obj).__name__ for obj, _ in RECORDS])
    def test_file_round_trip(self, tmp_path, obj):
        # Omitted fields are not written, so they read back as defaults.
        path = tmp_path / "records.jsonl"
        write_jsonl(path, [obj])
        (back,) = read_jsonl(path, type(obj))
        assert back == replace(obj, **{f: getattr(back, f) for f in obj.OMITTED})

    @pytest.mark.parametrize("cls, edit, message", [
        (MediaChannel, lambda r: r["route"].append(3), "route[2]: expected str, got int"),
        (MediaChannel, lambda r: r.update(state="Gone"), "state: unknown state 'Gone'"),
        (PlacementDecision, lambda r: r.update(candidate=[]),
         "candidate: expected dict, got list"),
    ], ids=["list-item", "enum", "optional-nested-as-list"])
    def test_malformed_record(self, cls, edit, message):
        rec = next(obj for obj, _ in RECORDS if type(obj) is cls).to_record()
        edit(rec)
        with pytest.raises(ConfigError) as err:
            cls.from_record(rec)
        assert str(err.value) == f"record: {message}"


class TestDetectorConfig:
    def test_validation(self):
        DetectorConfig()
        for kw in (
            {"delta_db": 0.0},
            {"consecutive": 0},
            {"baseline_window": 0},
            {"fec_limit_ber": 0.0},
            {"fec_limit_ber": 0.5},
        ):
            with pytest.raises(ValueError):
                DetectorConfig(**kw)


def _fec_crossing_oracle(ramp, snr0=23.0, start=10.0, period=1.0, duration=800.0):
    # Recompute the BER series with scipy.stats.norm and interpolate the
    # limit crossing with plain floats; independent of the package code.
    def ber(snr_db):
        return float(norm.sf(math.sqrt(10.0 ** (snr_db / 10.0))))

    t = 0.0
    prev_t, prev_ber = None, None
    while t <= duration + period / 2:
        snr = snr0 - ramp * max(0.0, t - start)
        b = ber(snr)
        if prev_ber is not None and prev_ber < FEC_LIMIT_BER <= b:
            frac = (FEC_LIMIT_BER - prev_ber) / (b - prev_ber)
            return prev_t + frac * (t - prev_t)
        prev_t, prev_ber = t, b
        t += period
    return None


class TestSoftFailureDetection:
    def _series(self, ramp, duration, start=10.0):
        return evolve_quality(DegradationScenario(
            ramp_db_per_s=ramp, duration_s=duration, snr0_db=23.0,
            ramp_start_s=start,
        ))

    def test_fast_ramp_closed_form(self):
        # Baseline 23 dB from the 10-sample hold; threshold 22.5 dB.
        # snr(t) = 23 - 0.25 (t - 10) drops strictly below at t = 13.
        report = detect_soft_failure(self._series(0.25, 100.0), DetectorConfig())
        assert report.detected
        assert report.t_detect_s == pytest.approx(13.0)
        assert report.t_fec_s == pytest.approx(_fec_crossing_oracle(0.25), rel=1e-9)
        assert report.anticipation_s == pytest.approx(report.t_fec_s - 13.0, rel=1e-12)
        assert 63.0 < report.anticipation_s < 65.0

    def test_slow_ramp_closed_form(self):
        # 0.025 dB/s crosses the threshold at t = 31 and the FEC limit
        # roughly ten times later than the fast ramp.
        report = detect_soft_failure(self._series(0.025, 800.0), DetectorConfig())
        assert report.detected
        assert report.t_detect_s == pytest.approx(31.0)
        assert report.t_fec_s == pytest.approx(_fec_crossing_oracle(0.025), rel=1e-9)
        assert 648.0 < report.anticipation_s < 650.0

    def test_anticipation_invariant_to_hold_length(self):
        a = detect_soft_failure(self._series(0.25, 100.0, start=10.0), DetectorConfig())
        b = detect_soft_failure(self._series(0.25, 140.0, start=50.0), DetectorConfig())
        assert b.t_detect_s == pytest.approx(a.t_detect_s + 40.0)
        assert b.anticipation_s == pytest.approx(a.anticipation_s, rel=1e-9)

    def test_healthy_channel_not_detected(self):
        report = detect_soft_failure(self._series(0.0, 100.0), DetectorConfig())
        assert not report.detected
        assert report.t_detect_s is None and report.anticipation_s is None

    def test_short_series_not_detected(self):
        series = self._series(0.25, 5.0)
        assert len(series) < DetectorConfig().baseline_window
        assert not detect_soft_failure(series, DetectorConfig()).detected

    def test_drop_to_exact_threshold_is_not_detection(self):
        cfg = DetectorConfig(delta_db=0.5, consecutive=1, baseline_window=3)
        series = QualitySeries([float(t) for t in range(8)],
                               [23.0] * 3 + [22.5] * 5, [1e-9] * 8)
        assert not detect_soft_failure(series, cfg).detected

    def test_consecutive_requirement_resets_on_recovery(self):
        cfg = DetectorConfig(delta_db=0.5, consecutive=3, baseline_window=2)
        snrs = [23.0, 23.0, 22.0, 22.0, 23.0, 22.0, 22.0, 22.0]
        series = QualitySeries([float(t) for t in range(8)], snrs, [1e-9] * 8)
        report = detect_soft_failure(series, cfg)
        # The run of three only completes at t = 5..7.
        assert report.detected and report.t_detect_s == 5.0

    def test_series_starting_beyond_fec_limit(self):
        cfg = DetectorConfig(delta_db=0.5, consecutive=1, baseline_window=1)
        series = QualitySeries(
            [0.0, 1.0], [5.0, 4.0],
            [float(norm.sf(math.sqrt(10 ** 0.5))), float(norm.sf(math.sqrt(10 ** 0.4)))],
        )
        assert series.prefec_ber[0] >= FEC_LIMIT_BER
        report = detect_soft_failure(series, cfg)
        assert report.detected
        assert report.t_fec_s == 0.0
        assert report.anticipation_s == pytest.approx(-1.0)


def _hex(x):
    return None if x is None else x.hex()


def _report_bits(r):
    return (r.detected, _hex(r.t_detect_s), _hex(r.t_fec_s), _hex(r.anticipation_s))


def _columns(rows):
    """The ``QualitySeries`` of ``(t_s, snr_db, prefec_ber)`` rows."""
    return QualitySeries(*([r[i] for r in rows] for i in range(3)))


_scenarios = st.builds(
    DegradationScenario,
    ramp_db_per_s=st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
    duration_s=st.floats(0.0, 400.0),
    snr0_db=st.floats(-5.0, 30.0),
    sample_period_s=st.floats(0.05, 5.0),
    ramp_start_s=st.one_of(st.floats(0.0, 60.0), st.floats(0.0, 500.0)),
)
_detectors = st.builds(
    DetectorConfig,
    delta_db=st.floats(0.01, 3.0),
    consecutive=st.integers(1, 5),
    fec_limit_ber=st.floats(1e-6, 0.49),
    baseline_window=st.one_of(st.integers(1, 15), st.integers(1, 300)),
)


class TestColumnarMatchesPerSample:
    """``evolve_quality`` and ``detect_soft_failure`` against the
    one-object-per-sample oracles, bit for bit."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(sc=_scenarios, cfg=_detectors)
    # Zero ramp: a flat channel.
    @example(sc=DegradationScenario(ramp_db_per_s=0.0, ramp_start_s=10.0),
             cfg=DetectorConfig())
    # The ramp would start after the last sample.
    @example(sc=DegradationScenario(duration_s=50.0, ramp_start_s=80.0),
             cfg=DetectorConfig())
    # A baseline window longer than the series.
    @example(sc=DegradationScenario(duration_s=5.0), cfg=DetectorConfig())
    # The first sample is already past the FEC limit.
    @example(sc=DegradationScenario(snr0_db=5.0), cfg=DetectorConfig())
    def test_evolve_and_detect(self, sc, cfg):
        series = evolve_quality(sc)
        want = per_sample_quality(sc)
        for name in ("t_s", "snr_db", "prefec_ber"):
            assert [x.hex() for x in getattr(series, name)] == [
                getattr(q, name).hex() for q in want
            ], name
        assert _report_bits(detect_soft_failure(series, cfg)) == _report_bits(
            per_sample_detect(want, cfg))

    # Values drawn from a few exact ones as well, so that samples land on
    # the threshold and on the FEC limit.
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        rows=st.lists(st.tuples(
            st.floats(-1e3, 1e3),
            st.one_of(st.sampled_from([22.5, 23.0]), st.floats(-10.0, 40.0)),
            st.one_of(st.sampled_from([0.02, 0.1]), st.floats(0.0, 0.5)),
        ), max_size=40),
        cfg=st.builds(
            DetectorConfig,
            delta_db=st.one_of(st.just(0.5), st.floats(0.01, 3.0)),
            consecutive=st.integers(1, 4),
            fec_limit_ber=st.one_of(st.sampled_from([0.02, 0.1]),
                                    st.floats(1e-6, 0.49)),
            baseline_window=st.integers(1, 12),
        ),
    )
    def test_detect_on_arbitrary_columns(self, rows, cfg):
        series = _columns(rows)
        want = per_sample_detect([QualitySample(*r) for r in rows], cfg)
        assert _report_bits(detect_soft_failure(series, cfg)) == _report_bits(want)

    def test_baseline_sums_in_order(self):
        # 16 SNR values whose in-order sum differs in the last bit from
        # NumPy's pairwise sum and from math.fsum; the next sample sits at
        # the lower of the two thresholds, so a baseline summed any other
        # way flips the verdict.
        rng = random.Random(1)
        window = [rng.uniform(22.0, 22.5) for _ in range(16)]
        cfg = DetectorConfig(delta_db=0.5, consecutive=1, baseline_window=16)
        in_order = functools.reduce(operator.add, window, 0) / 16 - 0.5
        for other in (float(np.sum(window)), math.fsum(window)):
            assert other / 16 - 0.5 != in_order
            x = min(in_order, other / 16 - 0.5)
            rows = [(float(i), snr, 1e-9) for i, snr in enumerate(window + [x])]
            got = detect_soft_failure(_columns(rows), cfg)
            assert got.detected == (x < in_order)
            assert _report_bits(got) == _report_bits(
                per_sample_detect([QualitySample(*r) for r in rows], cfg))

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError):
            QualitySeries([0.0, 1.0], [23.0], [1e-9, 1e-9])
