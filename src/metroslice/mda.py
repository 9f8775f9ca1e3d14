"""Monitoring and data analytics: measurement records and soft-failure
detection over SNR telemetry.

Measurements go into an append-only store that serializes to JSON lines,
one record per probe train. The detector compares incoming SNR samples
against a baseline learned from the first samples of the series and
anticipates the pre-FEC BER limit crossing.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field
from pathlib import Path

from .dataplane import QualitySeries
from .model import sum_left_to_right
from .optical import VirtualClock
from .probe import ProbeTimeout, TrainConfig, TrainStats
from .records import Record, read_jsonl, write_jsonl

log = logging.getLogger(__name__)

#: Pre-FEC BER above which the SD-FEC can no longer correct the channel.
FEC_LIMIT_BER = 2.0e-2


@dataclass(frozen=True)
class MeasurementRecord(Record):
    circuit_id: str
    vlan_id: int
    t_virtual_s: float
    stats: TrainStats
    max_rtt_us: float
    verdict: str  # "pass" | "fail"
    reason: str | None = None


class MdaController:
    """Owns the measurement store and the analytics virtual clock."""

    def __init__(self, clock: VirtualClock | None = None):
        self.clock = clock if clock is not None else VirtualClock()
        self._records: list[MeasurementRecord] = []

    def measure_circuit(
        self,
        circuit_id: str,
        max_rtt_us: float,
        probe,
        cfg: TrainConfig,
    ) -> MeasurementRecord:
        """Run one train on the circuit and append the verdict, recorded
        under the train's VLAN (``cfg.vlan_id``).

        The verdict passes iff the train completed and its minimum RTT is
        within the requisite. A probe timeout is recorded as a failed
        measurement with the partial statistics, not raised.
        """
        reason = None
        try:
            stats = probe.run(cfg)
        except ProbeTimeout as exc:
            stats = exc.stats
            reason = str(exc)
        if stats.duration_s is not None:
            self.clock.advance(stats.duration_s)
        else:
            self.clock.advance(cfg.timeout_ms / 1000.0)
        ok = (
            reason is None
            and stats.rtt_us is not None
            and stats.rtt_us <= max_rtt_us
        )
        if not ok and reason is None:
            reason = (
                "no packets received"
                if stats.rtt_us is None
                else f"rtt {stats.rtt_us:.3f} us exceeds {max_rtt_us:.3f} us"
            )
        record = MeasurementRecord(
            circuit_id=circuit_id,
            vlan_id=cfg.vlan_id,
            t_virtual_s=self.clock.now_s,
            stats=stats,
            max_rtt_us=max_rtt_us,
            verdict="pass" if ok else "fail",
            reason=reason,
        )
        self._records.append(record)
        log.info("measured %s: %s", circuit_id, record.verdict)
        return record

    def append(self, record: MeasurementRecord) -> None:
        self._records.append(record)

    def query_records(
        self,
        circuit_id: str | None = None,
        t_min_s: float | None = None,
        t_max_s: float | None = None,
    ) -> list[MeasurementRecord]:
        out = [
            r for r in self._records
            if (circuit_id is None or r.circuit_id == circuit_id)
            and (t_min_s is None or r.t_virtual_s >= t_min_s)
            and (t_max_s is None or r.t_virtual_s <= t_max_s)
        ]
        out.sort(key=lambda r: (r.t_virtual_s, r.circuit_id))
        return out

    def export_jsonl(self, path: str | Path) -> int:
        records = self.query_records()
        write_jsonl(path, records)
        return len(records)

    @classmethod
    def load_jsonl(cls, path: str | Path) -> "MdaController":
        """Read an ``export_jsonl`` file; a malformed line raises
        ConfigError naming the file, the line and the key."""
        mda = cls()
        for record in read_jsonl(path, MeasurementRecord):
            mda.append(record)
        return mda


# ---------------------------------------------------------------------------
# Soft-failure detection


@dataclass(frozen=True)
class DetectorConfig:
    delta_db: float = 0.5
    consecutive: int = 3
    fec_limit_ber: float = FEC_LIMIT_BER
    baseline_window: int = 10

    def __post_init__(self) -> None:
        if self.delta_db <= 0 or self.consecutive < 1 or self.baseline_window < 1:
            raise ValueError("detector parameters out of range")
        if not 0 < self.fec_limit_ber < 0.5:
            raise ValueError("fec_limit_ber must be in (0, 0.5)")


@dataclass(frozen=True)
class SoftFailureReport(Record):
    detected: bool
    t_detect_s: float | None = None
    t_fec_s: float | None = None
    anticipation_s: float | None = None


def detect_soft_failure(
    series: QualitySeries,
    cfg: DetectorConfig,
) -> SoftFailureReport:
    """Flag a developing degradation and anticipate the FEC limit.

    The baseline is the mean SNR of the first ``baseline_window`` samples.
    Detection fires at the first of ``consecutive`` successive samples
    whose SNR is strictly below baseline - delta_db. The FEC crossing time
    interpolates linearly between the samples bracketing the limit; the
    anticipation is the gap between the two.
    """
    t, snr, ber = series.t_s, series.snr_db, series.prefec_ber
    if len(snr) < cfg.baseline_window:
        return SoftFailureReport(detected=False)
    baseline = sum_left_to_right(snr[: cfg.baseline_window]) / cfg.baseline_window
    threshold = baseline - cfg.delta_db

    t_detect = None
    run = 0
    for i, x in enumerate(snr):
        if x < threshold:
            run += 1
            if run == cfg.consecutive:
                t_detect = t[i - cfg.consecutive + 1]
                break
        else:
            run = 0
    if t_detect is None:
        return SoftFailureReport(detected=False)

    limit = cfg.fec_limit_ber
    t_fec = None
    for i, (prev, cur) in enumerate(itertools.pairwise(ber)):
        if prev < limit <= cur:
            frac = (limit - prev) / (cur - prev)
            t_fec = t[i] + frac * (t[i + 1] - t[i])
            break
    if t_fec is None and ber[0] >= limit:
        t_fec = t[0]

    anticipation = None if t_fec is None else t_fec - t_detect
    return SoftFailureReport(
        detected=True,
        t_detect_s=t_detect,
        t_fec_s=t_fec,
        anticipation_s=anticipation,
    )
