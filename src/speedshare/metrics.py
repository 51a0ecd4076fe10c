"""Privacy and traffic measurements over a round transcript.

Privacy: what a curious participant can estimate about its in-neighbors from
the shares it received, and how far the base station's view is from the true
fleet curve.  Traffic: exact wire bytes for every transmission in a round.

Both are read from the transcript alone: the base station's deviation uses
the true total the round recorded (:attr:`RoundTranscript.true_total`), so no
cost model is evaluated here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .emissions import Vehicle
from .protocol import RoundTranscript, from_fixed
from .wire import encode_aggregated_table, encode_recommendation, encode_share_columns


def local_estimated_error(transcript: RoundTranscript, vehicle_id: str) -> tuple[float, ...]:
    """Best in-neighbor estimate minus the truth, per grid point (real units).

    A receiver's only estimator for the sum of its in-neighbors' masked costs
    is the sum of the shares they sent it; the difference from the true masked
    sum is exactly the (negated) randomness the senders kept or routed
    elsewhere.  Larger share bounds make this curve wider, i.e. the estimate
    more useless.  The true masked sum comes from the transcript itself: a
    sender's kept share plus every column it sent restores its masked table
    exactly.  So no cost model is evaluated, and every receiver's curve is
    computed once per transcript (:attr:`RoundTranscript.estimate_errors`).
    A vehicle that received nothing has an all-zero curve.
    """
    curve = transcript.estimate_errors.get(vehicle_id)
    return curve if curve is not None else (0.0,) * transcript.grid.m


def base_station_deviation(curve: Sequence[int], truth: Sequence[float]) -> tuple[float, ...]:
    """Base station's unscaled aggregate minus the true total cost, per grid point.

    With identity masking this is only quantisation noise; any affine mask
    shows up here as the (intended) distortion hiding the true curve.
    """
    return tuple(from_fixed(v) - t for v, t in zip(curve, truth))


@dataclass(frozen=True)
class PrivacyReport:
    """Per-vehicle local estimation error curves plus the base station's deviation.

    ``exact_estimates`` lists vehicles that received shares and whose error
    curve is identically zero — i.e. the randomness degenerated and they
    learned their in-neighbors' masked sum exactly.  Any non-empty value is a
    privacy loss worth flagging.
    """

    local_error: Mapping[str, tuple[float, ...]]
    base_deviation: tuple[float, ...]
    exact_estimates: tuple[str, ...] = ()


def privacy_report(transcript: RoundTranscript, fleet: Sequence[Vehicle]) -> PrivacyReport:
    """Evaluate what every participant (and the base station) could infer.

    Local errors are read from the transcript: a vehicle's in-neighbors are
    the senders in its inbox.
    """
    local: dict[str, tuple[float, ...]] = {}
    exact: list[str] = []
    for vehicle in fleet:
        vid = vehicle.vehicle_id
        local[vid] = local_estimated_error(transcript, vid)
        if transcript.inboxes.get(vid) and not any(local[vid]):
            exact.append(vid)
    deviation = base_station_deviation(transcript.curve, transcript.true_total)
    return PrivacyReport(
        local_error=local, base_deviation=deviation, exact_estimates=tuple(exact)
    )


@dataclass(frozen=True)
class TrafficReport:
    """Exact byte counts for one round."""

    vehicle_to_vehicle: int
    vehicle_to_base: int
    broadcast: int
    per_message: tuple[int, ...]
    message_count: int
    upload_count: int

    @property
    def total(self) -> int:
        return self.vehicle_to_vehicle + self.vehicle_to_base + self.broadcast


def traffic_report(transcript: RoundTranscript) -> TrafficReport:
    """Account for every byte a round put on the air.

    Each share column and each upload is an 8*M-byte table; the broadcast is a
    single 8-byte pair.  Totals are computed from the actual encodings, not
    the formula, so the tests can check the two against each other.
    """
    per_message = tuple(map(len, encode_share_columns(transcript.grid, transcript.shares)))
    upload = sum(len(encode_aggregated_table(t)) for t in transcript.tables.values())
    broadcast = len(
        encode_recommendation(transcript.recommendation, transcript.grid)
    )
    return TrafficReport(
        vehicle_to_vehicle=sum(per_message),
        vehicle_to_base=upload,
        broadcast=broadcast,
        per_message=per_message,
        message_count=len(per_message),
        upload_count=len(transcript.tables),
    )
