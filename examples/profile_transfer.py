"""Sensitive video: borrow the profile of a similar, less sensitive video.

Sometimes even a small correction set is off limits — the query video is
too sensitive to access lightly degraded (paper §3.3.1). The fallback the
paper proposes (§5.3.2): generate the profile on a *similar* video — the
same camera at a different time — and use it to pick the interventions for
the sensitive one.

This example profiles the MAX query (most crowded moment, 0.99-quantile of
per-frame car counts) on public sequence B, chooses a sampling fraction
from B's curve, applies it to sensitive sequence A, and then (with oracle
access, for demonstration only) verifies that A's achieved error is within
the bound B promised.

Run with: ``python examples/profile_transfer.py``
"""

from __future__ import annotations

from repro import (
    Aggregate,
    PublicPreferences,
    Smokescreen,
    detrac_sequence_pair,
    profile_difference,
    yolo_v4_like,
)
from repro.stats.quantiles import relative_rank_error


def main() -> None:
    video_a, video_b = detrac_sequence_pair()
    print(f"sensitive video A: {video_a.frame_count} frames "
          f"(no light-degradation access permitted)")
    print(f"similar video B:   {video_b.frame_count} frames (public)\n")

    model = yolo_v4_like()
    system_b = Smokescreen(video_b, model, trials=20)
    query_b = system_b.query(Aggregate.MAX)

    fractions = (0.02, 0.05, 0.1, 0.2, 0.4, 0.7)
    profile_b = system_b.profiler.profile_sampling_seeded(
        query_b, fractions, root=1
    )
    print("video B's MAX profile (fraction -> bounded rank error):")
    for knob, bound in zip(profile_b.knob_values(), profile_b.error_bounds()):
        print(f"  f={knob:<5g} err_b={bound:.3f}")

    preferences = PublicPreferences(max_error=0.05)
    choice = system_b.choose(profile_b, preferences)
    plan = choice.point.plan
    print(f"\ntransferred setting for video A: {plan.label()}")

    # Apply the transferred plan to the sensitive video.
    system_a = Smokescreen(video_a, model, trials=20)
    query_a = system_a.query(Aggregate.MAX)
    estimate = system_a.estimate(query_a, plan)

    # Oracle verification (demonstration only — production would never
    # touch A undegraded).
    reference = system_a.processor.true_values(query_a)
    truth = system_a.processor.true_answer(query_a)
    achieved = relative_rank_error(reference, estimate.value, truth)
    print(
        f"A's MAX estimate {estimate.value:.0f} vs truth {truth:.0f} "
        f"(achieved rank error {achieved:.3f}, B promised "
        f"{choice.point.error_bound:.3f})"
    )

    # How close were the two videos' profiles really? (§5.3.2's check.)
    profile_a = system_a.profiler.profile_sampling_seeded(
        query_a, fractions, root=2
    )
    difference = profile_difference(profile_a, profile_b)
    print(
        f"\nprofile difference A vs B: mean "
        f"{difference.mean_difference:.3f}, max {difference.max_difference:.3f}"
    )


if __name__ == "__main__":
    main()
