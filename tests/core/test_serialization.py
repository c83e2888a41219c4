"""Round-trip tests for profile/hypercube JSON persistence."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.core.profile import DegradationHypercube, Profile, ProfilePoint
from repro.core.serialization import (
    hypercube_from_dict,
    hypercube_to_dict,
    load_hypercube,
    load_profile,
    plan_from_dict,
    plan_to_dict,
    profile_from_dict,
    profile_to_dict,
    save_hypercube,
    save_profile,
)
from repro.errors import ProfileError
from repro.interventions import FrameSampling, InterventionPlan, NoiseAddition
from repro.video.frame import ObjectClass
from repro.video.geometry import Resolution


def make_profile() -> Profile:
    points = tuple(
        ProfilePoint(
            plan=InterventionPlan.from_knobs(f=f, p=256, c=(ObjectClass.FACE,)),
            error_bound=bound,
            value=5.0,
            n=int(f * 100),
            true_error=0.01 if f == 0.5 else None,
        )
        for f, bound in ((0.1, 0.4), (0.5, 0.2), (1.0, 0.0))
    )
    return Profile(axis="sampling", points=points, query_label="AVG(test)")


def make_cube() -> DegradationHypercube:
    bounds = np.array([[[0.1, 0.2]], [[math.nan, math.inf]]])
    values = np.array([[[5.0, 4.0]], [[3.0, 2.0]]])
    return DegradationHypercube(
        fractions=(0.1, 0.5),
        resolutions=(Resolution(320),),
        removals=((), (ObjectClass.PERSON,)),
        bounds=bounds,
        values=values,
        query_label="AVG(test)",
    )


class TestPlanRoundTrip:
    def test_full_triple(self):
        plan = InterventionPlan.from_knobs(
            f=0.1, p=256, c=(ObjectClass.PERSON, ObjectClass.FACE)
        )
        decoded = plan_from_dict(plan_to_dict(plan))
        assert decoded == plan

    def test_loose_plan(self):
        plan = InterventionPlan()
        decoded = plan_from_dict(plan_to_dict(plan))
        assert decoded == plan

    def test_extras_rejected(self):
        plan = InterventionPlan(
            sampling=FrameSampling(0.5), extras=(NoiseAddition(0.2),)
        )
        with pytest.raises(ProfileError):
            plan_to_dict(plan)


class TestProfileRoundTrip:
    def test_dict_round_trip(self):
        profile = make_profile()
        decoded = profile_from_dict(profile_to_dict(profile))
        assert decoded.axis == profile.axis
        assert decoded.query_label == profile.query_label
        assert decoded.knob_values() == profile.knob_values()
        assert decoded.error_bounds().tolist() == profile.error_bounds().tolist()
        assert decoded.points[1].true_error == 0.01
        assert decoded.points[0].true_error is None

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "profile.json"
        save_profile(make_profile(), path)
        decoded = load_profile(path)
        assert decoded.error_bounds().tolist() == [0.4, 0.2, 0.0]

    def test_file_is_plain_json(self, tmp_path):
        path = tmp_path / "profile.json"
        save_profile(make_profile(), path)
        data = json.loads(path.read_text())
        assert data["kind"] == "profile"
        assert data["schema"] == 1

    def test_wrong_kind_rejected(self):
        data = profile_to_dict(make_profile())
        data["kind"] = "hypercube"
        with pytest.raises(ProfileError):
            profile_from_dict(data)

    def test_wrong_schema_rejected(self):
        data = profile_to_dict(make_profile())
        data["schema"] = 999
        with pytest.raises(ProfileError):
            profile_from_dict(data)


class TestHypercubeRoundTrip:
    def test_dict_round_trip_with_nan_and_inf(self):
        cube = make_cube()
        decoded = hypercube_from_dict(hypercube_to_dict(cube))
        assert decoded.fractions == cube.fractions
        assert decoded.resolutions == cube.resolutions
        assert decoded.removals == cube.removals
        assert decoded.bounds[0, 0, 0] == 0.1
        assert math.isnan(decoded.bounds[1, 0, 0])
        assert math.isinf(decoded.bounds[1, 0, 1])

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "cube.json"
        save_hypercube(make_cube(), path)
        decoded = load_hypercube(path)
        assert decoded.values[0, 0, 0] == 5.0

    def test_slices_work_after_round_trip(self, tmp_path):
        path = tmp_path / "cube.json"
        save_hypercube(make_cube(), path)
        decoded = load_hypercube(path)
        profile = decoded.slice_sampling()
        assert profile.axis == "sampling"

    def test_generated_cube_round_trips(
        self, processor, detrac_dataset, yolo_car, tmp_path
    ):
        """A real profiler output survives persistence bit-for-bit."""
        from repro.core.candidates import CandidateGrid
        from repro.core.profiler import DegradationProfiler
        from repro.query import Aggregate, AggregateQuery

        query = AggregateQuery(detrac_dataset, yolo_car, Aggregate.AVG)
        grid = CandidateGrid(
            fractions=(0.05, 0.2),
            resolutions=(Resolution(256), Resolution(608)),
            removals=((), (ObjectClass.FACE,)),
        )
        cube = DegradationProfiler(processor, trials=1).generate_hypercube_seeded(
            query, grid, root=0
        )
        path = tmp_path / "real.json"
        save_hypercube(cube, path)
        decoded = load_hypercube(path)
        assert np.array_equal(decoded.bounds, cube.bounds, equal_nan=True)
        assert np.array_equal(decoded.values, cube.values, equal_nan=True)
