"""Tests for transmission, privacy accounting, camera, and administrator."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.interventions import InterventionPlan
from repro.system.camera import Camera
from repro.system.network import TransmissionModel
from repro.system.privacy import privacy_report
from repro.video.frame import ObjectClass
from repro.video.geometry import Resolution


class TestTransmissionModel:
    def test_frame_bytes_proportional_to_pixels(self):
        model = TransmissionModel(bytes_per_pixel=0.1)
        assert model.frame_bytes(Resolution(100)) == pytest.approx(1000.0)

    def test_plan_bytes_scale_with_fraction_and_resolution(self, detrac_dataset):
        model = TransmissionModel()
        full = model.plan_bytes(detrac_dataset, InterventionPlan())
        sampled = model.plan_bytes(detrac_dataset, InterventionPlan.from_knobs(f=0.1))
        shrunk = model.plan_bytes(detrac_dataset, InterventionPlan.from_knobs(p=304))
        assert sampled == pytest.approx(full * 0.1)
        assert shrunk == pytest.approx(full * 0.25)

    def test_savings_ratio(self, detrac_dataset):
        model = TransmissionModel()
        plan = InterventionPlan.from_knobs(f=0.1, p=304)
        assert model.savings_ratio(detrac_dataset, plan) == pytest.approx(0.975)

    def test_energy_proportional_to_bytes(self, detrac_dataset):
        model = TransmissionModel(joules_per_megabyte=4.0)
        plan = InterventionPlan.from_knobs(f=0.5)
        energy = model.plan_energy_joules(detrac_dataset, plan)
        assert energy == pytest.approx(model.plan_bytes(detrac_dataset, plan) / 1e6 * 4)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            TransmissionModel(bytes_per_pixel=0.0)
        with pytest.raises(ConfigurationError):
            TransmissionModel().frame_bytes(Resolution(100), quality=0.0)


class TestPrivacyReport:
    def test_no_degradation_full_exposure(self, detrac_dataset, suite):
        report = privacy_report(detrac_dataset, suite, InterventionPlan())
        assert report.person_exposure_ratio == pytest.approx(1.0)
        assert report.face_exposure_ratio == pytest.approx(1.0)

    def test_removal_eliminates_person_exposure(self, detrac_dataset, suite):
        plan = InterventionPlan.from_knobs(c=(ObjectClass.PERSON,))
        report = privacy_report(detrac_dataset, suite, plan)
        assert report.person_frames_exposed == 0.0

    def test_sampling_scales_exposure(self, detrac_dataset, suite):
        plan = InterventionPlan.from_knobs(f=0.1)
        report = privacy_report(detrac_dataset, suite, plan)
        assert report.person_exposure_ratio == pytest.approx(0.1)

    def test_resolution_protects_faces(self, detrac_dataset, suite):
        """Downscaling makes faces unrecognisable: the GDPR-style goal."""
        plan = InterventionPlan.from_knobs(p=128)
        report = privacy_report(detrac_dataset, suite, plan)
        assert report.face_exposure_ratio < 0.05

    def test_face_removal_does_not_remove_persons(self, detrac_dataset, suite):
        plan = InterventionPlan.from_knobs(c=(ObjectClass.FACE,))
        report = privacy_report(detrac_dataset, suite, plan)
        assert report.face_frames_exposed == 0.0
        assert report.person_frames_exposed > 0.0


class TestCamera:
    def test_configure_and_transmit(self, detrac_dataset, suite, rng):
        camera = Camera("cam", detrac_dataset, suite)
        camera.configure(fraction=0.1, resolution=256)
        sample = camera.transmit(rng)
        assert sample.size == round(detrac_dataset.frame_count * 0.1)
        assert camera.bytes_transmitted > 0

    def test_transmission_cost_shrinks_with_degradation(self, detrac_dataset, suite):
        camera = Camera("cam", detrac_dataset, suite)
        full_cost = camera.transmission_cost()
        camera.configure(fraction=0.1, resolution=128)
        assert camera.transmission_cost() < 0.05 * full_cost

    def test_apply_plan_validates_resolution(self, detrac_dataset, suite):
        from repro.errors import InterventionError

        camera = Camera("cam", detrac_dataset, suite)
        with pytest.raises(InterventionError):
            camera.apply_plan(InterventionPlan.from_knobs(p=2048))

    def test_repr_mentions_plan(self, detrac_dataset, suite):
        camera = Camera("cam", detrac_dataset, suite)
        camera.configure(fraction=0.5)
        assert "sampling" in repr(camera)


class TestAdministrator:
    def test_full_deploy_flow(self, suite):
        from repro.core.smokescreen import Smokescreen
        from repro.core.tradeoff import PublicPreferences
        from repro.detection import yolo_v4_like
        from repro.query import Aggregate
        from repro.system import Administrator
        from repro.video import ua_detrac

        dataset = ua_detrac(frame_count=1200)
        system = Smokescreen(dataset, yolo_v4_like(), trials=2)
        query = system.query(Aggregate.AVG)
        profile = system.profiler.profile_sampling_seeded(
            query, (0.05, 0.1, 0.3, 0.6), root=0
        )
        administrator = Administrator(
            name="Harry", preferences=PublicPreferences(max_error=0.5)
        )
        camera = Camera("road-cam", dataset, suite)
        choice, estimate = administrator.deploy(system, camera, query, profile)
        assert camera.plan is choice.point.plan
        assert estimate.error_bound <= 0.5 + 0.3  # fresh draw may differ from profile
