"""Tests for the portable reduced-benchmark manifest (Section 5)."""

import json

import pytest

from repro import BenchmarkReducer, Measurer, build_nas_suite
from repro.core import (ReducedSuiteManifest, benchmark_manifest,
                        evaluate_on_target, export_manifest)
from repro.machine import CORE2, SANDY_BRIDGE


@pytest.fixture(scope="module")
def reduced_and_measurer():
    m = Measurer()
    reduced = BenchmarkReducer(build_nas_suite(), m).reduce("elbow")
    return reduced, m


class TestExport:
    def test_manifest_valid(self, reduced_and_measurer):
        reduced, _ = reduced_and_measurer
        manifest = export_manifest(reduced)
        manifest.validate()
        assert manifest.suite_name == "NAS"
        assert manifest.representatives == reduced.representatives
        assert len(manifest.ref_seconds) == len(reduced.profiles)

    def test_json_roundtrip(self, reduced_and_measurer):
        reduced, _ = reduced_and_measurer
        manifest = export_manifest(reduced)
        restored = ReducedSuiteManifest.from_json(manifest.to_json())
        assert restored == manifest

    def test_file_roundtrip(self, reduced_and_measurer, tmp_path):
        reduced, _ = reduced_and_measurer
        manifest = export_manifest(reduced)
        path = tmp_path / "nas.reduced.json"
        manifest.save(str(path))
        assert ReducedSuiteManifest.load(str(path)) == manifest

    def test_version_check(self, reduced_and_measurer):
        reduced, _ = reduced_and_measurer
        data = json.loads(export_manifest(reduced).to_json())
        data["format_version"] = 99
        with pytest.raises(ValueError):
            ReducedSuiteManifest.from_json(json.dumps(data))

    def test_validate_rejects_foreign_representative(self,
                                                     reduced_and_measurer):
        reduced, _ = reduced_and_measurer
        manifest = export_manifest(reduced)
        broken = ReducedSuiteManifest(
            suite_name=manifest.suite_name,
            reference_name=manifest.reference_name,
            feature_names=manifest.feature_names,
            clusters=manifest.clusters,
            representatives=("nope",) + manifest.representatives[1:],
            ref_seconds=manifest.ref_seconds,
            invocations=manifest.invocations,
            apps=manifest.apps,
            coverage=manifest.coverage,
        )
        with pytest.raises(ValueError):
            broken.validate()


class TestPortableWorkflow:
    def test_manifest_matches_live_pipeline(self, reduced_and_measurer):
        """Predicting from the manifest must equal predicting from the
        in-memory ReducedSuite (same representatives, same math)."""
        reduced, m = reduced_and_measurer
        manifest = export_manifest(reduced)
        suite = build_nas_suite()
        rep_times = benchmark_manifest(manifest, suite, m, CORE2)
        from_manifest = manifest.predict(rep_times)
        live = evaluate_on_target(reduced, CORE2, m)
        for pred in live.codelets:
            assert from_manifest[pred.name] == pred.predicted_seconds

    def test_application_totals(self, reduced_and_measurer):
        reduced, m = reduced_and_measurer
        manifest = export_manifest(reduced)
        suite = build_nas_suite()
        rep_times = benchmark_manifest(manifest, suite, m,
                                       SANDY_BRIDGE)
        apps = manifest.predict_applications(rep_times)
        assert set(apps) == {"bt", "cg", "ft", "is", "lu", "mg", "sp"}
        live = evaluate_on_target(reduced, SANDY_BRIDGE, m)
        for app in live.applications:
            assert apps[app.app] == pytest.approx(
                app.predicted_seconds, rel=1e-9)

    def test_only_representatives_measured(self, reduced_and_measurer):
        reduced, m = reduced_and_measurer
        manifest = export_manifest(reduced)
        rep_times = benchmark_manifest(manifest, build_nas_suite(), m,
                                       CORE2)
        assert set(rep_times) == set(manifest.representatives)

    def test_cluster_lookup(self, reduced_and_measurer):
        reduced, _ = reduced_and_measurer
        manifest = export_manifest(reduced)
        for idx, cluster in enumerate(manifest.clusters):
            for name in cluster:
                assert manifest.cluster_of(name) == idx
        with pytest.raises(KeyError):
            manifest.cluster_of("ghost")
