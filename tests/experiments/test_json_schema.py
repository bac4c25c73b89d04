"""Round-trip schema validation of every experiment's ``--json`` output.

Each registry id (paper experiments and extensions) runs once with reduced
kwargs, its result is serialized to JSON and back, and the decoded payload
must satisfy the shared shape contract in :mod:`repro.validate.schema` —
the same contract ``repro-exp --validate`` enforces at the CLI.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.audio.dataset import DatasetSpec
from repro.experiments.registry import EXTENSIONS, REGISTRY, run_experiment
from repro.validate.errors import InvariantViolation
from repro.validate.schema import check_experiment_dict, check_experiment_result

#: Reduced kwargs so the whole sweep stays tier-1 fast (mirrors the reduced
#: configs used by tests/experiments/test_extensions.py).
REDUCED_KWARGS = {
    "fig2": {"days": 2.0, "seed": 11},
    "fig5": {
        "sizes": (20, 60, 100),
        "dataset_spec": DatasetSpec.small(n_samples=120, clip_duration=2.0, seed=5),
    },
    "ext-adaptive": {"cloudiness_levels": (0.5,)},
    "ext-contention": {"max_clients": 6, "n_trials": 10},
    "ext-faults": {"n_clients": 70, "n_cycles": 12, "crossover_sizes": (350, 650, 150)},
    "ext-outage": {"n_clients": 70, "n_cycles": 12, "crossover_sizes": (350, 650, 150)},
    "ext-policies": {"fleet_sizes": (100, 350)},
    "ext-serve": {"fleet_sizes": (8,), "rate_multiples": (0.5, 1.5), "horizon_cycles": 4},
    "ext-serve-faults": {
        "policies": ("first-fit",),
        "fault_levels": (0.0, 3.0),
        "queue_bounds": (None, 8),
        "n_hives": 12,
        "horizon_cycles": 4,
    },
}

ALL_IDS = sorted(set(REGISTRY) | set(EXTENSIONS))


@pytest.fixture(scope="module")
def results():
    """Run every experiment once (module-cached; the slow part of this file)."""
    return {
        eid: run_experiment(eid, **REDUCED_KWARGS.get(eid, {})) for eid in ALL_IDS
    }


@pytest.mark.parametrize("eid", ALL_IDS)
def test_json_round_trip_satisfies_schema(results, eid):
    decoded = check_experiment_result(results[eid], include_series=True)
    assert decoded["experiment_id"] == eid


@pytest.mark.parametrize("eid", ALL_IDS)
def test_no_series_variant_also_valid(results, eid):
    decoded = check_experiment_result(results[eid], include_series=False)
    assert "series" not in decoded


@pytest.mark.parametrize("eid", ALL_IDS)
def test_every_number_is_finite(results, eid):
    payload = json.loads(json.dumps(results[eid].to_dict(include_series=True)))

    def walk(node):
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)
        elif isinstance(node, float):
            assert math.isfinite(node)

    for comparison in payload["comparisons"]:
        # deviation_pct may be inf only for paper == 0 regression pins
        if comparison["paper"] != 0:
            assert math.isfinite(comparison["deviation_pct"]), comparison["quantity"]
    walk(payload.get("series", {}))


@pytest.mark.parametrize("eid", ALL_IDS)
def test_fingerprint_is_json_stable(results, eid):
    fp = results[eid].fingerprint()
    assert fp == json.loads(json.dumps(fp))
    assert fp["experiment_id"] == eid
    for summary in fp["series"].values():
        assert set(summary) == {"n", "first", "last", "min", "max", "mean", "sha256"}


class TestSchemaRejects:
    def _valid(self):
        return {
            "experiment_id": "x",
            "title": "t",
            "description": "",
            "comparisons": [
                {
                    "quantity": "q",
                    "paper": 1.0,
                    "measured": 1.0,
                    "deviation_pct": 0.0,
                    "within_tolerance": True,
                }
            ],
            "notes": [],
        }

    def test_valid_passes(self):
        check_experiment_dict(self._valid(), "x")

    def test_missing_key(self):
        payload = self._valid()
        del payload["title"]
        with pytest.raises(InvariantViolation, match="missing top-level key"):
            check_experiment_dict(payload, "x")

    def test_unknown_key(self):
        payload = self._valid()
        payload["bonus"] = 1
        with pytest.raises(InvariantViolation, match="unknown top-level keys"):
            check_experiment_dict(payload, "x")

    def test_non_finite_measured(self):
        payload = self._valid()
        payload["comparisons"][0]["measured"] = float("nan")
        with pytest.raises(InvariantViolation):
            check_experiment_dict(payload, "x")

    def test_infinite_deviation_needs_zero_paper(self):
        payload = self._valid()
        payload["comparisons"][0]["deviation_pct"] = float("inf")
        with pytest.raises(InvariantViolation, match="non-finite deviation"):
            check_experiment_dict(payload, "x")
        payload["comparisons"][0]["paper"] = 0
        check_experiment_dict(payload, "x")  # regression pin: allowed

    def test_non_numeric_series(self):
        payload = self._valid()
        payload["series"] = {"curve": [1.0, "two"]}
        with pytest.raises(InvariantViolation, match="non-numeric"):
            check_experiment_dict(payload, "x")

    def test_overly_nested_series(self):
        payload = self._valid()
        payload["series"] = {"curve": [[[[1.0]]]]}
        with pytest.raises(InvariantViolation, match="nests deeper"):
            check_experiment_dict(payload, "x")
