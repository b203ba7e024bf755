"""Tests for the device zoo (``repro.devices``).

Covers the four contract surfaces:

* loader validation: every malformed definition fails with a single
  :class:`DeviceConfigError` naming the file, the key and what was expected;
* registry semantics: the shipped zoo loads completely, ids resolve, unknown
  ids and duplicate names are rejected;
* fingerprint flow: zoo devices enter job fingerprints by *resolved
  content*, so a zoo job and an equivalent explicit-config job share a
  fingerprint, and editing a definition changes exactly that device's
  fingerprint;
* heterogeneous arrays: per-slot device ids expand into per-device jobs and
  survive the serial/process bit-identity contract.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.devices import (
    ZOO_DIR,
    DeviceConfigError,
    DeviceRegistry,
    default_registry,
    device_config,
    device_model,
    load_device_file,
)
from repro.experiments.engine import ExecutionEngine
from repro.experiments.spec import ArraySpec, SimJob, WorkloadSpec

SHIPPED_DEVICES = ("mlc-gen1", "mlc-gen2", "slc-gen1", "tlc-gen3")

BASE_TOML = (ZOO_DIR / "slc-gen1.toml").read_text(encoding="utf-8")


def write_device(tmp_path: Path, text: str, name: str = "device.toml") -> Path:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestShippedZoo:
    def test_every_shipped_definition_loads(self):
        registry = DeviceRegistry(ZOO_DIR)
        assert registry.names() == SHIPPED_DEVICES
        assert len(registry) == len(SHIPPED_DEVICES)

    def test_default_registry_is_cached_and_refreshable(self):
        first = default_registry()
        assert default_registry() is first
        assert default_registry(refresh=True) is not first

    def test_models_resolve_to_valid_configs(self):
        for name in SHIPPED_DEVICES:
            config = device_config(name)
            assert config.geometry.total_pages > 0
            assert config.timing.read_ns > 0

    def test_paper_device_matches_paper_shape(self):
        # mlc-gen2 is the paper's evaluation device: 8 channels x 8 chips.
        model = device_model("mlc-gen2")
        assert model.geometry.num_channels == 8
        assert model.geometry.num_chips == 64
        assert "paper" in model.tags

    def test_fingerprints_stable_across_reloads(self):
        first = {m.name: m.fingerprint() for m in DeviceRegistry(ZOO_DIR).models()}
        second = {m.name: m.fingerprint() for m in DeviceRegistry(ZOO_DIR).models()}
        assert first == second
        assert len(set(first.values())) == len(first)

    def test_unknown_device_lists_the_zoo(self):
        with pytest.raises(DeviceConfigError, match="mlc-gen2"):
            device_model("quantum-gen9")

    def test_summary_rows_cover_identity_and_shape(self):
        row = device_model("tlc-gen3").summary_row()
        assert row["name"] == "tlc-gen3"
        assert row["cell"] == "TLC"
        assert row["capacity_mb"] > 0


class TestLoaderValidation:
    def test_unknown_geometry_key_rejected(self, tmp_path):
        path = write_device(tmp_path, BASE_TOML.replace("num_channels", "num_chanels"))
        with pytest.raises(DeviceConfigError) as excinfo:
            load_device_file(path)
        message = str(excinfo.value)
        assert str(path) in message
        assert "geometry.num_chanels" in message
        assert "unknown key" in message

    def test_wrong_type_names_file_key_and_expectation(self, tmp_path):
        path = write_device(tmp_path, BASE_TOML.replace("queue_depth = 32", 'queue_depth = "big"'))
        with pytest.raises(DeviceConfigError) as excinfo:
            load_device_file(path)
        message = str(excinfo.value)
        assert str(path) in message
        assert "config.queue_depth" in message
        assert "expected int" in message

    def test_bool_rejected_where_int_expected(self, tmp_path):
        path = write_device(tmp_path, BASE_TOML.replace("queue_depth = 32", "queue_depth = true"))
        with pytest.raises(DeviceConfigError, match="got bool"):
            load_device_file(path)

    def test_missing_device_section_rejected(self, tmp_path):
        text = BASE_TOML.replace("[device]", "[geometry2]", 1)
        path = write_device(tmp_path, text)
        with pytest.raises(DeviceConfigError, match="unknown section"):
            load_device_file(path)

    def test_missing_required_name_rejected(self, tmp_path):
        path = write_device(tmp_path, BASE_TOML.replace('name = "slc-gen1"\n', ""))
        with pytest.raises(DeviceConfigError, match="device.name.*required"):
            load_device_file(path)

    def test_bad_cell_rejected(self, tmp_path):
        path = write_device(tmp_path, BASE_TOML.replace('cell = "SLC"', 'cell = "QLC"'))
        with pytest.raises(DeviceConfigError, match="device.cell"):
            load_device_file(path)

    def test_non_string_tag_rejected(self, tmp_path):
        path = write_device(
            tmp_path, BASE_TOML.replace('tags = ["slc", "gen1", "small", "low-latency"]', "tags = [1, 2]")
        )
        with pytest.raises(DeviceConfigError, match="device.tags"):
            load_device_file(path)

    def test_bad_allocation_order_lists_members(self, tmp_path):
        path = write_device(
            tmp_path, BASE_TOML + '\nallocation_order = "sideways"\n'
        )
        with pytest.raises(DeviceConfigError, match="allocation_order"):
            load_device_file(path)

    def test_unsupported_suffix_rejected(self, tmp_path):
        path = write_device(tmp_path, BASE_TOML, name="device.yaml")
        with pytest.raises(DeviceConfigError, match="suffix"):
            load_device_file(path)

    def test_invalid_geometry_combination_is_a_loader_error(self, tmp_path):
        path = write_device(tmp_path, BASE_TOML.replace("num_channels = 4", "num_channels = 0"))
        with pytest.raises(DeviceConfigError) as excinfo:
            load_device_file(path)
        assert str(path) in str(excinfo.value)

    def test_json_device_file_loads(self, tmp_path):
        document = {
            "device": {"name": "json-dev", "cell": "MLC", "generation": 1, "tags": ["json"]},
            "geometry": {"num_channels": 2, "chips_per_channel": 2},
            "timing": {"read_ns": 20000},
            "config": {"queue_depth": 16},
        }
        path = write_device(tmp_path, json.dumps(document), name="json-dev.json")
        model = load_device_file(path)
        assert model.name == "json-dev"
        assert model.to_config().queue_depth == 16

    def test_invalid_json_rejected(self, tmp_path):
        path = write_device(tmp_path, "{not json", name="bad.json")
        with pytest.raises(DeviceConfigError, match="invalid JSON"):
            load_device_file(path)

    def test_duplicate_section_rejected(self, tmp_path):
        path = write_device(tmp_path, '[device]\nname = "a"\n[device]\ncell = "SLC"\n')
        with pytest.raises(DeviceConfigError, match="invalid TOML"):
            load_device_file(path)

    def test_assignment_before_section_rejected(self, tmp_path):
        path = write_device(tmp_path, "queue_depth = 1\n" + BASE_TOML)
        with pytest.raises(DeviceConfigError, match="unknown section"):
            load_device_file(path)

    def test_garbage_line_rejected(self, tmp_path):
        path = write_device(tmp_path, BASE_TOML + "not an assignment\n")
        with pytest.raises(DeviceConfigError, match="invalid TOML"):
            load_device_file(path)


class TestRegistryDirectories:
    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(DeviceConfigError, match="does not exist"):
            DeviceRegistry(tmp_path / "nope")

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(DeviceConfigError, match="no .toml"):
            DeviceRegistry(tmp_path)

    def test_duplicate_device_names_rejected(self, tmp_path):
        write_device(tmp_path, BASE_TOML, name="a.toml")
        write_device(tmp_path, BASE_TOML, name="b.toml")
        with pytest.raises(DeviceConfigError, match="duplicate device name"):
            DeviceRegistry(tmp_path)

    def test_editing_a_definition_changes_its_fingerprint(self, tmp_path):
        write_device(tmp_path, BASE_TOML, name="slc-gen1.toml")
        before = DeviceRegistry(tmp_path).get("slc-gen1")
        write_device(
            tmp_path,
            BASE_TOML.replace("queue_depth = 32", "queue_depth = 64"),
            name="slc-gen1.toml",
        )
        after = DeviceRegistry(tmp_path).get("slc-gen1")
        assert before.fingerprint() != after.fingerprint()
        assert before.to_config().fingerprint() != after.to_config().fingerprint()

    def test_source_path_is_not_part_of_the_fingerprint(self, tmp_path):
        write_device(tmp_path, BASE_TOML, name="slc-gen1.toml")
        moved = DeviceRegistry(tmp_path).get("slc-gen1")
        shipped = device_model("slc-gen1")
        assert moved.source != shipped.source
        assert moved.fingerprint() == shipped.fingerprint()


class TestJobIntegration:
    WORKLOAD = WorkloadSpec.random("zoo-io", num_requests=8, size_bytes=16 * 1024, seed=7)

    def test_exactly_one_of_config_or_device_required(self):
        with pytest.raises(ValueError, match="exactly one"):
            SimJob(workload=self.WORKLOAD, scheduler="SPK3")
        with pytest.raises(ValueError, match="exactly one"):
            SimJob(
                workload=self.WORKLOAD,
                scheduler="SPK3",
                config=device_config("slc-gen1"),
                device="slc-gen1",
            )

    def test_overrides_require_a_device(self):
        with pytest.raises(ValueError, match="device_overrides"):
            SimJob(
                workload=self.WORKLOAD,
                scheduler="SPK3",
                config=device_config("slc-gen1"),
                device_overrides=(("queue_depth", 8),),
            )

    def test_zoo_job_fingerprint_matches_equivalent_config_job(self):
        zoo_job = SimJob(workload=self.WORKLOAD, scheduler="SPK3", device="mlc-gen1")
        config_job = SimJob(
            workload=self.WORKLOAD, scheduler="SPK3", config=device_config("mlc-gen1")
        )
        assert zoo_job.fingerprint() == config_job.fingerprint()

    def test_device_overrides_enter_the_fingerprint(self):
        base = SimJob(workload=self.WORKLOAD, scheduler="SPK3", device="mlc-gen1")
        tuned = SimJob(
            workload=self.WORKLOAD,
            scheduler="SPK3",
            device="mlc-gen1",
            device_overrides=(("queue_depth", 8),),
        )
        assert base.fingerprint() != tuned.fingerprint()
        assert tuned.resolved_config.queue_depth == 8

    def test_zoo_job_executes(self):
        job = SimJob(workload=self.WORKLOAD, scheduler="SPK3", device="slc-gen1")
        result = job.execute()
        assert result.completed_ios == 8

    def test_zoo_jobs_share_cache_entries_with_config_jobs(self, tmp_path):
        engine = ExecutionEngine(cache_dir=tmp_path / "cache")
        zoo_job = SimJob(workload=self.WORKLOAD, scheduler="SPK3", device="slc-gen1")
        config_job = SimJob(
            workload=self.WORKLOAD, scheduler="SPK3", config=device_config("slc-gen1")
        )
        engine.run_jobs([zoo_job])
        engine.run_jobs([config_job])
        assert engine.stats.jobs_executed == 1
        assert engine.stats.cache_hits == 1


class TestHeterogeneousArrays:
    WORKLOAD = WorkloadSpec.random(
        "array-io", num_requests=12, size_bytes=64 * 1024, address_space_bytes=64 * 1024 * 1024, seed=7
    )

    def spec(self) -> ArraySpec:
        return ArraySpec(
            workload=self.WORKLOAD,
            num_devices=2,
            scheduler="SPK3",
            devices=("slc-gen1", "mlc-gen1"),
            key=("hetero",),
        )

    def test_exactly_one_of_config_or_devices_required(self):
        with pytest.raises(ValueError, match="exactly one"):
            ArraySpec(workload=self.WORKLOAD, num_devices=2, scheduler="SPK3")

    def test_devices_must_cover_every_slot(self):
        with pytest.raises(ValueError, match="2 ids for 3 slots"):
            ArraySpec(
                workload=self.WORKLOAD,
                num_devices=3,
                scheduler="SPK3",
                devices=("slc-gen1", "mlc-gen1"),
            )

    def test_slots_resolve_their_own_devices(self):
        spec = self.spec()
        assert spec.slot_config(0) == device_config("slc-gen1")
        assert spec.slot_config(1) == device_config("mlc-gen1")
        jobs = spec.device_jobs()
        assert [job.device for job in jobs] == ["slc-gen1", "mlc-gen1"]
        assert jobs[0].resolved_config.geometry != jobs[1].resolved_config.geometry

    def test_fingerprint_differs_from_swapped_slots(self):
        forward = self.spec().fingerprint()
        swapped = ArraySpec(
            workload=self.WORKLOAD,
            num_devices=2,
            scheduler="SPK3",
            devices=("mlc-gen1", "slc-gen1"),
            key=("hetero",),
        ).fingerprint()
        assert forward != swapped

    def test_fingerprints_are_stable(self):
        assert self.spec().fingerprint() == self.spec().fingerprint()

    def test_serial_and_process_runs_are_bit_identical(self):
        from repro.sim.config import stable_fingerprint

        jobs = list(self.spec().device_jobs())
        serial = ExecutionEngine("serial").run_jobs(jobs)
        process = ExecutionEngine("process", max_workers=2).run_jobs(jobs)
        assert [stable_fingerprint(r) for r in serial] == [
            stable_fingerprint(r) for r in process
        ]

    def test_array_simulation_accepts_devices(self):
        from repro.array.host import ArraySimulation
        from repro.array.layout import ArrayLayout

        simulation = ArraySimulation(
            ArrayLayout(num_devices=2, policy="stripe", chunk_bytes=64 * 1024),
            devices=("slc-gen1", "mlc-gen1"),
        )
        result = simulation.run(self.WORKLOAD)
        assert result.num_devices == 2
        assert result.completed_ios > 0
