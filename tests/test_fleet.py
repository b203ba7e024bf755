"""Fleet layer: placement, admission, valleys, exact merge math, bit-identity."""

import dataclasses
import html
import re

import pytest

from repro.array.host import merge_device_results
from repro.array.layout import ArrayLayout, split_trace
from repro.experiments.engine import ExecutionEngine
from repro.experiments.fleet_sweep import build_fleet_spec, run_fleet_sweep
from repro.experiments.spec import ArraySpec, WorkloadSpec
from repro.fleet import (
    BackgroundJob,
    FleetNodeSpec,
    FleetSpec,
    TenantPolicy,
    admit_stream,
    build_fleet_workloads,
    find_load_valleys,
    plan_placement,
    reconcile_fleet,
    run_fleet,
    schedule_background,
    stable_tenant_hash,
    tenant_demands,
)
from repro.fleet.result import FleetResult
from repro.metrics.attribution import (
    AttributionReport,
    TenantPhaseStats,
    merge_attribution_reports,
    reconcile_attribution,
)
from repro.metrics.latency import LatencyStats
from repro.obs.report import (
    SLOThresholds,
    fleet_report,
    render_html,
    render_markdown,
    run_report,
    slo_verdicts,
    write_report,
)
from repro.scenarios.library import bursty_multitenant_scenario, fleet_scenario
from repro.workloads.build import freeze_requests, strip_request_tags, thaw_requests
from repro.workloads.request import IOKind, IORequest

KB = 1024
MB = 1024 * KB
PLACEMENTS = ["round-robin", "least-loaded", "hash"]


def _req(offset, size=4 * KB, arrival=0, kind=IOKind.READ, tenant=None, phase=None):
    return IORequest(
        kind=kind,
        offset_bytes=offset,
        size_bytes=size,
        arrival_ns=arrival,
        tenant=tenant,
        phase_index=phase,
    )


def _slice(tenant, phase, ios, read_bytes, samples):
    latency = LatencyStats()
    for sample in samples:
        latency.add(sample)
    return TenantPhaseStats(
        tenant=tenant,
        phase_index=phase,
        completed_ios=ios,
        reads=ios,
        writes=0,
        read_bytes=read_bytes,
        write_bytes=0,
        latency=latency,
        latency_windows=(),
    )


def _shift_one_read(report):
    """Move one read (count, bytes, latency sample) to another tenant's slice.

    Every total, every per-slice sample count and the pooled sample
    population stay unchanged - only the per-tenant split is wrong, which
    is exactly what the level-local checks cannot see.
    """
    donor = next(entry for entry in report.entries if entry.reads)
    taker = next(entry for entry in report.entries if entry.tenant != donor.tenant)
    size = donor.read_bytes // donor.reads
    moved = donor.latency.samples_ns[0]

    def shifted(entry, sign, samples):
        return dataclasses.replace(
            entry,
            completed_ios=entry.completed_ios + sign,
            reads=entry.reads + sign,
            read_bytes=entry.read_bytes + sign * size,
            latency=LatencyStats(samples_ns=list(samples)),
            latency_windows=(),
        )

    entries = tuple(
        shifted(donor, -1, donor.latency.samples_ns[1:])
        if entry is donor
        else shifted(taker, 1, [*taker.latency.samples_ns, moved])
        if entry is taker
        else entry
        for entry in report.entries
    )
    return dataclasses.replace(report, entries=entries)


def _tiny_fleet_spec(placement="round-robin", **overrides):
    fields = dict(
        name="tiny",
        scenario=fleet_scenario(requests_per_tenant=12, seed=7),
        nodes=(
            FleetNodeSpec(name="n0", devices=("slc-gen1",)),
            FleetNodeSpec(name="n1", devices=("mlc-gen1",)),
            FleetNodeSpec(name="n2", devices=("slc-gen1",), scheduler="SPK2"),
        ),
        placement=placement,
        tenant_policies=(
            ("kv", TenantPolicy(max_iops=250_000.0)),
            ("logger", TenantPolicy(max_queue_depth=4)),
        ),
        default_slo=SLOThresholds(p99_us=250_000.0),
        background=(
            BackgroundJob(kind="scrub", node="n0", num_requests=6),
            BackgroundJob(kind="gc-debt", node="n1", num_requests=6, deadline_ns=400_000),
        ),
    )
    fields.update(overrides)
    return FleetSpec(**fields)


class TestTagPlumbing:
    def test_freeze_thaw_keeps_tags(self):
        reqs = [_req(0, tenant="a", phase=0), _req(8 * KB, tenant=None, phase=None)]
        frozen = freeze_requests(reqs, keep_tags=True)
        assert len(frozen[0]) == 7
        thawed = thaw_requests(frozen)
        assert thawed[0].tenant == "a" and thawed[0].phase_index == 0
        assert thawed[1].tenant is None

    def test_strip_request_tags_identity_on_untagged(self):
        reqs = [_req(0), _req(8 * KB)]
        frozen = freeze_requests(reqs)
        assert strip_request_tags(frozen) == frozen

    def test_tagged_inline_fingerprint_matches_untagged(self):
        trace = bursty_multitenant_scenario(requests_per_tenant=8, seed=3).build()
        tagged = WorkloadSpec.inline("w", trace, keep_tags=True)
        untagged = WorkloadSpec.inline("w", trace)
        assert tagged.fingerprint() == untagged.fingerprint()
        rebuilt = tagged.build()
        assert [io.tenant for io in rebuilt] == [io.tenant for io in trace]

    def test_split_trace_preserves_tags(self):
        trace = [
            _req(index * 64 * KB, size=64 * KB, arrival=index, tenant=f"t{index % 2}", phase=0)
            for index in range(8)
        ]
        for sub_trace in split_trace(trace, ArrayLayout(num_devices=2)):
            for io in sub_trace:
                assert io.tenant in ("t0", "t1")
                assert io.phase_index == 0

    def test_array_attribution_reconciles(self):
        scenario = bursty_multitenant_scenario(requests_per_tenant=8, seed=3)
        spec = ArraySpec(
            workload=WorkloadSpec.scenario(scenario),
            num_devices=2,
            scheduler="SPK2",
            devices=("slc-gen1", "mlc-gen1"),
        )
        results = ExecutionEngine().run_jobs(list(spec.device_jobs()))
        merged = merge_device_results(
            results, scheduler="SPK2", workload=scenario.name, policy="stripe"
        )
        assert merged.attribution is not None
        assert merged.attribution.tenants() == ("reader", "writer")
        assert reconcile_attribution(merged) == []


class TestMergeAttribution:
    def test_counts_bytes_and_samples_sum_exactly(self):
        left = AttributionReport(
            entries=(_slice("a", 0, 2, 8 * KB, [100, 200]),), untagged_ios=1, untagged_bytes=4 * KB
        )
        right = AttributionReport(
            entries=(
                _slice("a", 0, 3, 12 * KB, [300, 400, 500]),
                _slice("b", 1, 1, 4 * KB, [900]),
            ),
        )
        merged = merge_attribution_reports([left, right])
        assert [(e.tenant, e.phase_index) for e in merged.entries] == [("a", 0), ("b", 1)]
        a = merged.entries[0]
        assert a.completed_ios == 5
        assert a.read_bytes == 20 * KB
        assert sorted(a.latency.samples_ns) == [100, 200, 300, 400, 500]
        assert merged.untagged_ios == 1
        assert merged.untagged_bytes == 4 * KB

    def test_empty_input_is_none(self):
        assert merge_attribution_reports([]) is None

    def test_entries_sorted_by_phase_then_tenant(self):
        merged = merge_attribution_reports(
            [
                AttributionReport(entries=(_slice("z", 0, 1, KB, [1]),)),
                AttributionReport(entries=(_slice("a", 1, 1, KB, [2]),)),
                AttributionReport(entries=(_slice("a", 0, 1, KB, [3]),)),
            ]
        )
        assert [(e.tenant, e.phase_index) for e in merged.entries] == [
            ("a", 0),
            ("z", 0),
            ("a", 1),
        ]


class TestPlacement:
    def _demands(self, spec):
        return tenant_demands(spec.tenants(), spec.scenario.build())

    def test_round_robin_in_declaration_order(self):
        spec = _tiny_fleet_spec()
        plan = plan_placement(spec, self._demands(spec))
        # fleet_scenario declares web, kv, analytics, logger.
        assert plan.assignments == (("web", 0), ("kv", 1), ("analytics", 2), ("logger", 0))

    def test_least_loaded_spreads_biggest_first(self):
        spec = _tiny_fleet_spec(placement="least-loaded", background=())
        demands = self._demands(spec)
        plan = plan_placement(spec, demands)
        by_tenant = {d.tenant: d.bytes for d in demands}
        loads = [0, 0, 0]
        for demand in sorted(demands, key=lambda d: (-d.bytes, d.tenant)):
            node = plan.node_of(demand.tenant)
            # Greedy invariant: the chosen node had the minimum load.
            assert loads[node] == min(loads)
            loads[node] += by_tenant[demand.tenant]

    def test_hash_is_stable(self):
        spec = _tiny_fleet_spec(placement="hash")
        plan = plan_placement(spec, self._demands(spec))
        for tenant, node in plan.assignments:
            assert node == stable_tenant_hash(tenant) % 3
        assert plan == plan_placement(spec, self._demands(spec))

    def test_affinity_pins_and_falls_back_to_hash(self):
        spec = _tiny_fleet_spec(
            placement="tenant-affinity",
            tenant_policies=(("analytics", TenantPolicy(affinity="n2")),),
        )
        plan = plan_placement(spec, self._demands(spec))
        assert plan.node_of("analytics") == 2
        assert plan.node_of("web") == stable_tenant_hash("web") % 3

    def test_unknown_affinity_node_rejected(self):
        with pytest.raises(ValueError, match="pins unknown node"):
            _tiny_fleet_spec(
                tenant_policies=(("web", TenantPolicy(affinity="nope")),)
            )

    def test_unknown_placement_rejected(self):
        with pytest.raises(ValueError, match="unknown placement"):
            _tiny_fleet_spec(placement="chaos")

    def test_background_must_target_known_node(self):
        with pytest.raises(ValueError, match="unknown node"):
            _tiny_fleet_spec(background=(BackgroundJob(kind="scrub", node="nope"),))


class TestAdmission:
    def test_no_policy_passes_through(self):
        stream = [_req(0, arrival=10, tenant="a"), _req(KB, arrival=20, tenant="a")]
        admitted, throttled, rejected = admit_stream(stream, None, nominal_service_ns=100)
        assert [io.arrival_ns for io in admitted] == [10, 20]
        assert [io.tenant for io in admitted] == ["a", "a"]
        assert throttled == 0 and rejected == 0

    def test_rate_pacing_enforces_min_gap(self):
        stream = [_req(i * KB, arrival=i * 100) for i in range(5)]
        policy = TenantPolicy(max_iops=1_000_000.0)  # 1000 ns min gap
        admitted, throttled, rejected = admit_stream(stream, policy, nominal_service_ns=100)
        arrivals = [io.arrival_ns for io in admitted]
        assert arrivals == [0, 1000, 2000, 3000, 4000]
        assert throttled == 4 and rejected == 0

    def test_queue_depth_rejects_overflow(self):
        stream = [_req(i * KB, arrival=0) for i in range(6)]
        policy = TenantPolicy(max_queue_depth=4)
        admitted, throttled, rejected = admit_stream(
            stream, policy, nominal_service_ns=1_000
        )
        assert len(admitted) == 4 and rejected == 2 and throttled == 0

    def test_depth_frees_slots_after_service(self):
        stream = [_req(i * KB, arrival=i * 2_000) for i in range(6)]
        policy = TenantPolicy(max_queue_depth=1)
        admitted, _, rejected = admit_stream(stream, policy, nominal_service_ns=1_000)
        assert len(admitted) == 6 and rejected == 0

    def test_deterministic(self):
        stream = [_req(i * KB, arrival=i * 50, tenant="a", phase=0) for i in range(20)]
        policy = TenantPolicy(max_iops=2_000_000.0, max_queue_depth=3)
        first = admit_stream(stream, policy, nominal_service_ns=500)
        second = admit_stream(stream, policy, nominal_service_ns=500)
        assert [io.arrival_ns for io in first[0]] == [io.arrival_ns for io in second[0]]
        assert first[1:] == second[1:]


class TestBackground:
    def test_valleys_ranked_emptiest_first(self):
        # Dense cluster early, nothing late: the last window must rank first.
        arrivals = [i for i in range(50)] + [1000]
        valleys = find_load_valleys(arrivals, num_windows=4)
        assert valleys[0].arrivals == 0
        assert valleys[0].start_ns > valleys[-1].start_ns or valleys[-1].arrivals > 0

    def test_requests_land_in_emptiest_window(self):
        foreground = [_req(i * KB, arrival=i * 10) for i in range(64)] + [
            _req(0, arrival=10_000)
        ]
        job = BackgroundJob(kind="scrub", node="n0", num_requests=4)
        streams, stats = schedule_background(foreground, [job], num_windows=8)
        (stat,) = stats
        for io in streams[0]:
            assert stat.start_ns <= io.arrival_ns < stat.end_ns + 1
            assert io.tenant == "bg:scrub"
            assert io.kind == IOKind.READ

    def test_edd_orders_jobs_and_deadline_flag(self):
        foreground = [_req(i * KB, arrival=i * 100) for i in range(64)]
        late = BackgroundJob(kind="scrub", node="n0", num_requests=4)
        urgent = BackgroundJob(
            kind="rebuild", node="n0", num_requests=4, deadline_ns=2_000
        )
        streams, stats = schedule_background(foreground, [late, urgent], num_windows=8)
        # Streams stay in declaration order; stats too.
        assert stats[0].kind == "scrub" and stats[1].kind == "rebuild"
        assert stats[1].start_ns < stats[1].deadline_ns
        hopeless = BackgroundJob(kind="rebuild", node="n0", num_requests=4, deadline_ns=1)
        _, (stat,) = schedule_background(foreground, [hopeless], num_windows=8)
        assert stat.met_deadline is False

    def test_gc_debt_writes_inside_span(self):
        job = BackgroundJob(
            kind="gc-debt", node="n0", num_requests=16, size_bytes=8 * KB,
            address_span_bytes=1 * MB,
        )
        streams, _ = schedule_background([], [job], num_windows=4)
        for io in streams[0]:
            assert io.kind == IOKind.WRITE
            assert 0 <= io.offset_bytes <= 1 * MB - 8 * KB
            assert io.offset_bytes % (8 * KB) == 0

    def test_empty_foreground_still_schedules(self):
        job = BackgroundJob(kind="scrub", node="n0", num_requests=3)
        streams, stats = schedule_background([], [job], num_windows=4)
        assert len(streams[0]) == 3 and stats[0].met_deadline


class TestFleetBalanceMetrics:
    @dataclasses.dataclass
    class _FakeDevice:
        total_bytes: int
        bandwidth_kb_s: float
        iops: float
        completed_ios: int = 0
        makespan_ns: int = 0
        attribution: object = None

    def _node(self, total_bytes, iops):
        from repro.array.host import ArrayResult

        return ArrayResult(
            scheduler="SPK3",
            workload="w",
            policy="stripe",
            num_devices=1,
            device_results=(self._FakeDevice(total_bytes, 0.0, iops),),
        )

    def _fleet(self, nodes):
        from repro.fleet.placement import PlacementPlan

        return FleetResult(
            name="f",
            placement="round-robin",
            node_names=tuple(f"n{i}" for i in range(len(nodes))),
            node_results=tuple(nodes),
            plan=PlacementPlan(policy="round-robin", assignments=()),
        )

    def test_byte_imbalance_max_to_mean(self):
        fleet = self._fleet([self._node(100, 10.0), self._node(300, 10.0)])
        assert fleet.byte_imbalance() == pytest.approx(300 / 200)

    def test_iops_imbalance(self):
        fleet = self._fleet([self._node(100, 5.0), self._node(100, 15.0)])
        assert fleet.iops_imbalance() == pytest.approx(1.5)

    def test_idle_fleet_sentinel(self):
        fleet = self._fleet([self._node(0, 0.0), self._node(0, 0.0)])
        assert fleet.byte_imbalance() == 0.0
        assert fleet.iops_imbalance() == 0.0
        assert fleet.makespan_ns == 0


class TestFleetRun:
    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_reconciles_exactly_per_placement(self, placement):
        fleet = run_fleet(_tiny_fleet_spec(placement=placement))
        assert reconcile_fleet(fleet) == []
        assert fleet.attribution is not None
        # Per-tenant SLO accounting == summed per-array attribution slices,
        # exactly (counts, bytes and the pooled sample population).
        for tenant in fleet.attribution.tenants():
            merged = fleet.attribution.by_tenant(tenant)
            node_slices = [
                node.attribution.by_tenant(tenant)
                for node in fleet.node_results
                if node.attribution is not None
                and tenant in node.attribution.tenants()
            ]
            assert merged.completed_ios == sum(s.completed_ios for s in node_slices)
            assert merged.total_bytes == sum(s.total_bytes for s in node_slices)
            pooled = sorted(
                sample for s in node_slices for sample in s.latency.samples_ns
            )
            assert pooled == sorted(merged.latency.samples_ns)

    def test_slo_checks_cover_tenants_not_background(self):
        fleet = run_fleet(_tiny_fleet_spec())
        checked = {check.tenant for check in fleet.slo_checks}
        assert checked == {"web", "kv", "analytics", "logger"}
        assert fleet.attribution is not None
        assert any(t.startswith("bg:") for t in fleet.attribution.tenants())

    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_serial_process_bit_identical(self, placement):
        spec = _tiny_fleet_spec(placement=placement)
        serial = run_fleet(spec)
        parallel = run_fleet(spec, ExecutionEngine(backend="process", max_workers=2))
        assert serial == parallel

    def test_result_cache_round_trip(self, tmp_path):
        spec = _tiny_fleet_spec(background=())
        engine = ExecutionEngine(cache_dir=tmp_path)
        first = run_fleet(spec, engine)
        second = run_fleet(spec, ExecutionEngine(cache_dir=tmp_path))
        assert first == second

    def test_fingerprint_sensitivity(self):
        base = _tiny_fleet_spec()
        assert base.fingerprint() == _tiny_fleet_spec().fingerprint()
        assert base.fingerprint() != _tiny_fleet_spec(placement="hash").fingerprint()
        assert (
            base.fingerprint()
            != _tiny_fleet_spec(default_slo=SLOThresholds(p99_us=1.0)).fingerprint()
        )

    def test_admission_stats_reconcile_with_workloads(self):
        spec = _tiny_fleet_spec()
        workloads = build_fleet_workloads(spec)
        for stats in workloads.admission:
            assert stats.offered == stats.admitted + stats.rejected
        # Foreground admitted + background == what the nodes actually serve.
        admitted = sum(stats.admitted for stats in workloads.admission)
        background = sum(stats.requests for stats in workloads.background)
        assert admitted + background == sum(len(t) for t in workloads.node_traces)


class TestTreeReconcile:
    """One reconcile walks fleet -> nodes -> devices and checks every merge."""

    def _array(self):
        scenario = bursty_multitenant_scenario(requests_per_tenant=8, seed=3)
        spec = ArraySpec(
            workload=WorkloadSpec.scenario(scenario),
            num_devices=2,
            scheduler="SPK2",
            devices=("slc-gen1", "mlc-gen1"),
        )
        results = ExecutionEngine().run_jobs(list(spec.device_jobs()))
        return merge_device_results(
            results, scheduler="SPK2", workload=scenario.name, policy="stripe"
        )

    def test_array_slice_not_summing_its_devices_is_caught(self):
        array = self._array()
        assert reconcile_attribution(array) == []
        tampered = dataclasses.replace(
            array, attribution=_shift_one_read(array.attribution)
        )
        # Totals, per-slice sample counts and the pooled population all
        # still match, so only the merge check can see the shift.
        problems = reconcile_attribution(tampered)
        assert problems
        assert all("parts' slices sum to" in problem for problem in problems)

    def test_tampered_node_slice_is_caught(self):
        fleet = run_fleet(_tiny_fleet_spec())
        index, node = next(
            (index, node)
            for index, node in enumerate(fleet.node_results)
            if len(node.attribution.tenants()) >= 2
        )
        nodes = list(fleet.node_results)
        nodes[index] = dataclasses.replace(
            node, attribution=_shift_one_read(node.attribution)
        )
        tampered = dataclasses.replace(fleet, node_results=tuple(nodes))
        problems = reconcile_fleet(tampered)
        assert any(problem.startswith(f"node {index}: ") for problem in problems)
        assert any(not problem.startswith("node ") for problem in problems)

    def test_tampered_device_slice_is_caught(self):
        fleet = run_fleet(_tiny_fleet_spec())
        node_index, device_index = next(
            (node_index, device_index)
            for node_index, node in enumerate(fleet.node_results)
            for device_index, device in enumerate(node.device_results)
            if device.attribution is not None and len(device.attribution.tenants()) >= 2
        )
        node = fleet.node_results[node_index]
        devices = list(node.device_results)
        devices[device_index] = dataclasses.replace(
            devices[device_index],
            attribution=_shift_one_read(devices[device_index].attribution),
        )
        nodes = list(fleet.node_results)
        nodes[node_index] = dataclasses.replace(node, device_results=tuple(devices))
        problems = reconcile_fleet(dataclasses.replace(fleet, node_results=tuple(nodes)))
        assert problems
        assert all(problem.startswith(f"node {node_index}: ") for problem in problems)

    def test_bg_slices_of_a_fleet_device_are_not_slo_checked(self):
        fleet = run_fleet(_tiny_fleet_spec())
        device = next(
            device
            for node in fleet.node_results
            for device in node.device_results
            if device.attribution is not None
            and any(t.startswith("bg:") for t in device.attribution.tenants())
        )
        slo = SLOThresholds(p99_us=0.001)
        checks = slo_verdicts(device, slo)
        assert checks
        assert not any(check.tenant.startswith("bg:") for check in checks)
        slo_section = dict(run_report(device, slo=slo))["SLO checks"]
        ((_, rows),) = slo_section
        assert {row["tenant"] for row in rows} == {check.tenant for check in checks}


class TestFleetReport:
    def test_markdown_sections(self):
        fleet = run_fleet(_tiny_fleet_spec())
        md = render_markdown(fleet_report(fleet))
        for section in ("## Placement", "## Nodes", "## Tenants", "## SLO checks",
                        "## Admission", "## Background work", "## Reconciliation"):
            assert section in md
        assert "match the summed per-array attribution exactly" in md

    def test_html_is_selfcontained(self):
        fleet = run_fleet(_tiny_fleet_spec())
        page = render_html(fleet_report(fleet))
        assert page.startswith("<!DOCTYPE html>")
        assert "Reconciliation" in page and 'class="pass"' in page

    def test_markdown_and_html_headings_match(self):
        sections = fleet_report(run_fleet(_tiny_fleet_spec()))
        markdown = re.findall(r"^#+ (.+)$", render_markdown(sections), re.M)
        page = re.findall(r"<h[12]>(.*?)</h[12]>", render_html(sections))
        assert len(markdown) == 8
        assert markdown == [html.unescape(heading) for heading in page]

    def test_write_dispatches_on_suffix(self, tmp_path):
        fleet = run_fleet(_tiny_fleet_spec(background=(), tenant_policies=()))
        sections = fleet_report(fleet)
        md_path = write_report(tmp_path / "fleet.md", sections)
        html_path = write_report(tmp_path / "fleet.html", sections)
        assert md_path.read_text().startswith("# Fleet report")
        assert html_path.read_text().startswith("<!DOCTYPE html>")
        with pytest.raises(ValueError, match="unknown report format"):
            write_report(tmp_path / "fleet.md", sections, fmt="pdf")


class TestFleetSweep:
    def test_tiny_sweep_rows_complete(self):
        rows, results = run_fleet_sweep(
            fleet_sizes=(2,),
            placements=("round-robin", "hash"),
            requests_per_tenant=8,
            zoo_cycle=("slc-gen1", "mlc-gen1"),
        )
        assert len(rows) == 2
        for row in rows:
            assert row["nodes"] == 2
            assert row["bandwidth_mb_s"] > 0
        for fleet in results.values():
            assert reconcile_fleet(fleet) == []

    def test_build_fleet_spec_heterogeneous(self):
        spec = build_fleet_spec(fleet_scenario(requests_per_tenant=8), 3, "least-loaded")
        assert len({node.devices for node in spec.nodes}) == 3
        assert spec.background
