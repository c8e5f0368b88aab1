"""Scenario topology: the value object, its identity rules, and the
cross-domain campaign path end to end.

The load-bearing guarantee here is *compatibility*: the default
(paper) topology must be invisible — job IDs, result payloads and
trace bytes identical to the pre-topology codebase — while every
non-default topology is its own experiment with its own identity.
``TestLegacyJobIdentity`` pins the old job-ID derivation verbatim so
a future refactor cannot silently orphan existing resumable stores.
"""

import hashlib
import json

import pytest

from repro.core.campaign import Campaign, Mode
from repro.core.monitor import ViolationReport
from repro.core.testbed import SECRET_CANARY, SECRET_PFN, SECRET_WORD, build_testbed
from repro.core.topology import (
    CROSS_DOMAIN_TOPOLOGY,
    DEFAULT_TOPOLOGY,
    MAX_GUESTS,
    ScenarioTopology,
    TopologyError,
    guest_name,
)
from repro.exploits import (
    XSA212Priv,
    XdomEventMisroute,
    XdomGrantLeak,
    XdomRingTamper,
)
from repro.runner import (
    ForkServerPool,
    SerialRunner,
    WorkerPool,
    execute_job,
    plan_campaign,
)
from repro.runner.store import ResultStore
from repro.service.shards import compact
from repro.xen.versions import XEN_4_6, version_by_name


class TestScenarioTopologyModel:
    def test_default_is_the_paper_shape(self):
        assert DEFAULT_TOPOLOGY == ScenarioTopology()
        assert DEFAULT_TOPOLOGY.num_guests == 2
        assert DEFAULT_TOPOLOGY.attacker == "guest03"
        assert DEFAULT_TOPOLOGY.victim == "dom0"
        assert DEFAULT_TOPOLOGY.observer == "dom0"
        assert DEFAULT_TOPOLOGY.nesting is None
        assert DEFAULT_TOPOLOGY.is_default

    def test_domain_names_and_privileges(self):
        topo = ScenarioTopology(num_guests=3, attacker="guest04")
        assert topo.domain_names == ("dom0", "guest02", "guest03", "guest04")
        assert topo.privileges == {
            "dom0": True, "guest02": False, "guest03": False, "guest04": False,
        }

    def test_roles_of_reports_multi_role_domains(self):
        assert DEFAULT_TOPOLOGY.roles_of("dom0") == ("victim", "observer")
        assert DEFAULT_TOPOLOGY.roles_of("guest03") == ("attacker",)
        assert DEFAULT_TOPOLOGY.roles_of("guest02") == ()

    def test_paper_default_puts_attacker_in_last_guest(self):
        topo = ScenarioTopology.paper_default(4)
        assert topo.attacker == guest_name(3) == "guest05"
        assert (topo.victim, topo.observer) == ("dom0", "dom0")
        assert ScenarioTopology.paper_default(2) == DEFAULT_TOPOLOGY

    @pytest.mark.parametrize("bad", [0, -1, MAX_GUESTS + 1, "2", 2.0, True])
    def test_guest_count_bounds(self, bad):
        with pytest.raises(TopologyError):
            ScenarioTopology(num_guests=bad)

    def test_attacker_must_be_a_guest(self):
        with pytest.raises(TopologyError, match="unprivileged"):
            ScenarioTopology(attacker="dom0", victim="guest02")

    def test_attacker_and_victim_must_differ(self):
        with pytest.raises(TopologyError, match="distinct"):
            ScenarioTopology(attacker="guest03", victim="guest03")

    def test_roles_must_name_existing_domains(self):
        with pytest.raises(TopologyError, match="guest09"):
            ScenarioTopology(attacker="guest09")
        with pytest.raises(TopologyError, match="observer"):
            ScenarioTopology(observer="guest77")

    def test_unknown_nesting_tag_rejected(self):
        with pytest.raises(TopologyError, match="nesting"):
            ScenarioTopology(nesting="l2")
        # the reserved tag parses (roadmap: nested L1 testbeds)
        assert ScenarioTopology(nesting="l1").nesting == "l1"

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(TopologyError, match="attakcer"):
            ScenarioTopology.from_dict({"attakcer": "guest02"})

    def test_from_dict_merges_over_defaults(self):
        topo = ScenarioTopology.from_dict({"num_guests": 3, "victim": "guest02"})
        assert topo == ScenarioTopology(num_guests=3, victim="guest02")

    def test_from_json_rejects_garbage(self):
        with pytest.raises(TopologyError, match="not valid JSON"):
            ScenarioTopology.from_json("{nope")

    def test_canonical_json_is_compact_sorted_and_total(self):
        blob = DEFAULT_TOPOLOGY.canonical_json()
        # every field appears, including the null nesting tag — the
        # serialization is total so hashes never collide by omission
        assert json.loads(blob) == {
            "num_guests": 2, "attacker": "guest03", "victim": "dom0",
            "observer": "dom0", "nesting": None,
        }
        assert blob == json.dumps(
            json.loads(blob), sort_keys=True, separators=(",", ":")
        )

    def test_topology_hash_tracks_content(self):
        assert DEFAULT_TOPOLOGY.topology_hash != CROSS_DOMAIN_TOPOLOGY.topology_hash
        again = ScenarioTopology(
            num_guests=3, attacker="guest04", victim="guest02", observer="guest03"
        )
        assert again.topology_hash == CROSS_DOMAIN_TOPOLOGY.topology_hash

    def test_spec_value_round_trip(self):
        assert DEFAULT_TOPOLOGY.spec_value() == ""
        assert ScenarioTopology.from_spec_value("") is DEFAULT_TOPOLOGY
        value = CROSS_DOMAIN_TOPOLOGY.spec_value()
        assert value == CROSS_DOMAIN_TOPOLOGY.canonical_json()
        assert ScenarioTopology.from_spec_value(value) == CROSS_DOMAIN_TOPOLOGY


def _legacy_job_id(spec):
    """The job-ID derivation exactly as it stood before the topology
    field existed, embedded here so the compatibility rule is pinned
    against the historical bytes rather than against the current code.
    """
    fields = {
        "kind": spec.kind,
        "use_case": spec.use_case,
        "version": spec.version,
        "mode": spec.mode,
        "seed": spec.seed,
        "trial": spec.trial,
        "recover": spec.recover,
    }
    if spec.metrics:
        fields["metrics"] = spec.metrics
    blob = json.dumps(fields, sort_keys=True).encode()
    return f"{spec.kind}:{hashlib.sha1(blob).hexdigest()[:16]}"


class TestLegacyJobIdentity:
    def test_default_topology_job_ids_are_byte_identical_to_legacy(self):
        specs = plan_campaign(
            ["XSA-212-priv", "XSA-148-priv"], ["4.6", "4.13"],
            ["exploit", "injection"],
        )
        assert specs  # the planner expanded something
        for spec in specs:
            assert spec.topology == ""
            assert spec.job_id == _legacy_job_id(spec)

    def test_metrics_specs_also_match_legacy(self):
        [spec] = plan_campaign(
            ["XSA-212-priv"], ["4.6"], ["exploit"], metrics=True
        )
        assert spec.job_id == _legacy_job_id(spec)

    def test_non_default_topology_diverges_from_legacy(self):
        specs = plan_campaign(
            ["xdom-grant-leak"], ["4.6"], ["exploit", "injection"],
            topology=CROSS_DOMAIN_TOPOLOGY.spec_value(),
        )
        for spec in specs:
            assert spec.topology == CROSS_DOMAIN_TOPOLOGY.spec_value()
            assert spec.job_id != _legacy_job_id(spec)

    def test_distinct_topologies_get_distinct_ids(self):
        def ids(topo):
            return {
                s.job_id
                for s in plan_campaign(
                    ["XSA-212-priv"], ["4.6"], ["injection"],
                    topology=topo.spec_value(),
                )
            }

        three = ScenarioTopology.paper_default(3)
        assert ids(DEFAULT_TOPOLOGY) != ids(three)
        assert ids(three) != ids(CROSS_DOMAIN_TOPOLOGY)
        assert ids(DEFAULT_TOPOLOGY) != ids(CROSS_DOMAIN_TOPOLOGY)

    def test_trace_dir_still_excluded_from_identity(self):
        with_trace = plan_campaign(
            ["XSA-212-priv"], ["4.6"], ["exploit"], trace_dir="/tmp/tr",
            topology=CROSS_DOMAIN_TOPOLOGY.spec_value(),
        )
        without = plan_campaign(
            ["XSA-212-priv"], ["4.6"], ["exploit"],
            topology=CROSS_DOMAIN_TOPOLOGY.spec_value(),
        )
        assert [s.job_id for s in with_trace] == [s.job_id for s in without]


class TestTestBedRoles:
    def test_default_bed_roles_match_the_paper(self):
        bed = build_testbed(XEN_4_6)
        assert bed.topology is DEFAULT_TOPOLOGY
        assert bed.attacker_domain.name == "guest03"
        assert bed.victim_domain is bed.dom0
        assert bed.observer_domain is bed.dom0
        # the shim resolves to the same domain the old hardwired
        # last-guest index did
        assert bed.attacker_domain is bed.guests[-1]
        assert bed.victim_guest is bed.guests[0]

    def test_cross_domain_bed_roles(self):
        bed = build_testbed(XEN_4_6, topology=CROSS_DOMAIN_TOPOLOGY)
        assert len(bed.guests) == 3
        assert bed.attacker_domain.name == "guest04"
        assert bed.victim_domain.name == "guest02"
        assert bed.observer_domain.name == "guest03"
        assert not bed.victim_domain.is_privileged
        # a guest victim is its own storm target
        assert bed.victim_guest is bed.victim_domain

    def test_guest_victim_receives_the_secret_canary(self):
        bed = build_testbed(XEN_4_6, topology=CROSS_DOMAIN_TOPOLOGY)
        victim = bed.victim_domain
        word = bed.xen.machine.read_word(
            victim.pfn_to_mfn(SECRET_PFN), SECRET_WORD
        )
        assert word == SECRET_CANARY
        # dom0 keeps its copy either way — it is still the control domain
        assert bed.xen.machine.read_word(
            bed.dom0.pfn_to_mfn(SECRET_PFN), SECRET_WORD
        ) == SECRET_CANARY

    def test_domain_by_name_rejects_strangers(self):
        bed = build_testbed(XEN_4_6)
        with pytest.raises(KeyError, match="guest09"):
            bed.domain_by_name("guest09")

    def test_explicit_topology_overrides_num_guests(self):
        bed = build_testbed(XEN_4_6, num_guests=5, topology=CROSS_DOMAIN_TOPOLOGY)
        assert len(bed.guests) == CROSS_DOMAIN_TOPOLOGY.num_guests == 3


class TestViolationProvenance:
    def test_matches_distinguishes_observation_sites(self):
        in_victim = ViolationReport(
            occurred=True, kind="isolation violation", observed_in="guest02"
        )
        in_attacker = ViolationReport(
            occurred=True, kind="isolation violation", observed_in="guest04"
        )
        assert not in_victim.matches(in_attacker)
        assert in_victim.matches(
            ViolationReport(
                occurred=True, kind="isolation violation", observed_in="guest02"
            )
        )

    def test_systemwide_observables_still_match(self):
        crash = ViolationReport(occurred=True, kind="hypervisor crash")
        assert crash.observed_in is None
        assert crash.matches(
            ViolationReport(occurred=True, kind="hypervisor crash")
        )
        assert ViolationReport.none().matches(ViolationReport.none())


class TestCrossDomainCells:
    """The three inject-in-A/observe-in-B cells, run end to end."""

    def campaign(self):
        return Campaign(topology=CROSS_DOMAIN_TOPOLOGY)

    def test_grant_leak_exploit_is_real_on_unfixed_versions(self):
        result = self.campaign().run(XdomGrantLeak, XEN_4_6, Mode.EXPLOIT)
        assert result.erroneous_state.achieved
        assert result.violation.occurred
        assert result.violation.observed_in == CROSS_DOMAIN_TOPOLOGY.victim

    def test_grant_leak_exploit_fails_on_fixed_version(self):
        result = self.campaign().run(
            XdomGrantLeak, version_by_name("4.16"), Mode.EXPLOIT
        )
        assert not result.erroneous_state.achieved
        assert result.failure and "exploit failed" in result.failure

    def test_grant_leak_injection_matches_exploit_observables(self):
        campaign = self.campaign()
        exploit = campaign.run(XdomGrantLeak, XEN_4_6, Mode.EXPLOIT)
        injection = campaign.run(XdomGrantLeak, XEN_4_6, Mode.INJECTION)
        assert injection.erroneous_state.matches(exploit.erroneous_state)
        assert injection.violation.matches(exploit.violation)

    @pytest.mark.parametrize("use_case", [XdomEventMisroute, XdomRingTamper])
    def test_injection_only_cells_fail_exploitation_honestly(self, use_case):
        result = self.campaign().run(use_case, XEN_4_6, Mode.EXPLOIT)
        assert not result.erroneous_state.achieved
        assert result.failure and "exploit failed" in result.failure

    def test_misroute_injection_observed_in_observer_domain(self):
        result = self.campaign().run(XdomEventMisroute, XEN_4_6, Mode.INJECTION)
        assert result.erroneous_state.achieved
        assert result.violation.occurred
        assert result.violation.observed_in == CROSS_DOMAIN_TOPOLOGY.observer

    def test_ring_tamper_injection_observed_by_peer_backend(self):
        result = self.campaign().run(XdomRingTamper, XEN_4_6, Mode.INJECTION)
        assert result.erroneous_state.achieved
        assert result.violation.occurred
        assert result.violation.observed_in == "dom0"

    def test_results_carry_their_topology(self):
        result = self.campaign().run(XdomEventMisroute, XEN_4_6, Mode.INJECTION)
        assert result.topology == CROSS_DOMAIN_TOPOLOGY.canonical_json()
        default = Campaign().run(XSA212Priv, XEN_4_6, Mode.INJECTION)
        assert default.topology is None


def _xdom_specs():
    return plan_campaign(
        ["xdom-grant-leak", "xdom-evtchn-misroute"], ["4.6"],
        ["exploit", "injection"],
        topology=CROSS_DOMAIN_TOPOLOGY.spec_value(),
    )


def _run_into_store(runner, specs, path, compact_path):
    store = ResultStore(path)
    try:
        outcome = runner.run(specs, store=store)
    finally:
        store.close()
    assert not outcome.failures, outcome.failures
    payloads = [outcome.results[s.job_id] for s in specs]
    return payloads, compact([path], compact_path).sha256


class TestEngineParity:
    """Serial, spawn pool and fork-server must be byte-identical on a
    non-default topology: identical payloads, and stores that compact
    to the same sha256 (the repo's deterministic store fingerprint)."""

    def test_serial_spawn_and_fork_server_agree(self, tmp_path):
        specs = _xdom_specs()
        reference, ref_sha = _run_into_store(
            SerialRunner(), specs,
            str(tmp_path / "serial.sqlite"), str(tmp_path / "serial-c.sqlite"),
        )
        for label, pool in (
            ("spawn", WorkerPool(jobs=2, batch=1, job_fn=execute_job)),
            ("forksrv", ForkServerPool(jobs=2)),
        ):
            payloads, sha = _run_into_store(
                pool, specs,
                str(tmp_path / f"{label}.sqlite"),
                str(tmp_path / f"{label}-c.sqlite"),
            )
            assert payloads == reference, f"{label} payloads diverged"
            assert sha == ref_sha, f"{label} store fingerprint diverged"

    def test_payloads_embed_the_topology(self, tmp_path):
        specs = _xdom_specs()
        payloads, _ = _run_into_store(
            SerialRunner(), specs,
            str(tmp_path / "s.sqlite"), str(tmp_path / "s-c.sqlite"),
        )
        for payload in payloads:
            assert payload["topology"] == CROSS_DOMAIN_TOPOLOGY.canonical_json()


class TestResumeAcrossTopologies:
    def test_one_store_resumes_a_mixed_topology_campaign(self, tmp_path):
        default_specs = plan_campaign(
            ["XSA-212-priv"], ["4.6"], ["injection"]
        )
        xdom_specs = plan_campaign(
            ["xdom-grant-leak"], ["4.6"], ["injection"],
            topology=CROSS_DOMAIN_TOPOLOGY.spec_value(),
        )
        specs = default_specs + xdom_specs
        assert len({s.job_id for s in specs}) == len(specs)
        path = str(tmp_path / "mixed.sqlite")
        with ResultStore(path) as store:
            first = SerialRunner().run(specs, store=store)
            assert not first.failures and not first.skipped
        with ResultStore(path) as store:
            resumed = SerialRunner().run(specs, store=store)
            assert resumed.skipped == {s.job_id for s in specs}
            assert resumed.results == first.results

    def test_partial_resume_fills_only_the_missing_topology(self, tmp_path):
        default_specs = plan_campaign(["XSA-212-priv"], ["4.6"], ["injection"])
        xdom_specs = plan_campaign(
            ["xdom-grant-leak"], ["4.6"], ["injection"],
            topology=CROSS_DOMAIN_TOPOLOGY.spec_value(),
        )
        path = str(tmp_path / "partial.sqlite")
        with ResultStore(path) as store:
            SerialRunner().run(default_specs, store=store)
        with ResultStore(path) as store:
            outcome = SerialRunner().run(
                default_specs + xdom_specs, store=store
            )
            assert outcome.skipped == {s.job_id for s in default_specs}
            assert not outcome.failures
            assert len(outcome.results) == len(default_specs) + len(xdom_specs)


class TestTraceIdentity:
    def record(self, tmp_path, label, topology):
        out = tmp_path / label
        campaign = Campaign(
            trace_dir=str(out), trace_keep="always", topology=topology
        )
        campaign.run(XdomGrantLeak, XEN_4_6, Mode.INJECTION)
        [trace] = sorted(out.iterdir())
        return trace

    def test_same_cell_records_byte_identical_traces(self, tmp_path):
        first = self.record(tmp_path, "a", CROSS_DOMAIN_TOPOLOGY)
        second = self.record(tmp_path, "b", CROSS_DOMAIN_TOPOLOGY)
        assert first.name == second.name
        assert first.read_bytes() == second.read_bytes()

    def test_non_default_trace_filename_carries_topology_hash(self, tmp_path):
        trace = self.record(tmp_path, "x", CROSS_DOMAIN_TOPOLOGY)
        assert f"_t{CROSS_DOMAIN_TOPOLOGY.topology_hash}" in trace.name

    def test_trace_headers_tag_only_non_default_topologies(self, tmp_path):
        xdom = self.record(tmp_path, "xdom", CROSS_DOMAIN_TOPOLOGY)
        header = json.loads(xdom.read_text().splitlines()[0])
        assert json.loads(header["topology"]) == json.loads(
            CROSS_DOMAIN_TOPOLOGY.canonical_json()
        )

        out = tmp_path / "default"
        campaign = Campaign(trace_dir=str(out), trace_keep="always")
        campaign.run(XSA212Priv, XEN_4_6, Mode.INJECTION)
        [default] = sorted(out.iterdir())
        header = json.loads(default.read_text().splitlines()[0])
        # default traces stay byte-identical to pre-topology recordings
        assert "topology" not in header
        assert "_t" not in default.stem.split("XSA-212-priv")[-1]
