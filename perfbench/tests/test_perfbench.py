"""The benchmark's own tests.  Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys

import pytest

import kernel
import outputs
import plans
import run

ROOT = run.ROOT
NOMINAL_MS = "3.0"


def test_normalize_scales_by_nominal_over_mean_kernel():
    # The host ran the kernel at 4 ms and 6 ms (mean 5); nominal is 2.5,
    # so the host was half as fast as nominal and 2 s raw is 1 s nominal.
    assert kernel.normalize(2.0, [4.0, 6.0], 2.5) == pytest.approx(1.0)
    assert kernel.normalize(2.0, [2.5], 2.5) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        kernel.normalize(1.0, [0.0, 0.0], 2.5)


def test_host_clock_scales_every_segment_by_the_run_mean(monkeypatch):
    readings = iter([4.0, 6.0, 1.0, 9.0])
    monkeypatch.setattr(kernel, "kernel_ms", lambda: next(readings))
    clock = kernel.HostClock(nominal_ms=2.5)
    clock.begin()
    clock.end("campaign-0", 2.0)
    clock.begin()
    clock.end("campaign-1", 4.0)
    # Mean of all four readings is 5 ms: every raw second is half a
    # nominal second, whichever readings bracketed it.
    assert clock.scale == pytest.approx(0.5)
    assert clock.norm(3.0) == pytest.approx(1.5)
    record = clock.record()
    assert record["nominal_ms"] == 2.5
    assert record["segments"] == [
        {"label": "campaign-0", "raw_s": 2.0, "kernel_before_ms": 4.0,
         "kernel_after_ms": 6.0, "norm_s": pytest.approx(1.0)},
        {"label": "campaign-1", "raw_s": 4.0, "kernel_before_ms": 1.0,
         "kernel_after_ms": 9.0, "norm_s": pytest.approx(2.0)},
    ]


def test_kernel_reads_a_positive_time():
    assert kernel.kernel_ms() > 0


def test_plans_depend_only_on_the_seed():
    assert [s.job_id for s in plans.campaign_cold(3)] == [s.job_id for s in plans.campaign_cold(3)]
    assert [s.job_id for s in plans.campaign_cold(3)] != [s.job_id for s in plans.campaign_cold(4)]
    fuzz = plans.fuzz_warm(5)
    assert len(fuzz) == len({s.job_id for s in fuzz}) == 300
    assert [s.version for s in fuzz[:3]] == list(plans.VERSIONS)


def test_service_campaign_plans_are_distinct():
    chosen = plans.service_campaign_plans(1)
    assert len({json.dumps(p, sort_keys=True) for p in chosen}) == len(chosen)


def test_tampered_payload_fails_the_output_check():
    specs = plans.fuzz_warm(2)[:3]
    job_ids = [spec.job_id for spec in specs]
    reference = outputs.serial_reference(specs)
    produced = outputs.serial_reference(specs)
    check = outputs.OutputCheck()
    check.equal("clean", outputs.payload_digest(job_ids, produced), outputs.payload_digest(job_ids, reference))
    assert check.ok

    produced[job_ids[1]] = dict(produced[job_ids[1]], outcome="tampered")
    check.equal("tampered", outputs.payload_digest(job_ids, produced), outputs.payload_digest(job_ids, reference))
    del produced[job_ids[2]]
    check.equal("missing", outputs.payload_digest(job_ids, produced), outputs.payload_digest(job_ids, reference))
    assert not check.ok
    assert [failure.split(":")[0] for failure in check.failures] == ["tampered", "missing"]


def test_a_reference_job_that_raises_is_reported(monkeypatch):
    import repro.runner

    def raises(spec):
        raise RuntimeError("boom")

    monkeypatch.setattr(repro.runner, "execute_job", raises)
    specs = plans.fuzz_warm(2)[:2]
    errors = {}
    assert outputs.serial_reference(specs, errors) == {}
    assert errors == {spec.job_id: "RuntimeError: boom" for spec in specs}


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--kernel-nominal-ms", NOMINAL_MS,
         "--workload", workload, "--seed", "11", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    with open(os.path.join(ROOT, ".perfbench", "records", f"{workload}-seed11-trace{trace}.json")) as handle:
        record = json.load(handle)
    assert set(record["host"]) >= {"cpu_count", "python", "sqlite", "git_sha", "data_dir_fs"}
    segments = record["clock"]["segments"]
    assert any(s["label"].startswith("setup-") for s in segments)
    assert all({"raw_s", "kernel_before_ms", "kernel_after_ms", "norm_s"} <= set(s) for s in segments)


def test_refuses_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(run.HERE):
        if name.endswith(".py"):
            (bench / name).write_text(open(os.path.join(run.HERE, name)).read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--kernel-nominal-ms", NOMINAL_MS,
         "--workload", "fuzz-warm", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
