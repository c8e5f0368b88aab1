"""Extension experiment — cross-domain campaign matrix (§IX-B).

Runs the three cross-domain use cases (grant-table mapping leak,
event-channel misroute, shared-ring tamper) on the stock inject-in-A/
observe-in-B topology, across every shipped Xen version and both
modes, through both execution engines — the serial runner and the
snapshot-cached worker pool — and checks two invariants:

* **identity**: every engine yields byte-identical result payloads
  and its result store compacts to the same sha256 — topology is part
  of job identity, not of execution;
* **detection**: every injection run lands its erroneous state, and
  the violation is observed *in the scenario's observer-side domain*
  (the victim for the mapping leak, the observer for the misroute,
  dom0's backend for the ring tamper) — never only in the attacker.

The exploit column is the paper's argument in miniature: only the
grant leak has a real CVE behind it (XSA-387, unfixed across the
shipped versions); the other two exploits must fail everywhere while
their injections reach the same observable state.

The archived artefact is JSON with a fixed schema and canonical key
order (``benchmarks/output/cross_domain.json``); absolute wall times
vary with the host, the parity verdicts and detection matrix must not.

Run directly for the CI artifact::

    PYTHONPATH=src python benchmarks/bench_cross_domain.py

or through pytest-benchmark::

    pytest benchmarks/bench_cross_domain.py -s
"""

import json
import pathlib
import time

from repro.core.topology import CROSS_DOMAIN_TOPOLOGY
from repro.runner import SerialRunner, WorkerPool, plan_campaign
from repro.runner.store import ResultStore
from repro.service.shards import compact

USE_CASES = ["xdom-grant-leak", "xdom-evtchn-misroute", "xdom-ring-tamper"]
VERSIONS = ["4.6", "4.8", "4.13"]
MODES = ["exploit", "injection"]
#: Which domain each cell's violation must be observed in, by role.
OBSERVATION_SITE = {
    "xdom-grant-leak": CROSS_DOMAIN_TOPOLOGY.victim,
    "xdom-evtchn-misroute": CROSS_DOMAIN_TOPOLOGY.observer,
    "xdom-ring-tamper": "dom0",  # the peer backend's domain
}
OUTPUT_PATH = pathlib.Path(__file__).parent / "output" / "cross_domain.json"


def _specs():
    return plan_campaign(
        USE_CASES, VERSIONS, MODES,
        topology=CROSS_DOMAIN_TOPOLOGY.spec_value(),
    )


def _measure(runner, specs, tmp, label):
    """Run the matrix into a store; return (elapsed, payloads, sha256)."""
    store_path = str(tmp / f"{label}.sqlite")
    store = ResultStore(store_path)
    started = time.perf_counter()
    outcome = runner.run(specs, store=store)
    elapsed = time.perf_counter() - started
    store.close()
    assert not outcome.failures, outcome.failures
    payloads = [outcome.results[s.job_id] for s in specs]
    report = compact([store_path], str(tmp / f"{label}-compact.sqlite"))
    return elapsed, payloads, report.sha256


def _detection_matrix(specs, payloads):
    """Per-cell observables: achieved / detected / where observed."""
    cells = []
    for spec, payload in zip(specs, payloads):
        violation = payload["violation"]
        cells.append({
            "use_case": spec.use_case,
            "version": spec.version,
            "mode": spec.mode,
            "erroneous_state": payload["erroneous_state"]["achieved"],
            "violation": violation["occurred"],
            "observed_in": violation.get("observed_in"),
            "failure": payload.get("failure"),
        })
    return cells


def build_matrix(pool_workers=2):
    """The full engine × cell matrix plus the detection observables."""
    import tempfile

    specs = _specs()
    engines = []
    with tempfile.TemporaryDirectory(prefix="repro-xdom-") as td:
        tmp = pathlib.Path(td)
        elapsed, reference, ref_sha = _measure(
            SerialRunner(), specs, tmp, "serial"
        )
        engines.append({
            "mode": "serial", "workers": 1, "wall_s": round(elapsed, 3),
            "store_sha256": ref_sha, "parity": True,
        })
        elapsed, payloads, sha = _measure(
            WorkerPool(jobs=pool_workers), specs, tmp, "pool"
        )
        engines.append({
            "mode": "pool", "workers": pool_workers,
            "wall_s": round(elapsed, 3), "store_sha256": sha,
            "parity": payloads == reference and sha == ref_sha,
        })
    return {
        "topology": json.loads(CROSS_DOMAIN_TOPOLOGY.canonical_json()),
        "topology_hash": CROSS_DOMAIN_TOPOLOGY.topology_hash,
        "campaign": {
            "use_cases": USE_CASES, "versions": VERSIONS, "modes": MODES,
        },
        "engines": engines,
        "cells": _detection_matrix(specs, reference),
    }


def render(matrix):
    topo = matrix["topology"]
    lines = [
        "cross-domain campaign: "
        f"{topo['num_guests']} guests, attacker={topo['attacker']}, "
        f"victim={topo['victim']}, observer={topo['observer']} "
        f"[{matrix['topology_hash']}]",
        "",
        f"{'engine':<13}{'workers':<9}{'wall (s)':<10}{'parity':<8}store sha256",
        "-" * 76,
    ]
    for row in matrix["engines"]:
        lines.append(
            f"{row['mode']:<13}{row['workers']:<9}{row['wall_s']:<10.3f}"
            f"{'ok' if row['parity'] else 'DIVERGED':<8}"
            f"{row['store_sha256'][:16]}"
        )
    lines += [
        "",
        f"{'use case':<22}{'version':<9}{'mode':<11}{'err-state':<11}"
        f"{'violation':<11}observed in",
        "-" * 76,
    ]
    for cell in matrix["cells"]:
        lines.append(
            f"{cell['use_case']:<22}{cell['version']:<9}{cell['mode']:<11}"
            f"{'YES' if cell['erroneous_state'] else 'no':<11}"
            f"{'YES' if cell['violation'] else 'no':<11}"
            f"{cell['observed_in'] or '-'}"
        )
    return "\n".join(lines)


def write_artifact(matrix, path=OUTPUT_PATH):
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(matrix, indent=2, sort_keys=True) + "\n")
    return path


def check_matrix(matrix):
    """The claims the artefact must support, host speed aside."""
    assert all(row["parity"] for row in matrix["engines"]), (
        "an execution engine diverged from the serial reference"
    )
    shas = {row["store_sha256"] for row in matrix["engines"]}
    assert len(shas) == 1, f"stores diverged across engines: {shas}"
    for cell in matrix["cells"]:
        name = f"{cell['use_case']}/{cell['version']}/{cell['mode']}"
        if cell["mode"] == "injection":
            assert cell["erroneous_state"], f"{name}: injection missed"
            assert cell["violation"], f"{name}: violation undetected"
            assert cell["observed_in"] == OBSERVATION_SITE[cell["use_case"]], (
                f"{name}: observed in {cell['observed_in']!r}, expected "
                f"{OBSERVATION_SITE[cell['use_case']]!r}"
            )
        elif cell["use_case"] == "xdom-grant-leak":
            # XSA-387 is unfixed on every shipped matrix version: the
            # real exploit reaches the same state the injection does.
            assert cell["erroneous_state"] and cell["violation"], (
                f"{name}: the real XSA-387 exploit should land here"
            )
        else:
            # No public advisory reaches these states — the exploit
            # column honestly fails, which is the injection argument.
            assert not cell["erroneous_state"] and cell["failure"], (
                f"{name}: exploit unexpectedly succeeded"
            )


def test_cross_domain(benchmark):
    """pytest-benchmark entry: full matrix, full invariant checking."""
    from benchmarks.conftest import publish

    matrix = benchmark.pedantic(build_matrix, rounds=1, iterations=1)
    check_matrix(matrix)
    publish("cross_domain", render(matrix))


def main():
    matrix = build_matrix()
    check_matrix(matrix)
    path = write_artifact(matrix)
    print(render(matrix))
    print(f"\nartifact: {path}")


if __name__ == "__main__":
    main()
