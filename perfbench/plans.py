"""Workload inputs, generated from the workload seed.

Every job and plan the program under test receives comes from here, and
only from ``seed``: the same seed gives the same inputs.
"""

from __future__ import annotations

import itertools
import json
import random
from typing import Dict, List

from repro.core.fuzz import default_components
from repro.core.topology import CROSS_DOMAIN_TOPOLOGY
from repro.exploits import CROSS_DOMAIN_USE_CASES, USE_CASES
from repro.runner import FUZZ_TRIAL, JobSpec, plan_campaign, plan_fuzz
from repro.vulngen.corpus import generate_corpus
from repro.vulngen.synthetic import MUTATION_NAMES

VERSIONS = ("4.6", "4.8", "4.13")
#: fuzz-warm: trials per component per version (5 x 3 x 20 = 300 jobs).
FUZZ_RUNS = 20
#: campaign-cold: synthetic corpus trials per campaign.
SYNTHETIC_TRIALS = 30
#: service-mixed: trials per component in a tenant's fuzz plan (5 x 8 = 40).
SERVICE_FUZZ_RUNS = 8


def _root(seed: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{seed}")


def fuzz_warm(seed: int) -> List[JobSpec]:
    """One 300-job classic fuzz campaign, versions interleaved."""
    rng = _root(seed, "fuzz-warm")
    components = [component.name for component in default_components()]
    per_version = [
        plan_fuzz(version, components, FUZZ_RUNS, rng.randrange(2**31))
        for version in VERSIONS
    ]
    return [spec for trio in zip(*per_version) for spec in trio]


def campaign_cold(seed: int) -> List[JobSpec]:
    """Paper matrix + cross-domain matrix + a seed-drawn synthetic slice."""
    rng = _root(seed, "campaign-cold")
    specs = plan_campaign([u.name for u in USE_CASES], VERSIONS)
    specs += plan_campaign(
        [u.name for u in CROSS_DOMAIN_USE_CASES],
        VERSIONS,
        topology=CROSS_DOMAIN_TOPOLOGY.spec_value(),
    )
    corpus = generate_corpus()
    for slot, entry in enumerate(rng.sample(corpus.specs, SYNTHETIC_TRIALS)):
        specs.append(
            JobSpec(
                kind=FUZZ_TRIAL,
                use_case=entry.id,
                version=rng.choice(VERSIONS),
                mode=rng.choice(MUTATION_NAMES),
                seed=rng.randrange(2**31),
                trial=slot,
            )
        )
    rng.shuffle(specs)
    return specs


def service_fuzz_plans(seed: int):
    """Endless distinct 40-trial fuzz plans (distinct seeds)."""
    rng = _root(seed, "service-fuzz")
    seen = set()
    while True:
        plan_seed = rng.randrange(2**31)
        if plan_seed in seen:
            continue
        seen.add(plan_seed)
        yield {
            "kind": "fuzz",
            "version": rng.choice(VERSIONS),
            "runs": SERVICE_FUZZ_RUNS,
            "seed": plan_seed,
        }


def service_campaign_plans(seed: int) -> List[Dict[str, object]]:
    """Every distinct one-use-case, four-cell campaign plan (two versions
    by both modes), seed-shuffled.  Paper use cases run on the default
    topology, the cross-domain ones on ``CROSS_DOMAIN_TOPOLOGY``.  All
    have four cells, so per-campaign counts do not depend on the draw."""
    pairs = [list(pair) for pair in itertools.combinations(VERSIONS, 2)]
    cross_domain = json.loads(CROSS_DOMAIN_TOPOLOGY.spec_value())
    chosen = [(u.name, None) for u in USE_CASES] + [(u.name, cross_domain) for u in CROSS_DOMAIN_USE_CASES]
    plans = []
    for use_case, topology in chosen:
        for versions in pairs:
            for metrics in (False, True):
                plan = {
                    "kind": "campaign",
                    "use_cases": [use_case],
                    "versions": versions,
                    "modes": ["exploit", "injection"],
                    "metrics": metrics,
                }
                if topology is not None:
                    plan["topology"] = topology
                plans.append(plan)
    _root(seed, "service-campaign").shuffle(plans)
    return plans


def warmup_plan(seed: int, index: int) -> Dict[str, object]:
    """The small fuzz plan a freshly launched service runs first."""
    rng = _root(seed, f"service-warmup-{index}")
    return {"kind": "fuzz", "version": rng.choice(VERSIONS), "runs": 1, "seed": rng.randrange(2**31)}
