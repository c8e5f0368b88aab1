"""R4 — determinism discipline in ``repro.core``, ``repro.runner``,
``repro.trace`` and ``repro.vulngen``.

The runner's guarantee (PR 1) is that parallel campaigns equal serial
ones byte for byte, because every fuzz trial derives a private seeded
``random.Random`` and every job is identified by a content hash.  The
scope includes the whole ``repro/runner/`` tree — the pool workers'
lease cache (``repro.runner.forkserver``) restores cached snapshots between
trials, so any ambient nondeterminism there would poison *every*
subsequent trial served from the same worker, not just one.
Three syntactic habits silently break that guarantee:

* calls on the **module-level RNG** (``random.random()``,
  ``random.choice(...)``) share hidden global state across trials —
  construct ``random.Random(seed)`` (allowed) from the per-trial seed;
* ``time.time()`` reads the wall clock into results or identifiers —
  inject a clock (store it as a callable) so tests and replays can pin
  it; ``time.monotonic``/``perf_counter`` for *measuring* are fine;
* iterating an **unordered collection** — a set literal/constructor,
  ``set()``-typed result fields (``outcome.skipped``, ``.failures``),
  or their ``.keys()/.values()/.items()`` — feeds hash order into
  output; iterate the plan order or wrap in ``sorted(...)``.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.staticcheck.model import Finding
from repro.staticcheck.rules import RuleContext, rule

#: ``random.<name>(...)`` calls that are fine: explicit generators.
_ALLOWED_RANDOM = {"Random", "SystemRandom"}

#: Attribute names documented to hold unordered result collections.
_UNORDERED_ATTRS = {"skipped", "failures"}

#: Methods whose result is only ordered if the receiver is.
_VIEW_METHODS = {"keys", "values", "items"}


def _unordered_reason(node: ast.expr) -> Optional[str]:
    """Why iterating ``node`` is hash-order dependent (None if it isn't)."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
            return f"a {func.id}(...) has no stable iteration order"
        if isinstance(func, ast.Attribute) and func.attr in _VIEW_METHODS:
            inner = _unordered_reason(func.value)
            if inner is not None:
                return inner
        return None
    if isinstance(node, ast.Set) or isinstance(node, ast.SetComp):
        return "a set literal has no stable iteration order"
    if isinstance(node, ast.Attribute) and node.attr in _UNORDERED_ATTRS:
        return (
            f"`.{node.attr}` is an unordered result collection "
            "(see repro.runner.pool.RunnerOutcome)"
        )
    return None


def _iteration_targets(tree: ast.Module):
    """Yield every expression something iterates over."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for generator in node.generators:
                yield generator.iter


@rule(
    "R4",
    "determinism",
    "no module-level RNG, wall-clock reads, or unordered iteration in "
    "repro.core / repro.runner (incl. the forkserver's snapshot cache) "
    "/ repro.trace / repro.vulngen (parallel must equal serial, and "
    "trace files and corpus manifests must be byte-stable)",
)
def check_determinism(ctx: RuleContext) -> List[Finding]:
    """R4: flag ambient-nondeterminism sources in deterministic trees."""
    if not (
        ctx.in_tree("repro/core/")
        or ctx.in_tree("repro/runner/")
        or ctx.in_tree("repro/trace/")
        or ctx.in_tree("repro/vulngen/")
    ):
        return []
    findings: List[Finding] = []

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute) or not isinstance(
            func.value, ast.Name
        ):
            continue
        if func.value.id == "random" and func.attr not in _ALLOWED_RANDOM:
            findings.append(
                ctx.finding(
                    "R4",
                    node,
                    f"random.{func.attr}() uses the shared module-level "
                    "RNG; trials become order-dependent",
                    hint="derive a private random.Random(seed) from the "
                    "per-trial seed (see repro.core.fuzz.trial_seed)",
                )
            )
        elif func.value.id == "time" and func.attr == "time":
            findings.append(
                ctx.finding(
                    "R4",
                    node,
                    "time.time() reads the wall clock; results stop "
                    "being reproducible",
                    hint="inject a clock callable (default time.time) so "
                    "tests can pin it; use time.monotonic for intervals",
                )
            )

    for target in _iteration_targets(ctx.tree):
        reason = _unordered_reason(target)
        if reason is not None:
            findings.append(
                ctx.finding(
                    "R4",
                    target,
                    f"iteration order is nondeterministic: {reason}",
                    hint="iterate the job plan (specs) or wrap the "
                    "collection in sorted(...)",
                )
            )
    return findings
