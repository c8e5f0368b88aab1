"""Set-up probe: a fresh interpreter that runs one job on a fresh pool.

Launched by the benchmark to measure ``setup_s``: it prints, as JSON,
the monotonic time at which the first job finished.  Usage::

    python3 perfbench/probe.py <src-dir> <store-path> <job-spec-json>
"""

import json
import sys
import time


def main(argv):
    src, store_path, spec_json = argv
    sys.path.insert(0, src)
    import repro.cli  # noqa: F401 - the program's entry point imports this first
    from repro.runner import ForkServerPool, JobSpec, ResultStore

    spec = JobSpec.from_json(spec_json)
    first_done = []

    def on_event(event):
        if event.kind == "job-finished" and not first_done:
            first_done.append(time.monotonic())

    with ResultStore(store_path) as store:
        store.register([spec])
        outcome = ForkServerPool(jobs=1, on_event=on_event).run([spec], store=store)
    if outcome.failures or not first_done:
        print(json.dumps({"error": dict(outcome.failures)}))
        return 1
    print(json.dumps({"first_done": first_done[0]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
