"""Record the seed-0 golden outputs of every workload into ``pins.json``.

Run once on a trusted commit: ``python3 bench/make_pins.py``.  A pin holds
a call's exit code and, for successful calls, the sha256 of its canonical
trace and its summary counts, or the oracle's (min_depth, max_depth,
states_explored).  The benchmark counts any difference as a failed call.
"""

from __future__ import annotations

import hashlib
import json

import worker
import workloads


def main() -> None:
    cli = worker.load_package(worker.ROOT)["cli"]
    pins = {}
    for name in workloads.WORKLOADS:
        pins[name] = {}
        with worker.workdir(worker.ROOT) as work:
            for op in workloads.build(name, 0, work, worker.ROOT):
                if op.prepare is not None:
                    op.prepare()
                rc, _, out = worker.invoke(cli, op.argv)
                pin: dict = {"exit": rc}
                if rc == 0:
                    doc = json.loads(out)
                    if op.verb == "run":
                        pin["sha256"] = hashlib.sha256(op.trace.read_bytes()).hexdigest()
                    if op.verb == "oracle":
                        pin["oracle"] = [doc["min_depth"], doc["max_depth"], doc["states_explored"]]
                    else:
                        pin["summary"] = doc["summary"]
                pins[name][op.key] = pin
                print(name, op.key, pin, flush=True)
    worker.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
