"""Regenerate reference.json: the outputs of the first ops of every workload
on the default seed, which run.py's gate compares against.

    PYTHONPATH=src python3 bench/make_reference.py

Run it only when a change of outputs is intended and explained; the gate
exists to catch outputs that change without one.
"""

import json

import workloads


def main() -> None:
    reference = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(workloads.DEFAULT_SEED, None)
        rows = reference[name] = []
        for k in range(wl.gate_ops):
            wl.prepare(k)
            rows.append(wl.summary(wl.run(k)))
    blocks = [
        f"{json.dumps(name)}: [\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]"
        for name, rows in reference.items()
    ]
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    main()
