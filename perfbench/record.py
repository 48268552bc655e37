"""Record the expected output digest of every op the workloads can issue.

    python3 perfbench/record.py

Runs each op of the fixed instance family once and writes `digests.json`.
Run it only when a change is meant to alter the package's results; a
faster version of the same program must reproduce these digests.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as w  # noqa: E402
from worker import import_slflab  # noqa: E402


def record_op(slf, workload: str, key: str, text: str, param: str) -> str:
    return w.digest(w.run_op(slf, workload, w.Item(key, text, param)))


def main() -> int:
    slf = import_slflab()
    ser = slf.core.serialize_instance
    table: dict = {"certify": {}, "sweep": {}, "reduce": {}}
    for n in w.CERTIFY_N:
        for eps in w.CERTIFY_EPS:
            for v in range(w.CERTIFY_VARIANTS):
                inst = w.certify_instance(slf, n, eps, v)
                key = f"{n}:{eps}:{v}"
                table["certify"][key] = [
                    [t, record_op(slf, "certify", key, ser(inst), t)]
                    for t in w.certify_targets(slf, inst)
                ]
    for policy in w.SWEEP_POLICIES:
        for eps in w.SWEEP_EPS:
            for v in range(w.SWEEP_VARIANTS):
                text = ser(w.sweep_instance(slf, eps, policy, v))
                table["sweep"][f"{eps}:{policy}:{v}"] = record_op(
                    slf, "sweep", "", text, policy
                )
    for n in w.REDUCE_N:
        for eps in w.REDUCE_EPS:
            for v in range(w.REDUCE_VARIANTS):
                text = ser(w.reduce_instance(slf, n, eps, v))
                table["reduce"][f"{n}:{eps}:{v}"] = record_op(slf, "reduce", "", text, eps)
    lines = ["{"]
    for wi, (workload, entries) in enumerate(table.items()):
        lines.append(f'  "{workload}": {{')
        body = [f"    {json.dumps(k)}: {json.dumps(v)}" for k, v in entries.items()]
        lines.append(",\n".join(body))
        lines.append("  }" + ("," if wi < len(table) - 1 else ""))
    lines.append("}")
    w.DIGESTS_PATH.write_text("\n".join(lines) + "\n")
    for workload, entries in table.items():
        summary = w.digest(json.dumps(entries, sort_keys=True))
        print(f"{workload}: {len(entries)} instances, table digest {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
