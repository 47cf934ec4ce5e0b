#!/usr/bin/env python3
"""Self-test of the benchmark's own machinery.

    python3 perfbench/tests/selftest.py

1. latency_recorder_test: the recorder's percentiles against an exact
   sort of generated samples.
2. Planted faults: each output check must fail the run. kvbench plants
   one fault into its view of the store's outputs and must exit 1 with
   the matching check in its log; a control run with nothing planted
   must exit 0.

Builds through run.py (same build directory). Exit 0 when all pass.
"""
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402

# plant -> text the failed check prints
PLANTS = {
    "torn_audit": "audit of group",
    "foreign_tag": "holds a value tagged",
    "lost_write": "after reopen",
    "sum_drift": "ends with sum",
}


def kvbench(out, plant):
    argv = [os.path.join(out, "kvbench"), "--workload", "mixed_2pc_wal",
            "--seed", "7", "--seconds", "0.5", "--trace", "0",
            "--work-dir", os.path.join(out, "selftest"), "--plant", plant]
    return subprocess.run(argv, capture_output=True, text=True, timeout=170)


def main():
    out = run.build(("kvbench", "latency_recorder_test"))
    ok = True
    rec = subprocess.run([os.path.join(out, "latency_recorder_test")],
                         capture_output=True, text=True, timeout=60)
    print(rec.stdout.strip())
    ok &= rec.returncode == 0

    control = kvbench(out, "none")
    print(f"control run: exit {control.returncode}")
    ok &= control.returncode == 0
    for plant, expect in PLANTS.items():
        p = kvbench(out, plant)
        caught = p.returncode == 1 and expect in p.stdout
        print(f"planted {plant:12s}: exit {p.returncode}, "
              f"{'caught' if caught else 'NOT CAUGHT'}")
        ok &= caught
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
