"""The benchmark's deterministic metrics must repeat bit for bit.

``model_cycles``, ``code_bytes`` and every program's compile count come
from the paper's cycle model and a deterministic compiler, so two runs
of one seed must agree exactly, whatever the interpreter's string-hash
seed. Wall-clock metrics are not compared.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SEED = 7


def run_steady(hash_seed):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = str(hash_seed)
    subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "steady-py",
         "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
        cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
        timeout=600,
    )
    path = os.path.join(ROOT, ".perfbench", "out",
                        "steady-py-seed%d-trace0.json" % SEED)
    with open(path) as handle:
        report = json.load(handle)
    return (
        report["metrics"]["model_cycles"],
        report["metrics"]["code_bytes"],
        {p["program"]: (p["compilations"], p["cycles"], p["code_bytes"])
         for p in report["programs"]},
    )


def test_model_cycles_code_bytes_and_compile_counts_repeat():
    first = run_steady(0)
    second = run_steady(1)
    assert first == second
