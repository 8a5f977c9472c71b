"""Smoke run of the benchmark itself, on an input that takes seconds.

    python3 perfbench/smoke.py

Checks that BENCHMARK.json is well formed; that ``run.py --workload smoke``
with ``--trace 0`` and ``--trace 1`` ends its output with one JSON object
whose keys, metric names and units are the ones BENCHMARK.json declares, with
every operation correct; and that ``run.py`` fails without printing a result
in a directory that holds the benchmark but not the program. Exits nonzero
on the first problem.
"""
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check(ok, message):
    if not ok:
        sys.exit(f"smoke: FAIL: {message}")


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    names = [w["name"] for w in spec["workloads"]]
    check(2 <= len(names) <= 8 and "smoke" not in names, "workload list")
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"} and len(w["why"]) <= 200, w)
        check((HERE / "workloads" / f"{w['name']}.cfg").is_file(), w["name"])
        check((HERE / "golden" / w["name"] / "samples.csv").is_file(), w["name"])
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}, m)
        check(0 < m["bound"] <= 0.25, m)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
          "setup_s")
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, m)
    every = spec["workloads"] + spec["end_to_end"] + spec["per_layer"]
    all_names = [m["name"] for m in every]
    check(len(all_names) == len(set(all_names)), "names are used once")
    for m in every:
        check(NAME.fullmatch(m["name"]), m["name"])
        check("unit" not in m or UNIT.fullmatch(m["unit"]), m)
        check(m.get("better", "lower") in ("lower", "higher"), m)


def run_bench(cwd, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "smoke",
           "--seed", "20240817", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_result(spec, trace):
    proc = run_bench(ROOT, trace)
    check(proc.returncode == 0, f"--trace {trace} exited {proc.returncode}:\n"
          f"{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          "result keys")
    check(result["correct"] is True and result["failed"] == 0, result)
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          "attempted")
    declared = spec["per_layer" if trace else "end_to_end"]
    check(list(result["metrics"]) == [m["name"] for m in declared],
          f"--trace {trace} metric names")
    for m in declared:
        got = result["metrics"][m["name"]]
        check(set(got) == {"value", "unit"} and got["unit"] == m["unit"],
              f"{m['name']}: {got}")
        check(isinstance(got["value"], (int, float))
              and math.isfinite(got["value"]), f"{m['name']}: {got}")
    print(f"smoke: --trace {trace} ok, {result['attempted']} operations")


def check_fails_without_program():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench(bare, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "run.py succeeded without the program")
    check('"correct"' not in proc.stdout, "run.py printed a result")
    print("smoke: fails without the program, as it should")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    for trace in (0, 1):
        check_result(spec, trace)
    check_fails_without_program()
    print("smoke: ok")


if __name__ == "__main__":
    main()
