#!/usr/bin/env python3
"""Small-size self-test of the benchmark.

    python3 perfbench/selftest.py

Checks, at --seconds 1 on every workload:
  * BENCHMARK.json has its required keys, names and bounds and agrees
    with layers.json;
  * the plain run prints every end-to-end metric, and the traced run
    every per-layer metric, by name with the unit BENCHMARK.json gives,
    and the result JSON carries exactly those metrics;
  * every reference check layers.json lists for the workload runs and
    passes, and a run with --fault (one checked output corrupted) fails
    its check and exits non-zero;
  * run.py exits non-zero without a result in a directory holding only
    BENCHMARK.json and perfbench/.
Exits 1 on the first set of failures, printing each.
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}

failures = []


def expect(cond, msg):
    if not cond:
        failures.append(msg)
    return cond


def check_manifest(bench, layers):
    expect(set(bench) == TOP_KEYS, f"BENCHMARK.json keys {sorted(bench)}")
    names = []
    for w in bench["workloads"]:
        expect(set(w) == {"name", "why"}, f"workload keys {sorted(w)}")
        expect(len(w["why"]) <= 200 and "\n" not in w["why"],
               f"why of {w['name']} too long")
        names.append(w["name"])
    for m in bench["end_to_end"]:
        expect(set(m) == {"name", "unit", "better", "bound"},
               f"end_to_end keys of {m['name']}")
        expect(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
        names.append(m["name"])
    for m in bench["per_layer"]:
        expect(set(m) == {"name", "unit", "better"},
               f"per_layer keys of {m['name']}")
        names.append(m["name"])
    for m in bench["end_to_end"] + bench["per_layer"]:
        expect(UNIT.match(m["unit"]), f"unit of {m['name']}")
        expect(m["better"] in ("higher", "lower"), f"better of {m['name']}")
    for n in names:
        expect(NAME.match(n), f"bad name {n}")
    expect(len(names) == len(set(names)), "a name is used twice")
    expect(any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in bench["end_to_end"]),
           "setup_s missing")
    expect({w["name"] for w in bench["workloads"]} == set(layers["workloads"]),
           "workloads differ between BENCHMARK.json and layers.json")
    expect([m["name"] for m in bench["per_layer"]] ==
           [m["name"] for m in layers["per_layer"]],
           "per-layer metrics differ between BENCHMARK.json and layers.json")


def run(workload, trace, fault=False, root=ROOT):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    if fault:
        cmd.append("--fault")
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=900)


def check_output(workload, trace, out, metrics, checks):
    tag = f"{workload} --trace {trace}"
    if not expect(out.returncode == 0, f"{tag}: exit {out.returncode}\n"
                  f"{out.stderr[-1500:]}"):
        return
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{tag}: result keys")
    expect(result["correct"] is True and result["failed"] == 0,
           f"{tag}: not correct")
    expect(result["attempted"] >= 1, f"{tag}: attempted < 1")
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if parts and parts[0] == "metric" and len(parts) == 4:
            printed[parts[1]] = parts[3]
    expect(set(result["metrics"]) == {m["name"] for m in metrics},
           f"{tag}: result metrics differ from BENCHMARK.json")
    for m in metrics:
        expect(printed.get(m["name"]) == m["unit"],
               f"{tag}: {m['name']} not printed with unit {m['unit']}")
        got = result["metrics"].get(m["name"], {})
        expect(got.get("unit") == m["unit"] and
               isinstance(got.get("value"), (int, float)),
               f"{tag}: {m['name']} malformed in the result")
    ran = {}
    for line in lines:
        hit = re.match(r"^check (\S+): (pass|FAIL)$", line)
        if hit:
            ran[hit.group(1)] = hit.group(2)
    for c in checks:
        expect(ran.get(c) == "pass", f"{tag}: check {c} did not run and pass")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((ROOT / "perfbench" / "layers.json").read_text())
    check_manifest(bench, layers)

    for w in bench["workloads"]:
        name = w["name"]
        checks = layers["workloads"][name]["checks"]
        check_output(name, 0, run(name, 0), bench["end_to_end"], checks)
        check_output(name, 1, run(name, 1), bench["per_layer"], checks)
        bad = run(name, 0, fault=True)
        lines = bad.stdout.strip().splitlines()
        expect(bad.returncode != 0, f"{name} --fault: exit 0")
        expect(any(l.startswith("check ") and l.endswith("FAIL")
                   for l in lines), f"{name} --fault: no check failed")
        expect(lines and json.loads(lines[-1])["correct"] is False,
               f"{name} --fault: result still correct")
        print(f"selftest: {name} done", file=sys.stderr)

    # Only BENCHMARK.json and the benchmark's own files: no library to
    # build, so the command must fail without printing a result.
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = run(bench["workloads"][0]["name"], 0, root=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(out.returncode != 0, "bare checkout: exit 0")
    expect('"metrics"' not in out.stdout, "bare checkout: printed a result")

    for f in failures:
        print(f"selftest: FAIL {f}")
    print("selftest: ok" if not failures else
          f"selftest: {len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
