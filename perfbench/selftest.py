#!/usr/bin/env python3
"""Self-test of the repository benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks, each on tiny sizes (a few seconds per run):
  1. every workload, untraced and traced, exits 0 with correct=true and
     emits exactly the metrics BENCHMARK.json names, each with its unit;
  2. a serve run whose answer digest is corrupted (one served answer
     altered before the cross-rung comparison) exits non-zero, correct=false;
  3. serve_max_fps is monotone with respect to the ladder: the rung-count
     rule passes its exhaustive check (gp_perfbench --selftest-ladder), and
     each tiny run's serve_max_fps is the mean over its climbs of the rate
     that climb's rung verdicts give;
  4. in a directory holding only BENCHMARK.json and perfbench/, the command
     exits non-zero without printing a result.
Exits 1 if any check fails.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
failures = []


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    result, detail = None, None
    try:
        result = json.loads(lines[-1]) if lines else None
        records = [json.loads(ln) for ln in lines[:-1] if ln.startswith("{")]
        detail = next((r for r in records if r.get("record") == "perfbench.detail"), None)
    except json.JSONDecodeError:
        pass
    return proc, result, detail


def expected_max_fps(detail):
    """Mean over climbs of the rate of rung (count - 1), counting each
    climb's sustained rungs; a climb takes the rungs it skips from the first."""
    rate, verdict, per_pass = {}, {}, []
    for p in sorted({r["pass"] for r in detail["ladder"]}):
        for r in detail["ladder"]:
            if r["pass"] == p:
                rate[r["rung"]] = r["rate_fps"]
                verdict[r["rung"]] = r["sustained"]
        n = sum(verdict.values())
        per_pass.append(rate[n - 1] if n > 0 else 0.0)
    return sum(per_pass) / len(per_pass)


def main():
    tiny = ["--seed", "1", "--seconds", "1", "--tiny"]
    for workload in ("offline", "serve"):
        for trace in (0, 1):
            what = f"{workload} trace={trace}"
            proc, result, detail = bench("--workload", workload, "--trace", str(trace), *tiny)
            check(proc.returncode == 0 and result is not None and result.get("correct") is True,
                  f"{what}: exits 0 with correct=true")
            want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
            got = {k: v.get("unit") for k, v in (result or {}).get("metrics", {}).items()}
            check(got == want, f"{what}: emits every named metric with its unit")
            check(detail is not None and "host" in detail and detail["host"].get("seed") == 1,
                  f"{what}: detail record carries the host stamp")
            if trace == 0 and detail is not None and result is not None:
                got_fps = result["metrics"]["serve_max_fps"]["value"]
                check(abs(got_fps - expected_max_fps(detail)) < 1e-6,
                      f"{what}: serve_max_fps matches its rung verdicts")

    proc, result, _ = bench("--workload", "serve", "--trace", "0", "--corrupt-digest", *tiny)
    check(proc.returncode != 0 and result is not None and result.get("correct") is False
          and "answer digest differs" in proc.stderr,
          "corrupted answer digest makes the command fail")

    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--selftest-ladder"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    check(proc.returncode == 0, "serve_max_fps rung-count rule is monotone (exhaustive)")

    isolated = ROOT / ".bench_build" / "selftest_isolated"
    shutil.rmtree(isolated, ignore_errors=True)
    shutil.copytree(HERE, isolated / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", isolated / "BENCHMARK.json")
    proc, result, _ = bench("--workload", "offline", "--trace", "0", *tiny, cwd=isolated)
    check(proc.returncode != 0 and result is None,
          "without the source tree the command fails and prints no result")
    shutil.rmtree(isolated, ignore_errors=True)

    print(f"selftest: {'ok' if not failures else f'{len(failures)} FAILED'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
