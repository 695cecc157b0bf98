"""Smoke check of the benchmark itself, on a tiny world (30 schemes, 300 users).

    python3 bench/smoke.py

Asserts that an untraced run reports every end-to-end metric and a traced run
every per-layer metric named in BENCHMARK.json, each with its unit; that both
runs are correct and wrote identical artifact digests; and that the benchmark
exits non-zero, without a result, where the package sources are missing.
Takes about 20 seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, text=True, timeout=170)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    digests = {}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = run("--workload", "smoke", "--seed", "7", "--seconds", "1", "--trace", str(trace))
        assert proc.returncode == 0, f"--trace {trace} exited {proc.returncode}"
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"], sorted(result)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, result
        for metric in spec[section]:
            got = result["metrics"].get(metric["name"])
            assert got is not None, f"--trace {trace}: {metric['name']} missing"
            assert got["unit"] == metric["unit"], (metric["name"], got["unit"])
        record = ROOT / ".bench_results" / f"smoke-seed7-trace{trace}.json"
        digests[trace] = json.loads(record.read_text())["digests"]
    assert digests[0] == digests[1], "traced and untraced runs wrote different artifacts"

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        for path in ("BENCHMARK.json", *spec["paths"]):
            copy = shutil.copytree if (ROOT / path).is_dir() else shutil.copy
            copy(ROOT / path, bare / path)
        proc = run("--workload", "detect-6k", cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), "ran without sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"smoke ok: {len(digests[0])} artifacts identical traced and untraced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
