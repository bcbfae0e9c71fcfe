"""Benchmark of derivrex: one workload, one seed, one line of JSON.

    python3 bench/run.py --workload dfa-nth --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --quick

Run it from the repository root.  The last line of stdout is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  ``--quick`` runs the self-test of the checks and every
workload once at a small size, traced and untraced.

The run starts whole rounds of its workload until ``--seconds`` have
passed, so every run attempts the same mix of ops.  Each op of
``dfa-nth``, ``equiv-wide`` and ``cli-oneshot`` runs in a fresh
interpreter, one process at a time; see README.md for the workloads, the
metrics and the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"
WORKLOADS = ("dfa-nth", "match-long", "equiv-wide", "cli-oneshot")

# cli-oneshot has no worker of its own per op (the op is the CLI process),
# so each run starts this many set-up workers before it starts timing.
CLI_SETUP_WORKERS = 9

# No single process may hold a run past the 180 s a run is allowed.
PROCESS_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Run:
    """Ops, set-up times and spans gathered by one run of the benchmark."""

    def __init__(self, seed: int, quick: bool, trace: bool):
        self.seed, self.quick, self.trace = seed, quick, trace
        self.sizes = inputs.QUICK if quick else inputs.FULL
        self.env = _env()
        self.setups: list[float] = []
        self.spans: list[dict] = []
        self.pairs: dict = {}

    def _spawn(self, argv: list[str]) -> tuple[subprocess.CompletedProcess, int, int]:
        start = time.monotonic_ns()
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=PROCESS_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{argv[:4]} ran past {PROCESS_TIMEOUT_S} s") from exc
        return proc, start, time.monotonic_ns()

    def worker(self, workload: str, role: str, index, **extra) -> tuple[dict, int, int]:
        """Start one worker and return its result and the process's start
        and end times."""
        op = f"{workload}:{index}"
        spec = {"role": role, "seed": self.seed, "index": index, "quick": self.quick,
                "trace": self.trace, "op": op, **extra}
        proc, start, end = self._spawn([sys.executable, str(BENCH / "worker.py"), json.dumps(spec)])
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{role} worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        result = json.loads(lines[-1])
        for s in result["spans"]:
            s["workload"] = workload
        self.spans += result["spans"]
        self.setups.append((result["ready_ns"] - start) / 1e9)
        for record in result.get("ops", []):
            record["workload"] = workload
        return result, start, end

    # One round per workload -------------------------------------------------

    def round_dfa_nth(self, r: int) -> list[dict]:
        return self.worker("dfa-nth", "dfa-nth", r)[0]["ops"]

    def round_match_long(self, r: int) -> list[dict]:
        return self.worker("match-long", "match-long", r)[0]["ops"]

    def round_equiv_wide(self, r: int) -> list[dict]:
        return [op for i in (2 * r, 2 * r + 1)
                for op in self.worker("equiv-wide", "equiv-wide", i)[0]["ops"]]

    def round_cli_oneshot(self, r: int) -> list[dict]:
        records = []
        for k, cmd in enumerate(inputs.cli_round(self.seed, r, self.sizes)):
            index = f"{r}.{k}"
            if self.trace:
                process = f"cli-oneshot:{index}/process"
                result, start, end = self.worker(
                    "cli-oneshot", "cli-main", index, argv=cmd["argv"], parent=process)
                record = result["ops"][0]
                stdout, code, stderr = result["stdout"], result["code"], ""
                self.spans.append({
                    "id": process, "parent": None, "op": f"cli-oneshot:{index}",
                    "name": "cli-oneshot.process", "start_ns": start, "end_ns": end,
                    "workload": "cli-oneshot"})
            else:
                proc, start, end = self._spawn(
                    [sys.executable, "-m", "derivrex.cli", *cmd["argv"]])
                stdout, code, stderr = proc.stdout, proc.returncode, proc.stderr
                record = {"op": f"cli-oneshot:{index}", "workload": "cli-oneshot",
                          "failed": None, "problem": None}
            # The op is the whole process, as a CLI user waits for it.
            record["ms"] = (end - start) / 1e6
            if code not in (0, 1) or "Traceback" in stderr:
                record["failed"] = record["failed"] or f"exit {code}: {stderr.strip()[-200:]}"
            record["check"] = (cmd, stdout, code)
            records.append(record)
        if self.trace:
            self.worker("cli-oneshot", "cli-layers", r)
        return records

    def rounds(self, workload: str, seconds: float) -> tuple[list[dict], float]:
        """Whole rounds until *seconds* have passed: (ops, timed seconds)."""
        do_round = getattr(self, "round_" + workload.replace("-", "_"))
        if workload == "cli-oneshot" and not self.trace:
            for i in range(CLI_SETUP_WORKERS):
                self.worker("cli-oneshot", "cli-setup", i)
        ops, r, start = [], 0, time.monotonic()
        while r == 0 or time.monotonic() - start < seconds:
            ops += do_round(r)
            r += 1
        return ops, time.monotonic() - start


def check_ops(ops: list[dict]) -> list[str]:
    """Problems found in completed ops; CLI outputs are checked here,
    after the timed loop, so the checks do not count as op time."""
    problems = []
    for record in ops:
        if "check" in record:
            cmd, stdout, code = record.pop("check")
            if record["failed"] is None:
                record["problem"] = checks.check_cli(cmd, stdout, code)
        if record["failed"] is None and record["problem"]:
            problems.append(f"{record['op']}: {record['problem']}")
    return problems


def _ms(span: dict) -> float:
    return (span["end_ns"] - span["start_ns"]) / 1e6


def layer_metrics(run: Run, own_ops: list[dict]) -> dict:
    """Per-layer metrics from the spans, each taken on its home workload."""

    def spans(name: str, workload: str, **attrs):
        return [s for s in run.spans
                if s["name"] == name and s["workload"] == workload and "error" not in s
                and all(s.get(k) == v for k, v in attrs.items())]

    def median_ms(name: str, workload: str, **attrs) -> float:
        return statistics.median(_ms(s) for s in spans(name, workload, **attrs))

    def symbols_per_s(cold: bool) -> float:
        return statistics.median(
            s["symbols"] / (_ms(s) / 1e3)
            for s in spans("derivative.deriv_word", "match-long", cold=cold))

    m = {
        "syntax.parse_ms": median_ms("syntax.parse", "cli-oneshot"),
        "syntax.canonicalize_ms": median_ms("syntax.canonicalize", "dfa-nth"),
        "automaton.build_dfa_ms": median_ms("automaton.build_dfa", "dfa-nth"),
        "automaton.build_dfa.transitions_per_s": statistics.median(
            s["states"] * s["symbols"] / (_ms(s) / 1e3)
            for s in spans("automaton.build_dfa", "dfa-nth")),
        "automaton.to_json_ms": median_ms("automaton.to_json", "dfa-nth"),
        "automaton.to_dot_ms": median_ms("automaton.to_dot", "dfa-nth"),
        "derivative.deriv_word.cold_symbols_per_s": symbols_per_s(True),
        "derivative.deriv_word.warm_symbols_per_s": symbols_per_s(False),
        "derivative.nullable_ms": median_ms("derivative.nullable", "match-long"),
    }
    for kind in ("equal", "unequal"):
        ms = median_ms("automaton.equivalent", "equiv-wide", kind=kind)
        m[f"automaton.equivalent.{kind}_ms"] = ms
        m[f"automaton.equivalent.{kind}_pairs"] = run.pairs[kind]
        m[f"automaton.equivalent.{kind}_pairs_per_s"] = run.pairs[kind] / (ms / 1e3)
    m["package.import_ms"] = median_ms("package.import", "cli-oneshot")
    for command in ("derive", "match", "dfa", "equiv", "enum", "check-identities"):
        m[f"cli.main.{command}_ms"] = median_ms(f"cli.main.{command}", "cli-oneshot")
    m["oracle.enumerate_lang_ms"] = median_ms("oracle.enumerate_lang", "cli-oneshot")
    m["trace.latency_p50_ms"] = statistics.median(
        r["ms"] for r in own_ops if r["failed"] is None)
    return {name: {"value": value, "unit": _unit(name)} for name, value in m.items()}


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    return "count"


def end_to_end_metrics(run: Run, ops: list[dict], elapsed: float) -> dict:
    done = [r["ms"] for r in ops if r["failed"] is None]
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": {"value": statistics.median(run.setups), "unit": "s"},
        "ops_per_s": {"value": len(done) / elapsed, "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(done), "unit": "ms"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    run = Run(seed, quick, trace)
    ops, elapsed = run.rounds(workload, seconds)
    problems = check_ops(ops)
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(r["failed"] is not None for r in ops),
    }
    if not trace:
        result["metrics"] = end_to_end_metrics(run, ops, elapsed)
    else:
        # Layers the workload does not reach come from one traced round of
        # the workload they belong to; those ops are checked, not counted.
        for other in WORKLOADS:
            if other != workload:
                problems += check_ops(run.rounds(other, 0)[0])
        run.pairs = run.worker("equiv-wide", "equiv-pairs", 0)[0]["pairs"]
        result["correct"] = not problems
        result["metrics"] = layer_metrics(run, ops)
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{workload}-seed{seed}{'-quick' if quick else ''}.json"
        trace_file.write_text(json.dumps({"workload": workload, "seed": seed, "spans": run.spans}))
    for p in problems:
        print(f"wrong output: {p}", file=sys.stderr)
    for r in ops:
        if r["failed"] is not None:
            print(f"failed op {r['op']}: {r['failed']}", file=sys.stderr)
    return result


def quick() -> int:
    selftest = subprocess.run([sys.executable, str(BENCH / "selftest.py")], cwd=ROOT,
                              env=_env(), timeout=PROCESS_TIMEOUT_S)
    status = int(selftest.returncode != 0)
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run_workload(workload, 1, 0, trace, quick=True)
            print(f"{workload} trace={int(trace)}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            status |= not result["correct"]
    print("quick: all checks passed" if status == 0 else "quick: FAILED")
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="self-test at small sizes")
    args = ap.parse_args()
    if not (SRC / "derivrex" / "__init__.py").is_file():
        print(f"run.py: no derivrex package under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.quick:
            return quick()
        if args.workload is None:
            ap.error("--workload is required")
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), False)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
