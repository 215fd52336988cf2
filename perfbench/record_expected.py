"""Record the values the full-size workloads print, for the output checks.

    python3 perfbench/record_expected.py

Runs each CSV-writing workload once per seed in ``range(SEEDS)``
and writes ``perfbench/expected.json``: the final mean gap of every solver
with a finite gap (``bench``) or ``final_f`` (``solve``). ``run.py`` checks
later outputs against these within ``VALUE_ATOL``; seeds outside the table
get the range checks only. Run it on the commit whose values should be the
reference, and only then.
"""

from __future__ import annotations

import json
import math
import shutil

import run

SEEDS = 32


def main():
    table = {}
    try:
        for name, w in run.WORKLOADS.items():
            if not w.writes_csv:
                continue
            table[name] = {}
            for seed in range(SEEDS):
                s = run.run_child(run.cli_argv(w.args, seed, True), run.WORK / "run")
                if s.returncode != 0 or s.stderr:
                    raise SystemExit(f"{name} seed {seed} failed: {s.stderr.strip()[:400]}")
                values = run.printed_values(w.args, s.stdout.splitlines())
                if w.args[0] == "solve":
                    values = {"final_f": values["final_f"]}
                table[name][str(seed)] = {k: v for k, v in values.items() if math.isfinite(v)}
                print(name, seed, table[name][str(seed)], flush=True)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    (run.HERE / "expected.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
