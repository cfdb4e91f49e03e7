"""Config-driven runs: everything the library does, from one JSON document.

A scenario names a space, a construction, a strategy, and a grid of check
parameters. Running it writes a line-delimited transcript and a report of
verdicts, returning exit status 0 exactly when every verdict passed. Same
config, same bytes: transcripts are reproducible bit for bit.
"""

import json
import os
import sys
import tempfile

from selectiongames import parse_transcript, run_scenario

HERE = os.path.dirname(__file__)
out_root = tempfile.mkdtemp(prefix="scenario-demo-")
failures: list[str] = []

for config_name in (
    "hurewicz_segments.json",
    "often_seeded.json",
    "rothberger_shifted.json",
    "appendix_depth.json",
    "oracle_two_point.json",
):
    path = os.path.join(HERE, "configs", config_name)
    out = os.path.join(out_root, config_name.removesuffix(".json"))
    status = run_scenario(path, output_dir=out)
    report = json.load(open(os.path.join(out, "report.json")))
    checks = ", ".join(f"{v['check']}={'ok' if v['pass'] else 'FAIL'}" for v in report["verdicts"])
    print(f"{config_name:28s} exit={status}  {checks}")
    if status != 0:
        failures.append(f"{config_name} exit={status}")
    transcript_path = os.path.join(out, "transcript.jsonl")
    if os.path.exists(transcript_path):
        records = parse_transcript(transcript_path)
        print(f"{'':28s} transcript: {records[0]['innings']} innings, "
              f"first selection {records[1]['selection']}")

print(f"\nreports and transcripts under {out_root}")

if failures:
    sys.exit("failed: " + "; ".join(failures))
