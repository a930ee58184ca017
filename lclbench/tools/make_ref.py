#!/usr/bin/env python3
"""Turn an lcl_batch survey report into an lclbench reference file.

The reference holds, per member, the verdict fields the benchmark checks
(`class` and the engine fields) plus the `note`, whose drift is counted but
never failed. Generate it from the raw-key, jobs=1 path, whose report is
byte-deterministic:

    lcl_batch --family=exhaustive --delta=2 --labels=3 --jobs=1 \
        --report-json=report.json
    python3 lclbench/tools/make_ref.py report.json lclbench/ref/survey-d2l3.tsv

Columns: name, class, zero_round_step, steps_applied, fixed_point,
budget_exhausted, detected_unsolvable, note (booleans as 0/1).
"""
import json
import sys


def main(argv):
    if len(argv) != 3:
        sys.stderr.write("usage: make_ref.py <report.json> <out.tsv>\n")
        return 2
    with open(argv[1], encoding="utf-8") as f:
        report = json.load(f)
    survey = report["survey"]
    lines = [
        "# lclbench reference: family %s, engine_max_steps %d, "
        "classifiers %s, %d members"
        % (survey["family"], survey["engine_max_steps"],
           "on" if survey["classify_cycles"] else "off", survey["problems"]),
        "# name\tclass\tzero_round_step\tsteps_applied\tfixed_point\t"
        "budget_exhausted\tdetected_unsolvable\tnote",
    ]
    for row in sorted(report["problems"], key=lambda r: r["name"]):
        note = row["note"]
        if any(c in note for c in "\t\n\r"):
            sys.stderr.write("make_ref.py: note of %s holds a tab or newline\n"
                             % row["name"])
            return 1
        lines.append("\t".join([
            row["name"], row["class"], str(row["zero_round_step"]),
            str(row["steps_applied"]), str(int(row["fixed_point"])),
            str(int(row["budget_exhausted"])),
            str(int(row["detected_unsolvable"])), note]))
    with open(argv[2], "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
