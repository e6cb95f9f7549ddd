"""Regenerate the committed reference outputs in perfbench/reference/.

    PYTHONPATH=src python3 perfbench/make_reference.py

Writes the two sweep CSVs (through ``awgncap.cli.run_sweep``, as the CLI
does) and the seed-0 answers of the first REFERENCE_BLOCKS blocks of each
query stream: more than a run at seed answers.  Only run this on the code the references should pin; a
change that moves any output by more than the check's tolerance must not
regenerate them.
"""

from __future__ import annotations

import json
import sys

import workloads as wl
from check import REFERENCE

#: stream prefix kept (seed 0), in blocks
REFERENCE_BLOCKS = {"query_nd": 60, "verified_nd": 6}


def write_answers(path, workload: str, answers: list) -> None:
    """One (query, answer) pair per line, so diffs show single answers."""
    lines = ",\n".join(json.dumps(a) for a in answers)
    path.write_text(f'{{"workload": "{workload}", "seed": 0, "answers": [\n'
                    f'{lines}\n]}}\n')


def main() -> int:
    from awgncap import cli

    REFERENCE.mkdir(exist_ok=True)
    for name, s in wl.SWEEPS.items():
        cli.run_sweep(s["n"], s["snr_db_min"], s["snr_db_max"], s["step"],
                      list(s["bounds"]), str(REFERENCE / f"{name}.csv"))
        print(f"wrote {name}.csv", file=sys.stderr)
    for name, spec in wl.QUERIES.items():
        count = REFERENCE_BLOCKS[name] * wl.block_size(spec)
        answers = [[list(q), wl.answer(cli, *q)]
                   for q in wl.queries(name, 0, count)]
        write_answers(REFERENCE / f"{name}_seed0.json", name, answers)
        print(f"wrote {name}_seed0.json", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
