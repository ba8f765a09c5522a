"""Record the oracle outputs the benchmark compares against.

    python3 perfbench/record.py

Writes perfbench/oracles.json: the dual-numbers DG table at caps that
cover dg-deep's, and the exit code and stdout of every cli-mix job spec.
Run it only on a commit whose outputs are trusted; the recorded file is
the reference every later commit is checked against.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from symhom import cli  # noqa: E402
from symhom.commalg import abelianize  # noqa: E402
from symhom.freealg import dual_numbers_resolution  # noqa: E402
from workloads import cli_argv, cli_specs, run_cli  # noqa: E402

DG_CAPS = (21, 26)


def main():
    deg, weight = DG_CAPS
    table = abelianize(dual_numbers_resolution(deg + 1)).homology_table(
        deg, weight)
    outputs = {}
    for spec in cli_specs():
        with tempfile.TemporaryDirectory(dir=ROOT) as cache:
            code, out = run_cli(cli.main, cli_argv(spec, cache))
        if code != 0:
            raise SystemExit("%s exited %s" % (spec, code))
        outputs[spec] = [code, out]
    data = {"dg-deep": {"caps": [deg, weight],
                        "entries": [[h, w, d] for (h, w), d
                                    in sorted(table.entries.items())]},
            "cli-mix": outputs}
    with open(os.path.join(HERE, "oracles.json"), "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("recorded %d table entries and %d cli outputs"
          % (len(table.entries), len(outputs)))


if __name__ == "__main__":
    main()
