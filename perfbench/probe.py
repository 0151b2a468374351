"""Set-up probe: load the package and run one workload's warm-up op.

Started by run.py as a fresh process, which times it from start until
the line ``ready`` appears on stdout: interpreter start, the package
imports, the lazy imports the first op pulls in, and that op itself.
Every CLI user pays this once per invocation.

    python3 perfbench/probe.py <workload> <output file>
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    workload, output = argv
    sys.path.insert(0, str(ROOT / "src"))
    from whittaker_mb import cli

    from workloads import WARMUP

    code = cli.main(WARMUP[workload].argv() + ["--output", output])
    print("ready", flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
