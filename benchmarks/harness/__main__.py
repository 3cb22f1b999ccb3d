"""``python benchmarks/harness run | selfcheck | compare`` — see README.md."""

import sys

from spine.cli import main

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
