"""Write the bundled datasets to the repository's data/ directory.

The package constructors in ``lcmdiv.datasets`` are the source of truth; this
script writes each entry of ``datasets.BUNDLED`` to one file through
``fileio.write``, its description as the file's comment, so the files can be
inspected and fed to the CLI by path.  A test compares the committed files
against a fresh export to catch drift.
"""

import pathlib
import sys

from lcmdiv import datasets, fileio

# Input kind -> file name pattern.
LAYOUT = {
    "design": "{}.json",
    "counts": "{}_counts.csv",
    "chain": "{}.json",
    "plan": "{}_plan.json",
}


def export(out_dir: pathlib.Path) -> list:
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for kind, bundled in datasets.BUNDLED.items():
        for name, (build, comment) in bundled.items():
            written.append(out_dir / LAYOUT[kind].format(name))
            fileio.write(kind, build(), written[-1], comment)
    return written


if __name__ == "__main__":
    target = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else (
        pathlib.Path(__file__).resolve().parents[1] / "data"
    )
    for path in export(target):
        print(f"wrote {path}")
