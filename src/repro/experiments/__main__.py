"""Print one artifact of :data:`repro.experiments.figures.ARTIFACTS`::

    PYTHONPATH=src python -m repro.experiments figure10 --backend process --workers 8
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from repro.experiments.engine import add_engine_arguments, engine_from_args
from repro.experiments.figures import ARTIFACTS


def main(argv: Optional[Sequence[str]] = None) -> None:
    """Run the named artifact and print its table and summary."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Print a table or figure of the paper's evaluation, "
        "or a beyond-the-paper grid.",
    )
    parser.add_argument("artifact", choices=ARTIFACTS, help="which artifact to print")
    add_engine_arguments(parser)
    args = parser.parse_args(argv)
    artifact = ARTIFACTS[args.artifact]
    print(artifact.report(artifact.run(engine=engine_from_args(args))))


if __name__ == "__main__":
    main()
