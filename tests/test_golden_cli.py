"""Golden CLI corpus: the exit code and a sha256 of stdout for every
subcommand shape, in every format, with and without ``--exact``, at three
precisions, plus the usage errors.

The digests live in ``golden_cli.json`` next to this file.  A refactor of
the rendering must leave every one of them unchanged; a deliberate change
of output re-records them with

    PYTHONPATH=src python -m tests.test_golden_cli --record

which prints the name of each case whose exit code or digest differs
from the recording (a case added or dropped counts too); name each of
them where the change is described.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from tests.runner import invoke

GOLDEN = Path(__file__).with_name("golden_cli.json")

#: Every subcommand shape; each runs in every format x exact x precision.
SHAPES = [
    *(
        ["tables", "--strategy", strategy, "--variant", variant]
        for strategy in ("non-tireur", "tireur")
        for variant in ("correct", "dormoy", "badoureau")
    ),
    # Banker's reply to a mix changes at 1/16, 71/176, 9/11 and 107/112.
    *(
        ["tables", "--strategy", "mix", "--pi", pi]
        for pi in ("0", "1/16", "71/176", "9/11", "107/112", "1")
    ),
    ["tables", "--strategy", "dormoy-average"],
    ["five", "--action", "draw", "--assume", "tireur"],
    ["five", "--action", "draw", "--assume", "tireur", "--variant", "badoureau"],
    ["five", "--action", "stand", "--assume", "mix", "--pi", "1/3"],
    ["coup", "--action", "stand", "--assume", "non-tireur"],
    ["coup", "--action", "mix", "--pi", "1/3", "--assume", "tireur", "--variant", "dormoy"],
    ["coup", "--action", "draw", "--assume", "mix", "--assume-pi", "9/11"],
    ["coup", "--action", "mix", "--pi", "0.25", "--assume", "mix", "--assume-pi", "71/176"],
    ["bar-matrix"],
    ["solve", "--game", "five"],
    ["solve", "--game", "bar"],
    *(["compare", "--against", against] for against in ("bertrand", "badoureau", "dormoy")),
    ["simulate", "--coups", "1000", "--seed", "2"],
    ["simulate", "--coups", "8", "--seed", "0"],
    ["simulate", "--coups", "500", "--seed", "7", "--action", "mix", "--pi", "1/3", "--assume", "tireur"],
    ["simulate", "--coups", "300", "--seed", "5", "--action", "draw", "--assume", "mix", "--assume-pi", "1/2"],
]

USAGE_ERRORS = [
    ["five", "--action", "bogus"],
    ["tables", "--strategy", "nobody"],
    ["solve", "--game", "teen-patti"],
    ["simulate", "--coups", "0"],
    ["coup", "--action", "mix", "--pi", "3/2"],
    ["five", "--precision", "1001"],
    ["five", "--assume", "mix", "--pi", "7/4"],
    ["tables", "--strategy", "mix", "--variant", "dormoy"],
    ["tables", "--strategy", "dormoy-average", "--variant", "badoureau"],
    ["simulate", "--coups", "100000001"],
    ["simulate", "--coups", "1000", "--seed", "-7"],
    ["coup", "--action", "mix", "--pi", "1e-100000000"],
    ["tables", "--strategy", "mix", "--pi", "1e-5000", "--format", "structured"],
    ["coup", "--assume", "mix", "--assume-pi", "1E-997"],
]


def cases() -> dict[str, list[str]]:
    """Case name -> argv, in a fixed order."""
    found = {}
    for shape in SHAPES:
        for fmt in ("markdown", "csv", "structured"):
            for exact in (False, True):
                for precision in ("1", "6", "40"):
                    argv = [*shape, "--format", fmt, "--precision", precision]
                    if exact:
                        argv.append("--exact")
                    found[" ".join(argv)] = argv
    for argv in USAGE_ERRORS:
        found[" ".join(argv)] = argv
    return found


def digest(argv: list[str]) -> dict:
    result = invoke(argv)
    return {"exit": result.exit_code, "stdout_sha256": hashlib.sha256(result.stdout_bytes).hexdigest()}


CASES = cases()
RECORDED = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def test_corpus_covers_every_case():
    assert sorted(RECORDED) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_cli_output_matches_recording(name):
    assert digest(CASES[name]) == RECORDED[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.test_golden_cli --record")
    fresh = {name: digest(argv) for name, argv in CASES.items()}
    for name in dict.fromkeys([*fresh, *RECORDED]):
        if fresh.get(name) != RECORDED.get(name):
            print(f"changed: {name}")
    GOLDEN.write_text(json.dumps(fresh, indent=1) + "\n")
    print(f"recorded {len(CASES)} cases in {GOLDEN}")
