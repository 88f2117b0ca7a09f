"""Run a ``chemin`` command line in this process, as a shell would see it."""

from __future__ import annotations

import contextlib
import io
from typing import NamedTuple, Sequence

from chemin.cli import main


class Result(NamedTuple):
    exit_code: int
    stdout_bytes: bytes
    stderr: str

    @property
    def stdout(self) -> str:
        return self.stdout_bytes.decode()


def invoke(args: Sequence[str]) -> Result:
    """The exit code, stdout bytes and stderr text of ``chemin *args``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args), prog_name="chemin")
        except SystemExit as exit:
            code = exit.code
    return Result(code, out.getvalue().encode(), err.getvalue())
