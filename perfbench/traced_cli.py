"""Run one stochint CLI command in this process, traced or profiled.

    python3 perfbench/traced_cli.py trace OUT.json -- verify all --trials 20
    python3 perfbench/traced_cli.py profile OUT.json -- verify all --trials 20

``trace`` installs the span tracer and writes its summary to OUT.json.
``profile`` runs the command under cProfile instead and writes, for every
span the tracer would record, cProfile's call count of the same code object,
so the two can be compared.  The report goes to stdout and the exit code is
the CLI's, exactly as with ``python -m stochint.cli``.
"""

from __future__ import annotations

import cProfile
import inspect
import json
import sys

import stochint.cli

from tracer import Tracer, targets, unwrap_member


def profiled_calls(profiler: cProfile.Profile) -> dict:
    """cProfile's total call count per span name.

    A generated dataclass ``__init__`` shares the file name ``<string>`` with
    every other one, so it is matched through ``__post_init__``, which it
    calls once; classes without one are left out.
    """
    profiler.create_stats()
    ncalls = {key: stat[1] for key, stat in profiler.stats.items()}
    out = {}
    for name, owner, attr, member in targets():
        code = unwrap_member(member).__code__
        if code.co_filename == "<string>":
            post_init = inspect.isclass(owner) and vars(owner).get("__post_init__")
            if not post_init:
                continue
            code = post_init.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        out[name] = ncalls.get(key, 0)
    return out


def main(argv) -> int:
    mode, out_path, sep, *cli_args = argv
    if mode not in ("trace", "profile") or sep != "--":
        raise SystemExit("usage: traced_cli.py trace|profile OUT.json -- CLI ARGS...")
    if mode == "trace":
        tracer = Tracer()
        tracer.install()
        try:
            return stochint.cli.main(cli_args)
        finally:
            with open(out_path, "w") as handle:
                json.dump(tracer.summary(), handle)
    profiler = cProfile.Profile()
    try:
        return profiler.runcall(stochint.cli.main, cli_args)
    finally:
        with open(out_path, "w") as handle:
            json.dump({"calls": profiled_calls(profiler)}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
