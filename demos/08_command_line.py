"""
The command line in one pass
============================

Every library capability is also reachable from the ``safesep`` command.
This script drives the CLI in-process: generate an instance, check it,
query it, and run a small batch verification against the oracle.
"""

import json
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from safesep.cli import main

workspace = tempfile.TemporaryDirectory(prefix="safesep-demo-")
workdir = Path(workspace.name)


def run(*argv):
    out = StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


###############################################################################
# ``gen`` writes a graph document to stdout; save one to a file.
code, doc = run("gen", "--family", "interval", "--n", "10", "--wmax", "9",
                "--seed", "5")
instance = workdir / "instance.txt"
instance.write_text(doc)
print(doc.splitlines()[0], "...", len(doc.splitlines()), "lines")

###############################################################################
# ``check-atfree`` exits 0 for AT-free inputs and 1 with a witness triple
# otherwise.
code, out = run("check-atfree", str(instance))
print("check-atfree:", out.strip(), "(exit %d)" % code)

###############################################################################
# The main query.  Plain output is two lines; ``--json`` (before the
# subcommand) emits a single document instead.
code, out = run("min-safe-sep", str(instance), "--A", "0,1", "--B", "8,9")
print(out, end="")
code, out = run("--json", "min-safe-sep", str(instance), "--A", "0,1",
                "--B", "8,9")
payload = json.loads(out)
print("json:", {k: payload[k] for k in ("status", "separator", "weight")})

###############################################################################
# Close families and plain minimum cuts work the same way.
code, out = run("close-to", str(instance), "--s", "0", "--t", "9", "--A", "2")
print("close-to ->", out.replace("\n", " | ").strip())
code, out = run("min-sep", str(instance), "--s", "0", "--t", "9")
print("min-sep  ->", out.replace("\n", " | ").strip())

###############################################################################
# ``verify`` replays seeded instances through both the algorithm and the
# oracle and reports agreement; nonzero seeds/sizes keep it quick here.
code, out = run("verify", "--seeds", "6", "--n", "7")
print(out.strip(), "(exit %d)" % code)

workspace.cleanup()
