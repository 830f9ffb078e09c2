"""Print the sha256 of every artifact and stdout of a fixed CLI pipeline.

The pipeline runs in a temporary directory through ``lrskel.cli.main``:
``gen``, ``train``, two ``compress`` plans, one ``sweep``, two
``finetune`` runs and ``info`` of the five weights files. Paths are
relative to that directory, so the echoed ``config:`` lines repeat from
run to run. The output is one JSON object, from each written file and
each command's stdout to its sha256, so two builds produce the same bytes
exactly when their outputs are equal:

    PYTHONPATH=src python3 scripts/digests.py > change.json
    PYTHONPATH=<other checkout>/src python3 scripts/digests.py > parent.json
    diff parent.json change.json

lrskel is imported from ``PYTHONPATH``. The digests belong to one build
(numpy, BLAS, CPU), which is why this is a tool and not a test.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from lrskel.cli import main

GRID = "full\nq=1\nq=2,k=2\nv=1\nq=1,k=1,v=1\n"
PLANS = {"c1.lrts": "q=1,k=3", "c2.lrts": "q=1,k=1,v=1,o=4,embed=8,head=4"}
FINETUNED = {"c1.lrts": "f1.lrts", "c2.lrts": "f2.lrts"}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _run(argv, digests):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"error: lrskel {' '.join(argv)} exited {code}")
    digests["stdout: " + " ".join(argv)] = _sha256(stdout.getvalue().encode())


def pipeline():
    digests = {}
    _run(["gen", "--out", "data", "--seed", "42"], digests)
    _run(["train", "data", "--out", "model.lrts", "--epochs", "3", "--seed", "7"],
         digests)
    for out, plan in PLANS.items():
        _run(["compress", "model.lrts", "--plan", plan, "--out", out], digests)
    with open("grid.txt", "w") as fh:
        fh.write(GRID)
    _run(["sweep", "model.lrts", "data", "--grid", "grid.txt", "--out", "sweep.csv"],
         digests)
    for weights, out in FINETUNED.items():
        _run(["finetune", weights, "data", "--out", out, "--epochs", "2"], digests)
    for weights in ["model.lrts", *PLANS, *FINETUNED.values()]:
        _run(["info", weights], digests)
    for root, _, files in os.walk("."):
        for name in files:
            path = os.path.relpath(os.path.join(root, name))
            with open(path, "rb") as fh:
                digests[path] = _sha256(fh.read())
    return digests


if __name__ == "__main__":
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="lrskel-digests-") as tmp:
        os.chdir(tmp)
        try:
            digests = pipeline()
        finally:
            os.chdir(cwd)
    json.dump(digests, sys.stdout, indent=1, sort_keys=True)
    print()
