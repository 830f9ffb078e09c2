"""A fault matrix for the writing commands: fail the Nth call to a
write-side seam, for N = 1, 2, ... until a run ends with no fault fired,
then check the workspace. The seams are ``open`` in a write mode,
``os.makedirs``, ``os.link``, ``os.replace`` and ``os.rmdir``; each fault
fires once, as an ``OSError`` (EIO) or as a ``KeyboardInterrupt`` (so
``os.rmdir``, which runs only in a rollback, is never the one). After
each faulted run the command has failed with one ``error:`` line or let
the interrupt through, and the workspace is as it was before the run or
as a clean run leaves it: inputs unchanged, outputs all old or all new,
no temp file, no backup and no folder the command made.
"""

import builtins
import errno
import os
import shutil

import pytest

from lrskel.cli import main

GEN = ["--classes", "3", "--train-per-class", "4", "--test-per-class", "2",
       "--frames", "6", "--joints", "2", "--seed", "9"]
MODEL = ["--d-model", "8", "--heads", "2", "--blocks", "1"]
EPOCH = ["--epochs", "1", "--lr", "0.1", "--milestones", "", "--batch", "8"]

# Each command runs over the outputs of an earlier run of itself (gen
# also into a fresh nested folder) and writes other bytes.
COMMANDS = {
    "gen-fresh": ["gen", "--out", "fresh/nested", *GEN],
    "gen-over": ["gen", "--out", "data", *GEN, "--seed", "10"],
    "train": ["train", "data", "--out", "m.lrts", *MODEL, *EPOCH, "--seed", "5"],
    "compress": ["compress", "m.lrts", "--plan", "v=2", "--out", "c.lrts"],
    "sweep": ["sweep", "m.lrts", "data", "--grid", "grid2.txt", "--out", "s.csv"],
    "finetune": ["finetune", "c.lrts", "data", "--out", "f.lrts", *EPOCH,
                 "--seed", "5"],
    # Diverges in the first epoch, so it writes only the history.
    "diverge": ["train", "data", "--out", "d.lrts", *MODEL, *EPOCH, "--lr", "1e300"],
}
ERRORS = {"oserror": lambda: OSError(errno.EIO, "Input/output error"),
          "interrupt": KeyboardInterrupt}


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    root = tmp_path_factory.mktemp("faults")
    (root / "grid.txt").write_text("full\nv=1\n")
    (root / "grid2.txt").write_text("v=2\nq=1\n")
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for argv in (["gen", "--out", "data", *GEN],
                     ["train", "data", "--out", "m.lrts", *MODEL, *EPOCH],
                     ["compress", "m.lrts", "--plan", "v=1", "--out", "c.lrts"],
                     ["sweep", "m.lrts", "data", "--grid", "grid.txt", "--out", "s.csv"],
                     ["finetune", "c.lrts", "data", "--out", "f.lrts", *EPOCH]):
            assert main(argv) == 0
    finally:
        os.chdir(cwd)
    return root


def _snapshot(root):
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


def _faults(monkeypatch, n, error):
    """Make the ``n``-th seam call raise ``error()`` in place of running;
    return the names of the seams called, in order."""
    calls = []

    def wrap(name, real):
        def seam(*args, **kwargs):
            mode = kwargs.get("mode", args[1] if len(args) > 1 else "r")
            if name != "open" or set(mode) & set("wax+"):
                calls.append(name)
                if len(calls) == n:
                    raise error()
            return real(*args, **kwargs)
        return seam

    monkeypatch.setattr(builtins, "open", wrap("open", builtins.open))
    for name in ("makedirs", "link", "replace", "rmdir"):
        monkeypatch.setattr(os, name, wrap(name, getattr(os, name)))
    return calls


def _run(base, root, argv, monkeypatch, capsys, n=0, error=None):
    """Run ``argv`` in a fresh copy of ``base`` with the ``n``-th seam call
    faulted; return the exit code (None when interrupted), stderr, the
    seams called and the workspace after."""
    shutil.copytree(base, root)
    monkeypatch.chdir(root)
    # One CPU, so that sweep scores its plans without forking.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    calls = _faults(monkeypatch, n, error)
    code = None
    try:
        code = main(argv)
    except KeyboardInterrupt:
        assert error is KeyboardInterrupt and len(calls) >= n
    finally:
        monkeypatch.undo()
    return code, capsys.readouterr().err, calls, _snapshot(root)


@pytest.mark.parametrize("error", sorted(ERRORS))
@pytest.mark.parametrize("command", list(COMMANDS))
def test_a_fault_at_any_seam_leaves_the_workspace_old_or_new(
        base, tmp_path, monkeypatch, capsys, command, error):
    argv = COMMANDS[command]
    # A seam call raises only once (N >= 1): the clean run is N = 0.
    clean_code, clean_err, _, clean = _run(base, tmp_path / "clean", argv,
                                           monkeypatch, capsys)
    before = _snapshot(base)
    assert clean != before
    for n in range(1, 100):
        code, err, calls, after = _run(base, tmp_path / str(n), argv, monkeypatch,
                                       capsys, n, ERRORS[error])
        if len(calls) < n:  # no fault fired: a clean run
            assert (code, err, after) == (clean_code, clean_err, clean)
            break
        assert after in (before, clean), (n, calls)
        assert "Traceback" not in err
        if calls[n - 1] == "link" and error == "oserror":
            # A refused hard link only leaves that output without a backup.
            assert (code, after) == (clean_code, clean), (n, calls)
        elif code is not None:
            lines = err.splitlines()
            assert code == 1 and len(lines) == 1, (n, calls, err)
            assert lines[0].startswith("error: [Errno 5]"), (n, calls, err)
    else:
        pytest.fail("the faults never ran out")
