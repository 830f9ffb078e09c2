"""Run the unit suite against one-line semantic mutants of ``src/lrskel``.

Each mutant replaces one line of one source file. For each mutant, the
script copies ``src/``, ``tests/``, ``benchmarks/`` and ``pyproject.toml``
to a temporary directory, applies the mutant there, and runs

    python -m pytest -q -x --ignore tests/test_acceptance.py \
        --ignore tests/test_mutants.py

in that copy, so the checkout itself is never edited. A mutant is killed
when the suite fails. It survives when the suite passes. Each run takes
about 10 s.

    python3 scripts/mutants.py                 # every mutant
    python3 scripts/mutants.py SVD_TOL argsort # only the named ones

The unmutated copy runs first and must pass. The exit status is 0 when
every mutant was killed, 1 when one survived, and 2 when the unmutated
suite fails or a mutant's line is no longer in the source. A mutant that
survives needs a test that kills it, unless it changes no observable
result.
"""

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join("src", "lrskel")

# (name, file under src/lrskel, text on the line, its replacement)
MUTANTS = (
    ("SVD_TOL", "linalg.py", "SVD_TOL = 1e-12", "SVD_TOL = 1e-8"),
    ("sign-convention", "linalg.py",
     "    _apply_sign_convention(u, vt, sigma.size)", "    pass"),
    ("jacobi-stops-after-one-sweep", "linalg.py", "        if not moved.any():",
     "        if True:"),
    ("jacobi-error-names-matrix-0", "linalg.py", "    first = np.flatnonzero(moved)[0]",
     "    first = 0"),
    ("argsort", "linalg.py", 'np.argsort(-sigma, kind="stable")',
     "np.argsort(-sigma)"),
    ("row-max-odd-fold", "layers.py", "        if w % 2:", "        if False:"),
    ("chain-bias-grad", "layers.py",
     "grad_out.reshape(-1, bias.size).sum(axis=0)]", "np.zeros(bias.size)]"),
    ("bisect_left", "finetune.py", "from bisect import bisect_right",
     "from bisect import bisect_left as bisect_right"),
    ("shuffle-seed", "finetune.py", "default_rng(cfg.seed + epoch)",
     "default_rng(cfg.seed)"),
    ("packed-views-reversed", "model.py",
     "views = iter(np.split(flat, np.cumsum([a.size for a in arrays[:-1]])))",
     "views = iter(np.split(flat, np.cumsum([a.size for a in arrays[:-1]]))[::-1])"),
    ("reader-done-noop", "container.py", "        if self.pos != len(self.data):",
     "        if False:"),
    ("outputs-replaced-one-by-one", "container.py", "                fh.write(data)",
     "                fh.write(data), os.replace(tmps.pop(), path)"),
    ("out-dir-isdir", "cli.py", "        if os.path.isdir(path):",
     "        if False:"),
    ("TEST_STREAM_XOR", "data.py", "TEST_STREAM_XOR = 0x9E3779B97F4A7C15",
     "TEST_STREAM_XOR = 0x9E3779B97F4A7C16"),
    ("truncations-keep-decomp", "compress.py",
     "        del decomp  # else it stays alive through the next layer's SVD",
     "        pass"),
    ("clip-check-bypassed", "model.py",
     "        feats = [sample_features(s.coords, cfg) for s in samples]",
     "        feats = [np.asarray(s.coords, dtype=np.float64).reshape("
     "cfg.frames, cfg.input_width) for s in samples]"),
    ("label-range-off-by-one", "model.py", "labels.max() >= cfg.classes",
     "labels.max() > cfg.classes"),
    ("empty-out-check-skipped", "cli.py", "    if not all(paths)", "    if False"),
    ("empty-history-taken-as-default", "cli.py", "paths[key] is None", "not paths[key]"),
    ("gen-fresh-folders-kept", "container.py", "_remove(reversed(made), os.rmdir)",
     "None"),
    ("dataset-folder-rule-dropped", "cli.py", 'kind != "dataset" and folder', "folder"),
    ("gen-empty-out-check-skipped", "cli.py", "    if not args.out:", "    if False:"),
    ("replaced-output-not-put-back", "container.py",
     "                    os.replace(olds[path], path)", "                    pass"),
    ("new-output-not-removed", "container.py", "                elif path in olds:",
     "                elif False:"),
    ("failed-put-back-backup-removed", "container.py",
     "olds[path] = None  # not put back", "pass  # not put back"),
    ("backups-kept", "container.py", "    _remove(filter(None, olds.values()), os.unlink)",
     "    pass"),
    ("refused-link-fails-the-write", "container.py",
     "except OSError:  # no hard link", "except ValueError:  # no hard link"),
    ("same-file-check-bypassed", "cli.py",
     "    if len({real[path] for path in paths}) < len(paths):", "    if False:"),
    ("overwrite-format-check-bypassed", "cli.py",
     "real.get(source) == real[path] and form != kind", "False"),
    ("gen-not-a-directory-bypassed", "cli.py",
     "        if parent and not os.path.isdir(parent):", "        if False:"),
    ("layer-table-check-bypassed", "layers.py",
     "        if (layer.c_in, layer.c_out) != shape:", "        if False:"),
    ("block-shape-check-bypassed", "layers.py",
     "        check_shapes(zip(self.projection_names(n), shapes),",
     "        (lambda *rows: None)(zip(self.projection_names(n), shapes),"),
    ("config-integer-rule-dropped", "linalg.py",
     "    if isinstance(value, bool) or not isinstance(value, numbers.Integral):",
     "    if False:"),
    ("finite-number-rule-dropped", "linalg.py", "    if not finite:", "    if False:"),
    ("integer-rule-accepts-bool", "linalg.py",
     "isinstance(value, bool) or not isinstance(value, numbers.Integral)",
     "not isinstance(value, numbers.Integral)"),
    ("sweep-child-offset-swapped", "compress.py",
     "pickle.dump(_stride(fn, items, w, width, caller), out)",
     "pickle.dump(_stride(fn, items, width - w, width, caller), out)"),
    ("sweep-last-failure-raised", "compress.py",
     "raise min(failures, key=lambda failure: failure[0])[1]",
     "raise max(failures, key=lambda failure: failure[0])[1]"),
    ("sweep-fork-failure-raises", "compress.py", "                break",
     "                raise"),
    ("sweep-failed-start-strides-dropped", "compress.py",
     "for w in (0, *range(len(pids) + 1, width))}", "for w in (0,)}"),
    ("sweep-orphan-check-skipped", "compress.py",
     "if parent is not None and os.getppid() != parent:", "if False:"),
    ("rank-bound-off-by-one", "linalg.py", "    if k > min(shape):",
     "    if k >= min(shape):"),
    ("plan-rank-any-digits", "compress.py",
     "if not (rank_text.isascii() and rank_text.isdigit()):",
     "if not rank_text.isdigit():"),
)


def _run_suite(tree):
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--ignore", os.path.join("tests", "test_acceptance.py"),
         "--ignore", os.path.join("tests", "test_mutants.py")],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode == 0, lines[-1] if lines else proc.stderr.strip()


def _copy_tree(dest):
    # The tests read the benchmark tracer, and pyproject.toml puts the
    # copy's src/ first on the import path.
    for folder in ("src", "tests", "benchmarks"):
        shutil.copytree(os.path.join(ROOT, folder), os.path.join(dest, folder),
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def _hits(lines, old):
    """Indices of the lines that contain ``old``; a mutant applies when
    there is exactly one."""
    return [i for i, line in enumerate(lines) if old in line]


def _mutate(tree, path, old, new):
    """Replace the one line of ``path`` that contains ``old``; False when
    ``old`` is not on exactly one line."""
    full = os.path.join(tree, PKG, path)
    with open(full) as fh:
        lines = fh.read().split("\n")
    hits = _hits(lines, old)
    if len(hits) != 1:
        return False
    lines[hits[0]] = lines[hits[0]].replace(old, new)
    with open(full, "w") as fh:
        fh.write("\n".join(lines))
    return True


def main(names):
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    with tempfile.TemporaryDirectory(prefix="lrskel-mutants-") as tmp:
        base = os.path.join(tmp, "base")
        _copy_tree(base)
        ok, summary = _run_suite(base)
        print(f"unmutated: {'pass' if ok else 'FAIL'} ({summary})", flush=True)
        if not ok:
            return 2
        survived, stale = [], []
        for name, path, old, new in chosen:
            tree = os.path.join(tmp, name)
            _copy_tree(tree)
            if not _mutate(tree, path, old, new):
                stale.append(name)
                print(f"{name}: STALE, line not found once in {path}", flush=True)
                continue
            passed, summary = _run_suite(tree)
            shutil.rmtree(tree)
            print(f"{name}: {'SURVIVED' if passed else 'killed'} ({summary})",
                  flush=True)
            if passed:
                survived.append(name)
    print(f"survivors: {survived}")
    return 2 if stale else 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
