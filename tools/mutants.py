"""Mutation gate: every listed mutant of `src/` must be killed by its tests.

    python3 tools/mutants.py

Run from anywhere; the checkout is the directory above this file.  Each
mutant is one exact text replacement in one source file, with the test files
that must catch it.  For each mutant the script copies `src/`, `tests/` and
`bench/` (which `tests/test_cli_fast_path.py` imports) into a temporary
directory, applies the replacement there and runs `pytest -x -q` on the
mutant's test files, so the checkout is never touched.
A mutant is killed when pytest reports a failing test (exit code 1).  The
script prints one line per mutant and exits 1 if a mutant survives, if its
tests fail to run at all (any other exit code), or if its old text does not
occur exactly once in its file.  The mutants' test files first run once on
an unmutated copy, and must pass there.  The whole list runs in one to two
minutes on a 2-vCPU host.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the checkout
    old: str  # must occur exactly once in the file
    new: str
    tests: Tuple[str, ...]  # test files, relative to the checkout
    reason: str


PHI, CENSUS = "src/parabolics/phi.py", "src/parabolics/census.py"
GEOMETRY, ROOTSYS = "src/parabolics/geometry.py", "src/parabolics/rootsys.py"

MUTANTS = (
    Mutant(
        "weights-infinite-one", GEOMETRY,
        "0 if v is INFINITE else p ** v", "1 if v is INFINITE else p ** v",
        ("tests/test_geometry.py",),
        "a Levi root weighs 0 in the anticanonical character",
    ),
    Mutant(
        "certificate-sort-by-alpha", GEOMETRY,
        "chain = sorted(chain)",
        "chain = sorted(chain, key=lambda c: c[1])",
        ("tests/test_geometry.py",),
        "the certificate cuts the generated blocks in chain order, not node order",
    ),
    Mutant(
        "certificate-sort-reversed", GEOMETRY,
        "chain = sorted(chain)",
        "chain = sorted(chain, reverse=True)",
        ("tests/test_geometry.py",),
        "the chain is cut from its least block upward",
    ),
    Mutant(
        "levi-empty-token", "src/parabolics/cli.py",
        'for tok in text.split(",")]', 'for tok in text.split(",") if tok]',
        ("tests/test_cli_usage.py",),
        "an empty --levi token is a usage error, never dropped",
    ),
    Mutant(
        "census-last-tuple-wins", PHI,
        "if x not in meets and not (drop", "if not (drop",
        ("tests/test_carried_blocks.py",),
        "a census meet carries the first, i.e. chain-least, block tuple that reaches it",
    ),
    Mutant(
        "census-catalog-order", PHI,
        "for m in range(max_height + 1)\n                 for x, one, c, top in kinds if",
        "for x, one, c, top in kinds\n                 for m in range(max_height + 1) if",
        ("tests/test_carried_blocks.py",),
        "the packed catalogs are in chain order, so the first tuple is the least",
    ),
    Mutant(
        "carry-drops-exotic", PHI,
        "(x + m * one, c + 8 * m)", "(x + m * one, c + 8 * m & ~2)",
        ("tests/test_census.py",),
        "a carried exotic block keeps its exotic bit, so its row is not certified",
    ),
    Mutant(
        "cut-gap-off-by-one", GEOMETRY,
        "if p ** g * den > num)", "if p ** (g + 1) * den > num)",
        ("tests/test_geometry.py",),
        "a cut passes when p**gap, not p**(gap + 1), exceeds the threshold",
    ),
    Mutant(
        "hasse-key-ge", PHI,
        "if w >> 2 > v >> 2 or w == v:", "if w >> 2 >= v >> 2 or w == v:",
        ("tests/test_census.py",),
        "ExoticH(m) and ExoticL(m) share a chain key and neither contains the other",
    ),
    Mutant(
        "hasse-drops-same-block", PHI,
        "v >> 2 or w == v:", "v >> 2:",
        ("tests/test_census.py",),
        "a block contains itself, so schemes with one block at a node compare there",
    ),
    Mutant(
        "lane-no-guard-bit", PHI,
        "k = ((max_height + 1).bit_length() + 8) // 8",
        "k = ((max_height + 1).bit_length() + 7) // 8",
        ("tests/test_census_fold.py",),
        "a lane holds the heights up to the bound, INFINITE and a guard bit",
    ),
    Mutant(
        "lane-no-guard-bit-oracle", PHI,
        "k = ((max_height + 1).bit_length() + 8) // 8",
        "k = ((max_height + 1).bit_length() + 7) // 8",
        ("tests/test_census.py",),
        "the same mutant, killed without the kernel: the census equals the oracle at M >= 127",
    ),
    Mutant(
        "cover-without-a", PHI,
        "return -1, ()", "return -1, tuple(map(eq, h, hw))",
        ("tests/test_phi.py",),
        "(a): a node with no anchored candidate containing P makes P invalid",
    ),
    Mutant(
        "cover-without-b", PHI,
        "return i, tuple(map(eq, h, hw))", "return i, tuple(map(ge, h, hw))",
        ("tests/test_phi.py",),
        "(b): a cover hits the window roots where it equals P, not every root it dominates",
    ),
    Mutant(
        "anchored-order-ignores-anchor-height", PHI,
        "c - 8 * h[0]", "c",
        ("tests/test_phi.py",),
        "a kind whose X(0) has anchor height t sits at code - 8t in the per-node chain",
    ),
    Mutant(
        "cover-code-unshifted", PHI,
        "return codes[i] + 8 * a, hits", "return codes[i], hits",
        ("tests/test_phi.py",),
        "a single scheme's cover is relative to its anchor a, so its code is k + 8a",
    ),
    Mutant(
        "block-vector-node-unchecked", PHI,
        "if not 1 <= _check_int(alpha) <= rs.rank:", "if _check_int(alpha) is None:",
        ("tests/test_phi.py",),
        "_block_vector holds the one node check: a node outside 1..rank is refused",
    ),
    Mutant(
        "anchored-candidates-unfiltered", PHI,
        " if k + 8 * a >= 0)", ")",
        ("tests/test_phi.py",),
        "a kind with t = 1 has no candidate at anchor 0: its code k + 8a is negative",
    ),
    Mutant(
        "oracle-hit-mask-ge", CENSUS,
        "sum(itertools.compress(self.bits, hits))", "sum(self.bits)",
        ("tests/test_census.py",),
        "the oracle's hit mask keeps the cover's equal roots, not all it dominates (ge)",
    ),
    Mutant(
        "oracle-key-without-anchor", CENSUS,
        "itemgetter(*map(at.get, window))", "itemgetter(*map(at.get, window[1:]))",
        ("tests/test_census.py",),
        "the oracle tables each node's cover by its window heights, anchor included",
    ),
    Mutant(
        "generated-fallback-first", PHI,
        "return -1, ()", "return 0, ()",
        ("tests/test_phi.py",),
        "with no containing candidate the generated block falls back to the largest",
    ),
    Mutant(
        "fano-gate-normalized-only", CENSUS,
        "gated = g and (q.normalized_only or is_normalized(P))",
        "gated = g and q.normalized_only",
        ("tests/test_carried_blocks.py",),
        "a plain Fano census certifies its normalized rows too",
    ),
    Mutant(
        "fano-test-skipped", CENSUS,
        "cert is None and _is_fano(cols, w)", "cert is None",
        ("tests/test_carried_blocks.py",),
        "only a certified row skips the Fano test; a row without a certificate may fail it",
    ),
    Mutant(
        "lane-reader-low-byte", PHI,
        'int.from_bytes(b[i:i + k], "big")', "b[i + k - 1]",
        ("tests/test_census_lanes.py",),
        "a lane wider than a byte is read whole: a height past 255 needs its high byte",
    ),
    Mutant(
        "lane-writer-borel-positions", PHI,
        "finite = _levi_split(rs, levi)[1]", "finite = _levi_split(rs, frozenset())[1]",
        ("tests/test_census_lanes.py",),
        "a row format has a %d for each finite position of its own Levi subset",
    ),
    Mutant(
        "row-format-prime-slot", PHI,
        'f"type {rs.rtype}  prime "', 'f"type {rs.rtype} prime "',
        ("tests/test_writers.py",),
        "the text row's prime sits after two spaces, as in to_text's documented header",
    ),
    Mutant(
        "levi-split-drops-own-root", PHI,
        "for _, w in windows for i in w}", "for _, w in windows for i in w[1:]}",
        ("tests/test_levi_split.py",),
        "a node's own simple root is off the Levi: the positions hold every window whole",
    ),
    Mutant(
        "fast-args-admits-any-choice", "src/parabolics/cli.py",
        "\n        if action.choices is not None and value not in action.choices:\n"
        "            return None", "",
        ("tests/test_cli_usage.py",),
        "a value outside an option's choices gives up to argparse, which refuses it",
    ),
    Mutant(
        "fast-args-admits-dash-value", "src/parabolics/cli.py",
        '\n        if text.startswith("-"):\n            return None', "",
        ("tests/test_cli_fast_path.py",),
        'a value starting with "-" (or a missing one) gives up to argparse, which may read a flag',
    ),
    Mutant(
        "fast-args-admits-missing-required", "src/parabolics/cli.py",
        "\n        if action.required and action.dest not in seen:\n            return None", "",
        ("tests/test_cli_fast_path.py",),
        "a missing required option gives up to argparse, which refuses it",
    ),
    Mutant(
        "hasse-scan-unpruned", CENSUS,
        "above &= ~(up[j] | 1 << j)", "above &= ~(1 << j)",
        ("tests/test_census.py",),
        "the scan clears each reached scheme's up-set: nothing above it covers i",
    ),
    Mutant(
        "hasse-scan-highest-first", CENSUS,
        "j = (above & -above).bit_length() - 1", "j = above.bit_length() - 1",
        ("tests/test_census.py",),
        "the scan takes the lowest bit first, so every scheme between i and j is seen before j",
    ),
    Mutant(
        "census-projection-sum", CENSUS,
        "tuples = math.prod(_catalog_size(rs, q.p, a, M) for a, _ in",
        "tuples = sum(_catalog_size(rs, q.p, a, M) for a, _ in",
        ("tests/test_census.py",),
        "the census guard projects the product of the catalog sizes",
    ),
    Mutant(
        "root-lengths-reversed", ROOTSYS,
        "half = [P[i][i] // 2 for i in range(n)]",
        "half = [P[n - 1 - i][n - 1 - i] // 2 for i in range(n)]",
        ("tests/test_rootsys.py",),
        "a squared length weighs each pairing <gamma, alpha_i^vee> by alpha_i's own length",
    ),
    Mutant(
        "pairing-unscaled", ROOTSYS,
        "tuple(2 * x // d for x in row)", "tuple(x for x in row)",
        ("tests/test_rootsys.py",),
        "the pairing is the Gram matrix scaled so that short roots have squared length 2",
    ),
    Mutant(
        "pairing-integrality-unchecked", ROOTSYS,
        "if any(2 * x % d for row in gram for x in row):", "if False:",
        ("tests/test_rootsys.py",),
        "a realisation whose scaled Gram matrix is not integral is refused, not floored",
    ),
    Mutant(
        "positive-roots-unsorted", ROOTSYS,
        "for c in sorted(level):", "for c in level:",
        ("tests/test_rootsys.py",),
        "the positive roots of one height are in coefficient order",
    ),
    Mutant(
        "levi-repeated-index", ROOTSYS,
        "if len(I) < len(checked):", "if False:",
        ("tests/test_census.py",),
        "a repeated Levi index is refused, not merged",
    ),
    Mutant(
        "infinite-le-everything", PHI,
        "-> bool:\n        return other is self", "-> bool:\n        return True",
        ("tests/test_phi.py",),
        "INFINITE tops the height order: it is at most itself and no int",
    ),
    Mutant(
        "enne-non-strict", PHI,
        "if h[c] < h[a] and h[c] < h[b]", "if h[c] <= h[a] and h[c] <= h[b]",
        ("tests/test_phi.py",),
        "phi(gamma+delta) equal to min(phi(gamma), phi(delta)) is no violation",
    ),
    Mutant(
        "very-special-kernel-non-strict", PHI,
        "min(compress(P.heights, P.rs.short)) > m", "min(compress(P.heights, P.rs.short)) >= m",
        ("tests/test_phi.py",),
        "the very special kernel of height m needs every short height above m",
    ),
    Mutant(
        "enne-triples-drop-negative-difference", PHI,
        " and y - x not in at", "",
        ("tests/test_phi.py",),
        "gamma - delta may be a negative root: y - x, not only x - y, is tested as packed",
    ),
    Mutant(
        "root-name-shared", ROOTSYS,
        "    @cached_property\n    def _name(self) -> str:",
        "    @property\n    def _name(self) -> str:\n"
        "        Root._shared = getattr(Root, '_shared', None) or self._fresh\n"
        "        return Root._shared\n\n"
        "    @property\n    def _fresh(self) -> str:",
        ("tests/test_rootsys.py",),
        "a root's name is kept on that root alone, never shared between roots",
    ),
    Mutant(
        "json-row-levi-roots-kept", PHI,
        'marks.get(i, INFINITE)', 'marks.get(i, "%d")',
        ("tests/test_phi.py",),
        "the JSON row leaves the Levi roots out of phi",
    ),
    Mutant(
        "json-repeated-root", PHI,
        "            if g in phi:\n                raise", "            if False:\n                raise",
        ("tests/test_phi.py",),
        "a scheme file that spells one root twice is refused",
    ),
)


def run_tests(tests: Sequence[str], m: Optional[Mutant] = None) -> Tuple[int, float]:
    """(pytest exit code, seconds) of the test files on a copy, with the
    mutant applied, if any."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        for part in ("src", "tests", "bench"):
            shutil.copytree(ROOT / part, Path(tmp) / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        if m is not None:
            target = Path(tmp) / m.file
            target.write_text(target.read_text().replace(m.old, m.new))
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        return proc.returncode, time.perf_counter() - start


def main() -> int:
    counts = {m.name: (ROOT / m.file).read_text().count(m.old) for m in MUTANTS}
    for m in MUTANTS:
        if counts[m.name] != 1:
            print(f"{m.name}: old text occurs {counts[m.name]} times in {m.file}, not once",
                  file=sys.stderr)
    if set(counts.values()) != {1}:
        return 1
    tests = sorted({t for m in MUTANTS for t in m.tests})
    code, seconds = run_tests(tests)
    print(f"{'clean' if code == 0 else 'FAILED':<8} {'(no mutant)':<36} {seconds:5.1f} s  "
          f"{' '.join(tests)}", flush=True)
    if code != 0:
        print("the mutants' tests fail on the unmutated copy", file=sys.stderr)
        return 1
    failed = []
    for m in MUTANTS:
        code, seconds = run_tests(m.tests, m)
        verdict = {1: "killed", 0: "SURVIVED"}.get(code, f"ERROR (pytest exit {code})")
        print(f"{verdict:<8} {m.name:<36} {seconds:5.1f} s  {m.reason}", flush=True)
        if code != 1:
            failed.append(m.name)
    print(f"{len(MUTANTS) - len(failed)} of {len(MUTANTS)} mutants killed")
    if failed:
        print(f"not killed: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
