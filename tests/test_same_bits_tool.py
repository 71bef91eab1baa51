"""Smoke runs of tools/same_bits.py on a tiny corpus: the working tree
against itself prints the same records and structures hashes twice and
exits 0; against a copy whose Newton takes the step to the rounding floor
from every point that meets its gate it prints two records hashes, the largest |dx| between the two
sides' solutions and its record, and exits 1; against a copy whose
`CompleteSolution` gains a field it names that field and, with the same
bits in every shared one, exits 0; and against a copy whose table of
solved cusp blocks has other bits it prints two structures hashes."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the tool at a tiny size: its module constants set before main runs
SMALL = (
    "import sys; sys.path.insert(0, 'tools'); import same_bits as s; "
    "s.ROUNDS = s.FILLS = s.FAR_LISTS = 1; s.TABLE_G = 5; s.TABLE_FAR = [(400, 1)]; "
    "sys.exit(s.main(sys.argv[1:]))"
)


def run_small(parent, change):
    """The exit code, per side the (records, structures) hashes, the lines
    after the two sides' and the verdict."""
    run = subprocess.run([sys.executable, "-c", SMALL, str(parent), str(change)],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    *sides, verdict = run.stdout.splitlines()
    digests = []
    for side, line in zip(("parent", "change"), sides):
        match = re.match(r"%s\s+records ([0-9a-f]{64})  structures ([0-9a-f]{64})  (\d+) records " % side, line)
        assert match and int(match[3]) > 0, line
        digests.append(match.group(1, 2))
    return run.returncode, digests, sides[2:], verdict


def patched_copy(tmp_path, old, new):
    """A copy of src/mgk whose deformation.py has its one `old` replaced by `new`."""
    shutil.copytree(ROOT / "src" / "mgk", tmp_path / "src" / "mgk")
    source = tmp_path / "src" / "mgk" / "deformation.py"
    text = source.read_text()
    assert text.count(old) == 1
    source.write_text(text.replace(old, new))
    return tmp_path


def test_the_working_tree_has_its_own_bits():
    code, (parent, change), rest, verdict = run_small(".", ".")
    assert (code, verdict, rest) == (0, "same bits", []) and parent == change


def test_a_change_of_bits_is_seen(tmp_path):
    copy = patched_copy(tmp_path, "\n_POLISH = 128.0\n", "\n_POLISH = 0.0\n")
    code, (parent, change), rest, verdict = run_small(".", copy)
    assert (code, verdict) == (1, "bits differ") and parent[0] != change[0]
    # every filling that stops at its floor takes one step more there,
    # which moves it by a few ulps
    (line,) = rest
    match = re.fullmatch(r"max \|dx\| (\S+) at record (\d+): g=(\d+) k=(\d+) (\S+)", line)
    assert match and 0.0 < float(match[1]) < 1e-12, line


def test_a_field_only_one_side_has_is_named_and_not_hashed(tmp_path):
    # the complete structures hash over the fields both sides have, so a
    # new field alone leaves both hashes as they are, and is named
    copy = patched_copy(tmp_path, "\n    residual: np.ndarray\n", "\n    residual: np.ndarray\n    extra: float = 1.0\n")
    code, (parent, change), rest, verdict = run_small(".", copy)
    assert (code, verdict, rest) == (0, "same bits", ["field only in change: extra"]) and parent == change


def test_the_table_is_in_the_structures_hash(tmp_path):
    # the table of solved cusp blocks is hashed with the complete
    # structures: a copy whose table nodes sit at 1.03 times the first-order
    # shift, not 1.02, has other table bits and so another structures hash
    copy = patched_copy(tmp_path, "lo = -1.02 *", "lo = -1.03 *")
    code, (parent, change), _, verdict = run_small(".", copy)
    assert (code, verdict) == (1, "bits differ") and parent[1] != change[1]
