"""`monephase.normal` against numpy's own `default_rng(seed)` stream.

NEP 19 gives numpy's `Generator` streams no guarantee across numpy
versions, so a numpy release that changes the stream fails here, by name,
rather than silently changing every synthetic economy.
"""

import ast
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import monephase
from monephase.normal import Stream, _seed_words

ROOT = Path(__file__).resolve().parents[1]
SEEDS = [0, 1, 22, 2**32 + 5, 2**130 + 7]  # the last has five 32-bit words: the second mixing loop


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("seed", SEEDS)
def test_seed_words_match_seed_sequence(seed):
    want = np.random.SeedSequence(seed).generate_state(4, np.uint64)
    assert _seed_words(seed) == [int(v) for v in want]


@pytest.mark.parametrize("months", [153, 612, 2400])
@pytest.mark.parametrize("seed", SEEDS)
def test_synth_call_sequence(seed, months):
    # synth.generate's four calls, in its order: the state carries from one call to the next
    ours, theirs = Stream(seed), np.random.default_rng(seed)
    for scale, n in ((1.5, 240 + months), (0.004, months), (0.25, months), (0.1, months)):
        assert same_bits(ours.normal(0.0, scale, n), theirs.normal(0.0, scale, n)), (scale, n)


def test_standard_normal_takes_every_branch():
    seed, n = 1, 50_000
    assert same_bits(Stream(seed).standard_normal(n), np.random.default_rng(seed).standard_normal(n))
    # a draw that takes more than one 64-bit word missed its strip's rectangle; the first
    # word's low byte then names the branch it took: strip 0's tail, or another strip's wedge
    draws = np.random.default_rng(seed)
    ref = np.random.PCG64(seed)
    raw = np.random.PCG64(seed).random_raw(2 * n)
    branches, pos = {"tail": 0, "wedge": 0}, 0
    for _ in range(n):
        draws.standard_normal()
        target, words = draws.bit_generator.state["state"]["state"], 0
        while ref.state["state"]["state"] != target:
            ref.advance(1)
            words += 1
        if words > 1:
            branches["tail" if raw[pos] & 0xFF == 0 else "wedge"] += 1
        pos += words
    assert branches["tail"] > 0 and branches["wedge"] > 0, branches


def test_negative_seed_refused():
    with pytest.raises(ValueError, match="non-negative"):
        Stream(-1)


def test_tables_are_numpys():
    # the literal is what scripts/ziggurat_tables.py reads from the installed numpy's archive
    archive = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
    if not archive.is_file() or sys.platform != "linux" or sys.byteorder != "little":
        pytest.skip("the script reads a little-endian ELF archive, as Linux wheels install")
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ziggurat_tables.py"), str(archive)],
        check=True,
        capture_output=True,
        text=True,
        timeout=60,
    )
    source = (Path(monephase.__file__).parent / "normal.py").read_text(encoding="utf-8")
    assert f'_TABLES = """\n{run.stdout}"""' in source


def test_src_uses_no_numpy_random():
    # numpy.random loads secrets, hashlib and OpenSSL's _hashlib
    found = []
    for path in sorted(Path(monephase.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names
                      if name.split(".")[:2] in (["numpy", "random"], ["np", "random"])]
    assert found == []
