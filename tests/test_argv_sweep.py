"""Every command line ends in a known status: a seeded sweep of command lines through ``main``.

Each line names one of the five commands and a few keys, each with a plausible or an extreme
value, sometimes with a malformed token.  It must return 0 (PASS), 1 (FAIL), 2 (usage or
config error) or 3 (I/O error), with at most one stderr line; an exception escaping
``main`` is a defect in chronon and fails the test, as does a numpy warning (see the
pytest filterwarnings setting).  A count is either plausible (grid-n up to 4096, grid-n-2d
up to 512, n-samples up to 16384) or one that ``validate`` rejects or that no allocator can
satisfy (2^50 and more), so no line allocates more than about 100 MB.
"""

import random

from chronon.cli import main
from chronon.config import CHAINS, KEY_SPECS

LINES = 320
COUNTS = {"grid-n": 4096, "grid-n-2d": 512, "n-samples": 16384}  # the most plausible value
EXTREME_FLOATS = ["0", "-0.0", "-1", "nan", "inf", "-inf", "5e-324", "1e-308", "1e-300",
                  "1e-30", "1e30", "1e300", "1e308", "1.8e308"]
SPINOR_SEEDS = ["1,0,1,0", "0,1,0,1", "1,0,0,1", "1j,0,1,0", "0,0,0,0", "1,0,1", "1,0,1,0,0",
                "nan,0,1,0", "1e308,1e308j,0,0", "1e-300,0,1e-300,0", "x,0,1,0"]
MALFORMED = ["--bogus", "-h", "--help", "--", "extra", "--p", "--hbar=", "--grid-n=1.5",
             "--no-emit-plots=1", "--config=missing.cfg"]
# output-dir and emit-plots are set by the sweep itself.
KEYS = [key for key in KEY_SPECS if key not in ("output-dir", "emit-plots")]


def draw_value(rng: random.Random, key: str) -> str:
    """A plausible value of ``key`` most of the time, an extreme one otherwise."""
    plausible = rng.random() < 0.8
    if key in COUNTS:
        if plausible:
            top = COUNTS[key].bit_length() - 1
            return str(2 ** rng.randint(2, top) if rng.random() < 0.7
                       else rng.randint(-2, COUNTS[key]))
        return str(rng.choice([2 ** rng.randint(50, 70), 10 ** rng.randint(16, 40), -(2**60)]))
    if key == "seed":
        return str(rng.randint(0, 10**6) if plausible else rng.choice([-1, 2**64, 10**30]))
    if key == "spinor-seed":
        return rng.choice(SPINOR_SEEDS)
    if plausible:
        return repr(rng.choice([1, 1, -1]) * 10 ** rng.uniform(-2, 2))
    return rng.choice(EXTREME_FLOATS)


def draw_line(rng: random.Random) -> list[str]:
    argv = [rng.choice(list(CHAINS))]
    for key in rng.sample(KEYS, rng.randint(0, 4)):
        value = draw_value(rng, key)
        argv += [f"--{key}={value}"] if rng.random() < 0.5 else [f"--{key}", value]
    if rng.random() < 0.1:
        argv.append(rng.choice(MALFORMED))
    return argv


def test_every_line_ends_in_a_known_status(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a relative --config path resolves here, and names no file
    rng = random.Random(2026)
    lines = [draw_line(rng) for _ in range(LINES)]
    seen = {}
    for argv in lines:
        status = main(argv + ["--no-emit-plots", "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert status in (0, 1, 2, 3), argv
        assert err.count("\n") <= 1 and (err == "") == (status < 2), (argv, err)
        seen.setdefault(status, argv)
    assert {argv[0] for argv in lines} == set(CHAINS)
    assert {0, 1, 2} <= set(seen), seen  # the sweep reaches a PASS, a FAIL and an error

