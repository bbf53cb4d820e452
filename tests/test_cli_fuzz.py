"""Seeded fuzz of the command line over tiny, awkward CSV files.

Every argument vector must exit 0, or exit 2 with exactly one ``error: ``
line on stderr; an exception escaping ``main`` (a traceback) fails the test.
"""

import numpy as np

from quadlab.cli import main

CSVS = {
    "header_only": "a,b,y\n",
    "one_row": "a,b,y\n0.01,-0.02,0.5\n",
    "constant": "a,b,y\n" + "".join(f"1,{0.01 * k - 0.03},{0.1 * k * k - 0.2}\n"
                                    for k in range(6)),
    "nan": "a,b,y\n0.01,0.02,1\nnan,0.01,2\n0.03,-0.01,0.5\n-0.01,0.0,1.5\n",
    "inf": "a,b,y\n0.01,0.02,1\n0.02,inf,2\n0.03,-0.01,0.5\n-0.01,0.0,1.5\n",
    "duplicated": "a,b,y\n" + "0.01,-0.02,1\n0.03,0.01,2\n-0.02,0.02,0.5\n" * 2,
}
NUMBERS = ("0", "1e-300", "-1e-300", "1", "-1", "0.5", "0.9999999", "1e300", "nan", "inf")
COMMANDS = ("fit", "eval", "portfolio", "sweep", "sparse")
VECTORS = 60


def _argv(rng, command: str, path: str) -> list[str]:
    def pick(options):
        return options[int(rng.integers(len(options)))]

    def maybe(flag: str, share: float = 0.5) -> list[str]:
        return [flag, pick(NUMBERS)] if rng.random() < share else []

    if command == "fit":
        return (["fit", "--method", pick(("ols", "quantile", "se", "bmr")), "--input", path,
                 "--target", "y"] + maybe("--alpha", 0.7) + maybe("--x"))
    if command == "eval":
        column = ["--column", pick(("a", "y", "z"))] if rng.random() < 0.5 else []
        return (["eval", "--family", pick(("quantile", "biased_mean", "mean_l1")),
                 "--input", path] + maybe("--alpha", 0.7) + maybe("--x") + column)
    long_only = ["--long-only"] if rng.random() < 0.3 else []
    if command == "portfolio":
        return (["portfolio", "--objective", pick(("se", "cvar")), "--input", path,
                 "--mu", pick(NUMBERS)] + maybe("--alpha", 0.7) + maybe("--x") + long_only)
    if command == "sweep":
        grid = ":".join(pick(NUMBERS) for _ in range(3))
        return ["portfolio", "--input", path, "--mu", pick(NUMBERS), "--sweep", grid] + long_only
    flags = [flag for flag in ("--milp", "--oracle") if rng.random() < 0.25]
    k = pick(("1", "2") + NUMBERS)  # --k takes an integer: most of NUMBERS fail to parse
    return (["sparse", "--error", pick(("se", "mse")), "--k", k, "--input", path,
             "--target", "y"] + maybe("--time-limit", 0.3) + maybe("--gap", 0.3)
            + maybe("--max-nodes", 0.3) + maybe("--big-m", 0.2) + flags)


def _run(argv, capsys) -> tuple[int, str]:
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a flag value
        code = exc.code
    return code, capsys.readouterr().err


def test_every_vector_exits_cleanly(tmp_path, capsys):
    paths = []
    for name, text in CSVS.items():
        path = tmp_path / f"{name}.csv"
        path.write_text(text)
        paths.append(str(path))
    rng = np.random.default_rng(2029)
    codes = []
    for k in range(VECTORS):
        argv = _argv(rng, COMMANDS[k % len(COMMANDS)], paths[k // len(COMMANDS) % len(paths)])
        code, err = _run(argv, capsys)
        assert code in (0, 2), argv
        if code == 2:
            assert sum("error: " in line for line in err.splitlines()) == 1, (argv, err)
        assert "Traceback" not in err, argv
        codes.append(code)
    assert {0, 2} <= set(codes)

