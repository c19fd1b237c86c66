"""Write the CLI's golden corpus: every case with its exact stdout, first and last stderr line and exit code.

    PYTHONPATH=src python tests/golden/generate.py

The cases cover every command, every option value, both input types and
the exit-2, 3, 4 and 5 paths; tests/test_golden.py reruns them in-process.
A change that means to alter CLI output reruns this script, and the diff of
cases.json shows every case that moved.
"""

from __future__ import annotations

import json
import math
import tempfile
import warnings
from pathlib import Path

from click.testing import CliRunner

CORPUS = Path(__file__).resolve().parent / "cases.json"


def _square(side, center, plane):
    h = side / 2.0
    corners = [(h, h), (-h, h), (-h, -h), (h, -h)]
    if plane == "xy":
        pts = [[u, v, 0.0] for u, v in corners]
    else:
        pts = [[u, 0.0, v] for u, v in corners]
    return [[p + c for p, c in zip(pt, center)] for pt in pts]


def _outward(points):
    centre = [sum(col) / len(points) for col in zip(*points)]
    out = []
    for pt in points:
        d = [p - c for p, c in zip(pt, centre)]
        norm = sum(x * x for x in d) ** 0.5
        out.append([x / norm for x in d])
    return out


def _polylink(curves, delta, scale=1.0, offsets=None):
    comps = []
    for i, pts in enumerate(curves):
        offs = offsets[i] if offsets is not None else _outward(pts)
        comps.append({"points": [[x * scale for x in pt] for pt in pts], "offsets": offs})
    return json.dumps({"components": comps, "delta": delta * scale})


_HOPF = [_square(2.0, (0.0, 0.0, 0.0), "xy"), _square(2.0, (1.0, 0.0, 0.0), "xz")]
_CROSSING = [_square(2.0, (0.0, 0.0, 0.0), "xy"), _square(2.0, (2.0, 0.0, 0.0), "xz")]
_SPLIT = [_square(2.0, (0.0, 0.0, 0.0), "xy"), _square(2.0, (5.0, 0.0, 0.0), "xz")]
_UP = [[0.0, 0.0, 1.0]] * 4
_RING = [[2.0 * math.cos(2.0 * math.pi * i / 16), 2.0 * math.sin(2.0 * math.pi * i / 16), 0.0] for i in range(16)]
# one turn of the framing around the ring: +1 self-linking
_TWIST = [[math.cos(-2.0 * math.pi * i / 16) * x / 2.0, math.cos(-2.0 * math.pi * i / 16) * y / 2.0,
           math.sin(-2.0 * math.pi * i / 16)] for i, (x, y, _) in enumerate(_RING)]
# a push-off that sweeps through a short bridge strand: stable at delta 0.2, unstable at delta 1
_BRIDGE = [[0.0, 0.0, 0.0], [3.8, 0.0, 0.0], [4.0, 0.0, 0.0], [6.0, 0.0, 0.0], [6.2, 0.0, 0.0], [10.0, 0.0, 0.0],
           [10.0, 2.0, 1.0], [5.5, 0.23, 1.0], [4.5, 0.17, 1.0], [3.5, 0.17, 1.0], [0.0, 2.0, 0.9]]
_BRIDGE_OFFSETS = [[0.0, 0.0, 0.25]] * 2 + [[0.0, 0.28, 1.4]] * 2 + [[0.0, 0.0, 0.25]] * 7

INPUTS = {
    "hopf": json.dumps({"m": 2, "J": [[0, 1], [1, 0]]}),
    "unknot-p1": json.dumps({"m": 1, "J": [[1]]}),
    "unknot-m1": json.dumps({"J": [[-1]]}),
    "lens-5": json.dumps({"J": [[5]]}),
    "three": json.dumps({"J": [[2, 1, 0], [1, -3, 1], [0, 1, 4]]}),
    "zero-2": json.dumps({"J": [[0, 0], [0, 0]]}),
    "unknots-3": json.dumps({"J": [[1, 0, 0], [0, -1, 0], [0, 0, 1]]}),
    "empty": json.dumps({"J": []}),
    "zero-12": json.dumps({"J": [[0] * 12 for _ in range(12)]}),
    "huge-entry": '{"J": [[100000000000000000000]]}',
    "float-entry": '{"J": [[1e20]]}',
    "ragged": '{"J": [[0, 1], []]}',
    "asymmetric": '{"m": 2, "J": [[0, 1], [2, 0]]}',
    "wrong-m": '{"m": 3, "J": [[0]]}',
    "m-true": '{"m": true, "J": [[1]]}',
    "m-float": '{"m": 1.0, "J": [[1]]}',
    "m-string": '{"m": "1", "J": [[1]]}',
    "not-json": "{[",
    "not-object": "[1, 2]",
    "poly-hopf": _polylink(_HOPF, 0.2),
    "poly-hopf-1e200": _polylink(_HOPF, 0.2, scale=1e200),
    "poly-hopf-1e-12": _polylink(_HOPF, 0.2, scale=1e-12),
    "poly-crossing": _polylink(_CROSSING, 0.2),
    "poly-crossing-1e200": _polylink(_CROSSING, 0.2, scale=1e200),
    "poly-split": _polylink(_SPLIT, 0.2),
    "poly-twisted-framing": _polylink(_HOPF[:1], 0.2, offsets=[_UP]),
    "poly-twisted-ring": _polylink([_RING], 0.2, offsets=[_TWIST]),
    "poly-bridge": _polylink([_BRIDGE], 0.2, offsets=[_BRIDGE_OFFSETS]),
    "poly-bridge-unstable": _polylink([_BRIDGE], 1.0, offsets=[_BRIDGE_OFFSETS]),
    "poly-nan": '{"components": [{"points": [[NaN,0,0],[1,0,0],[0,1,0]], "offsets": [[0,0,1],[0,0,1],[0,0,1]]}],'
                ' "delta": 0.1}',
    "poly-bad-delta": '{"components": [], "delta": -1}',
    "J-not-rows": '{"J": 5}',
    "poly-two-points": '{"components": [{"points": [[0,0,0],[1,0,0]], "offsets": [[0,0,1],[0,0,1]]}], "delta": 0.1}',
    "poly-offsets-shape": '{"components": [{"points": [[0,0,0],[1,0,0],[0,1,0]], "offsets": [[0,0,1],[0,0,1]]}],'
                          ' "delta": 0.1}',
    "poly-component-number": '{"components": [5], "delta": 0.1}',
    "poly-empty": '{"components": [], "delta": 0.1}',
}

MATRICES = ["hopf", "unknot-p1", "unknot-m1", "lens-5", "three", "zero-2", "empty"]
BAD = ["huge-entry", "float-entry", "ragged", "asymmetric", "wrong-m", "not-json", "not-object", "poly-nan",
       "poly-bad-delta", "poly-crossing", "poly-twisted-framing"]


def _cases() -> list[dict]:
    cases = []

    def add(args, input_name=None, guard=None):
        parts = [a for a in args if a != "{input}"] + ([input_name] if input_name else [])
        if guard is not None:
            parts.append(f"guard={guard}")
        cases.append({"id": " ".join(parts), "args": args, "input": input_name, "guard": guard})

    for k in (3, 5, 7, 9, 13, 25, 27):
        for method in ("factorized", "brute"):
            for name in MATRICES + ["poly-hopf", "poly-split"]:
                add(["tau-abelian", "--k", str(k), "--method", method, "-i", "{input}"], name)
    for k in ("1", "2", "15", "-5", "1009", "3486784401", "1000000000000000003", str(3**100)):
        add(["tau-abelian", "--k", k, "-i", "{input}"], "hopf")
    add(["tau-abelian", "--k", "9", "--method", "brute", "-i", "{input}"], "zero-12")
    add(["tau-abelian", "--k", "1009", "-i", "{input}"], "hopf", guard="100")
    add(["tau-abelian", "--k", "5", "--method", "closed", "-i", "{input}"], "hopf")
    for name in MATRICES + ["poly-hopf", "poly-split", "zero-12"]:
        add(["tau-su2k3", "-i", "{input}"], name)
    add(["tau-su2k3", "-i", "{input}"], "three", guard="4")
    for k in (2, 3, 4, 5, 6, 7):
        for rng in ("paper", "full"):
            for name in MATRICES + ["poly-hopf"]:
                add(["tau-dw", "--k", str(k), "--range", rng, "-i", "{input}"], name)
    for k in ("1", "0", "-3", str(10**30)):
        add(["tau-dw", "--k", k, "-i", "{input}"], "hopf")
    # the first modulus where primality is no longer proven, and one past the float range
    for k in ("3317044064679887385961981", str(10**309)):
        add(["tau-dw", "--k", k, "-i", "{input}"], "empty")
    add(["tau-dw", "--k", "5", "--range", "half", "-i", "{input}"], "hopf")
    add(["tau-dw", "--k", "5", "-i", "{input}"], "zero-12", guard="1000")
    for name in BAD:
        add(["tau-su2k3", "-i", "{input}"], name)
        add(["tau-dw", "--k", "5", "-i", "{input}"], name)
    # a declared m that is not an integer, though it equals the row count
    for name in ("m-true", "m-float", "m-string"):
        add(["tau-su2k3", "-i", "{input}"], name)
    add(["tau-su2k3", "-i", "{input}"], "J-not-rows")
    add(["tau-su2k3", "-i", "{input}"], "poly-empty")
    add(["tau-su2k3", "-i", "{input}", "-o", "{output}"], "hopf")
    add(["tau-su2k3"])
    for k in (2, 3, 4, 5, 9, 13, 25, 1009):
        for a in (0, 1, 2, -3, 7):
            for method in ("brute", "closed"):
                add(["gauss-sum", "--k", str(k), "--a", str(a), "--method", method])
    add(["gauss-sum", "--k", "1", "--a", "1"])
    add(["gauss-sum", "--k", "1000000000000000003", "--a", "2", "--method", "closed"])
    add(["gauss-sum", "--k", "3317044064679887385961981", "--a", "1"])
    add(["gauss-sum", "--k", "1009", "--a", "1"], guard="100")
    add(["gauss-sum", "--k", "1009", "--a", "1", "--method", "closed"], guard="100")
    add(["gauss-sum", "--k", "5"])
    add(["gauss-sum", "--k", "5", "--a", "x"])
    for name in ["poly-hopf", "poly-hopf-1e200", "poly-hopf-1e-12", "poly-crossing", "poly-crossing-1e200",
                 "poly-split", "poly-twisted-framing", "poly-twisted-ring", "poly-bridge", "poly-bridge-unstable",
                 "poly-nan", "poly-bad-delta", "hopf", "not-json", "not-object", "poly-two-points",
                 "poly-offsets-shape", "poly-component-number", "poly-empty"]:
        add(["linking-matrix", "-i", "{input}"], name)
    for invariant, ks in (("su2k3", (None,)), ("abelian", (5, 13, 7, 9)), ("dw", (3, 5, 9, 2, 4, 6, 8, 12))):
        for k in ks:
            for rng in (("full", "paper") if invariant == "dw" else ("full",)):
                for moves in (0, 3, 10):
                    for seed in (0, 1):
                        args = ["check", "--invariant", invariant, "--moves", str(moves), "--seed", str(seed)]
                        if k is not None:
                            args += ["--k", str(k)]
                        if invariant == "dw":
                            args += ["--range", rng]
                        add(args + ["-i", "{input}"], "hopf")
    for name in ("unknot-p1", "three", "poly-hopf"):
        add(["check", "--invariant", "abelian", "--k", "5", "--seed", "2", "-i", "{input}"], name)
    add(["check", "--invariant", "abelian", "-i", "{input}"], "hopf")
    for k in ("4", "6", "15"):
        add(["check", "--invariant", "abelian", "--k", k, "-i", "{input}"], "hopf")
    add(["check", "--invariant", "su2k3", "--seed", "-1", "-i", "{input}"], "hopf")
    add(["check", "--invariant", "su2k3", "--moves", "-3", "-i", "{input}"], "hopf")
    add(["check", "--invariant", "su2k3", "--k", "7", "-i", "{input}"], "hopf")
    add(["check", "--invariant", "su2k3", "--range", "paper", "-i", "{input}"], "hopf")
    add(["check", "--invariant", "abelian", "--k", "5", "--range", "paper", "-i", "{input}"], "hopf")
    for guard in ("0", "-5", "x"):
        add(["check", "--invariant", "dw", "--k", "5", "-i", "{input}"], "unknot-p1", guard=guard)
    add(["check", "--invariant", "dw", "--k", "5", "--moves", "10", "-i", "{input}"], "hopf", guard="200")
    add(["check", "--invariant", "su2k3", "--moves", "10", "-i", "{input}"], "hopf", guard="100")
    add(["check", "--invariant", "su2k3", "-i", "{input}"], "unknot-p1", guard="0")
    # the paper range sums (k-1)**m terms; at k=2 its box has width 1
    add(["check", "--invariant", "dw", "--k", "5", "--range", "paper", "--moves", "10", "-i", "{input}"], "hopf",
        guard="3000000")
    add(["check", "--invariant", "dw", "--k", "2", "--range", "paper", "--moves", "20", "-i", "{input}"], "hopf")
    # a random script has at most 10**3 moves: su2k3 and a width-1 box sum at most one term per evaluation
    for invariant in (["dw", "--k", "5"], ["su2k3"]):
        add(["check", "--invariant", *invariant, "--moves", "100000000", "-i", "{input}"], "hopf")
    # m_cap is the input's m where that is above the guard's cap: 101**3 > 10**6, yet a blow-down may be undone
    add(["check", "--invariant", "abelian", "--k", "101", "--moves", "4", "-i", "{input}"], "unknots-3")
    # a random script's size cap where k**m_cap is exactly the guard or 10**6
    for k, moves, seed, guard in (("10", "10", "1", None), ("10", "10", "2", None), ("100", "10", "0", None),
                                  ("3", "10", "0", "243"), ("10", "3", "0", "1000")):
        add(["check", "--invariant", "dw", "--k", k, "--moves", moves, "--seed", seed, "-i", "{input}"], "hopf",
            guard=guard)
    for k in (3, 5, 7, 13, 101, 131):
        for a in (1, 2, -1, k + 3):
            for eps, seed in ((0.05, 0), (0.1, 7), (0.3, 42)):
                add(["simulate", "--k", str(k), "--a", str(a), "--eps", str(eps), "--seed", str(seed)])
    for k in (1009, 1019, 1021):
        add(["simulate", "--k", str(k), "--a", "3", "--seed", "5"])
    for args in (["--k", "4", "--a", "1"], ["--k", "1031", "--a", "1"], ["--k", "5", "--a", "10"],
                 ["--k", "5", "--a", "1", "--eps", "1.5"], ["--k", "5", "--a", "1", "--eps", "0"],
                 ["--k", "5", "--a", "1", "--eps", "nan"], ["--k", "5", "--a", "1", "--eps", "inf"],
                 ["--k", "5", "--a", "1", "--eps", "1e-5"], ["--k", "5", "--a", "1", "--seed", "18446744073709551617"],
                 ["--k", "5", "--a", "1", "-o", "{output}"], ["--k", "5", "--a", "1", "--seed", "-1"],
                 ["--k", "5", "--a", "1", "--eps", "1e-9"], ["--k", "5", "--a", "1", "--eps", "1e-300"],
                 ["--k", "5", "--a", "1", "--eps", "5e-324"]):
        add(["simulate", *args])
    # two errors at once, a bad option and a bad input or a second bad option: the case pins which one is reported
    add(["tau-abelian", "--k", "4", "-i", "{input}"], "not-json")
    add(["check", "--invariant", "abelian", "--k", "4", "-i", "{input}"], "not-json")
    add(["tau-dw", "--k", "1", "-i", "{input}"], "not-json")
    add(["check", "--invariant", "su2k3", "--k", "7", "-i", "{input}"], "not-json")
    add(["check", "--invariant", "su2k3", "--range", "paper", "-i", "{input}"], "not-json")
    for first, second in ((["--k", "4"], ["--seed", "-1"]), (["--k", "4"], ["--eps", "1.5"])):
        add(["simulate", *first, "--a", "1", *second])
        add(["simulate", *second, "--a", "1", *first])
    add(["no-such-command"])
    return cases


def run_case(case: dict, inputs: dict, workdir: Path) -> dict:
    """Run one case in-process; return its stdout, first and last stderr line and exit code."""
    from qtopo.cli import main

    args = []
    for arg in case["args"]:
        if arg == "{input}":
            path = workdir / "input.json"
            path.write_text(inputs[case["input"]])
            arg = str(path)
        elif arg == "{output}":
            arg = str(workdir / "output.json")
        args.append(arg)
    with warnings.catch_warnings():
        # the k != 1 mod 4 warning prints once per process, so which case shows it depends on the order
        warnings.simplefilter("ignore")
        result = CliRunner().invoke(main, args, env={"QTOPO_GUARD": case["guard"]})
    stderr = result.stderr.splitlines()
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        stderr = ["Traceback (most recent call last):"]
    first, last = (stderr[0], stderr[-1]) if stderr else ("", "")
    return {"stdout": result.stdout, "stderr": first, "stderr_last": last, "exit": result.exit_code}


def main() -> None:
    cases = _cases()
    ids = [case["id"] for case in cases]
    assert len(set(ids)) == len(ids), "case ids must be unique"
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases:
            case.update(run_case(case, INPUTS, Path(tmp)))
    CORPUS.write_text(json.dumps({"inputs": INPUTS, "cases": cases}, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {CORPUS}")


if __name__ == "__main__":
    main()
