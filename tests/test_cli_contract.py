"""The command line's exit contract, checked on generated edge values.

Every subcommand runs in-process through ``main`` with options drawn from
bounded edge values: 0, negatives, 1e-300, 1e300, swapped ranges, an
empty delay list, missing input files. Each subcommand gets its own
``CASES_PER_COMMAND`` draws. A value is drawn near its default three times
in four, so that the exit-0 side is tested too: at least a quarter of the
``qpm tune`` and ``spectrum`` cases must run to the end.
Each run must exit 0, 1 or 2 and
let no exception escape; the suite's warning filter turns a RuntimeWarning
(a NaN or an overflow on the way) into one. A value that the README names
as a usage error must exit 2. Grid and point counts stay small (spectrum
points <= 8193, HOM points <= 2001, tuning steps <= 101), so a case
allocates no large array.
"""
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

from freqbin.cli import main
from freqbin.entanglement import rho_freq

EDGE = (0.0, -3.0, 1e-300, 1e300)


def _near(typical, edges):
    """One of the ``typical`` values three times in four, else an edge."""
    return st.sampled_from(tuple(typical) * (3 * len(edges))
                           + tuple(edges) * len(typical))


def _floats(*typical):
    return _near(typical, EDGE) if typical else st.sampled_from(EDGE)


T_C = _floats(120.0)
DW_THZ = _floats(11.5)
SEED = st.sampled_from((0, -1, 7))
SEGMENT = _near((0, 1), (-1, 2))
P = _floats(0.5, 0.516, 1.0)
V = _floats(0.5, 0.934, 1.0)
STATE = {"--p": P, "--v": V, "--phi": _floats(), "--tau-fs": _floats(20.0),
         "--dw-thz": DW_THZ, "--rho": st.sampled_from(("@freq", "@pol",
                                                       "@missing"))}
HOM = {"--v": V, "--dw-thz": DW_THZ, "--tauc-ps": _floats(2.4),
       "--tau0-fs": _floats(), "--range-ps": _floats(3.0),
       "--points": st.sampled_from((0, -5, 1, 2, 6, 241, 2001))}
INIT = st.sampled_from([json.dumps({name: value})
                        for name in ("N", "V", "delta_omega", "tau_c",
                                     "tau_offset")
                        for value in EDGE])

# subcommand -> its options' values (an option left out keeps its default)
COMMANDS = {
    ("qpm", "solve"): {"--t-c": T_C, "--segment": SEGMENT,
                       "--signal-pol": st.sampled_from(("H", "V")),
                       "--branch": st.sampled_from(("signal_short",
                                                    "signal_long")),
                       "--format": st.sampled_from(("csv", "json"))},
    ("qpm", "period"): {"--signal-nm": _floats(1506.0),
                        "--idler-nm": _floats(1594.0), "--t-c": T_C,
                        "--signal-pol": st.sampled_from(("H", "V"))},
    ("qpm", "tune"): {"--segment": SEGMENT, "--t-from-c": _floats(110.0),
                      "--t-to-c": _floats(130.0),
                      "--pump-from-nm": _floats(770.0),
                      "--pump-to-nm": _floats(780.0),
                      "--steps": _near((2, 41, 101), (0, -1, 1))},
    ("qpm", "crossing"): {"--t-lo-c": _floats(100.0, 140.0),
                          "--t-hi-c": _floats(140.0, 100.0)},
    ("spectrum",): {"--t-c": T_C, "--lobes": _floats(6.0),
                    "--points": _near((2049, 4097, 8193), (0, 16, 17, 101))},
    ("hom", "model"): {**HOM, "--n": _floats(1.0)},
    ("hom", "synth"): {**HOM, "--pairs": _floats(2000.0), "--seed": SEED},
    ("hom", "fit"): {"--scan": st.sampled_from(("@scan", "@missing")),
                     "--init": INIT},
    ("tomo", "simulate"): {**STATE, "--expected-total": _floats(4000.0),
                           "--seed": SEED,
                           "--projectors": st.sampled_from(("james16",
                                                            "nope"))},
    ("tomo", "reconstruct"): {"--data": st.sampled_from(("@counts",
                                                         "@missing")),
                              "--projectors": st.sampled_from(("james16",
                                                               "nope"))},
    ("tomo", "metrics"): {**STATE, "--target-phi": _floats(1.3)},
    ("tomo", "convert"): {"--tau-fs": _floats(20.0, -20.0), "--dw-thz": DW_THZ,
                          "--rho": st.sampled_from(("@freq", "@pol"))},
    ("tomo", "table1"): {"--p": P, "--v": V, "--dw-thz": DW_THZ,
                         "--tauc-ps": _floats(2.4),
                         "--taus-fs": st.sampled_from(("", "0", "0,47,-20",
                                                       "1e300", "-20,nan")),
                         "--expected-total": _floats(4000.0),
                         "--seed": SEED},
}
REQUIRED = {("qpm", "period"): ("--signal-nm", "--idler-nm"),
            ("hom", "fit"): ("--scan",), ("tomo", "reconstruct"): ("--data",),
            ("tomo", "convert"): ("--tau-fs",)}
# options a case holds together, leaving the others of the command out, two
# times in three: qpm tune's two sweeps
TOGETHER = {("qpm", "tune"): (("--t-from-c", "--t-to-c"),
                              ("--pump-from-nm", "--pump-to-nm"))}
# about 300 cases over the 13 subcommands
CASES_PER_COMMAND = 23
# the cases found by hand: a zero pump escaped as a ZeroDivisionError, an
# infinite splitting overflowed into NaN counts, and the tomography side
# took a splitting at or below zero
FOUND = ((("qpm", "tune"), {"--pump-from-nm": 0.0, "--pump-to-nm": 10.0,
                            "--steps": 3}),
         (("hom", "model"), {"--dw-thz": 1e300}),
         (("tomo", "convert"), {"--tau-fs": 0.0, "--dw-thz": 1e300}),
         (("tomo", "convert"), {"--tau-fs": 20.0, "--dw-thz": 0.0}),
         (("tomo", "simulate"), {"--tau-fs": 20.0, "--dw-thz": -11.5}))


@st.composite
def cases(draw, command):
    """{option: value} of ``command`` with the required options present."""
    groups = TOGETHER.get(command, ())
    group = draw(st.sampled_from(groups + ((),)))
    options = {k: v for k, v in COMMANDS[command].items()
               if not group or k in group or all(k not in g for g in groups)}
    required = REQUIRED.get(command, ()) + group
    return draw(st.fixed_dictionaries(
        {k: options[k] for k in required},
        optional={k: v for k, v in options.items() if k not in required}))


def _bad_splitting(o) -> bool:
    dw = o.get("--dw-thz", 11.5)
    return not (dw > 0.0 and math.isfinite(math.tau * dw * 1e12))


def _long_delay(o, tau_fs) -> bool:
    """Whether the phase delta_omega * tau of delay ``tau_fs`` [fs] at the
    splitting of ``o`` is not finite or reaches 2**22 rad in magnitude."""
    dw = math.tau * o.get("--dw-thz", 11.5) * 1e12
    return not abs(dw * tau_fs * 1e-15) < 2.0 ** 22


def _bad_state(o) -> bool:
    p, v = o.get("--p", 0.516), o.get("--v", 0.934)
    return not (0.0 <= p <= 1.0
                and 0.0 <= v <= 2.0 * math.sqrt(p * (1.0 - p)) + 1e-12)


def named_usage_error(command, o) -> bool:
    """Whether the README names one of the values in ``o`` a usage error."""
    name = " ".join(command)
    if not 0 <= o.get("--segment", 0) <= 1:       # the default crystal's
        return True
    if name == "qpm period":
        return not (o["--signal-nm"] > 0.0 and o["--idler-nm"] > 0.0)
    if name == "qpm tune" and "--t-from-c" not in o:
        pumps = (o.get("--pump-from-nm", 1.0), o.get("--pump-to-nm", 1.0))
        return not (min(pumps) > 0.0 and max(pumps) < 1200.0)
    if name == "spectrum":
        return o.get("--lobes", 6.0) <= 0.0 or o.get("--points", 4097) < 17
    if command[0] == "hom" and name != "hom fit":
        return (o.get("--points", 241) < 1 or o.get("--range-ps", 3.0) <= 0.0
                or o.get("--tauc-ps", 2.4) <= 0.0 or o.get("--n", 1.0) <= 0.0
                or _bad_splitting(o))
    if name == "tomo convert":
        return _bad_splitting(o) or _long_delay(o, o["--tau-fs"])
    if name in ("tomo simulate", "tomo metrics"):
        return ("--rho" not in o and _bad_state(o)
                or ("--tau-fs" in o) < ("--dw-thz" in o)
                or "--tau-fs" in o and (_bad_splitting(o)
                                        or _long_delay(o, o["--tau-fs"])))
    if name == "tomo table1":
        return (_bad_state(o) or _bad_splitting(o)
                or o.get("--tauc-ps", 2.4) <= 0.0
                or o.get("--taus-fs") == ""
                or any(_long_delay(o, float(t))
                       for t in o.get("--taus-fs", "0").split(",")))
    return False


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Input files the generated commands read, by the names the
    strategies give them, and an output directory."""
    inputs = tmp_path_factory.mktemp("inputs")
    for argv in (["hom", "synth", "--seed", "1"],
                 ["tomo", "simulate", "--seed", "1"],
                 ["tomo", "reconstruct", "--data",
                  str(inputs / "tomo_counts.csv")]):
        assert main(argv + ["--out-dir", str(inputs)]) == 0
    (inputs / "rho_freq.json").write_text(json.dumps(
        {"rho": rho_freq(0.5, 0.8, 0.3).to_json_dict()}))
    return {"@scan": inputs / "hom_synth.csv",
            "@counts": inputs / "tomo_counts.csv",
            "@freq": inputs / "rho_freq.json",
            "@pol": inputs / "tomo_rho.json",
            "@missing": inputs / "missing.json",
            "out": tmp_path_factory.mktemp("out")}


def test_every_subcommand_exits_by_the_contract(files):
    exits = []

    def run(command, options):
        argv = list(command)
        for flag, value in options.items():
            argv.append(f"{flag}={files.get(value, value)}")
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                rc = main(argv + ["--out-dir", str(files["out"]),
                                  "--timestamp", "2000-01-01T00:00:00+00:00"])
            except SystemExit as exc:           # argparse's own usage errors
                rc = exc.code
        if named_usage_error(command, options):
            assert rc == 2, argv
        else:
            assert rc in (0, 1, 2), argv
        exits.append((command, rc))

    def check_all(command):
        """``command``'s own draws of options, and its cases in FOUND."""
        @settings(max_examples=CASES_PER_COMMAND)
        @given(options=cases(command))
        def check(options):
            run(command, options)

        for found, options in FOUND:
            if found == command:
                check = example(options=options)(check)
        check()

    for command in sorted(COMMANDS):    # the subcommand first, then options
        check_all(command)
    # the generator reaches past the usage checks: a quarter of these
    # commands' cases run to the end
    for command in (("qpm", "tune"), ("spectrum",)):
        codes = [rc for c, rc in exits if c == command]
        assert sum(rc == 0 for rc in codes) >= len(codes) / 4, command
