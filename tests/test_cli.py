import json
import time
from dataclasses import fields
from fractions import Fraction

import pytest

from cuspedforms import quasicocycle as qcm
from cuspedforms.cli import main
from cuspedforms.config import RunConfig
from cuspedforms.graph import parse_vertex
from cuspedforms.quasicocycle import build_A


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines() if line]


def test_selfcheck(capsys):
    code, lines = run(capsys, "selfcheck")
    assert code == 0
    assert lines[0]["ok"] is True
    assert lines[0]["commutator_trace"] == -2


def test_graph_dist(capsys):
    code, lines = run(capsys, "graph", "dist", "e@0:0", "ABabABab@0:0")
    assert code == 0 and lines[0]["d"] == 2
    code, lines = run(capsys, "graph", "dist", "e@0:1", "ABabABab@0:1")
    assert code == 0 and lines[0]["d"] == 1


def test_graph_ball(capsys):
    code, lines = run(capsys, "graph", "ball", "e@0:0", "--r", "1")
    assert code == 0
    assert lines[0]["size"] == 10  # center plus its 9 neighbors


def test_graph_delta_reports_skipped(capsys):
    code, lines = run(capsys, "--set", "distance_cap=2", "graph", "delta",
                      "--samples", "50", "--radius", "4", "--seed", "3")
    assert code == 0
    assert lines[0]["delta_hat"] == "1/2" and lines[0]["skipped"] == 46


def test_eps_eval(capsys):
    code, lines = run(capsys, "eps", "eval", "e", "ab", "a")
    assert code == 0 and lines[0]["eps"] == 1
    code, lines = run(capsys, "eps", "eval", "e", "ba", "ab")
    assert code == 0 and lines[0]["eps"] == 0


def test_alpha_eval(capsys):
    code, lines = run(capsys, "alpha", "eval", "--f", "linear:1",
                      "e@0:0", "b@0:0", "ba@0:0")
    assert code == 0
    assert lines[0]["fill_method"] == "unit-simplex"


def test_alpha_am(capsys):
    code, lines = run(capsys, "alpha", "am", "--f", "linear:1", "--m", "5")
    assert code == 0
    assert lines[0]["ok"] is True
    assert lines[0]["expected_abs"] == "10"


def test_alpha_am_checks_the_sign(capsys):
    code, lines = run(capsys, "alpha", "am", "--f", "linear:-1", "--m", "5")
    assert code == 0
    assert lines[0]["value"] == lines[0]["expected"] == "-10"
    assert lines[0]["expected_abs"] == "10"
    assert lines[0]["ok"] is True


def test_alpha_am_fails_on_a_sign_error(capsys, monkeypatch):
    original = qcm.evaluate_on_Am
    monkeypatch.setattr(qcm, "evaluate_on_Am",
                        lambda qc, f, m: -original(qc, f, m))
    code, lines = run(capsys, "alpha", "am", "--f", "linear:1", "--m", "5")
    assert code == 1
    assert lines[0]["value"] == "-10"
    assert lines[0]["expected"] == "10"
    assert lines[0]["ok"] is False


def test_alpha_defect_deterministic(capsys):
    code, first = run(capsys, "alpha", "defect", "--f", "linear:1",
                      "--seed", "7", "--n", "50")
    code2, second = run(capsys, "alpha", "defect", "--f", "linear:1",
                        "--seed", "7", "--n", "50")
    assert code == code2 == 0
    assert first == second


def test_alpha_rank(capsys):
    code, lines = run(capsys, "alpha", "rank", "--f", "powfloor:1/2",
                      "--f", "linear:1", "--ms", "1,4,16")
    assert code == 0
    assert lines[0]["rank"] == 2


def test_cycles(capsys):
    code, lines = run(capsys, "cycles", "--m", "1")
    assert code == 0
    head = lines[0]
    assert head["K_m"] == 1
    assert head["boundary_A_zero"] is True
    assert head["A_norm"] is True  # the check dict overrides the raw value
    names = [ln["chain"] for ln in lines[1:]]
    assert names == ["c", "d_m", "e_m", "A_m"]


def test_config_override(capsys, tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("kappa = 8\ndepth_cap = 12\n# comment\n")
    code, lines = run(capsys, "--config", str(cfgfile), "selfcheck")
    assert code == 0 and lines[0]["ok"] is True


def test_bad_vertex_encoding(capsys):
    # a rejected input is one JSON error line and exit code 2, not a
    # traceback
    code, lines = run(capsys, "graph", "dist", "zz@0:0", "e@0:0")
    assert code == 2
    assert lines == [{"error": "ValueError",
                      "message": "bad letter 'z' in word 'zz'"}]
    code, lines = run(capsys, "graph", "dist", "e@0:-1", "a@0:0")
    assert code == 2
    assert lines == [{"error": "ValueError",
                      "message": "vertex 'e@0:-1' has a negative depth"}]


OUT_OF_RANGE = {
    "defect-n-0": (("alpha", "defect", "--f", "linear:1", "--n", "0"),
                   "count must be positive, got 0"),
    "defect-n-neg": (("alpha", "defect", "--f", "linear:1", "--n", "-5"),
                     "count must be positive, got -5"),
    "delta-samples": (("graph", "delta", "--samples", "-3"),
                      "sample size must be positive, got -3"),
    "delta-radius": (("graph", "delta", "--radius", "-2"),
                     "radius must be non-negative, got -2"),
    "ball-r": (("graph", "ball", "e@0:0", "--r", "-1"),
               "radius must be non-negative, got -1"),
    "certify-radii": (("alpha", "certify", "--f", "linear:1", "--radii",
                       "-1"), "radius must be non-negative, got -1"),
    "rank-ms": (("alpha", "rank", "--f", "linear:1", "--ms", "0"),
                "m must be at least 1"),
    "certify-ms": (("alpha", "certify", "--f", "linear:1", "--ms", "0"),
                   "m must be at least 1"),
}


@pytest.mark.parametrize("argv, message", OUT_OF_RANGE.values(),
                         ids=list(OUT_OF_RANGE))
def test_out_of_range_counts_and_radii_are_rejected(capsys, argv, message):
    # a count, radius or m out of range is refused before any work or
    # output: one JSON error line, exit code 2
    code, lines = run(capsys, *argv)
    assert code == 2
    assert lines == [{"error": "ValueError", "message": message}]


BAD_INPUTS = {
    "config-missing": (("--config", "/nonexistent", "selfcheck"),
                       "FileNotFoundError",
                       "[Errno 2] No such file or directory: '/nonexistent'"),
    "table-missing": (("alpha", "am", "--f", "table:/nonexistent.json",
                       "--m", "2"), "FileNotFoundError",
                      "[Errno 2] No such file or directory: "
                      "'/nonexistent.json'"),
    "periodic-not-json": (("alpha", "am", "--f", "periodic:5", "--m", "2"),
                          "FileNotFoundError",
                          "[Errno 2] No such file or directory: '5'"),
    "table-list": (("alpha", "am", "--f", "table:[1,2]", "--m", "2"),
                   "ValueError", "table: expected a JSON object x -> f(x)"),
    "periodic-object": (("alpha", "am", "--f", 'periodic:{"1":1}', "--m",
                         "2"), "ValueError",
                        "periodic: expected a JSON list, one period"),
    "table-null": (("alpha", "am", "--f", 'table:{"0":null}', "--m", "2"),
                   "ValueError",
                   'table: entry "0" must be a number, not null'),
    "table-array": (("alpha", "am", "--f", 'table:{"0":0,"1":[1]}', "--m",
                     "2"), "ValueError",
                    'table: entry "1" must be a number, not an array'),
    "table-infinity": (("alpha", "am", "--f", 'table:{"0":Infinity}', "--m",
                        "2"), "ValueError", 'table: entry "0" must be a '
                       "number, not NaN or an infinity"),
    "periodic-boolean": (("alpha", "am", "--f", "periodic:[true,0]", "--m",
                          "2"), "ValueError",
                         "periodic: entry 0 must be a number, not a boolean"),
    "periodic-object-entry": (("alpha", "am", "--f", 'periodic:[0,{"a":1}]',
                               "--m", "2"), "ValueError",
                              "periodic: entry 1 must be a number, not an "
                              "object"),
    "psi-moves-commutator": (("--set", "psi_images=a:b,b:a", "selfcheck"),
                             "ValueError",
                             "configured automorphism does not fix [a,b]"),
}


@pytest.mark.parametrize("argv, error, message", BAD_INPUTS.values(),
                         ids=list(BAD_INPUTS))
def test_bad_inputs_are_json_lines(capsys, argv, error, message):
    # a file that cannot be read or a spec of the wrong shape is a rejected
    # input: one JSON error line and exit code 2, not a traceback
    code, lines = run(capsys, *argv)
    assert code == 2
    assert lines == [{"error": error, "message": message}]


NUMERAL = ("numeral '{}' has more than 4300 digits or an exponent beyond "
           "+-4300")

#: inputs that ran for seconds to minutes, each now refused within the
#: time allowed: (argv, error, message, seconds allowed)
REFUSED_AT_ONCE = {
    "ball-deep": (("graph", "ball", "e@0:6", "--r", "2"), "DegreeOverflow",
                  "the ball of radius 2 about e@0:6 would list 69282502 "
                  "neighbours by radius 2, more than 4194304", 2),
    "ball-wide": (("graph", "ball", "e@0:0", "--r", "8"), "DegreeOverflow",
                  "the ball of radius 8 about e@0:0 would list 9145573 "
                  "neighbours by radius 7, more than 4194304", 2),
    "ball-depth-5": (("graph", "ball", "e@0:5", "--r", "2"),
                     "DegreeOverflow", "the ball of radius 2 about e@0:5 "
                     "would list 4475750 neighbours by radius 2, more than "
                     "4194304", 2),
    "certify-radius": (("alpha", "certify", "--f", "linear:1", "--radii",
                        "5"), "ValueError", "radius 5 has 18896570 "
                       "triples; at most radius 4 is certified", 2),
    "linear-exponent": (("alpha", "am", "--f", "linear:1e1000000000", "--m",
                         "2"), "ValueError", NUMERAL.format("1e1000000000"),
                        1),
    "const-exponent": (("alpha", "am", "--f", "const:-1e1000000000", "--m",
                        "2"), "ValueError", NUMERAL.format("-1e1000000000"),
                       1),
    "table-exponent": (("alpha", "am", "--f", 'table:{"0":1e1000000000}',
                        "--m", "2"), "ValueError",
                       NUMERAL.format("1e1000000000"), 1),
    "periodic-exponent": (("alpha", "am", "--f",
                           'periodic:["1e1000000000"]', "--m", "2"),
                          "ValueError", NUMERAL.format("1e1000000000"), 1),
    "khat-exponent": (("alpha", "certify", "--f", "linear:1", "--radii", "1",
                       "--ms", "2", "--khat", "1e1000000000"), "ValueError",
                      NUMERAL.format("1e1000000000"), 1),
}


@pytest.mark.parametrize("argv, error, message, seconds",
                         REFUSED_AT_ONCE.values(), ids=list(REFUSED_AT_ONCE))
def test_unbounded_work_is_refused_at_once(capsys, argv, error, message,
                                           seconds):
    start = time.perf_counter()
    code, lines = run(capsys, *argv)
    assert time.perf_counter() - start < seconds
    assert code == 2
    assert lines == [{"error": error, "message": message}]


AM_PAST_DEPTH_CAP = {
    "am": (("alpha", "am", "--f", "linear:1", "--m", "16777216"), 25),
    "certify": (("alpha", "certify", "--f", "linear:1", "--ms",
                 "2,16777216"), 25),
    "cycles": (("cycles", "--m", "1048576"), 21),
}


@pytest.mark.parametrize("argv, depth", AM_PAST_DEPTH_CAP.values(),
                         ids=list(AM_PAST_DEPTH_CAP))
def test_am_past_the_depth_cap_is_refused_at_once(capsys, argv, depth):
    # K_m > depth_cap is refused before a commutator word is built
    start = time.perf_counter()
    code, lines = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert lines == [{"error": "DegreeOverflow",
                      "message": f"depth {depth} exceeds cap 12"}]


def test_depth_cap_override_reaches_further_am(capsys):
    # m = 4096 has K_m = 13
    code, lines = run(capsys, "--set", "depth_cap=13", "alpha", "am",
                      "--f", "linear:1", "--m", "4096")
    assert code == 0
    assert lines[0]["value"] == "8192"
    code, lines = run(capsys, "--set", "depth_cap=13", "cycles",
                      "--m", "4096")
    assert code == 0
    assert lines[0]["K_m"] == 13 and lines[0]["boundary_A_zero"] is True


def test_certify_bound_sees_a_far_table_key(capsys):
    code, lines = run(capsys, "alpha", "certify", "--f",
                      'table:{"0":0,"300":0,"301":1}', "--radii", "1",
                      "--ms", "2")
    assert code == 0
    assert lines[0]["bound"] == "1/301"


def test_certify_bound_of_a_slow_powfloor(capsys):
    # floor(x^(1/10)) next jumps at 1024, past the probe span
    code, lines = run(capsys, "alpha", "certify", "--f", "powfloor:1/10",
                      "--radii", "1,2", "--ms", "2")
    assert code == 0
    assert [(ln["n"], ln["bound"]) for ln in lines[:2]] == [(0, "1"),
                                                           (1, "1/1023")]


def test_cap_errors_are_json_lines(capsys):
    # exit code 1 means a check failed; a hit cap is 2, as a bad input is
    code, lines = run(capsys, "--set", "distance_cap=2", "graph", "dist",
                      "e@0:0", "abab@0:0")
    assert code == 2
    assert lines == [{"error": "CapExceeded",
                      "message": "d(e@0:0,abab@0:0) > 2"}]
    code, lines = run(capsys, "graph", "dist", "e@0:0", "a@30:0")
    assert code == 2
    assert lines[0]["error"] == "PsiPowerCap"
    # a horoball vertex too deep to list is refused before any listing
    code, lines = run(capsys, "graph", "ball", "e@0:12", "--r", "1")
    assert code == 2
    assert lines == [{"error": "DegreeOverflow",
                      "message": "depth 12 has 33562624 neighbours, "
                                 "more than 65536"}]


DEAD_KEYS = {"filler": "lp", "rng_seed": "3", "rho_a": "1,1,1,2",
             "rho_b": "1,-1,-1,2", "fill_recursion_cap": "32",
             "lp_window_radius": "1", "lp_simplex_cap": "500",
             "psi_power_cap": "40", "psi_inverse_images": "a:Baa,b:Ab"}


@pytest.mark.parametrize("key, value", DEAD_KEYS.items(), ids=list(DEAD_KEYS))
def test_dead_keys_are_unknown_config_keys(capsys, tmp_path, key, value):
    # `filler` never reached FillEngine (the LP filler is reached through
    # FillEngine.fill_cycle_lp only), no module read `rng_seed`, no run
    # ever set the generator matrices `rho_a`/`rho_b` (now the constants
    # moebius.MAT_A and MAT_B), and no run set the fill depth cap, the LP
    # window radius or the LP simplex cap (now constants or per-call
    # defaults of cuspedforms.fill), the psi power cap guarded no power
    # that could run (words.MAX_WORD_LETTERS bounds the word built
    # instead), and psi's inverse images are derived from its images; a
    # config that sets any of them fails instead of silently changing
    # nothing
    with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
        RunConfig.from_dict({key: value})
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"{key} = {value}\n")
    code, lines = run(capsys, "--config", str(cfgfile), "selfcheck")
    assert code == 2
    assert lines == [{"error": "ValueError",
                      "message": f"unknown config key '{key}'"}]


PSI_SQUARED = {"psi_images": "a:babba,b:babbabab"}

#: for each RunConfig field: the values set, where the built quasi-cocycle
#: carries the field, and the value expected there
REACHES = {
    "kappa": ({"kappa": "3"}, lambda qc: qc.engine.kappa, 3),
    "depth_cap": ({"depth_cap": "9"}, lambda qc: qc.engine.graph.depth_cap,
                  9),
    "distance_cap": ({"distance_cap": "17"},
                     lambda qc: qc.engine.graph.distance_cap, 17),
    "psi_images": (PSI_SQUARED, lambda qc: qc.engine.graph.psi.images["a"],
                   "babba"),
}


BAD_PSI_IMAGES = {
    "a:ba": "psi images need exactly the keys a and b, got ['a']",
    "a:ba,b:bab,c:a": "psi images need exactly the keys a and b, "
                      "got ['a', 'b', 'c']",
    "a:ba,a:bab": "psi_images names 'a' twice",
    "a:bx,b:bab": "bad letter 'x' in word 'bx'",
    "a:ab,b:ba": "psi images ab, ba are not a basis of F(a,b)",
}


@pytest.mark.parametrize("text, message", BAD_PSI_IMAGES.items(),
                         ids=list(BAD_PSI_IMAGES))
def test_bad_psi_images_are_rejected(capsys, text, message):
    # psi's images are outside input: a missing or extra key, a letter
    # outside aAbB and a pair that is not a basis of F(a,b) are refused as
    # a bad input (exit code 2), not as a failed check or a traceback
    with pytest.raises(ValueError) as err:
        RunConfig.from_dict({"psi_images": text})
    assert str(err.value) == message
    code, lines = run(capsys, "--set", f"psi_images={text}", "selfcheck")
    assert code == 2
    assert lines == [{"error": "ValueError", "message": message}]


@pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)])
def test_every_config_key_reaches_the_engine(name):
    # a key that reaches nothing (like the deleted `filler` and `rng_seed`)
    # has no entry here and fails
    assert name in REACHES, f"config key {name!r} reaches nothing"
    values, read, expected = REACHES[name]
    assert read(RunConfig().build()) != expected
    assert read(RunConfig.from_dict(values).build()) == expected


def test_cycles_terms_are_shift_keyed(capsys, graph):
    code, lines = run(capsys, "cycles", "--m", "3")
    assert code == 0
    terms = {ln["chain"]: ln["terms"] for ln in lines[1:]}
    assert all(set(t) == {"shift", "simplex", "coeff"}
               for chain in terms.values() for t in chain)
    keys = {(t["shift"], tuple(parse_vertex(v) for v in t["simplex"])):
            Fraction(t["coeff"]) for t in terms["A_m"]}
    assert keys == build_A(graph, 3).terms
    assert {t["shift"] for t in terms["c"]} == {0}


def test_alpha_certify(capsys):
    code, lines = run(capsys, "alpha", "certify", "--f", "powfloor:1/2",
                      "--radii", "1,2", "--ms", "2,4")
    assert code == 0
    bah = [ln for ln in lines if ln["table"] == "bah_upper_bound"]
    assert [ln["radius"] for ln in bah] == [1, 2]
    assert [ln["n"] for ln in bah] == [0, 1]
    assert [ln["bound"] for ln in bah] == ["1", "1/3"]
    assert all(ln["vanishes"] for ln in bah)
    rows = [ln for ln in lines if ln["table"] == "nontriviality"]
    assert [(ln["m"], ln["value"], ln["am_norm"], ln["ratio"])
            for ln in rows] == [(2, "2", "11", "2/11"),
                                (4, "4", "23/2", "8/23")]
