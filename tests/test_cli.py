import json
import warnings
from fractions import Fraction

import pytest

import kronflow.dynamics as dynamics
from kronflow.cli import _parse_sequence, main
from kronflow.errors import UnsupportedStructureError, ValidationError
from kronflow.frequency import parse_frequency_spec
from kronflow.solenoid_geometry import TorusPoint, is_member, to_coordinates


SOLENOID_SPEC = '{"kind": "solenoid", "generator": "1", "a": {"prefix": [1, 2], "tail": {"constant": 2}}}'
SQRT_SPEC = '{"kind": "finite", "terms": [{"1": "1"}, {"sqrt2": "1"}]}'
BO_SPEC = '{"beta": {"name": "b", "kind": "opaque"}, "s": {"prefix": [], "tail": {"c": "1/2", "r": "1/2"}}}'
POLY = '{"terms": [{"cos": {"1": 1, "2": -1}}]}'


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_classify(tmp_path, capsys):
    spec = tmp_path / "sol.json"
    spec.write_text(SOLENOID_SPEC)
    code, out = run(capsys, "classify", str(spec), "--depth", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["free"] is False and payload["rank"] == 1
    assert payload["closure"][0]["solenoid"]["pairs"][0]["exp"] == "inf"


def test_classify_deterministic(tmp_path, capsys):
    spec = tmp_path / "sol.json"
    spec.write_text(SOLENOID_SPEC)
    _, first = run(capsys, "classify", str(spec))
    _, second = run(capsys, "classify", str(spec))
    assert first == second


def test_reduce(capsys):
    code, out = run(capsys, "reduce", "--nu", "4,6,10")
    assert code == 0
    payload = json.loads(out)
    assert payload["gcd"] == 2
    assert payload["result"] == {"1": 2}
    assert payload["pass_sums"][0] > payload["pass_sums"][-1]


def test_reduce_trail_is_bounded(capsys):
    code, out = run(capsys, "reduce", "--nu", "1,100000")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["steps"]) <= 2
    sums = payload["pass_sums"]
    assert len(sums) == 100_001
    assert all(x > y for x, y in zip(sums, sums[1:]))


def test_depth_beyond_a_finite_spec_is_clamped(tmp_path, capsys):
    spec = tmp_path / "f.json"
    spec.write_text('{"kind": "finite", "terms": [{"1": "1"}, {"sqrt2": "1"}, {"1": "1/3"}]}')
    code, out = run(capsys, "resonance", str(spec), "--depth", "8")
    assert code == 0
    assert json.loads(out) == {"depth": 3, "rank": 1, "vectors": [{"1": 1, "3": -3}]}
    code, out = run(capsys, "reduce-flow", str(spec), "--depth", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["depth"] == 3 and payload["zero_rank"] == 1
    assert payload["nonresonance_scope"] == "global"
    _, at_length = run(capsys, "reduce-flow", str(spec), "--depth", "3")
    assert out == at_length


def test_simulate_clamps_depth_to_a_finite_spec(tmp_path, capsys):
    spec = tmp_path / "f.json"
    spec.write_text('{"kind": "finite", "terms": [{"1": "1"}, {"sqrt2": "1"}, {"1": "1/3"}]}')
    csvs = []
    for depth in ("8", "3"):
        out_csv = tmp_path / f"traj{depth}.csv"
        code, out = run(capsys, "simulate", str(spec), "--t1", "10", "--steps", "5", "--depth", depth, "--out", str(out_csv))
        assert code == 0
        assert json.loads(out) == {"depth": 3, "out": str(out_csv), "steps": 5}
        csvs.append(out_csv.read_text())
    assert csvs[0].splitlines()[0] == "t,theta_1,theta_2,theta_3"
    assert csvs[0] == csvs[1]


def test_every_subcommand_prints_the_depth_it_used(tmp_path, capsys):
    """--depth past a finite vector is clamped to its length, and the report
    says so: ``classify`` used to print the requested depth."""
    spec = tmp_path / "f.json"
    spec.write_text('{"kind": "finite", "terms": [{"1": "1"}, {"sqrt2": "1"}, {"1": "1/3"}]}')
    simulate = ["simulate", "--t1", "1", "--steps", "2", "--out", str(tmp_path / "t.csv")]
    for argv in (["classify"], ["resonance"], ["reduce-flow"], simulate):
        code, out = run(capsys, argv[0], str(spec), *argv[1:], "--depth", "16")
        assert code == 0 and json.loads(out)["depth"] == 3, argv


def test_shared_parser_does_not_leak_between_calls(tmp_path, capsys, monkeypatch):
    """main reads each argv afresh (cli._read_argv, or an argparse parser
    built for that call): appended --nu lists, the --T default and
    --precision must not carry from one call into the next."""
    monkeypatch.delenv("KRON_PRECISION", raising=False)
    for name, text in (("s2.json", SQRT_SPEC), ("sol.json", SOLENOID_SPEC), ("cancel.json", CANCEL_SPEC)):
        (tmp_path / name).write_text(text)
    (tmp_path / "p.json").write_text(POLY)
    s2, sol, cancel, poly = (str(tmp_path / n) for n in ("s2.json", "sol.json", "cancel.json", "p.json"))
    calls = [
        ["equidistribution", s2, "--nu", "1,-1", "--nu", "1,0", "--nu", "0,1", "--depth", "2"],
        ["equidistribution", s2, "--nu", "1,1", "--depth", "2"],
        ["average", s2, "--poly", poly, "--T", "50", "500", "--depth", "2"],
        ["average", s2, "--poly", poly, "--depth", "2"],
        ["classify", sol, "--depth", "8"],
        ["solenoid", "times", "--a", "1,2", "--tau", "1/4", "--digits", "1"],
        ["--precision", "200", "equidistribution", cancel, "--nu=1,1", "--T", "100", "--depth", "2"],
        ["equidistribution", cancel, "--nu=1,1", "--T", "100", "--depth", "2"],
    ]
    rounds = [[run(capsys, *argv) for argv in calls] for _ in range(2)]
    assert rounds[0] == rounds[1]
    outs = rounds[0]
    assert [code for code, _ in outs] == [0, 0, 0, 0, 0, 0, 0, 1]  # 64 bits cannot resolve cancel.json
    assert len(json.loads(outs[0][1])["rows"]) == 9
    assert [r["nu"] for r in json.loads(outs[1][1])["rows"]] == [{"1": 1, "2": 1}] * 3
    assert [r["T"] for r in json.loads(outs[2][1])["rows"]] == [50.0, 500.0]
    assert [r["T"] for r in json.loads(outs[3][1])["rows"]] == [100.0, 1000.0, 10000.0]


def test_resonance_and_reduce_flow(tmp_path, capsys):
    spec = tmp_path / "h.json"
    spec.write_text('{"kind": "finite", "terms": [{"1": "1"}, {"1": "1/2"}, {"1": "1/3"}]}')
    code, out = run(capsys, "resonance", str(spec), "--depth", "3")
    assert code == 0 and json.loads(out)["rank"] == 2
    code, out = run(capsys, "reduce-flow", str(spec), "--depth", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["zero_rank"] == 2 and payload["nonzero_block_independent"] is True


def test_average_and_equidistribution(tmp_path, capsys):
    spec = tmp_path / "s2.json"
    spec.write_text(SQRT_SPEC)
    poly = tmp_path / "p.json"
    poly.write_text(POLY)
    code, out = run(capsys, "average", str(spec), "--poly", str(poly), "--T", "1000", "--depth", "2")
    assert code == 0
    payload = json.loads(out)
    row = payload["rows"][0]
    assert abs(row["value"]) <= row["envelope"] + 1e-12
    code, out = run(capsys, "equidistribution", str(spec), "--nu", "1,-1", "--T", "100", "1000", "--depth", "2")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert all(r["pass"] for r in rows)


def test_solenoid_subcommands(capsys):
    code, out = run(capsys, "solenoid", "member", "--a", "1,2,2", "--theta", "1/4,5/8,5/16")
    assert code == 0 and json.loads(out)["member"] is True
    code, out = run(capsys, "solenoid", "coords", "--a", "1,2", "--theta", "1/4,5/8")
    assert code == 0 and json.loads(out) == {"tau": "1/4", "digits": [1]}
    code, out = run(capsys, "solenoid", "times", "--a", "1,2", "--tau", "1/4", "--digits", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["times"] == ["1/4", "5/4"] and payload["target"] == ["1/4", "5/8"]


@pytest.mark.parametrize("digits", [[], ["--digits", ""]], ids=["absent", "empty"])
def test_solenoid_times_without_digits_names_the_flag(capsys, digits):
    """Depth 1 has no relation: the error names --digits, not the membership
    check that would otherwise reject the reconstructed point."""
    code = main(["solenoid", "times", "--a", "1,2", "--tau", "1/3", *digits])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "error: solenoid times needs --digits" in captured.err and "Traceback" not in captured.err


# --theta entries the CLI reads as the library does: outside [0,1), not in
# lowest terms, decimals and exponents, padded; members and non-members
ODD_THETAS = {
    "outside [0,1)": ("1,2,2", "5/4,-3/8,5/16"),
    "negative tau": ("1,2,3", "-1/3,1/3,1/9"),
    "not in lowest terms": ("1,2,2", "2/8,10/16,10/32"),
    "not in lowest terms, denominators that do not divide": ("1,2,3", "-1/3,2/6,7/63"),
    "decimals and exponents": ("1,2,2", "0.25,+0.625e0,3125E-4"),
    "padded": ("1,2,2", " 1/4 ,\t10/16,  -11/16 "),
    "unreduced, other digits": ("1,2,2", "2/4,6/8,6/16"),
    "non-member, decimals": ("1,2,2", "0.25,0.5,1/8"),
    "non-member, unreduced": ("1,2,3", "2/6,4/12,1/9"),
    "depth 1": ("1,2", "5/4"),
    "zero denominator": ("1,2", "1/4,1/0"),
    "negative denominator": ("1,2", "1/4,1/-2"),
}


def _library_result(op, a, text):
    """The payload or ``error:`` line the library gives for ``--theta text``."""
    try:
        theta = TorusPoint.exact_point(text.split(","))
        if op == "coords":
            return 0, to_coordinates(_parse_sequence(a), theta).to_json()
        verdict = is_member(_parse_sequence(a), theta)
        return 0, {"member": verdict, "depth": theta.depth,
                   "verdict": f"member at depth {theta.depth}" if verdict else "not a member"}
    except ValidationError as exc:
        return 1, f"error: {exc}"


@pytest.mark.parametrize("op", ["member", "coords"])
@pytest.mark.parametrize("a, text", list(ODD_THETAS.values()), ids=list(ODD_THETAS))
def test_solenoid_theta_entries_read_as_the_library_reads_them(capsys, op, a, text):
    code = main(["solenoid", op, "--a", a, "--theta=" + text])  # "=": an entry may start with "-"
    captured = capsys.readouterr()
    got = json.loads(captured.out) if code == 0 else captured.err.splitlines()[-1]
    assert (code, got) == _library_result(op, a, text)


def _factorial_theta(depth):
    """The factorial member with tau = 5/7 and n_j = (j^2 + 1) mod j, as ``--theta`` text."""
    theta = [Fraction(5, 7)]
    for j in range(2, depth + 1):
        theta.append((theta[-1] + (j * j + 1) % j) / j)
    return ",".join(map(str, theta))


def test_solenoid_member_builds_no_fraction_per_entry(monkeypatch, capsys):
    """``member`` reads --theta as integer pairs and makes as many Fractions
    at depth 128 as at depth 16; ``coords`` makes at most one more (tau)."""
    factorial = '{"prefix": [1], "tail": "increment"}'
    thetas = {depth: _factorial_theta(depth) for depth in (16, 128)}
    original = Fraction.__new__
    made = []

    def counting_new(cls, *args, **kwargs):
        made.append(cls)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    counts = {}
    for op in ("member", "coords"):
        for depth, text in thetas.items():
            made.clear()
            assert main(["solenoid", op, "--a", factorial, "--theta", text]) == 0
            counts[op, depth] = len(made)
    monkeypatch.undo()
    capsys.readouterr()
    assert counts["member", 16] == counts["member", 128], counts
    assert counts["coords", 16] == counts["coords", 128] <= counts["member", 16] + 1, counts


def test_simulate_csv(tmp_path, capsys):
    spec = tmp_path / "s2.json"
    spec.write_text(SQRT_SPEC)
    out_csv = tmp_path / "traj.csv"
    code, _ = run(capsys, "simulate", str(spec), "--t1", "1.0", "--steps", "4", "--depth", "2", "--out", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "t,theta_1,theta_2"
    assert len(lines) == 6
    import math

    for line in lines[1:]:
        angles = [float(x) for x in line.split(",")[1:]]
        assert all(0 <= a < 2 * math.pi for a in angles)


def test_bo_subcommand(tmp_path, capsys):
    spec = tmp_path / "bo.json"
    spec.write_text(BO_SPEC)
    code, out = run(capsys, "bo", str(spec), "--depth", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["closure"][0] == "circle"
    assert payload["closure"][1]["solenoid"]["pairs"][0]["primes"] == [2]


def test_iso_subcommand(tmp_path, capsys):
    s1 = tmp_path / "a.json"
    s1.write_text('{"kind": "solenoid", "a": {"prefix": [1], "tail": "increment"}}')
    s2 = tmp_path / "b.json"
    s2.write_text('{"kind": "solenoid", "a": {"prefix": [1], "tail": "odd_indexed_primes"}}')
    code, out = run(capsys, "iso", str(s1), str(s2))
    assert code == 0 and json.loads(out)["homeomorphic"] is False
    code, out = run(capsys, "iso", str(s1), str(s1))
    assert code == 0 and json.loads(out)["homeomorphic"] is True


def test_mixed_term_finite_spec_is_one_circle(tmp_path, capsys):
    # omega = 1 + sqrt2 on T^1: its span has rank 1
    mixed = tmp_path / "mixed.json"
    mixed.write_text('{"kind":"finite","terms":[{"1":"1","sqrt2":"1"}]}')
    unit = tmp_path / "unit.json"
    unit.write_text('{"kind":"finite","terms":[{"1":"1"}]}')
    code, out = run(capsys, "classify", str(mixed))
    assert code == 0 and json.loads(out)["closure"] == ["circle"]
    code, out = run(capsys, "iso", str(mixed), str(unit))
    assert code == 0 and json.loads(out)["homeomorphic"] is True


def test_exit_code_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "finite"}')
    code, _ = run(capsys, "classify", str(bad))
    assert code == 1
    code, _ = run(capsys, "classify", str(tmp_path / "missing.json"))
    assert code == 1


def test_exit_code_unsupported_structure(tmp_path, capsys, monkeypatch):
    # unsupported-structure failures surface as exit code 2
    import kronflow.cli as cli_mod

    spec = tmp_path / "sol.json"
    spec.write_text(SOLENOID_SPEC)

    def boom(*args, **kwargs):
        raise UnsupportedStructureError("synthetic")

    monkeypatch.setattr(cli_mod, "classification_report", boom)
    code, _ = run(capsys, "classify", str(spec))
    assert code == 2


def test_precision_floor(tmp_path, capsys):
    spec = tmp_path / "sol.json"
    spec.write_text(SOLENOID_SPEC)
    code, _ = run(capsys, "--precision", "12", "classify", str(spec))
    assert code == 1


def test_precision_below_the_working_floor_is_rejected(tmp_path, capsys, monkeypatch):
    # 53..63 bits used to pass the CLI check and run silently at 64
    spec = tmp_path / "sol.json"
    spec.write_text(SOLENOID_SPEC)
    monkeypatch.delenv("KRON_PRECISION", raising=False)
    assert main(["--precision", "60", "classify", str(spec)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "error: precision must be >= 64 bits, got 60" in captured.err
    monkeypatch.setenv("KRON_PRECISION", "60")
    assert main(["classify", str(spec)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "error: precision must be >= 64 bits, got 60" in captured.err


def test_precision_env_override(tmp_path, capsys, monkeypatch):
    spec = tmp_path / "s2.json"
    spec.write_text(SQRT_SPEC)
    monkeypatch.setenv("KRON_PRECISION", "128")
    code, _ = run(capsys, "resonance", str(spec), "--depth", "2")
    assert code == 0
    monkeypatch.setenv("KRON_PRECISION", "10")
    code, _ = run(capsys, "resonance", str(spec), "--depth", "2")
    assert code == 1


def _one_call_of_each_subcommand(tmp_path) -> dict[str, list[str]]:
    """A call of each of the ten subcommands that succeeds at the default
    precision."""
    spec = tmp_path / "s2.json"
    spec.write_text(SQRT_SPEC)
    bo = tmp_path / "bo.json"
    bo.write_text(BO_SPEC)
    poly = tmp_path / "p.json"
    poly.write_text(POLY)
    s = str(spec)
    return {
        "classify": ["classify", s],
        "resonance": ["resonance", s],
        "reduce": ["reduce", "--nu", "4,6"],
        "reduce-flow": ["reduce-flow", s],
        "simulate": ["simulate", s, "--t1", "1", "--steps", "2", "--out", str(tmp_path / "t.csv")],
        "average": ["average", s, "--poly", str(poly), "--depth", "2"],
        "equidistribution": ["equidistribution", s, "--nu", "1,-1", "--depth", "2"],
        "solenoid": ["solenoid", "coords", "--a", "1,2", "--theta", "1/4,5/8"],
        "bo": ["bo", str(bo)],
        "iso": ["iso", s, s],
    }


def test_depth_zero_rejected_by_every_subcommand(tmp_path, capsys):
    for name, argv in _one_call_of_each_subcommand(tmp_path).items():
        if name in ("reduce", "solenoid"):  # no --depth
            continue
        code = main(argv + ["--depth", "0"])
        err = capsys.readouterr().err
        assert code == 1, argv
        assert "error: depth must be >= 1, got 0" in err, argv


PRECISION_ERRORS = {  # (argv prefix, KRON_PRECISION, message)
    "--precision 60": (["--precision", "60"], None, "precision must be >= 64 bits, got 60"),
    "KRON_PRECISION=abc": ([], "abc", "KRON_PRECISION must be an integer, got 'abc'"),
}


@pytest.mark.parametrize("setting", list(PRECISION_ERRORS))
def test_precision_checked_by_every_subcommand(tmp_path, capsys, monkeypatch, setting):
    prefix, env, message = PRECISION_ERRORS[setting]
    for name, argv in _one_call_of_each_subcommand(tmp_path).items():
        monkeypatch.delenv("KRON_PRECISION", raising=False)
        assert main(argv) == 0, name
        capsys.readouterr()
        if env is not None:
            monkeypatch.setenv("KRON_PRECISION", env)
        code = main(prefix + argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "", name
        assert captured.err.splitlines()[-1] == "error: " + message, name


# omega_1 = 10^19 sqrt2 - 14142135623730950488, about 0.0168872, is exactly 0 at 64 bits
ONE_TERM_CANCEL_SPEC = '{"kind": "finite", "terms": [{"1": "-14142135623730950488", "sqrt2": "10000000000000000000"}]}'


@pytest.mark.parametrize("setting", ["--precision", "KRON_PRECISION"])
def test_precision_reaches_every_float_subcommand(tmp_path, capsys, monkeypatch, setting):
    spec = tmp_path / "cancel1.json"
    spec.write_text(ONE_TERM_CANCEL_SPEC)
    poly = tmp_path / "cos1.json"
    poly.write_text('{"terms": [{"cos": {"1": 1}}]}')
    out = tmp_path / "t.csv"
    monkeypatch.delenv("KRON_PRECISION", raising=False)
    prefix = ["--precision", "200"]
    if setting == "KRON_PRECISION":
        monkeypatch.setenv("KRON_PRECISION", "200")
        prefix = []
    s = str(spec)
    code, _ = run(capsys, *prefix, "simulate", s, "--t1", "100", "--steps", "2", "--depth", "1", "--theta0", "0",
                  "--out", str(out))
    assert code == 0 and out.read_text().splitlines()[2] == "50,0.844362104849"
    code, payload = run(capsys, *prefix, "average", s, "--poly", str(poly), "--depth", "1")
    assert code == 0 and abs(json.loads(payload)["rows"][0]["envelope"] - 1.18433) < 1e-5
    code, payload = run(capsys, *prefix, "equidistribution", s, "--nu", "1", "--T", "100", "--depth", "1")
    assert code == 0 and json.loads(payload)["rows"][0]["pass"] is True


def test_simulate_names_an_omega_that_cancels_to_0(tmp_path, capsys, monkeypatch):
    """At 64 bits omega_1 of the one-term spec cancels to 0, which ``simulate``
    rejects as ``average`` does; at 200 bits it runs (see above)."""
    monkeypatch.delenv("KRON_PRECISION", raising=False)
    spec = tmp_path / "cancel1.json"
    spec.write_text(ONE_TERM_CANCEL_SPEC)
    out = tmp_path / "t.csv"
    code = main(["simulate", str(spec), "--t1", "100", "--steps", "2", "--depth", "1", "--theta0", "0",
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and not out.exists()
    assert captured.err.splitlines()[-1] == "error: omega_1 rounds to 0 at 64 bits; raise --precision"


# omega_1 = 10^19 sqrt2 - 14142135623730950489, about -0.98311: 10^19 sqrt2 at 64
# bits is 14142135623730950488 exactly, so a 64-bit sum reads -1.0, while
# |omega_1| 2^64 is below the terms' 2.8e19: the cancellation ate every working bit
ONE_TERM_NEAR_CANCEL_SPEC = (
    '{"kind": "finite", "terms": [{"1": "-14142135623730950489", "sqrt2": "10000000000000000000"}]}')


def test_an_omega_cancelled_past_the_working_bits_is_an_error(tmp_path, capsys, monkeypatch):
    """Not only an exact 0: an omega_j whose nonempty coordinates cancel
    below the working bits is named by ``simulate``, and its nu = e_1 by
    ``average`` and ``equidistribution``; each runs at 200 bits."""
    monkeypatch.delenv("KRON_PRECISION", raising=False)
    spec = tmp_path / "near1.json"
    spec.write_text(ONE_TERM_NEAR_CANCEL_SPEC)
    poly = tmp_path / "cos1.json"
    poly.write_text('{"terms": [{"cos": {"1": 1}}]}')
    out = tmp_path / "t.csv"
    s = str(spec)
    simulate = ["simulate", s, "--t1", "1", "--steps", "1", "--depth", "1", "--theta0", "0", "--out", str(out)]
    average = ["average", s, "--poly", str(poly), "--depth", "1"]
    equidistribution = ["equidistribution", s, "--nu", "1", "--T", "100", "--depth", "1"]
    for argv, message in ((simulate, "omega_1 rounds to 0 at 64 bits; raise --precision"),
                          (average, "omega . nu for non-resonant nu {'1': -1} rounds to 0 at 64 bits; "
                                    "raise --precision"),
                          (equidistribution, "omega . nu for non-resonant nu {'1': 1} rounds to 0 at 64 bits; "
                                             "raise --precision")):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and not out.exists(), argv[0]
        assert captured.err.splitlines()[-1] == "error: " + message, argv[0]
    bound = 2 / (100 * 0.98311275790301921430)  # 2 / (T |omega_1|)
    code, _ = run(capsys, "--precision", "200", *simulate)
    assert code == 0 and out.read_text().splitlines()[2] == "1,5.30007254928"
    code, payload = run(capsys, "--precision", "200", *average)
    assert code == 0 and abs(json.loads(payload)["rows"][0]["envelope"] - bound) < 1e-15
    code, payload = run(capsys, "--precision", "200", *equidistribution)
    assert code == 0 and abs(json.loads(payload)["rows"][0]["bound"] - bound) < 1e-15


def test_empty_and_underflowing_omegas_stay_0():
    """An index with no coordinates (the product's index 3) and an omega that
    underflows a double (1/200! on the factorial rule) flow as a real 0."""
    product = parse_frequency_spec(
        '{"kind": "product", "components": [{"free": "1"}, {"qa": {"prefix": [1], "tail": {"constant": 2}}}]}')
    assert dynamics.flow(product, TorusPoint.origin(4), 1.0).angles[2] == 0.0
    factorial = parse_frequency_spec('{"kind": "solenoid", "a": {"prefix": [1], "tail": "increment"}}')
    assert dynamics.flow(factorial, TorusPoint.origin(200), 1.0).angles[199] == 0.0


def test_malformed_sequence_entry_is_validation_error(tmp_path, capsys):
    spec = tmp_path / "sol.json"
    spec.write_text('{"kind": "solenoid", "generator": "1", "a": {"prefix": ["x"], "tail": {"constant": 2}}}')
    code = main(["classify", str(spec)])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: sequence entry must be an integer, got 'x'" in err


def test_malformed_precision_env_is_validation_error(capsys, monkeypatch):
    monkeypatch.setenv("KRON_PRECISION", "abc")
    code = main(["reduce", "--nu", "4,6"])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: KRON_PRECISION must be an integer, got 'abc'" in err


CANCEL_SPEC = '{"kind":"finite","terms":[{"1":"-14142135623730950488"},{"sqrt2":"10000000000000000000"}]}'


def test_failed_simulate_keeps_existing_out_file(tmp_path, capsys):
    spec = tmp_path / "s2.json"
    spec.write_text(SQRT_SPEC)
    out = tmp_path / "keep.csv"
    out.write_text("t,theta_1\n0,1\n")
    for bad in (["--steps", "0"], ["--steps", "4", "--theta0", "0,0,0", "--depth", "2"]):
        code = main(["simulate", str(spec), "--t1", "1", "--out", str(out)] + bad)
        err = capsys.readouterr().err
        assert code == 1 and "error:" in err, bad
        assert out.read_text() == "t,theta_1\n0,1\n", bad


def test_precision_reaches_equidistribution(tmp_path, capsys):
    spec = tmp_path / "cancel.json"
    spec.write_text(CANCEL_SPEC)
    argv = ["equidistribution", str(spec), "--nu=1,1", "--T", "100", "--depth", "2"]
    code, out = run(capsys, "--precision", "200", *argv)
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert abs(row["bound"] - 1.18433) < 1e-5 and row["pass"] is True


def test_nu_dot_omega_rounding_to_zero_is_validation_error(tmp_path, capsys):
    spec = tmp_path / "cancel.json"
    spec.write_text(CANCEL_SPEC)
    argv = ["equidistribution", str(spec), "--nu=1,1", "--T", "100", "--depth", "2"]
    code = main(["--precision", "64", *argv])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err and "--precision" in err and "Traceback" not in err


OPAQUE_NOT_A_NUMERAL = (
    '{"kind": "finite", "generators": [{"name": "b", "kind": "opaque",'
    ' "value": "123456789012345678901234567890abc"}], "terms": [{"b": "1"}, {"1": "1"}]}'
)
# each input used to escape cli.main as a TypeError/ValueError traceback;
# "@<json>" is written to a file whose path replaces it
MALFORMED_INPUTS = {
    "solenoid prefix": ["classify", '@{"kind": "solenoid", "a": {"prefix": 5, "tail": {"constant": 2}}}'],
    "periodic tail": ["classify", '@{"kind": "solenoid", "a": {"prefix": [1], "tail": {"periodic": 5}}}'],
    "generators": ["classify", '@{"kind": "finite", "generators": 5, "terms": [{"1": "1"}]}'],
    "components": ["classify", '@{"kind": "product", "components": 5}'],
    "opaque value": [
        "classify",
        '@{"kind": "finite", "generators": [{"name": "b", "kind": "opaque", "value": 5}], "terms": [{"b": "1"}]}',
    ],
    "bo prefix": ["classify", '@{"kind": "bo", "s": {"prefix": 5}}'],
    # a 30-digit value that is not a number: classify exited 0, the float paths with a traceback
    "opaque value not a numeral": ["classify", "@" + OPAQUE_NOT_A_NUMERAL],
    "opaque value not a numeral, average": ["average", "@" + OPAQUE_NOT_A_NUMERAL, "--poly", "@" + POLY],
    "poly terms": ["average", "@" + SQRT_SPEC, "--poly", '@{"terms": 5}'],
    "poly term": ["average", "@" + SQRT_SPEC, "--poly", '@{"terms": [5]}'],
    "digits x": ["solenoid", "times", "--a", "1,2", "--tau", "1/4", "--digits", "x"],
    "digits empty entry": ["solenoid", "times", "--a", "1,2", "--tau", "1/4", "--digits", "1,,2"],
    "member prefix": ["solenoid", "member", "--a", '{"prefix":5,"tail":2}', "--theta", "1/2,1/4"],
}


# a term of each kind with a key it does not read: each used to be ignored
FOREIGN_POLY_TERMS = {
    "misspelt scale": {"cos": {"1": 1}, "scal": "5"},
    "two kinds": {"cos": {"1": 1}, "sin": {"2": 1}},
    "scale on a const": {"const": "1", "scale": "2"},
    "re on a sin": {"sin": {"2": 1}, "re": "1"},
    "scale on a nu": {"nu": {"1": 1}, "re": "1/2", "scale": "2"},
}


@pytest.mark.parametrize("term", list(FOREIGN_POLY_TERMS.values()), ids=list(FOREIGN_POLY_TERMS))
def test_polynomial_term_with_a_foreign_key_is_rejected(tmp_path, capsys, term):
    spec = tmp_path / "s.json"
    spec.write_text(SQRT_SPEC)
    poly = tmp_path / "p.json"
    poly.write_text(json.dumps({"terms": [{"const": "1"}, term]}))
    code = main(["average", str(spec), "--poly", str(poly), "--depth", "2"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error: terms[1] "), captured.err


@pytest.mark.parametrize("argv", list(MALFORMED_INPUTS.values()), ids=list(MALFORMED_INPUTS))
def test_malformed_input_is_validation_error(tmp_path, capsys, argv):
    args = []
    for k, arg in enumerate(argv):
        if arg.startswith("@"):
            path = tmp_path / f"in{k}.json"
            path.write_text(arg[1:])
            arg = str(path)
        args.append(arg)
    if args[0] != "solenoid":
        args += ["--depth", "4"]
    code = main(args)
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err and "Traceback" not in err


BO_DECLARED = (
    '{"kind": "bo", "generators": [{"name": "b", "kind": "opaque"}], "beta": "b",'
    ' "s": {"prefix": ["1/3"], "tail": {"c": "1/2", "r": "1/2"}}}'
)
BO_INLINE = (
    '{"kind": "bo", "beta": {"name": "b", "kind": "opaque"},'
    ' "s": {"prefix": ["1/3"], "tail": {"c": "1/2", "r": "1/2"}}}'
)


def test_bo_honours_declared_generators(tmp_path, capsys):
    declared = tmp_path / "declared.json"
    declared.write_text(BO_DECLARED)
    inline = tmp_path / "inline.json"
    inline.write_text(BO_INLINE)
    code, out = run(capsys, "bo", str(declared), "--depth", "8")
    assert code == 0
    code, want = run(capsys, "bo", str(inline), "--depth", "8")
    assert code == 0 and out == want
    code, classified = run(capsys, "classify", str(declared), "--depth", "8")
    assert code == 0 and json.loads(out)["module"] == json.loads(classified)


@pytest.mark.parametrize(
    "doc", ['{"kind": "finite", "s": {"prefix": []}}', '{"kind": 5, "s": {"prefix": []}}', SOLENOID_SPEC, "[1, 2]"]
)
def test_bo_rejects_other_kinds(tmp_path, capsys, doc):
    spec = tmp_path / "spec.json"
    spec.write_text(doc)
    code = main(["bo", str(spec), "--depth", "4"])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err and "Traceback" not in err


NONFINITE_TIMES = {
    "simulate t1 nan": ["simulate", "--t1", "nan", "--steps", "4"],
    "simulate t1 inf": ["simulate", "--t1", "inf", "--steps", "4"],
    "simulate t0 nan": ["simulate", "--t0", "nan", "--t1", "1", "--steps", "4"],
    "simulate t0 -inf": ["simulate", "--t0=-inf", "--t1", "1", "--steps", "4"],
    "simulate width overflow": ["simulate", "--t0=-1e308", "--t1", "1e308", "--steps", "4"],
    "simulate grid overflow": ["simulate", "--t1", "1e308", "--steps", "4"],
    "average T nan": ["average", "--poly", "POLY", "--T", "100", "nan"],
    "average T inf": ["average", "--poly", "POLY", "--T", "inf"],
    "equidistribution T nan": ["equidistribution", "--nu=1,-1", "--T", "nan"],
    "equidistribution T inf": ["equidistribution", "--nu=1,-1", "--T", "100", "inf"],
    # finite inputs whose nu . omega, |nu . omega| T or omega_j t overflows a double
    "equidistribution nu . omega overflow": ["equidistribution", f"--nu={10**400},0", "--T", "100"],
    "average nu . omega overflow": ["average", "--poly", "POLY_HUGE"],
    "equidistribution w T overflow": ["equidistribution", "--nu=4,4", "--T", "1e308"],
    "average w T overflow": ["average", "--poly", "POLY_44", "--T", "1e308"],
    "simulate omega t overflow": ["simulate", "--t1", "1.5e308", "--steps", "1"],
}
NONFINITE_POLYS = {
    "POLY": POLY,
    "POLY_HUGE": json.dumps({"terms": [{"cos": {"1": 10**400}}]}),
    "POLY_44": '{"terms": [{"cos": {"1": 4, "2": 4}}]}',
}


@pytest.mark.parametrize("argv", list(NONFINITE_TIMES.values()), ids=list(NONFINITE_TIMES))
def test_nonfinite_time_is_validation_error(tmp_path, capsys, argv):
    spec = tmp_path / "s2.json"
    spec.write_text(SQRT_SPEC)
    for name, text in NONFINITE_POLYS.items():
        (tmp_path / f"{name}.json").write_text(text)
    out = tmp_path / "traj.csv"
    args = [argv[0], str(spec), "--depth", "2"]
    args += [str(tmp_path / f"{a}.json") if a in NONFINITE_POLYS else a for a in argv[1:]]
    if argv[0] == "simulate":
        args += ["--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning fails the test
        code = main(args)
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" in captured.err and captured.out == ""
    assert not out.exists()


# one opaque generator of value 10^400: omega_1 itself overflows a double, which
# every float path names once, before it forms a step, a reach or an angle
HUGE_OMEGA_SPEC = json.dumps({
    "kind": "finite",
    "generators": [{"name": "huge", "kind": "opaque", "value": "1" + "0" * 400}],
    "terms": [{"huge": "1"}],
})
HUGE_OMEGA_CALLS = {
    "probe": lambda fv: dynamics.minimality_probe(fv, TorusPoint.exact_point(["1/3"]), 1, 1e-2, 10.0),
    "flow": lambda fv: dynamics.flow(fv, TorusPoint.origin(1), 0.0),
    "sample_trajectory": lambda fv: dynamics.sample_trajectory(fv, TorusPoint.origin(1), 0.0, 0.0, 1),
    "quadrature": lambda fv: dynamics.time_average_quadrature(fv, dynamics.TrigPolynomial.constant(1),
                                                              TorusPoint.origin(1), 1.0),
}


@pytest.mark.parametrize("call", list(HUGE_OMEGA_CALLS.values()), ids=list(HUGE_OMEGA_CALLS))
def test_omega_overflow_is_named_by_every_float_path(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=r"^omega_1 overflows a double$"):
            call(parse_frequency_spec(HUGE_OMEGA_SPEC))


@pytest.mark.parametrize("spec_text,depth,t1,message", [
    (HUGE_OMEGA_SPEC, "1", "1", "error: omega_1 overflows a double"),
    (SQRT_SPEC, "2", "1.5e308", "error: largest |omega_j t| must be finite, got inf"),  # finite omega, overflowing t
], ids=["omega overflow", "omega t overflow"])
def test_simulate_overflow_message(tmp_path, capsys, spec_text, depth, t1, message):
    spec = tmp_path / "spec.json"
    spec.write_text(spec_text)
    out = tmp_path / "traj.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", str(spec), "--t1", t1, "--steps", "1", "--depth", depth, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and not out.exists()
    assert message in captured.err.splitlines()


def test_average_and_equidistribution_evaluate_each_nu_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counting(fv, nu, table=None):
        calls.append(nu)
        return nu_dot_omega(fv, nu, table)

    nu_dot_omega = dynamics.nu_dot_omega
    monkeypatch.setattr(dynamics, "nu_dot_omega", counting)
    spec = tmp_path / "s2.json"
    spec.write_text(SQRT_SPEC)
    poly = tmp_path / "poly.json"
    poly.write_text(POLY)
    windows = ["--T", "100", "1000", "10000"]
    code, _ = run(capsys, "average", str(spec), "--poly", str(poly), "--depth", "2", *windows)
    assert code == 0 and len(calls) == 2 and len(set(calls)) == 2  # cos(nu) has nu and -nu
    calls.clear()
    code, _ = run(capsys, "equidistribution", str(spec), "--nu=1,-1", "--nu=2,1", "--depth", "2", *windows)
    assert code == 0 and len(calls) == 2 and len(set(calls)) == 2


@pytest.mark.parametrize("cmd", ["average", "equidistribution"])
def test_monomial_past_the_depth_fails_before_any_frequency(tmp_path, capsys, monkeypatch, cmd):
    def no_frequencies(fv, depth):
        raise AssertionError(f"frequencies up to index {depth} built before the depth check")

    monkeypatch.setattr(dynamics, "integer_rows", no_frequencies)
    spec = tmp_path / "halving.json"
    spec.write_text(SOLENOID_SPEC)
    poly = tmp_path / "far.json"
    poly.write_text('{"terms": [{"cos": {"1000000000": 1}}]}')
    if cmd == "average":
        argv = ["average", str(spec), "--poly", str(poly), "--T", "100"]
    else:  # resonant: the row flag needs no phase, the depth check still applies
        argv = ["equidistribution", str(spec), "--nu", ",".join(["0"] * 20) + ",1,-2", "--T", "100"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "beyond depth 16" in captured.err


@pytest.mark.parametrize("bad", ["2.7", "true", "2.0"])
def test_json_float_or_bool_integer_field_is_validation_error(tmp_path, capsys, bad):
    prefix = tmp_path / "prefix.json"
    prefix.write_text(
        '{"kind": "solenoid", "generator": "1", "a": {"prefix": [1, %s], "tail": {"constant": 2}}}' % bad
    )
    param = tmp_path / "param.json"
    param.write_text(
        '{"kind": "finite", "generators": [{"name": "r", "kind": "sqrt_prime", "param": %s}],'
        ' "terms": [{"1": "1"}, {"r": "1"}]}' % bad
    )
    for spec in (prefix, param):
        code = main(["classify", str(spec), "--depth", "4"])
        err = capsys.readouterr().err
        assert code == 1, spec.name
        assert f"must be an integer, got {json.loads(bad)!r}" in err, spec.name


def test_integer_fields_accept_ints_and_decimal_strings(tmp_path, capsys):
    outs = []
    for prefix, param in (("1, 2", "2"), ('"1", "2"', '"2"')):
        spec = tmp_path / "spec.json"
        spec.write_text(
            '{"kind": "product", "components": [{"qa": {"prefix": [%s], "tail": {"constant": 2}}}]}' % prefix
        )
        code, out = run(capsys, "classify", str(spec), "--depth", "4")
        assert code == 0
        outs.append(out)
        spec.write_text(
            '{"kind": "finite", "generators": [{"name": "r", "kind": "sqrt_prime", "param": %s}],'
            ' "terms": [{"1": "1"}, {"r": "1"}]}' % param
        )
        code, out = run(capsys, "classify", str(spec), "--depth", "2")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[2] and outs[1] == outs[3]


BETA_DIGITS = "0.318309886183790671537767526745028724068919"
BO_VALUED_SPEC = json.dumps({
    "kind": "bo",
    "generators": [{"name": "beta", "kind": "opaque", "value": BETA_DIGITS}],
    "beta": "beta",
    "s": {"prefix": ["1/3"], "tail": {"c": "1/2", "r": "1/2"}},
})


def test_bo_simulate_reads_beta_once_per_width(tmp_path, capsys, monkeypatch):
    """A d16 BO `simulate` reads beta's numeral once per mantissa width (the
    working width plus 64 guard bits), not once per omega_j, and the CSV is
    the same whether beta was read afresh."""
    import mpmath

    widths = []

    def counting(x=0, *args, **kwargs):
        if isinstance(x, str) and x == BETA_DIGITS:
            widths.append(mpmath.mp.prec)
        return mpf(x, *args, **kwargs)

    mpf = mpmath.mpf
    monkeypatch.setattr(mpmath, "mpf", counting)
    spec = tmp_path / "bo.json"
    spec.write_text(BO_VALUED_SPEC)
    csvs = []
    for precision in ("64", "200", "64"):
        out = tmp_path / f"traj{len(csvs)}.csv"
        code, _ = run(capsys, "--precision", precision, "simulate", str(spec), "--t1", "1e6", "--steps", "20",
                      "--depth", "16", "--out", str(out))
        assert code == 0
        csvs.append(out.read_bytes())
    assert widths == [128, 264, 128]  # one parse of the spec per call, one evaluation of beta per parse
    assert csvs[0] == csvs[2]
    fv = parse_frequency_spec(BO_VALUED_SPEC)
    first = dynamics.sample_trajectory(fv, TorusPoint.origin(16), 0.0, 1e6, 20)
    assert dynamics.sample_trajectory(fv, TorusPoint.origin(16), 0.0, 1e6, 20) == first
    assert widths == [128, 264, 128, 128, 128]  # each library call reads beta once per width


# omega_2 - omega_1 = 10^-31 exactly: below the near-resonance floor
NEAR_RESONANT_SPEC = json.dumps({"kind": "finite", "terms": [{"1": "1"}, {"1": "1" + "0" * 30 + "1/1" + "0" * 31}]})
NEAR_RESONANCE_LINE = "warning: |omega . nu| = 1.000e-31 is below 1e-09; the decay bound is uninformative"


def test_library_warning_is_one_line_on_every_call(tmp_path, capsys):
    spec = tmp_path / "near.json"
    spec.write_text(NEAR_RESONANT_SPEC)
    showwarning = warnings.showwarning
    results = []
    for _ in range(2):
        code = main(["--precision", "200", "equidistribution", str(spec), "--nu=1,-1", "--T", "100", "--depth", "2"])
        captured = capsys.readouterr()
        results.append((code, captured.out))
        assert captured.err.splitlines()[1:] == [NEAR_RESONANCE_LINE]
    assert results[0] == results[1] and results[0][0] == 0
    assert json.loads(results[0][1])["rows"][0]["pass"] is True
    assert warnings.showwarning is showwarning  # the caller's display is restored


def test_each_warning_of_a_call_gets_its_line(tmp_path, capsys):
    spec = tmp_path / "near.json"
    spec.write_text(NEAR_RESONANT_SPEC)
    code = main(["equidistribution", str(spec), "--nu=1,-1", "--nu=-1,1", "--T", "100", "--depth", "2"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err.splitlines()[1:] == [NEAR_RESONANCE_LINE] * 2
