import contextlib
import io
import json
import os
import sys
import tempfile
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bihom import io_cli
from bihom.algebra_core import LeftModule, check_bihom_algebra, example_family, tensor_product
from bihom.bialgebra import ModuleAlgebraAction
from bihom.coalgebra import dual_coalgebra, regular_comodule
from bihom.errors import BadScalar, DimensionMismatch, ParseError
from bihom.exactnum import (
    QQ,
    QQ_Q,
    FunctionField,
    PrimeField,
    RationalField,
    RationalFunction as RF,
)
from bihom.fixtures import (
    cyclic_group_bialgebra,
    cyclic_power_map,
    cyclic_self_action,
    kc4_twisted_bialgebra,
)
from bihom.io_cli import KINDS, LAYOUTS, main, parse_structure, serialize_structure
from bihom.linalg import Matrix, Tensor3
from bihom.report import Record

FIXDIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")
FROZENDIR = os.path.join(os.path.dirname(__file__), "data", "serialized")

SAMPLE_NAMES = (
    "algebra",
    "coalgebra",
    "bialgebra",
    "lie",
    "module",
    "comodule",
    "action",
    "map",
    "bialgebra_fp",
    "map_qq",
)


def _sample_values():
    """One value of each kind, plus an F_2 bialgebra and a Q(q) map:
    name -> (kind, value)."""
    from bihom.algebra_core import LeftModule
    from bihom.coalgebra import regular_comodule
    from bihom.fixtures import f2_restricted_line
    from bihom.lie import commutator_lie

    H = kc4_twisted_bialgebra()
    mod = LeftModule(
        dim=4,
        action=H.mu,
        alphaM=H.alpha.copy(),
        betaM=H.beta.copy(),
    )
    qq_map = Matrix(
        QQ_Q,
        [
            [RF.q_power(2) - RF.q_power(-1), QQ_Q.one()],
            [QQ_Q.zero(), QQ_Q.one() / (RF.q_power(1) + 1)],
        ],
    )
    return {
        "algebra": ("algebra", example_family(1, 3, 2)),
        "coalgebra": ("coalgebra", H.coalgebra_part()),
        "bialgebra": ("bialgebra", H),
        "lie": ("lie", commutator_lie(example_family(1, 3, 2))),
        "module": ("module", mod),
        "comodule": ("comodule", regular_comodule(H.coalgebra_part())),
        "action": (
            "action",
            (
                H.algebra_part(),
                ModuleAlgebraAction(action=cyclic_self_action(4, 3).action),
            ),
        ),
        "map": ("map", cyclic_power_map(4, 3)),
        "bialgebra_fp": ("bialgebra", f2_restricted_line()),
        "map_qq": ("map", qq_map),
    }


def fixture_path(name):
    return os.path.join(FIXDIR, name)


class TestParseSerialize:
    def test_family1_fixture_matches_builder(self):
        with open(fixture_path("family1.json")) as fh:
            kind, value = parse_structure(fh.read())
        assert kind == "algebra"
        expect = example_family(1, 3, 2)
        assert value.mu == expect.mu
        assert value.alpha == expect.alpha and value.beta == expect.beta
        assert value.unit == expect.unit

    def test_dimension_mismatch(self):
        obj = json.loads(serialize_structure(example_family(1, 3, 2), "algebra"))
        obj["alpha"][0].append("0")
        with pytest.raises(DimensionMismatch):
            parse_structure(json.dumps(obj))

    def test_bad_scalar(self):
        obj = json.loads(serialize_structure(example_family(1, 3, 2), "algebra"))
        obj["alpha"][0][0] = "3/4/5"
        with pytest.raises(BadScalar):
            parse_structure(json.dumps(obj))

    def test_plain_int_entry_over_fp_is_written_reduced(self):
        """An F_7 entry set to the int 8 after construction is written as 1,
        the text of the unmodified structure."""
        a, b = (cyclic_group_bialgebra(3, PrimeField(7)).algebra_part() for _ in range(2))
        a.mu.t[1][1][2] = 8
        text = serialize_structure(a, "algebra")
        assert json.loads(text)["mu"][1][1][2] == "1"
        assert text == serialize_structure(b, "algebra")

    def test_unknown_kind(self):
        with pytest.raises(ParseError):
            parse_structure('{"format": 1, "kind": "frobenius", "field": "Q"}')

    def test_round_trip_all_kinds(self):
        for name, (kind, value) in _sample_values().items():
            text = serialize_structure(value, kind)
            k2, v2 = parse_structure(text)
            assert k2 == kind
            assert serialize_structure(v2, k2) == text

    @pytest.mark.parametrize("name", SAMPLE_NAMES)
    def test_frozen_bytes(self, name):
        kind, value = _sample_values()[name]
        with open(os.path.join(FROZENDIR, f"{name}.json"), encoding="utf-8") as fh:
            expect = fh.read()
        assert serialize_structure(value, kind) + "\n" == expect
        assert serialize_structure(value) + "\n" == expect

    @pytest.mark.parametrize("name", sorted(os.listdir(FIXDIR)))
    def test_fixture_round_trips_byte_for_byte(self, name):
        with open(fixture_path(name), encoding="utf-8") as fh:
            text = fh.read()
        assert serialize_structure(*reversed(parse_structure(text))) + "\n" == text

    def test_qq_field_round_trip(self):
        _, m = _sample_values()["map_qq"]
        kind, back = parse_structure(serialize_structure(m, "map"))
        assert back == m

    def test_fp_field_round_trip(self):
        _, H = _sample_values()["bialgebra_fp"]
        kind, back = parse_structure(serialize_structure(H, "bialgebra"))
        assert back.same_tensors(H)

    def test_map_with_no_rows_keeps_its_columns(self):
        obj = {"format": 1, "field": "Q", "kind": "map", "rows": 0, "cols": 2, "entries": []}
        kind, m = parse_structure(json.dumps(obj))
        assert (m.rows, m.cols) == (0, 2)
        assert json.loads(serialize_structure(m, kind)) == obj
        assert json.loads(serialize_structure(Matrix.zero(QQ, 0, 2), "map")) == obj


def _literals(obj):
    """Every scalar literal in the JSON of a structure file, in file order:
    the strings in its arrays, other than the labels."""
    if isinstance(obj, dict):
        obj = [value for key, value in obj.items()
               if key != "labels" and isinstance(value, (dict, list))]
    return [x for value in obj for x in ([value] if isinstance(value, str) else _literals(value))]


def _containers(value):
    """The matrices and tensors of a parsed structure, an action's algebra
    included."""
    if isinstance(value, (Matrix, Tensor3)):
        yield value
    elif isinstance(value, tuple):
        for v in value:
            yield from _containers(v)
    elif isinstance(value, Record):
        for v in vars(value).values():
            yield from _containers(v)


def _typed(x):
    """Nested lists of (type, value) pairs."""
    return [_typed(y) for y in x] if isinstance(x, list) else (type(x), x)


def _extents(c):
    return (c.rows, c.cols) if isinstance(c, Matrix) else (c.d1, c.d2, c.d3)


def _entries(c):
    return c.e if isinstance(c, Matrix) else c.t


def _promoted(c):
    """c as Matrix(...) or Tensor3(...) builds it from its entries, which
    promotes each entry again; an empty one as zero(...) builds it."""
    cls = type(c)
    if 0 in _extents(c):
        return cls.zero(c.field, *_extents(c))
    return cls(c.field, _entries(c))


class TestParseMemo:
    """parse_structure reads each distinct literal of a file once, and still
    reports the first bad entry of the file at its own path."""

    @pytest.mark.parametrize("name", SAMPLE_NAMES)
    def test_each_distinct_literal_is_parsed_once(self, name, monkeypatch):
        text = serialize_structure(*reversed(_sample_values()[name]))
        seen = []
        for cls in (RationalField, PrimeField, FunctionField):
            def parse(self, literal, parse=cls.parse):
                seen.append(literal)
                return parse(self, literal)

            monkeypatch.setattr(cls, "parse", parse)
        parse_structure(text)
        assert sorted(seen) == sorted(set(_literals(json.loads(text))))

    def _check(self, tmp_path, capsys, edit):
        obj = _fixture_json("kc4_bialg.json")
        edit(obj)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        rc = main(["check", str(bad)])
        captured = capsys.readouterr()
        assert captured.out == ""
        return rc, captured.err

    def test_bad_literal_after_good_repeats(self, tmp_path, capsys):
        def edit(obj):
            obj["mu"][3][3][3] = "1/0"

        assert self._check(tmp_path, capsys, edit) == (
            2, "error: mu[3][3][3]: bad rational literal '1/0': Fraction(1, 0)\n")

    def test_first_bad_literal_is_reported_and_failures_are_not_kept(self, tmp_path, capsys):
        def edit(obj):
            obj["mu"][2][1][3] = obj["mu"][3][3][3] = obj["delta"][0][0][0] = "x"
            obj["alpha"][0][0] = "1/0"

        assert self._check(tmp_path, capsys, edit) == (
            2, "error: mu[2][1][3]: bad rational literal 'x'\n")

    def test_int_after_its_literal_is_not_a_scalar(self, tmp_path, capsys):
        def edit(obj):
            assert "0" in obj["mu"][0][0]
            obj["mu"][3][3][0] = 0

        assert self._check(tmp_path, capsys, edit) == (
            2, "error: mu[3][3][0]: scalar must be a string, got 0\n")

    @pytest.mark.parametrize("entry", [["1"], {"1": "0"}])
    def test_unhashable_scalar_exits_2(self, entry, tmp_path, capsys):
        def edit(obj):
            obj["mu"][3][3][0] = entry

        assert self._check(tmp_path, capsys, edit) == (
            2, f"error: mu[3][3][0]: scalar must be a string, got {entry!r}\n")

    def test_containers_hold_the_parsed_scalars_as_promote_gives_them(self, tmp_path):
        """Matrices and tensors take the parsed scalars without promoting
        them again: for every fixture and every input file of a cli_files
        benchmark pass (seed 11), each entry has the value and the type (int
        or Fraction over Q) that Matrix(...) or Tensor3(...) gives it, and
        each container the same extents."""
        bench = os.path.join(os.path.dirname(__file__), "..", "bench")
        sys.path.insert(0, bench)
        try:
            import inputs
            import workloads
        finally:
            sys.path.remove(bench)
        workloads.cli_files(11, str(tmp_path), inputs.Digest(11), os.path.dirname(bench))
        paths = sorted(tmp_path.glob("*.json")) + [
            fixture_path(n) for n in sorted(os.listdir(FIXDIR))]
        assert len(paths) > 90
        containers = 0
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                for c in _containers(parse_structure(fh.read())[1]):
                    containers += 1
                    old = _promoted(c)
                    assert _extents(c) == _extents(old)
                    assert _typed(_entries(c)) == _typed(_entries(old)), path
        assert containers > 2 * len(paths)

    def test_qq_file_checks_as_its_value_in_memory(self, tmp_path, capsys):
        """A Q(q) algebra whose file repeats literals such as (1+q)/(1-q)
        gives the report of the value it was written from, and so does a
        copy with one entry bumped."""
        q = RF.q_power(1)
        a = example_family(1, (1 + q) / (1 - q), q, field=QQ_Q)
        good = tensor_product(a, a)
        bumped = good.replace(
            mu=Tensor3(QQ_Q, [[list(v) for v in plane] for plane in good.mu.t]))
        bumped.mu.t[3][3][3] += 1
        codes = []
        for value in (good, bumped):
            path = tmp_path / "qq.json"
            path.write_text(serialize_structure(value, "algebra") + "\n")
            literals = _literals(json.loads(path.read_text())["mu"])
            assert max(literals.count(x) for x in literals if "q" in x) > 1
            report = check_bihom_algebra(value)
            codes.append(main(["check", str(path)]))
            assert capsys.readouterr().out == (
                f"== BiHom-associative algebra axioms\n{report.format()}\n")
            assert codes[-1] == (0 if report.ok else 1)
        assert codes == [0, 1]


class TestCli:
    def test_check_family1(self, capsys):
        assert main(["check", fixture_path("family1.json")]) == 0
        out = capsys.readouterr().out
        assert "ALL PASS" in out

    def test_check_failure_exit_code(self, tmp_path, capsys):
        obj = json.loads(serialize_structure(example_family(1, 3, 2), "algebra"))
        obj["mu"][1][0] = ["0", "1"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        assert main(["check", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "bihom_associativity" in out

    def test_usage_error_exit_code(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["check", str(missing)]) == 2

    @pytest.mark.parametrize(
        "tag", ["Fp:4", "Fp:1", 5, ["Q"], "Fp:618970019642690137449562111"]
    )
    def test_hostile_field_tag_exit_code(self, tag, tmp_path, capsys):
        obj = json.loads(serialize_structure(example_family(1, 3, 2), "algebra"))
        obj["field"] = tag
        bad = tmp_path / "bad_field.json"
        bad.write_text(json.dumps(obj))
        assert main(["check", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: field: ") and "Traceback" not in err

    def test_file_size_limit(self, tmp_path, capsys, monkeypatch):
        text = serialize_structure(example_family(1, 3, 2), "algebra")
        path = tmp_path / "family.json"
        path.write_text(text)
        monkeypatch.setattr(io_cli, "MAX_FILE_BYTES", len(text))
        assert main(["check", str(path)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(io_cli, "MAX_FILE_BYTES", len(text) - 1)
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: larger than {len(text) - 1} characters\n"

        def unreachable(_):
            raise AssertionError("json.loads ran on an oversized text")

        monkeypatch.setattr(io_cli.json, "loads", unreachable)
        with pytest.raises(ParseError, match=f"text longer than {len(text) - 1} characters"):
            parse_structure(text)

    def test_undecodable_file_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"format": 1, "kind": "algebra", "field": "\xe9"}')
        assert main(["check", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {bad}: ") and "Traceback" not in err

    @pytest.mark.parametrize("text, error", [
        ("{", "not valid JSON: Expecting property name enclosed in double quotes: "
              "line 1 column 2 (char 1)"),
        ("[]", "top level must be an object"),
    ])
    def test_file_that_is_no_json_object_exits_2(self, text, error, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["check", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    @pytest.mark.parametrize("kind, key", [
        ("algebra", "dim"), ("module", "algebra_dim"), ("comodule", "coalgebra_dim"),
        ("action", "h_dim"), ("map", "rows"), ("map", "cols"),
    ])
    def test_dimension_limit(self, monkeypatch, kind, key):
        limit = io_cli.MAX_DIM ** 3 if kind == "map" else io_cli.MAX_DIM
        obj = {"format": 1, "kind": kind, "field": "Q", "dim": 2, "algebra_dim": 2,
               "coalgebra_dim": 2, "h_dim": 2, "algebra": {"field": "Q", "dim": 2},
               "rows": 2, "cols": 2}

        def reached(*_):
            raise AssertionError("an entry was parsed")

        monkeypatch.setattr(io_cli, "_parse_array", reached)
        with pytest.raises(AssertionError, match="an entry was parsed"):
            parse_structure(json.dumps(dict(obj, **{key: limit})))
        with pytest.raises(ParseError, match=f"^{key}: {key} must be at most {limit}$"):
            parse_structure(json.dumps(dict(obj, **{key: limit + 1})))

    @pytest.mark.parametrize("kind, key", [
        ("algebra", "dim"), ("module", "algebra_dim"), ("comodule", "coalgebra_dim"),
        ("action", "h_dim"), ("map", "rows"), ("map", "cols"),
    ])
    def test_boolean_dimension_is_rejected(self, kind, key):
        obj = {"format": 1, "kind": kind, "field": "Q", "dim": 1, "algebra_dim": 1,
               "coalgebra_dim": 1, "h_dim": 1, "algebra": {"field": "Q", "dim": 1},
               "rows": 1, "cols": 1}
        with pytest.raises(ParseError, match=f"^{key}: {key} must be a nonnegative integer$"):
            parse_structure(json.dumps(dict(obj, **{key: True})))

    def test_boolean_map_shape_exits_2(self, tmp_path, capsys):
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"format": 1, "kind": "map", "field": "Q", "rows": True,
                                    "cols": True, "entries": [["1"]]}))
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == "error: rows: rows must be a nonnegative integer\n"

    def test_dim_65_header_exits_2(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"format": 1, "kind": "algebra", "field": "Q", "dim": 65}))
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == "error: dim: dim must be at most 64\n"

    @pytest.mark.parametrize(
        "tag, literal",
        [
            ("Q(q)", "q^99999999"),
            ("Q(q)", "1/q^" + "9" * 5000),
            ("Q", "1e10000000"),
            pytest.param(
                "Fp:7",
                "9" * 5000,
                marks=pytest.mark.skipif(
                    not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python converts integers of any length",
                ),
            ),
        ],
        ids=["qq-exponent", "qq-exponent-digits", "q-exponent-literal", "fp-digits"],
    )
    def test_hostile_scalar_exit_code(self, tag, literal, tmp_path, capsys):
        obj = json.loads(serialize_structure(example_family(1, 3, 2), "algebra"))
        obj["field"] = tag
        obj["mu"] = [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]
        obj["alpha"][1][0] = literal
        bad = tmp_path / "bad_scalar.json"
        bad.write_text(json.dumps(obj))
        assert main(["check", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: alpha[1][0]: ") and "Traceback" not in err

    def test_largest_64_bit_prime_field_accepted(self, tmp_path, capsys):
        from bihom.fixtures import cyclic_group_bialgebra
        from bihom.exactnum import PrimeField

        p = 18446744073709551557
        alg = cyclic_group_bialgebra(2, field=PrimeField(p)).algebra_part()
        src = tmp_path / "alg.json"
        src.write_text(serialize_structure(alg, "algebra"))
        assert json.loads(src.read_text())["field"] == f"Fp:{p}"
        assert main(["check", str(src)]) == 0

    def test_smash_then_check(self, tmp_path, capsys):
        out = tmp_path / "smash.json"
        rc = main(
            [
                "smash",
                fixture_path("kc4_bialg.json"),
                fixture_path("kc4_selfmod.json"),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert main(["check", str(out)]) == 0

    def test_twist_untwist_round_trip(self, tmp_path, capsys):
        from bihom.io_cli import serialize_structure as ser
        from bihom.fixtures import cyclic_group_bialgebra

        alg = cyclic_group_bialgebra(4).algebra_part()
        src = tmp_path / "kc4_alg.json"
        src.write_text(ser(alg, "algebra"))
        twisted = tmp_path / "twisted.json"
        rc = main(
            [
                "twist",
                str(src),
                "--alpha",
                fixture_path("kc4_g3_map.json"),
                "--beta",
                fixture_path("id4_map.json"),
                "--out",
                str(twisted),
            ]
        )
        assert rc == 0
        back = tmp_path / "back.json"
        assert main(["untwist", str(twisted), "--out", str(back)]) == 0
        _, restored = parse_structure(back.read_text())
        assert restored.mu == alg.mu

    def test_dual_and_lie(self, tmp_path):
        dual = tmp_path / "dual.json"
        assert main(["dual", fixture_path("family1.json"), "--out", str(dual)]) == 0
        assert main(["check", str(dual)]) == 0
        lie_out = tmp_path / "lie.json"
        assert main(["lie", fixture_path("family1.json"), "--out", str(lie_out)]) == 0
        assert main(["check", str(lie_out)]) == 0

    def test_tensor(self, tmp_path):
        out = tmp_path / "tensor.json"
        rc = main(
            [
                "tensor",
                fixture_path("family1.json"),
                fixture_path("family1.json"),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        _, value = parse_structure(out.read_text())
        assert value.dim == 4

    def test_primitives(self, capsys, tmp_path):
        from bihom.fixtures import f2_restricted_line

        p = tmp_path / "f2.json"
        p.write_text(serialize_structure(f2_restricted_line(), "bialgebra"))
        assert main(["primitives", str(p)]) == 0
        out = capsys.readouterr().out
        assert "dimension: 1" in out

    def test_antipode_solve_and_verify(self, tmp_path, capsys):
        from bihom.bialgebra import hopf_to_monoidal
        from bihom.fixtures import cyclic_antipode
        from bihom.exactnum import QQ

        H = cyclic_group_bialgebra(4)
        Hm, S = hopf_to_monoidal(
            H, cyclic_antipode(4), cyclic_power_map(4, 3), Matrix.identity(QQ, 4)
        )
        hf = tmp_path / "monoidal.json"
        hf.write_text(serialize_structure(Hm, "bialgebra"))
        sf = tmp_path / "s.json"
        assert main(["antipode", "solve", str(hf), "--out", str(sf)]) == 0
        _, solved = parse_structure(sf.read_text())
        assert solved == S
        assert main(["antipode", "verify", str(hf), "--s", str(sf)]) == 0

    def test_antipode_solve_prints_matrix(self, capsys):
        assert main(["antipode", "solve", fixture_path("sweedler.json")]) == 0
        assert capsys.readouterr().out == (
            "antipode found\n"
            "  [1, 0, 0, 0]\n"
            "  [0, 1, 0, 0]\n"
            "  [0, 0, 0, -1]\n"
            "  [0, 0, 1, 0]\n"
        )

    def test_antipode_solve_inconsistent(self, tmp_path, capsys):
        from bihom.fixtures import idempotent_monoid_bialgebra

        hf = tmp_path / "monoid.json"
        hf.write_text(serialize_structure(idempotent_monoid_bialgebra(), "bialgebra"))
        assert main(["antipode", "solve", str(hf)]) == 1
        assert "no antipode" in capsys.readouterr().out

    def test_pseudotwistor_apply_canonical(self, tmp_path):
        from bihom.fixtures import cyclic_group_bialgebra

        alg = cyclic_group_bialgebra(4).algebra_part()
        src = tmp_path / "alg.json"
        src.write_text(serialize_structure(alg, "algebra"))
        out = tmp_path / "deformed.json"
        rc = main(
            [
                "pseudotwistor",
                "apply",
                str(src),
                "--canonical",
                "--alpha2",
                fixture_path("kc4_g3_map.json"),
                "--beta2",
                fixture_path("id4_map.json"),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert main(["check", str(out)]) == 0

    def test_pseudotwistor_verify_explicit_files(self, tmp_path, capsys):
        from bihom.axioms import images
        from bihom.fixtures import cyclic_group_bialgebra
        from bihom.twisting import canonical_pseudotwistor

        alg = cyclic_group_bialgebra(4).algebra_part()
        src = tmp_path / "alg.json"
        src.write_text(serialize_structure(alg, "algebra"))
        alpha2, beta2 = fixture_path("kc4_g3_map.json"), fixture_path("id4_map.json")
        maps = []
        for path in (alpha2, beta2):
            with open(path, encoding="utf-8") as fh:
                maps.append(parse_structure(fh.read())[1])
        p = canonical_pseudotwistor(alg, *maps)
        t, t1, t2 = (Matrix.from_columns(alg.field, images(m))
                     for m in (p.T, p.T1tilde, p.T2tilde))
        files = {}
        for flag, m in (("--t", t), ("--t1", t1), ("--t2", t2)):
            files[flag] = tmp_path / f"{flag[2:]}.json"
            files[flag].write_text(serialize_structure(m, "map"))
        args = ["pseudotwistor", "verify", str(src), "--alpha2", alpha2, "--beta2", beta2]
        for flag, path in files.items():
            args += [flag, str(path)]
        assert main(args) == 0
        assert "ALL PASS" in capsys.readouterr().out

        bumped = t1.copy()
        bumped.e[0][0] = bumped.e[0][0] + 1
        files["--t1"].write_text(serialize_structure(bumped, "map"))
        assert main(args) == 1
        out = capsys.readouterr().out
        assert "FAIL T_left_product @ (0, 0, 0): lhs=(1, 0, 0, 0," in out
        assert "rhs=(2, 0, 0, 0," in out

    def test_ttp_flip(self, tmp_path):
        from bihom.twisting import flip_map
        from bihom.fixtures import cyclic_group_bialgebra

        alg = cyclic_group_bialgebra(2).algebra_part()
        src = tmp_path / "alg.json"
        src.write_text(serialize_structure(alg, "algebra"))
        rfile = tmp_path / "r.json"
        rfile.write_text(serialize_structure(flip_map(alg, alg).R, "map"))
        out = tmp_path / "ttp.json"
        rc = main(["ttp", str(src), str(src), "--r", str(rfile), "--out", str(out)])
        assert rc == 0
        assert main(["check", str(out)]) == 0

    def test_demo_uqsl2(self, capsys):
        rc = main(
            [
                "demo",
                "uqsl2",
                "--grid",
                "2",
                "--lambda1",
                "2",
                "--lambda2",
                "3",
                "--xi",
                "1/2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "all match" in out

    def test_demo_uqsl2_default_grid(self, capsys):
        assert main(["demo", "uqsl2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == ("verified 256 product-formula instances over the 2^4 grid "
                           "with G in {1, E, F, K}: all match")

    def test_demo_uqsl2_verbose(self, capsys):
        assert main(["--verbose", "demo", "uqsl2", "--grid", "1"]) == 0
        assert capsys.readouterr().out == "".join(
            f"PASS (m,n,r,s,G)=(0,0,0,0,{g}): K+/K-/E/F products match the closed forms\n"
            for g in "1EFK"
        ) + ("verified 16 product-formula instances over the 1^4 grid with "
             "G in {1, E, F, K}: all match\n")

    @pytest.mark.parametrize("flag", ["--lambda1", "--xi"])
    def test_demo_exponent_literal_is_usage_error(self, flag, capsys):
        assert main(["demo", "uqsl2", flag, "1e10000000"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: bad rational literal '1e10000000'")
        assert "verified" not in captured.out

    @pytest.mark.parametrize("grid", ["0", "-3", "4"])
    def test_demo_empty_grid_is_usage_error(self, grid, capsys):
        assert main(["demo", "uqsl2", "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --grid must be at least 1 and at most 3, got {grid}\n"
        assert captured.out == ""

    def test_check_module_with_over(self, tmp_path):
        from bihom.algebra_core import LeftModule

        with open(fixture_path("family1.json")) as fh:
            _, alg = parse_structure(fh.read())
        mod = LeftModule(dim=2, action=alg.mu, alphaM=alg.alpha, betaM=alg.beta)
        mf = tmp_path / "mod.json"
        mf.write_text(serialize_structure(mod, "module"))
        assert main(["check", str(mf), "--over", fixture_path("family1.json")]) == 0
        # missing --over is a usage error
        assert main(["check", str(mf)]) == 2

    def test_check_module_over_zero_algebra(self, tmp_path):
        # the empty action tensor keeps the module's extents
        zero = {"format": 1, "field": "Q", "kind": "algebra", "dim": 0,
                "mu": [], "alpha": [], "beta": []}
        mod = {"format": 1, "field": "Q", "kind": "module", "dim": 1,
               "algebra_dim": 0, "action": [], "alphaM": [["1"]],
               "betaM": [["1"]]}
        af, mf = tmp_path / "zero.json", tmp_path / "mod.json"
        af.write_text(json.dumps(zero))
        mf.write_text(json.dumps(mod))
        _, value = parse_structure(mf.read_text())
        action = value.action
        assert (action.d1, action.d2, action.d3) == (0, 1, 1)
        assert main(["check", str(mf), "--over", str(af)]) == 0

    def test_check_comodule_with_over(self, tmp_path):
        from bihom.coalgebra import regular_comodule

        H = kc4_twisted_bialgebra()
        cf = tmp_path / "coalg.json"
        cf.write_text(serialize_structure(H.coalgebra_part(), "coalgebra"))
        mf = tmp_path / "comod.json"
        mf.write_text(
            serialize_structure(regular_comodule(H.coalgebra_part()), "comodule")
        )
        assert main(["check", str(mf), "--over", str(cf)]) == 0
        # missing --over is a usage error
        assert main(["check", str(mf)]) == 2

    def test_check_action_with_over(self):
        assert (
            main(
                [
                    "check",
                    fixture_path("kc4_selfmod.json"),
                    "--over",
                    fixture_path("kc4_bialg.json"),
                ]
            )
            == 0
        )

    @pytest.mark.parametrize("edit,error", [
        (lambda o: o.update(dim=3, labels=["a", "b", "c"]),
         "dim: 3 differs from algebra.dim 4"),
        (lambda o: o["algebra"].update(field="Fp:7"),
         "algebra.field: 'Fp:7' differs from the file's field 'Q'"),
        (lambda o: o["algebra"].update(field="nonsense"),
         "algebra.field: 'nonsense' differs from the file's field 'Q'"),
        (lambda o: o["algebra"].pop("field"),
         "algebra.field: None differs from the file's field 'Q'"),
        (lambda o: o["algebra"]["mu"][1][1].__setitem__(1, "x"),
         "algebra.mu[1][1][1]: bad rational literal 'x'"),
        (lambda o: o["algebra"].update(dim=True),
         "algebra.dim: algebra.dim must be a nonnegative integer"),
        (lambda o: o["algebra"].update(labels=["a"]), "algebra.labels: expected 4 labels"),
        (lambda o: o["algebra"]["alpha"].pop(), "algebra.alpha: expected 4 rows"),
        (lambda o: o["algebra"].update(unit=["1"]), "algebra.unit: expected 4 entries"),
    ], ids=["dim", "field", "bad_field", "no_field", "literal", "algebra_dim", "labels",
            "alpha", "unit"])
    def test_action_file_errors_name_their_path(self, tmp_path, capsys, edit, error):
        """The outer dim and field must be the embedded algebra's, and an
        error inside the embedded algebra names its path under algebra."""
        obj = _fixture_json("kc4_selfmod.json")
        edit(obj)
        bad = tmp_path / "selfmod.json"
        bad.write_text(json.dumps(obj))
        assert main(["check", str(bad), "--over", fixture_path("kc4_bialg.json")]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {error}\n")

    def test_field_flag_mismatch(self, capsys):
        rc = main(["--field", "Q(q)", "check", fixture_path("family1.json")])
        assert rc == 2

    @staticmethod
    def _over_f7(tmp_path, name):
        """A copy of a fixture with every field tag set to F_7."""
        text = open(fixture_path(name), encoding="utf-8").read()
        path = tmp_path / f"{name[:-5]}_f7.json"
        path.write_text(text.replace('"field": "Q"', '"field": "Fp:7"'))
        return str(path)

    def test_check_over_another_field_exits_2(self, tmp_path, capsys):
        kc4_f7 = self._over_f7(tmp_path, "kc4_bialg.json")
        selfmod = fixture_path("kc4_selfmod.json")
        assert main(["check", selfmod, "--over", kc4_f7]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {kc4_f7}: declares field Fp:7, {selfmod} declares field Q\n")

    def test_smash_with_another_field_exits_2(self, tmp_path, capsys):
        selfmod_f7 = self._over_f7(tmp_path, "kc4_selfmod.json")
        kc4 = fixture_path("kc4_bialg.json")
        out = tmp_path / "smash.json"
        assert main(["smash", kc4, selfmod_f7, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == (
            f"error: {selfmod_f7}: declares field Fp:7, {kc4} declares field Q\n")

    @staticmethod
    def _carrier_case(tmp_path, case):
        """(argv, file declaring the wrong extent, carrier file, message tail)
        for a module, comodule or action whose acting structure has another
        dimension than the carrier given with it."""
        def write(name, value, kind):
            path = tmp_path / name
            path.write_text(serialize_structure(value, kind))
            return str(path)

        fam1, kc4 = example_family(1, 3, 2), fixture_path("kc4_bialg.json")
        if case == "module":
            mod = LeftModule(dim=2, action=fam1.mu, alphaM=fam1.alpha, betaM=fam1.beta)
            path = write("mod2.json", mod, "module")
            over = write("tensor.json", tensor_product(fam1, fam1), "algebra")
            return ["check", path, "--over", over], path, over, "algebra_dim 2 differs from dim 4"
        if case == "comodule":
            comod = regular_comodule(cyclic_group_bialgebra(4).coalgebra_part())
            path = write("comod4.json", comod, "comodule")
            over = write("dual.json", dual_coalgebra(fam1), "coalgebra")
            return ["check", path, "--over", over], path, over, "coalgebra_dim 4 differs from dim 2"
        obj = _fixture_json("kc4_selfmod.json")
        obj["h_dim"], obj["action"] = 2, obj["action"][:2]
        path = tmp_path / "selfmod_h2.json"
        path.write_text(json.dumps(obj))
        argv = (["check", str(path), "--over", kc4] if case == "action_check"
                else ["smash", kc4, str(path), "--out", str(tmp_path / "smash.json")])
        return argv, str(path), kc4, "h_dim 2 differs from dim 4"

    @pytest.mark.parametrize("case", ["module", "comodule", "action_check", "action_smash"])
    def test_carrier_of_another_dimension_exits_2(self, tmp_path, capsys, case):
        argv, path, over, error = self._carrier_case(tmp_path, case)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / "smash.json").exists()
        assert captured.err == f"error: {path}: {error} of {over}\n"

    @pytest.mark.parametrize("argv,f7,other", [
        (["tensor", "family1.json", "F7", "--out", "OUT"], "family1.json", "family1.json"),
        (["twist", "kc4_bialg.json", "--alpha", "F7", "--beta", "id4_map.json", "--psi",
          "id4_map.json", "--omega", "id4_map.json", "--out", "OUT"], "kc4_g3_map.json",
         "kc4_bialg.json"),
        (["ttp", "family1.json", "family1.json", "--r", "F7", "--out", "OUT"], "id4_map.json",
         "family1.json"),
        (["antipode", "verify", "sweedler.json", "--s", "F7"], "sweedler_antipode.json",
         "sweedler.json"),
    ], ids=["tensor", "twist", "ttp", "antipode_verify"])
    def test_file_over_another_field_exits_2(self, tmp_path, capsys, argv, f7, other):
        """F7 stands for an F_7 copy of the fixture f7; the error names it."""
        f7_path, out = self._over_f7(tmp_path, f7), tmp_path / "out.json"
        names = {"F7": f7_path, "OUT": str(out)}
        argv = [names.get(a) or (fixture_path(a) if a.endswith(".json") else a) for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == (f"error: {f7_path}: declares field Fp:7, "
                                f"{fixture_path(other)} declares field Q\n")

    def test_mixed_fields_raise_in_the_library(self):
        """The axiom engine compares the field of every matrix and tensor it
        reads, so a Q structure with int entries cannot pass against an F_7
        one in a check that takes two structures."""
        from bihom import (
            SmashData,
            adjoint_rep,
            check_comodule,
            check_left_module,
            check_module_bihom_algebra,
            check_representation,
            check_twisting_map,
            flip_map,
            smash_product,
        )
        from bihom.algebra_core import LeftModule
        from bihom.coalgebra import regular_comodule
        from bihom.errors import MixedFields

        from bihom.fixtures import sl2_lie

        F7 = PrimeField(7)
        H, H7 = cyclic_group_bialgebra(4), cyclic_group_bialgebra(4, F7)
        act, act7 = cyclic_self_action(4, 3), cyclic_self_action(4, 3, F7)
        A, A7 = H.algebra_part(), H7.algebra_part()
        mod7 = LeftModule(dim=4, action=A7.mu, alphaM=A7.alpha, betaM=A7.beta)
        comod7 = regular_comodule(H7.coalgebra_part())
        calls = [
            lambda: check_left_module(A, mod7),
            lambda: check_comodule(H.coalgebra_part(), comod7),
            lambda: check_module_bihom_algebra(H7, A, act),
            lambda: check_module_bihom_algebra(H, A7, act7),
            lambda: SmashData(H=H7, A=A, action=act).validate(),
            lambda: smash_product(SmashData(H=H, A=A7, action=act7)),
            lambda: check_twisting_map(A, A7, flip_map(A, A7)),
            lambda: check_twisting_map(A, A, flip_map(A7, A7)),
            lambda: check_representation(sl2_lie(), adjoint_rep(sl2_lie(F7))),
        ]
        for call in calls:
            with pytest.raises(MixedFields, match="^map terms across fields$"):
                call()
        assert check_module_bihom_algebra(H7, A7, act7).ok

    def test_verbose_and_witness_limit(self, capsys, tmp_path):
        obj = json.loads(serialize_structure(example_family(1, 3, 2), "algebra"))
        obj["mu"][1][0] = ["0", "1"]
        obj["alpha"][0][0] = "2"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        assert main(["--witness-limit", "0", "check", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "@" not in out  # witnesses suppressed
        assert main(["--verbose", "check", fixture_path("family1.json")]) == 0
        out = capsys.readouterr().out
        assert "PASS bihom_associativity" in out


class TestConstructionPaths:
    """Each kind's twist, the coalgebra tensor and dual, and their errors,
    through main: exit codes, report lines, error lines and written files."""

    RECHECK = "== output re-check\nALL PASS ({} axioms checked)\n"

    @pytest.fixture
    def files(self, tmp_path, capsys):
        """The tensor square of family1, its dual coalgebra and its
        commutator Lie algebra, by kind."""
        paths = {kind: str(tmp_path / f"{kind}.json") for kind in ("algebra", "coalgebra", "lie")}
        family1 = fixture_path("family1.json")
        assert main(["tensor", family1, family1, "--out", paths["algebra"]]) == 0
        assert main(["dual", paths["algebra"], "--out", paths["coalgebra"]]) == 0
        assert main(["lie", paths["algebra"], "--out", paths["lie"]]) == 0
        capsys.readouterr()
        return paths

    @staticmethod
    def _run(capsys, *argv):
        rc = main(list(argv))
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    @pytest.mark.parametrize("kind, flags, axioms", [
        ("coalgebra", ("--psi", "--omega"), 8),
        ("lie", ("--alpha", "--beta"), 5),
    ])
    def test_twist_by_identities_gives_the_same_structure(self, files, capsys, kind, flags,
                                                          axioms):
        id4 = fixture_path("id4_map.json")
        rc, out, err = self._run(capsys, "twist", files[kind], flags[0], id4, flags[1], id4)
        assert (rc, err) == (0, "")
        with open(files[kind], encoding="utf-8") as fh:
            assert out == self.RECHECK.format(axioms) + fh.read()

    @pytest.mark.parametrize("path, flags, error", [
        ("coalgebra", ["--psi"], "coalgebra twists need --psi and --omega"),
        ("lie", ["--alpha"], "lie twists need --alpha and --beta"),
        ("kc4_bialg.json", ["--alpha"], "bialgebra twists need all four maps"),
        ("kc4_selfmod.json", [], "cannot twist kind 'action'"),
    ])
    def test_twist_without_its_maps_exits_2(self, files, capsys, path, flags, error):
        path = files.get(path) or fixture_path(path)
        argv = [x for flag in flags for x in (flag, fixture_path("id4_map.json"))]
        assert self._run(capsys, "twist", path, *argv) == (2, "", f"error: {error}\n")

    def test_twist_by_a_non_multiplicative_map_exits_1(self, files, capsys):
        argv = ["--alpha", fixture_path("kc4_g3_map.json"), "--beta", fixture_path("id4_map.json")]
        assert self._run(capsys, "twist", files["algebra"], *argv) == (
            1, "", "error: alpha2 is not multiplicative at basis pair (0, 1)\n")

    def test_tensor_and_dual_of_coalgebras(self, files, capsys):
        rc, out, err = self._run(capsys, "tensor", files["coalgebra"], files["coalgebra"])
        assert (rc, err) == (0, "") and out.startswith(self.RECHECK.format(8))
        assert json.loads(out[len(self.RECHECK.format(8)):])["dim"] == 16
        rc, out, err = self._run(capsys, "dual", files["coalgebra"])
        assert (rc, err) == (0, "") and out.startswith(self.RECHECK.format(8))
        assert json.loads(out[len(self.RECHECK.format(8)):])["kind"] == "algebra"

    def test_tensor_of_a_coalgebra_and_an_algebra_exits_2(self, files, capsys):
        assert self._run(capsys, "tensor", files["coalgebra"], fixture_path("family1.json")) == (
            2, "", "error: tensor products need two algebras or two coalgebras\n")

    def test_failed_recheck_exits_1_and_writes_nothing(self, tmp_path, capsys):
        obj = _fixture_json("family1.json")
        obj["mu"][1][1][0] = "5"
        bad, out = tmp_path / "bad.json", tmp_path / "t.json"
        bad.write_text(json.dumps(obj))
        rc, stdout, err = self._run(capsys, "tensor", str(bad), str(bad), "--out", str(out))
        assert (rc, err) == (1, "")
        assert "FAIL beta_multiplicative @ (1, 1): lhs=(-4, 6, 0, 0) rhs=(11, 6, 0, 0)\n" in stdout
        assert not out.exists()

    def test_antipode_solve_of_a_non_monoidal_bialgebra_exits_1(self, capsys):
        assert self._run(capsys, "antipode", "solve", fixture_path("kc4_bialg.json")) == (
            1, "bialgebra is not monoidal (omega != alpha^-1 or psi != beta^-1)\n", "")

    def test_ttp_along_a_failing_twisting_map_exits_1_and_writes_nothing(self, tmp_path, capsys):
        from bihom.twisting import flip_map

        alg = cyclic_group_bialgebra(2).algebra_part()
        flip = flip_map(alg, alg).R
        src, rfile, out = tmp_path / "alg.json", tmp_path / "r.json", tmp_path / "ttp.json"
        src.write_text(serialize_structure(alg, "algebra"))
        rfile.write_text(serialize_structure(
            Matrix(flip.field, [[2 * x for x in row] for row in flip.e]), "map"))
        assert self._run(capsys, "ttp", str(src), str(src), "--r", str(rfile), "--out",
                         str(out)) == (1, (
            "== twisting map equations\n"
            "FAIL R_left_product @ (0, 0, 0): lhs=(2, 0, 0, 0) rhs=(4, 0, 0, 0)\n"
            "FAIL R_right_product @ (0, 0, 0): lhs=(2, 0, 0, 0) rhs=(4, 0, 0, 0)\n"
            "2 FAILED (4 axioms checked)\n"), "")
        assert not out.exists()

    def test_file_of_the_wrong_kind_or_without_its_carrier_exits_2(self, capsys):
        kc4 = fixture_path("kc4_bialg.json")
        assert self._run(capsys, "untwist", kc4) == (
            2, "", f"error: {kc4}: expected kind in ('algebra',), found 'bialgebra'\n")
        assert self._run(capsys, "check", fixture_path("kc4_selfmod.json")) == (
            2, "", "error: checking an action needs --over BIALGEBRA_FILE\n")


class TestFixtureFilesStayValid:
    def test_all_committed_fixtures_parse_and_pass(self):
        for name in os.listdir(FIXDIR):
            path = fixture_path(name)
            with open(path) as fh:
                kind, value = parse_structure(fh.read())
            if kind == "algebra":
                from bihom.algebra_core import check_bihom_algebra

                assert check_bihom_algebra(value).ok, name
            elif kind == "bialgebra":
                from bihom.bialgebra import check_bihom_bialgebra

                assert check_bihom_bialgebra(value).ok, name

    def test_selfmod_fixture_is_module_algebra(self):
        from bihom.bialgebra import check_module_bihom_algebra

        with open(fixture_path("kc4_bialg.json")) as fh:
            _, H = parse_structure(fh.read())
        with open(fixture_path("kc4_selfmod.json")) as fh:
            _, (A, act) = parse_structure(fh.read())
        assert check_module_bihom_algebra(H, A, act).ok


# ---------------------------------------------------------------------------
# round trip: serialize, parse, serialize generated structures
# ---------------------------------------------------------------------------

ROUND_TRIP_FIELDS = (QQ, PrimeField(7), PrimeField(2**61 - 1), QQ_Q)


def _scalars(field):
    if field is QQ:
        nonzero = st.fractions(min_value=-50, max_value=50, max_denominator=12)
    elif field is QQ_Q:
        q = RF.q_power(1)
        nonzero = st.builds(
            lambda coeffs, k, den: sum(c * q**i for i, c in enumerate(coeffs)) * q**k / den,
            st.lists(st.integers(-3, 3), min_size=1, max_size=3), st.integers(-3, 3),
            st.sampled_from((1, q + 1, q * q - 2)))
    else:
        nonzero = st.integers(0, field.p - 1)
    return st.one_of(st.just(0), nonzero).map(field.promote)


@st.composite
def structures(draw):
    """(kind, value): a structure of any kind with dimensions 0 to 3 over Q,
    F_7, F_(2^61 - 1) or Q(q), its entries drawn at random."""
    kind = draw(st.sampled_from(KINDS))
    field = draw(st.sampled_from(ROUND_TRIP_FIELDS))
    scalar, dim = _scalars(field), st.integers(0, 3)

    def entry(shape):
        """A Tensor3 or Matrix of the given extents, or an optional vector."""
        if len(shape) == 1:
            return draw(st.none() | st.lists(scalar, min_size=shape[0], max_size=shape[0]))
        cls = Matrix if len(shape) == 2 else Tensor3
        if 0 in shape:
            return cls.zero(field, *shape)
        cells = st.lists(scalar, min_size=shape[-1], max_size=shape[-1])
        for n in reversed(shape[:-1]):
            cells = st.lists(cells, min_size=n, max_size=n)
        return cls(field, draw(cells))

    def body(cls):
        dims = {key: draw(dim) for key in dict.fromkeys(n for _, ns in cls.SHAPE for n in ns)}
        kw = {key: entry([dims[n] for n in names]) for key, names in cls.SHAPE}
        if cls.LABELS is not None:
            labels = st.text("abxy_01", min_size=1, max_size=3)
            kw.update(field=field, labels=draw(st.lists(labels, min_size=dims["dim"],
                                                        max_size=dims["dim"])))
        return cls(dim=dims["dim"], **kw)

    if kind == "map":
        return kind, entry((draw(dim), draw(dim)))
    if kind == "action":
        a = body(LAYOUTS["algebra"][0])
        return kind, (a, ModuleAlgebraAction(action=entry((draw(dim), a.dim, a.dim))))
    return kind, body(LAYOUTS[kind][0])


@given(structures())
@settings(max_examples=150, deadline=None)
def test_serialize_parse_serialize_round_trips(structure):
    kind, value = structure
    text = serialize_structure(value, kind)
    kind2, back = parse_structure(text)
    assert kind2 == kind
    assert serialize_structure(back, kind) == text
    assert back == value


# ---------------------------------------------------------------------------
# hostile files: one mutation of a fixture's JSON
# ---------------------------------------------------------------------------

FUZZ_FILES = {
    "family1.json": (),
    "kc4_bialg.json": (),
    "sweedler.json": (),
    "kc4_selfmod.json": ("--over", fixture_path("kc4_bialg.json")),
}
DIMENSION_KEYS = ("dim", "algebra_dim", "coalgebra_dim", "h_dim", "rows", "cols")
HOSTILE_LITERALS = ("1e10000000", "-2E999999999", "2.5", "1/0", "0/0", "q^99999999",
                    "9" * 5000, "5 mod 11", "", "x", "Fp:7", "Q(q)")
VALUES = st.one_of(
    st.sampled_from(HOSTILE_LITERALS),
    st.none(),
    st.booleans(),
    st.integers(-2, 5),
    st.text(max_size=3),
    st.lists(st.sampled_from(["0", "1", "-1/2"]), max_size=3),
    st.dictionaries(st.sampled_from(["dim", "mu"]), st.integers(0, 2), max_size=1),
)


def _fixture_json(name):
    with open(fixture_path(name), encoding="utf-8") as fh:
        return json.load(fh)


def _paths(obj, path=()):
    """The path of every key and list item below obj."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


@st.composite
def mutations(draw):
    """(fixture, path, operation, value): drop the key or item at path,
    replace it by value, or set a dimension key to a small integer."""
    name = draw(st.sampled_from(sorted(FUZZ_FILES)))
    paths = list(_paths(_fixture_json(name)))
    op = draw(st.sampled_from(("drop", "replace", "dimension")))
    if op == "dimension":
        dims = [p for p in paths if p[-1] in DIMENSION_KEYS]
        return name, draw(st.sampled_from(dims)), "replace", draw(st.integers(0, 6))
    return name, draw(st.sampled_from(paths)), op, draw(VALUES)


class TestHostileFiles:
    @given(mutations())
    @example(("family1.json", ("mu", 1, 1, 0), "replace", "1e10000000"))
    @example(("kc4_selfmod.json", ("algebra", "alpha", 0, 0), "replace", "-2E999999999"))
    @settings(max_examples=250, deadline=None)
    def test_one_mutation_never_escapes(self, mutation):
        name, path, op, value = mutation
        obj = _fixture_json(name)
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        if op == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        with tempfile.TemporaryDirectory() as tmp:
            bad = os.path.join(tmp, name)
            with open(bad, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(["check", bad, *FUZZ_FILES[name]])
            elapsed = time.perf_counter() - start
        assert rc in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if rc == 2:
            assert err.getvalue().startswith("error:")
        assert elapsed < 5, f"check took {elapsed:.1f} s"
