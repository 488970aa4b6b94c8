"""Scenario-file format: parsing, diagnostics, round-trips, evaluation."""

import cmath
import collections
import dataclasses
import gc
import importlib
import json
import math
import pickle
import random
import re
import string
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tsvsim import cli, dsl, hilbert as hb, scenarios as sc, tsvf
from tsvsim.acceptance import FUZZ_PIECES
from tsvsim.dsl import Diagnostic
from tsvsim.dsl.parse import _Expr as TokenExpr, _eval as token_eval, _plain, _plain_matrix
from tsvsim.errors import (DimensionMismatch, InvalidNames, OrthogonalSelection,
                           ZeroProbabilityBranch)

GOLDEN_DIR = Path(__file__).parent / "golden"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FIXTURE_IDS = ("three_boxes", "oblivion", "elastic_collision", "hardy",
               "four_mirror", "three_path_photon")


def fixture_text(scenario_id):
    return dsl.builtin_scenario_path(scenario_id).read_text(encoding="utf-8")


class TestAmplitudeSugar:
    @pytest.mark.parametrize("text,expected", [
        ("1/sqrt(3)", 1 / math.sqrt(3)),
        ("1/sqrt(2)", 1 / math.sqrt(2)),
        ("-1/2", -0.5),
        ("2/3", 2 / 3),
        ("i", 1j),
        ("-i/sqrt(2)", -1j / math.sqrt(2)),
        ("0.25", 0.25),
        ("1e-3", 1e-3),
        ("0.5,-0.5", 0.5 - 0.5j),
        ("(1,2)", 1 + 2j),
        ("sqrt(2)/2", math.sqrt(2) / 2),
        ("1+1", 2.0),
        ("1\xa0+ 1", 2.0),
        ("2*0.25", 0.5),
    ])
    def test_evaluates(self, text, expected):
        spec = dsl.parse(f"FACTORS\n  a: x y\nINITIAL\n  x : {text}\n  y : 1\n")
        got = next(e.amplitude for e in spec.initial if e.labels == ("x",))
        # parser normalizes; compare the ratio against the unnormalized oracle
        other = next(e.amplitude for e in spec.initial if e.labels == ("y",))
        assert got / other == pytest.approx(expected / 1.0, abs=1e-9)

    def test_sqrt_third_value(self):
        spec = dsl.parse("FACTORS\n  a: x\nINITIAL\n  x : 1/sqrt(3)\n")
        # normalization rescales to 1; the raw value is checked via the warning
        assert spec.initial[0].amplitude == pytest.approx(1.0, abs=1e-12)
        assert any("norm" in w.message for w in spec.warnings)

    @pytest.mark.parametrize("text,same", [("\u0661/sqrt(\u0662)", "1/sqrt(2)"),
                                           ("1\u3000+\u30001", "2")])
    def test_any_digit_and_any_blank(self, text, same):
        # a lexer built with re.ASCII or [0-9] fails this
        def spec(amplitude):
            return repr(dsl.parse(f"FACTORS\n  a: x y\nINITIAL\n  x : {amplitude}\n  y : 1\n"))
        assert spec(text) == spec(same)

    def test_division_by_zero_is_diagnosed(self):
        with pytest.raises(dsl.ScenarioSyntaxError) as err:
            dsl.parse("FACTORS\n  a: x\nINITIAL\n  x : 1/0\n")
        assert any("division by zero" in d.message for d in err.value.diagnostics)


def _scn(*lines, factors=("a: x y", "b: u v"), initial=("x u : 1",)):
    """Two factors and an INITIAL section, then the given lines verbatim."""
    text = ["FACTORS", *(f"  {f}" for f in factors)]
    if initial:
        text += ["INITIAL", *(f"  {e}" for e in initial)]
    return "\n".join(text + list(lines)) + "\n"


def _gate(gate):
    return _scn("GATES", f"  {gate}")


class TestParserDiagnostics:
    def test_no_factors(self):
        with pytest.raises(dsl.ScenarioValidationError) as err:
            dsl.parse("FACTORS\nINITIAL\n  x : 1\n")
        assert any("no factors" in d.message for d in err.value.diagnostics)

    def test_unknown_label_with_position(self):
        with pytest.raises(dsl.ScenarioValidationError) as err:
            dsl.parse("FACTORS\n  a: x y\nINITIAL\n  z : 1\n  x : 1\n")
        diag = next(d for d in err.value.diagnostics if "unknown label" in d.message)
        assert (diag.line, diag.column) == (4, 3)

    BASE = ["FACTORS", "  a: x y", "INITIAL", "  x : 1"]

    @pytest.mark.parametrize("at,added,line,col,error", [
        (4, ["OBSERVABLES", "  O = 2*proj(a=z)"], 6, 16, dsl.ScenarioValidationError),
        (4, ["GATES", "  t1 swap_map a : x -> q"], 6, 24, dsl.ScenarioValidationError),
        (4, ["GATES", "  t1 beamsplitter b : x y -> x y"], 6, 19, dsl.ScenarioValidationError),
        (4, ["GATES", "  t1 projector_select a : x w as k"], 6, 29,
         dsl.ScenarioValidationError),
        (4, ["GATES", "  t1 frobnicate a : x"], 6, 6, dsl.ScenarioSyntaxError),
        (1, ["  a: x y("], 2, 8, dsl.ScenarioSyntaxError),
        (2, ["  a: u v"], 3, 3, dsl.ScenarioValidationError),
        (4, ["  z : 1"], 5, 3, dsl.ScenarioValidationError),
        # the out pair must be the in pair in the same order, or disjoint from it
        (4, ["GATES", "  t1 beamsplitter a : x y -> y x"], 6, 30, dsl.ScenarioValidationError),
    ])
    def test_diagnostic_points_at_the_offending_word(self, at, added, line, col, error):
        text = "\n".join(self.BASE[:at] + added + self.BASE[at:]) + "\n"
        with pytest.raises(dsl.ScenarioFileError) as err:
            dsl.parse(text)
        first = err.value.diagnostics[0]
        assert (first.line, first.column, type(err.value)) == (line, col, error)

    @pytest.mark.parametrize("added,line,col,message", [
        (["POSTSELECT as (", "  x : 1"], 5, 15, "invalid name token '('"),
        (["GATES", "  t1 projector_select a : x y as k", "  t2 projector_select a : x as k"],
         7, 32, "record name 'k' already used on line 6"),
        (["GATES", "  t1 projector_select a : x y as k", "POSTSELECT as k", "  x : 1"],
         7, 15, "record name 'k' already used on line 6"),
        (["POSTSELECT as k", "  x : 1", "GATES", "  t1 projector_select a : x as k"],
         8, 32, "record name 'k' already used on line 5"),
        (["GATES", "  t1 projector_select a : x as postselect", "POSTSELECT", "  x : 1"],
         7, 1, "record name 'postselect' already used on line 6"),
        # an unnamed selection is recorded as {epoch}_{target}_{labels}
        (["GATES", "  t1 projector_select a : x y", "  t1 projector_select a : x y"],
         7, 27, "record name 't1_a_x_y' already used on line 6"),
        (["GATES", "  t1 projector_select a : x y as t2_a_x", "  t2 projector_select a : x"],
         7, 27, "record name 't2_a_x' already used on line 6"),
        (["GATES", "  t1 projector_select a : x y", "POSTSELECT as t1_a_x_y", "  x : 1"],
         7, 15, "record name 't1_a_x_y' already used on line 6"),
    ])
    def test_record_names_are_valid_and_unique(self, added, line, col, message):
        # a repeated name would keep only the last probability under that key
        with pytest.raises(dsl.ScenarioFileError) as err:
            dsl.parse("\n".join(self.BASE + added) + "\n")
        [diag] = err.value.diagnostics
        error = dsl.ScenarioSyntaxError if "token" in message else dsl.ScenarioValidationError
        assert (diag.line, diag.column, diag.message, type(err.value)) == (
            line, col, message, error)

    @pytest.mark.parametrize("text,diagnostic,error", [
        (_gate("t1 beamsplitter a b : x y -> x y"),
         (7, 21, "beamsplitter takes exactly one target factor"), dsl.ScenarioSyntaxError),
        (_gate("t1 beamsplitter a : x y x y"),
         (7, 22, "expected 'in1 in2 -> out1 out2'"), dsl.ScenarioSyntaxError),
        (_gate("t1 beamsplitter a : x y -> x as"),
         (7, 32, "unknown label 'as' for factor 'a'"), dsl.ScenarioValidationError),
        (_gate("t1 beamsplitter a : x z -> x y"),
         (7, 25, "unknown label 'z' for factor 'a'"), dsl.ScenarioValidationError),
        (_gate("t1 beamsplitter a : x x -> x y"),
         (7, 25, "beamsplitter mode pairs must be distinct"), dsl.ScenarioValidationError),
        (_gate("t1 swap_map a b : x u x v"),
         (7, 20, "expected 'src... -> dst...'"), dsl.ScenarioSyntaxError),
        (_gate("t1 swap_map a : x -> y -> x"),
         (7, 26, "only one '->' allowed"), dsl.ScenarioSyntaxError),
        (_gate("t1 swap_map a b : x -> y"),
         (7, 20, "need 2 labels on each side of '->', one per target factor"),
         dsl.ScenarioSyntaxError),
        (_gate("t1 swap_map a : x -> proj"),
         (7, 24, "unknown label 'proj' for factor 'a'"), dsl.ScenarioValidationError),
        (_gate("t1 swap_map a b : * u -> x v"),
         (7, 21, "wildcard '*' positions must match on both sides"), dsl.ScenarioSyntaxError),
        (_gate("t1 projector_select a b : x"),
         (7, 25, "projector_select takes exactly one target factor"), dsl.ScenarioSyntaxError),
        (_gate("t1 projector_select a : x as n y"),
         (7, 29, "'as NAME' must come last"), dsl.ScenarioSyntaxError),
        (_gate("t1 projector_select a : x as id"),
         (7, 32, "invalid name token 'id'"), dsl.ScenarioSyntaxError),
        (_gate("t1 projector_select a : as n"),
         (7, 26, "projector_select needs at least one label"), dsl.ScenarioSyntaxError),
        (_gate("t1 projector_select a : x ->"),
         (7, 29, "unknown label '->' for factor 'a'"), dsl.ScenarioValidationError),
        (_gate("t1 projector_select a : x x"),
         (7, 29, "duplicate labels in selection"), dsl.ScenarioValidationError),
        (_gate("t1 swap_map a a : x x -> y y"),
         (7, 17, "gate targets must be distinct factors"), dsl.ScenarioValidationError),
        (_scn(factors=("a: x x", "b: u v")),
         (2, 8, "duplicate labels in factor 'a'"), dsl.ScenarioValidationError),
        (_scn(initial=("x u : 1", "x u : 1")),
         (6, 3, "duplicate INITIAL entry for x u"), dsl.ScenarioValidationError),
        (_scn("OBSERVABLES", "  O = proj(a=x, a=y)"),
         (7, 17, "repeated factor inside one proj(...)"), dsl.ScenarioValidationError),
        (_scn("OBSERVABLES", "  O = proj(c=x)"),
         (7, 12, "unknown factor 'c'"), dsl.ScenarioValidationError),
        (_scn("OBSERVABLES", "  O = proj(a=x)", "  O = proj(a=y)"),
         (8, 3, "duplicate observable 'O'"), dsl.ScenarioValidationError),
        (_scn(initial=()),
         (1, 1, "INITIAL section is missing or empty"), dsl.ScenarioValidationError),
    ], ids=["bs_targets", "bs_shape", "bs_token", "bs_label", "bs_pairs", "swap_no_arrow",
            "swap_arrows", "swap_count", "swap_token", "swap_wildcard", "sel_targets",
            "sel_as_last", "sel_name", "sel_no_label", "sel_token", "sel_duplicate",
            "gate_targets", "factor_labels", "initial_entry", "proj_factor", "obs_factor",
            "obs_duplicate", "no_initial"])
    def test_each_reader_diagnostic(self, text, diagnostic, error):
        with pytest.raises(dsl.ScenarioFileError) as err:
            dsl.parse(text)
        [diag] = err.value.diagnostics
        assert ((diag.line, diag.column, diag.message), type(err.value)) == (diagnostic, error)

    @pytest.mark.parametrize("gate,diagnostics", [
        ("t1 beamsplitter a : zz y -> x ww", [(7, 23, "unknown label 'zz' for factor 'a'"),
                                             (7, 33, "unknown label 'ww' for factor 'a'")]),
        # the dst side starts at word n + 1; a '*' is passed over
        ("t1 swap_map a b : x * -> zz *", [(7, 28, "unknown label 'zz' for factor 'a'")]),
        ("t1 projector_select a : zz x qq as k", [(7, 27, "unknown label 'zz' for factor 'a'"),
                                                 (7, 32, "unknown label 'qq' for factor 'a'")]),
    ])
    def test_every_unknown_gate_label_is_reported(self, gate, diagnostics):
        with pytest.raises(dsl.ScenarioValidationError) as err:
            dsl.parse(_gate(gate))
        assert [(d.line, d.column, d.message) for d in err.value.diagnostics] == diagnostics

    def test_factors_may_follow_their_users(self):
        text = ("INITIAL\n  x : 1\nOBSERVABLES\n  O = proj(a=y)\n"
                "FACTORS\n  a: x y\n")
        assert dsl.parse(text).observables[0].terms == ((1, (("a", "y"),)),)

    def test_syntax_error_carries_position(self):
        with pytest.raises(dsl.ScenarioSyntaxError) as err:
            dsl.parse("FACTORS\n  a: x\nINITIAL\n  x : 1/\n")
        diag = err.value.diagnostics[0]
        assert diag.line == 4 and diag.column > 5

    def test_content_before_section(self):
        with pytest.raises(dsl.ScenarioSyntaxError) as err:
            dsl.parse("  x : 1\nFACTORS\n  a: x\nINITIAL\n  x : 1\n")
        assert any("before any section" in d.message for d in err.value.diagnostics)

    def test_duplicate_section(self):
        with pytest.raises(dsl.ScenarioValidationError) as err:
            dsl.parse("FACTORS\n  a: x\nFACTORS\nINITIAL\n  x : 1\n")
        assert [(d.line, d.column, d.message) for d in err.value.diagnostics] == [
            (3, 1, "section FACTORS already given on line 1")]

    @pytest.mark.parametrize("text,diagnostics", [
        ("FACTORS\n  a: x y\nINITIAL\n  x : 1\nINITIAL\n  y : 1\n",
         [(5, 1, "section INITIAL already given on line 3")]),
        # the lines under a repeated header are read with the first section
        ("FACTORS\n  a: x y\nINITIAL\n  x : 1\nINITIAL\n  x : 1\n",
         [(5, 1, "section INITIAL already given on line 3"),
          (6, 3, "duplicate INITIAL entry for x")]),
        ("FACTORS\n  a: x y\nFACTORS\n  b: u v\nINITIAL\n  x u : 1\n",
         [(3, 1, "section FACTORS already given on line 1")]),
    ], ids=["initial", "initial_entry", "factors"])
    def test_a_repeated_section_is_read_with_the_first(self, text, diagnostics):
        with pytest.raises(dsl.ScenarioValidationError) as err:
            dsl.parse(text)
        assert [(d.line, d.column, d.message) for d in err.value.diagnostics] == diagnostics

    @pytest.mark.parametrize("text,diagnostic", [
        (_scn(initial=("* u : 1",)), (5, 3, "unknown label '*' for factor 'a'")),
        (_scn("POSTSELECT", "  x * : 1"), (7, 5, "unknown label '*' for factor 'b'")),
        (_gate("t1 beamsplitter a : x y -> * y"), (7, 30, "unknown label '*' for factor 'a'")),
        (_gate("t1 projector_select a : *"), (7, 27, "unknown label '*' for factor 'a'")),
    ], ids=["initial", "postselect", "beamsplitter", "selection"])
    def test_a_written_wildcard_is_a_label_in_swap_map_alone(self, text, diagnostic):
        with pytest.raises(dsl.ScenarioValidationError) as err:
            dsl.parse(text)
        assert [(d.line, d.column, d.message) for d in err.value.diagnostics] == [diagnostic]

    @pytest.mark.parametrize("target", ["a(", "*", "proj", "b,c"])
    def test_a_bad_gate_target_is_an_unknown_factor(self, target):
        with pytest.raises(dsl.ScenarioValidationError) as err:
            dsl.parse(_gate(f"t1 swap_map {target} b : x u -> y v"))
        assert [(d.line, d.column, d.message) for d in err.value.diagnostics] == [
            (7, 15, f"unknown factor {target!r}")]

    def test_section_diagnostic_follows_a_repeated_first_entry(self):
        # the first entry in order keeps its place and takes its repeat's line
        with pytest.raises(dsl.ScenarioValidationError) as err:
            dsl.parse("FACTORS\n  a: x y\nINITIAL\n  x : 0\n  y : 0\n  x : 0\n")
        assert [(d.line, d.column, d.message) for d in err.value.diagnostics] == [
            (6, 1, "INITIAL state has zero norm and cannot be normalized"),
            (6, 3, "duplicate INITIAL entry for x")]

    def test_zero_norm_state(self):
        with pytest.raises(dsl.ScenarioValidationError) as err:
            dsl.parse("FACTORS\n  a: x y\nINITIAL\n  x : 0\n")
        assert any("zero norm" in d.message for d in err.value.diagnostics)

    @pytest.mark.parametrize("amplitude", ["1e200", "1e400", "0*1e400", "1e400-1e400"])
    def test_non_finite_norm_state(self, amplitude):
        with pytest.raises(dsl.ScenarioValidationError) as err:
            dsl.parse(f"FACTORS\n  a: x y\nINITIAL\n  y : 1\n  x : {amplitude}\n")
        assert [(d.line, d.column, d.message) for d in err.value.diagnostics] == [
            (4, 1, "INITIAL state norm is not finite and cannot be normalized")]

    def test_large_finite_norm_is_normalized(self):
        spec = dsl.parse("FACTORS\n  a: x y\nINITIAL\n  x : 1e154\n  y : 1\n")
        assert [w.message for w in spec.warnings] == [
            "INITIAL amplitudes had norm 1e+154; normalized to 1"]
        assert [e.amplitude for e in spec.initial] == [1.0, 1e-154]

    def test_epoch_revisit_rejected(self):
        text = ("FACTORS\n  a: x y\nINITIAL\n  x : 1\nGATES\n"
                "  t1 beamsplitter a : x y -> x y\n"
                "  t2 beamsplitter a : x y -> x y\n"
                "  t1 beamsplitter a : x y -> x y\n")
        with pytest.raises(dsl.ScenarioValidationError) as err:
            dsl.parse(text)
        assert any("revisited" in d.message for d in err.value.diagnostics)

    def test_canonical_epochs_in_schedule_order(self):
        # other epoch names may sit anywhere between t1, t2 and final
        def text(*epochs):
            return ("FACTORS\n  a: x y\nINITIAL\n  x : 1\nGATES\n"
                    + "".join(f"  {e} swap_map a : x -> y\n" for e in epochs))

        spec = dsl.parse(text("pre", "t1", "mid", "t2", "final", "post"))
        assert [g.epoch for g in spec.gates] == ["pre", "t1", "mid", "t2", "final", "post"]
        with pytest.raises(dsl.ScenarioValidationError) as err:
            dsl.parse(text("final", "t1", "t2"))
        assert [(d.line, d.column) for d in err.value.diagnostics] == [(7, 3), (8, 3)]

    def test_t0_epoch_reserved(self):
        text = ("FACTORS\n  a: x y\nINITIAL\n  x : 1\nGATES\n"
                "  t0 beamsplitter a : x y -> x y\n")
        with pytest.raises(dsl.ScenarioValidationError) as err:
            dsl.parse(text)
        assert any("reserved" in d.message for d in err.value.diagnostics)

    def test_non_unitary_custom_matrix(self):
        text = ("FACTORS\n  a: x y\nINITIAL\n  x : 1\nGATES\n"
                "  t1 custom_unitary a : [ 1, 0 ; 0, 2 ]\n")
        with pytest.raises(dsl.ScenarioValidationError) as err:
            dsl.parse(text)
        assert any("not unitary" in d.message for d in err.value.diagnostics)

    def test_any_whitespace_is_a_blank_in_a_matrix(self):
        text = ("FACTORS\n  a: x y\nINITIAL\n  x : 1\nGATES\n"
                "  t1 custom_unitary a : [\xa01, 0; 0, 1]\n")
        assert dsl.parse(text).gates[0].params == ((1, 0), (0, 1))

    def test_matrix_entry_error_points_at_the_entry(self):
        text = ("FACTORS\n  a: x y\nINITIAL\n  x : 1\nGATES\n"
                "  t1 custom_unitary a : [ 1, 0 ; 0, q ]\n")
        with pytest.raises(dsl.ScenarioSyntaxError) as err:
            dsl.parse(text)
        assert [(d.line, d.column) for d in err.value.diagnostics] == [(6, 37)]

    def test_non_square_matrix(self):
        text = ("FACTORS\n  a: x y\nINITIAL\n  x : 1\nGATES\n"
                "  t1 custom_unitary a : [ 1, 0 ; 0 ]\n")
        with pytest.raises(dsl.ScenarioSyntaxError) as err:
            dsl.parse(text)
        assert any("matrix must be square" in d.message for d in err.value.diagnostics)

    def test_matrix_dimension_mismatch(self):
        text = ("FACTORS\n  a: x y z\nINITIAL\n  x : 1\nGATES\n"
                "  t1 custom_unitary a : [ 1, 0 ; 0, 1 ]\n")
        with pytest.raises(dsl.ScenarioValidationError) as err:
            dsl.parse(text)
        assert any("span" in d.message for d in err.value.diagnostics)

    def test_normalization_warning(self):
        spec = dsl.parse("FACTORS\n  a: x y\nINITIAL\n  x : 1\n  y : 1\n")
        assert any("normalized to 1" in w.message for w in spec.warnings)
        total = sum(abs(e.amplitude) ** 2 for e in spec.initial)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_multiple_errors_reported_together(self):
        with pytest.raises(dsl.ScenarioSyntaxError) as err:
            dsl.parse("FACTORS\n  a x\n  b:\nINITIAL\n  q : 1/\n")
        assert len(err.value.diagnostics) >= 3


class TestObservableGrammar:
    X = (("a", "x"),)

    @staticmethod
    def parse_observable(expr):
        text = f"FACTORS\n  a: x y\nINITIAL\n  x : 1\nOBSERVABLES\n  O = {expr}\n"
        return dsl.parse(text).observables[0].terms

    @pytest.mark.parametrize("expr,terms", [
        ("2*proj(a=x)", ((2, X),)),
        ("-proj(a=x)", ((-1, X),)),
        ("- -proj(a=x)", ((1, X),)),
        ("1/sqrt(2)*proj(a=x)", ((1 / math.sqrt(2), X),)),
        ("(2*3)*proj(a=x)", ((6, X),)),
        ("1,2*proj(a=x)", ((1 + 2j, X),)),
        ("(1,-2)*id", ((1 - 2j, None),)),
        ("proj (a=x)", ((1, X),)),
        ("1e-3*proj(a=x)", ((1e-3, X),)),
        ("2*proj(a=x) - id", ((2, X), (-1, None))),
        ("2*\xa0proj(a=x)", ((2, X),)),
    ])
    def test_accepted(self, expr, terms):
        assert self.parse_observable(expr) == terms

    @pytest.mark.parametrize("expr", [
        "2*3*proj(a=x)", "1,-2*proj(a=x)", "proj(a=x)*2", "2 proj(a=x)",
        "2**proj(a=x)", "projx(a=x)", "idx",
    ])
    def test_rejected(self, expr):
        with pytest.raises(dsl.ScenarioSyntaxError):
            self.parse_observable(expr)


class TestEvaluateErrors:
    def test_orthogonal_postselect_carries_position(self):
        text = ("FACTORS\n  a: x y\n"
                "INITIAL\n  x : 1\n"
                "POSTSELECT\n  y : 1\n"
                "OBSERVABLES\n  PX = proj(a=x)\n")
        spec = dsl.parse(text)
        with pytest.raises(dsl.ScenarioValidationError) as err:
            dsl.evaluate(spec)
        assert err.value.diagnostics == [Diagnostic(
            5, 1, "|<post|pre>| = 0.000e+00 <= 1.0e-10; weak value undefined")]
        assert type(err.value.__cause__) is OrthogonalSelection

    def test_zero_probability_select_carries_position(self):
        text = ("FACTORS\n  a: x y\nINITIAL\n  x : 1\nGATES\n"
                "  t1 projector_select a : y\n")
        spec = dsl.parse(text)
        with pytest.raises(dsl.ScenarioValidationError) as err:
            dsl.evaluate(spec)
        assert err.value.diagnostics == [Diagnostic(
            6, 1, "branch probability 0.000e+00 < 1.0e-14")]
        assert type(err.value.__cause__) is ZeroProbabilityBranch

    @pytest.mark.parametrize("part,line,message", [
        ("initial", 2, "unknown label 'z' in factor 'a'"),
        ("postselect", 8, "unknown label 'z' in factor 'a'"),
        ("gate", 7, "no factor named 'c' in Space(a[2], b[2])"),
        ("observable", 8, "no factor named 'c' in Space(a[2], b[2])"),
    ])
    def test_unknown_name_in_a_built_spec_is_positioned(self, part, line, message):
        # the parser refuses these names, so only a spec built in code reaches
        # evaluate with one; its KeyError is positioned as a library refusal is
        spec = dsl.parse("FACTORS\n  a: x y\n  b: u v\nINITIAL\n  x u : 1\nGATES\n"
                         "  t1 projector_select a : x\nPOSTSELECT\n  x u : 1\n"
                         "OBSERVABLES\n  PX = proj(a=x)\n")
        unknown = (dsl.AmplitudeEntry(("z", "u"), 1.0),)
        spec = dataclasses.replace(spec, **{
            "initial": {"initial": unknown},
            "postselect": {"postselect": dataclasses.replace(spec.postselect, entries=unknown)},
            "gate": {"gates": (dataclasses.replace(spec.gates[0], targets=("c",)),)},
            "observable": {"observables": (dataclasses.replace(
                spec.observables[0], terms=((1.0, (("c", "x"),)),)),)},
        }[part])
        with pytest.raises(dsl.ScenarioValidationError) as err:
            dsl.evaluate(spec)
        assert err.value.diagnostics == [Diagnostic(line, 1, message)]
        assert type(err.value.__cause__) is KeyError

    @pytest.mark.parametrize("initial,post,line", [
        ((), None, 1), ((dsl.AmplitudeEntry(("x",), 0.0),), None, 1),
        ((dsl.AmplitudeEntry(("x",), 1.0),), (dsl.AmplitudeEntry(("y",), 0.0),), 3),
    ], ids=["empty-initial", "zero-initial", "zero-postselect"])
    def test_zero_ket_in_a_built_spec_is_positioned(self, initial, post, line):
        # the parser refuses a zero section; one built in code is refused by Ket.unit
        spec = dsl.ScenarioSpec((dsl.FactorDecl("a", ("x", "y"), 1),), initial,
                                postselect=post and dsl.PostselectDecl("post", post, 3))
        with pytest.raises(dsl.ScenarioValidationError) as err:
            dsl.evaluate(spec)
        assert err.value.diagnostics == [Diagnostic(
            line, 1, "cannot normalize a ket of squared norm 0.0")]
        assert type(err.value.__cause__) is ZeroProbabilityBranch

    @pytest.mark.parametrize("change,line,message", [
        (lambda s: {"factors": s.factors[:1] * 2}, 2, "duplicate factor names: ['a', 'a']"),
        (lambda s: {"factors": ()}, 1, "space needs at least one factor"),
        (lambda s: {"gates": (dataclasses.replace(s.gates[0], params=("x", "x", "x", "y")),)},
         7, "each mode pair must name two distinct modes"),
        (lambda s: {"gates": (dataclasses.replace(s.gates[1], params=(("*",), ("x",))),)},
         8, "wildcard positions must match between src and dst"),
    ], ids=["factor-twice", "no-factors", "mode-twice", "wildcard-misaligned"])
    def test_name_refusal_in_a_built_spec_is_positioned(self, change, line, message):
        # the parser refuses each of these; a spec built in code is refused by hilbert
        spec = dsl.parse("FACTORS\n  a: x y\n  b: u v\nINITIAL\n  x u : 1\nGATES\n"
                         "  t1 beamsplitter a : x y -> x y\n  t2 swap_map a : x -> y\n")
        with pytest.raises(dsl.ScenarioValidationError) as err:
            dsl.evaluate(dataclasses.replace(spec, **change(spec)))
        assert err.value.diagnostics == [Diagnostic(line, 1, message)]
        assert type(err.value.__cause__) is InvalidNames

    @pytest.mark.parametrize("n_factors", [62, 70])
    def test_oversized_state_space_is_positioned(self, n_factors):
        # 2^62 complex amplitudes overflow numpy's byte count, 2^70 its index type
        spec = dsl.parse("# huge\nFACTORS\n"
                         + "".join(f"  q{i}: a b\n" for i in range(n_factors))
                         + "INITIAL\n  " + " ".join(["a"] * n_factors) + " : 1\n")
        with pytest.raises(dsl.ScenarioValidationError) as err:
            dsl.evaluate(spec)
        assert err.value.diagnostics == [Diagnostic(
            3, 1, f"state space of {2 ** n_factors} amplitudes is too large to allocate")]

    @pytest.mark.parametrize("n_factors", [62, 70])
    def test_oversized_state_space_is_refused_before_allocating(self, monkeypatch, n_factors):
        spec = dsl.parse("FACTORS\n" + "".join(f"  q{i}: a b\n" for i in range(n_factors))
                         + "INITIAL\n  " + " ".join(["a"] * n_factors) + " : 1\n")
        calls = []
        monkeypatch.setattr(hb, "from_amplitudes", lambda *args: calls.append(args))
        with pytest.raises(dsl.ScenarioValidationError) as err:
            dsl.evaluate(spec)
        assert err.value.diagnostics == [Diagnostic(
            2, 1, f"state space of {2 ** n_factors} amplitudes is too large to allocate")]
        assert calls == []

    @pytest.mark.parametrize("failing_call", [1, 2])  # INITIAL, then POSTSELECT
    @pytest.mark.parametrize("exc,expected", [
        (MemoryError, dsl.ScenarioValidationError),
        (ValueError, ValueError),  # not read as an allocation failure
        (DimensionMismatch, dsl.ScenarioValidationError),  # positioned as any library refusal
    ])
    def test_allocation_failure_is_positioned(self, monkeypatch, failing_call, exc, expected):
        spec = dsl.parse("FACTORS\n  a: x y\nINITIAL\n  x : 1\nPOSTSELECT\n  x : 1\n")
        calls = []
        from_amplitudes = hb.from_amplitudes

        def fail_once(sp, entries):
            calls.append(sp)
            if len(calls) == failing_call:
                raise exc("refused")
            return from_amplitudes(sp, entries)

        monkeypatch.setattr(hb, "from_amplitudes", fail_once)
        with pytest.raises(expected) as err:
            dsl.evaluate(spec)
        if exc is MemoryError:
            assert err.value.diagnostics == [Diagnostic(
                2, 1, "state space of 2 amplitudes is too large to allocate")]
        elif exc is DimensionMismatch:  # at the FACTORS line, then at POSTSELECT's
            assert err.value.diagnostics == [Diagnostic((2, 5)[failing_call - 1], 1, "refused")]
            assert type(err.value.__cause__) is DimensionMismatch
        else:
            assert type(err.value) is ValueError

    @pytest.mark.parametrize("target", ["apply_to_factors", "unit", "projector"])
    def test_memory_error_anywhere_is_positioned(self, monkeypatch, target):
        # a gate, a normalization and an observable's projector each allocate a state
        def no_memory(*args):
            raise MemoryError

        owner = {"apply_to_factors": hb, "unit": hb.Ket, "projector": hb.Operator}[target]
        monkeypatch.setattr(owner, target, no_memory)
        spec = dsl.parse("FACTORS\n  a: x y\nINITIAL\n  x : 1\n"
                         "GATES\n  t1 beamsplitter a : x y -> x y\n"
                         "OBSERVABLES\n  A = proj(a=x)\n")
        with pytest.raises(dsl.ScenarioValidationError) as err:
            dsl.evaluate(spec)
        assert err.value.diagnostics == [Diagnostic(
            2, 1, "state space of 2 amplitudes is too large to allocate")]

    def test_non_finite_weak_value_is_positioned(self):
        # the overlap (5e-9) passes the 1e-10 floor, and dividing by it
        # takes a finite observable's weak value past the float range
        text = ("FACTORS\n  a: x y\nINITIAL\n  x : 1\n  y : 1\n"
                "POSTSELECT\n  x : 1\n  y : -0.99999999\n"
                "OBSERVABLES\n  B = proj(a=x)\n  A = 1e308*proj(a=x)\n")
        with pytest.raises(dsl.ScenarioValidationError) as err:
            dsl.evaluate(dsl.parse(text))
        assert err.value.diagnostics == [
            Diagnostic(11, 1, "observable 'A' has a weak value that is not finite")]


class TestEvaluate:
    @pytest.mark.parametrize("tiny", ["1e-200", "1e-170"])
    def test_tiny_amplitudes_are_normalized(self, tiny):
        # each |a|^2 underflows to 0, so the norm is taken on a / max|a|
        def text(a):
            return (f"FACTORS\n  a: x y\nINITIAL\n  x : {a}\n  y : {a}\n"
                    "POSTSELECT\n  x : 1\n  y : -0.5\nOBSERVABLES\n  A = proj(a=x)\n")

        spec = dsl.parse(text(tiny))
        assert [(w.line, w.column, w.message) for w in spec.warnings] == [
            (4, 1, f"INITIAL amplitudes had norm {2 ** 0.5 * float(tiny):.12g}; normalized to 1"),
            (7, 1, "POSTSELECT amplitudes had norm 1.11803398875; normalized to 1")]
        got = dsl.evaluate(spec).weak_values["A"]
        want = dsl.evaluate(dsl.parse(text(1))).weak_values["A"]
        assert want == pytest.approx(2.0, abs=1e-14)
        assert abs(got - want) <= 1e-15

    def test_subnormal_squares_are_normalized_exactly(self):
        # 1e-160 ** 2 = 1e-320 is subnormal: its few bits must not set the norm
        spec = dsl.parse("FACTORS\n  a: x y\nINITIAL\n  x : 1e-160\n  y : 1e-160\n")
        assert [w.message for w in spec.warnings] == [
            "INITIAL amplitudes had norm 1.41421356237e-160; normalized to 1"]
        half = 0.5 ** 0.5
        for entry in spec.initial:
            assert abs(entry.amplitude - half) <= 2 * math.ulp(half)

    def test_zero_amplitudes_still_have_zero_norm(self):
        with pytest.raises(dsl.ScenarioValidationError) as err:
            dsl.parse("FACTORS\n  a: x y\nINITIAL\n  x : 0\n  y : 0\n")
        assert [(d.line, d.column, d.message) for d in err.value.diagnostics] == [
            (4, 1, "INITIAL state has zero norm and cannot be normalized")]

    def test_observables_without_postselect_are_expectations(self):
        text = ("FACTORS\n  a: x y\n"
                "INITIAL\n  x : 1/sqrt(2)\n  y : 1/sqrt(2)\n"
                "OBSERVABLES\n  PX = proj(a=x)\n  Z = proj(a=x) - proj(a=y)\n")
        res = dsl.evaluate(dsl.parse(text))
        assert res.weak_values["PX"] == pytest.approx(0.5, abs=1e-12)
        assert res.weak_values["Z"] == pytest.approx(0.0, abs=1e-12)

    NEAR_UNITARY = "FACTORS\n  s: a b\nINITIAL\n  a : 1/sqrt(2)\n  b : 1/sqrt(2)\nGATES\n"

    @pytest.mark.parametrize("rest,expected", [
        ("  t1 custom_unitary s : [1, 5e-9; 0, 1]\nOBSERVABLES\n  A = proj(s=a)\n",
         {"A": 0.5000000025}),
        ("  t1 custom_unitary s : [1, 4e-9; 4e-9, 1]\n  t2 projector_select s : a b as all\n",
         {"all": 1.0}),
        ("  t1 custom_unitary s : [1, 5e-9; 0, 1]\nPOSTSELECT\n  a : 1\n"
         "OBSERVABLES\n  A = proj(s=a)\n", {"postselect": 0.5000000025, "A": 1.0}),
    ], ids=["observable", "selection", "postselect"])
    def test_near_unitary_matrix_is_renormalized(self, tmp_path, capsys, rest, expected):
        # the parser accepts a matrix unitary to 1e-8, which moves the norm by
        # about that much: past the two-state vector's 1e-10 norm check and
        # the 1e-12 range check on probabilities
        path = tmp_path / "near.scn"
        path.write_text(self.NEAR_UNITARY + rest, encoding="utf-8")
        assert cli.main(["run", str(path), "--format", "jsonl"]) == 0
        out, err = capsys.readouterr()
        records = [r for r in map(json.loads, out.splitlines()) if r["kind"] != "meta"]
        assert err == ""
        assert {r["name"]: r["re"] for r in records} == pytest.approx(expected, abs=1e-12)
        assert all(r["re"] <= 1 + 1e-12 for r in records if r["kind"] == "probability")

    def test_custom_unitary_applies(self):
        text = ("FACTORS\n  a: x y\nINITIAL\n  x : 1\nGATES\n"
                "  t1 custom_unitary a : [ 0, 1 ; 1, 0 ]\n")
        res = dsl.evaluate(dsl.parse(text))
        assert res.states_by_epoch["t1"].amplitude(("y",)) == pytest.approx(1.0)

    def test_identity_term_and_scalars(self):
        text = ("FACTORS\n  a: x y\n"
                "INITIAL\n  x : 1\n"
                "OBSERVABLES\n  SHIFTED = 2*proj(a=x) - 0.5*id\n")
        res = dsl.evaluate(dsl.parse(text))
        assert res.weak_values["SHIFTED"] == pytest.approx(1.5, abs=1e-12)

    def test_wildcard_swap_map(self):
        text = ("FACTORS\n  a: x y\n  d: R C\n"
                "INITIAL\n  x R : 1/sqrt(2)\n  y R : 1/sqrt(2)\n"
                "GATES\n  t1 swap_map a d : * R -> * C\n")
        res = dsl.evaluate(dsl.parse(text))
        state = res.states_by_epoch["t1"]
        assert state.amplitude(("x", "C")) == pytest.approx(1 / math.sqrt(2))
        assert state.amplitude(("y", "C")) == pytest.approx(1 / math.sqrt(2))

    def test_large_space_builds_no_dense_operator(self, monkeypatch):
        # d = 2**10: projections, swaps and observables must stay structured
        names = [f"q{k}" for k in range(10)]
        rest = " ".join(f"a{k}" for k in range(3, 10))
        text = ("FACTORS\n"
                + "".join(f"  {nm}: a{k} b{k}\n" for k, nm in enumerate(names))
                + "INITIAL\n"
                + "  a0 a1 a2 " + rest + " : 1/sqrt(2)\n"
                + "  b0 a1 a2 " + rest + " : 1/sqrt(2)\n"
                + "GATES\n"
                + "  t1 beamsplitter q0 : a0 b0 -> a0 b0\n"
                + "  t1 swap_map q0 q1 : b0 a1 -> b0 b1\n"
                + "  t1 custom_unitary q2 : [ 0, 1 ; 1, 0 ]\n"
                + "  t2 projector_select q1 : b1 as flipped\n"
                + "POSTSELECT\n"
                + "  b0 b1 b2 " + rest + " : 1\n"
                + "OBSERVABLES\n"
                + "  P = proj(q0=b0)\n"
                + "  ODD = 2*proj(q1=b1) - id\n")
        dense_dims = []
        init = hb.Operator.__init__

        def counting_init(op, space, matrix, tag=""):
            dense_dims.append(space.dim)
            init(op, space, matrix, tag)

        monkeypatch.setattr(hb.Operator, "__init__", counting_init)
        res = dsl.evaluate(dsl.parse(text))
        assert res.states_by_epoch["t2"].space.dim == 1024
        assert res.probabilities["flipped"] == pytest.approx(0.5, abs=1e-12)
        assert res.weak_values["P"] == pytest.approx(1.0, abs=1e-12)
        assert res.weak_values["ODD"] == pytest.approx(1.0, abs=1e-12)
        assert [d for d in dense_dims if d > 64] == []

    def test_select_records_default_name(self):
        text = ("FACTORS\n  a: x y\nINITIAL\n  x : 1/sqrt(2)\n  y : 1/sqrt(2)\n"
                "GATES\n  t1 projector_select a : x\n")
        res = dsl.evaluate(dsl.parse(text))
        assert res.probabilities["t1_a_x"] == pytest.approx(0.5, abs=1e-12)


def _reference_observable(sp, terms):
    """An observable as operator arithmetic built it: each projector's diagonal
    times its coefficient, the products added left to right from the first."""
    diagonals = [hb.Operator.projector(sp, dict(constraints or ())).diagonal * coeff
                 for coeff, constraints in terms]
    total = diagonals[0]
    for d in diagonals[1:]:
        total = total + d
    return hb.Diagonal(sp, total)


OBSERVABLE_COEFFS = ("", "-", "2*", "i*", "-i*", "1/3*", "(1,-2)*", "(0,-0.0)*",
                     "-(0.3,-1)*")


def three_box_observables_text(seed, count=40):
    """The three-box selections with `count` seeded multi-term observables."""
    rng = random.Random(seed)
    terms = ("proj(box=box1)", "proj(box=box2)", "proj(box=box3)", "id")
    lines = []
    for k in range(count):
        expr = " + ".join(rng.choice(OBSERVABLE_COEFFS) + rng.choice(terms)
                          for _ in range(rng.randint(1, 4)))
        lines.append(f"  O{k} = {expr}{' - id' if rng.random() < 0.3 else ''}\n")
    return ("FACTORS\n  box: box1 box2 box3\n"
            "INITIAL\n  box1 : 1\n  box2 : 1\n  box3 : 1\n"
            "POSTSELECT\n  box1 : 1\n  box2 : 1\n  box3 : -1\n"
            "OBSERVABLES\n  NEGATED = -proj(box=box1) - proj(box=box2)\n"
            + "".join(lines))


class TestObservableIsOneDiagonal:
    """Each observable is one Diagonal, byte-equal to the per-term arithmetic,
    so a -0.0 entry of the first term stays -0.0."""

    @staticmethod
    def assert_matches_reference(monkeypatch, spec):
        seen = []
        weak_value = tsvf.weak_value

        def recording(tsv, op):
            seen.append((tsv, op))
            return weak_value(tsv, op)

        monkeypatch.setattr(tsvf, "weak_value", recording)
        res = dsl.evaluate(spec)
        assert len(seen) == len(spec.observables)
        for obs, (tsv, op) in zip(spec.observables, seen):
            ref = _reference_observable(op.space, obs.terms)
            assert isinstance(op, hb.Diagonal)
            assert op.diagonal.dtype == ref.diagonal.dtype
            assert op.diagonal.tobytes() == ref.diagonal.tobytes()
            assert res.weak_values[obs.name] == weak_value(tsv, ref)

    @pytest.mark.parametrize("scenario_id", FIXTURE_IDS)
    def test_fixture_observables(self, monkeypatch, scenario_id):
        self.assert_matches_reference(
            monkeypatch, dsl.load_file(dsl.builtin_scenario_path(scenario_id)))

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_multi_term_observables(self, monkeypatch, seed):
        spec = dsl.parse(three_box_observables_text(seed))
        # the first observable's reference holds a -0.0 for sum() to lose
        sp = hb.space(*((f.name, f.labels) for f in spec.factors))
        first = _reference_observable(sp, spec.observables[0].terms).diagonal.view(float)
        assert np.any((first == 0) & np.signbit(first))
        self.assert_matches_reference(monkeypatch, spec)


class TestAmplitudeMemo:
    """Each distinct amplitude text is evaluated once per parse."""

    @pytest.fixture
    def evals(self, monkeypatch):
        counts = collections.Counter()
        parse_module = importlib.import_module("tsvsim.dsl.parse")  # not dsl.parse, the function
        real = parse_module._eval

        def counted(rule, text, *args):
            if rule is TokenExpr.parse_pair:
                counts[text] += 1
            return real(rule, text, *args)

        monkeypatch.setattr(parse_module, "_eval", counted)
        return counts

    def test_each_distinct_text_once_per_parse(self, evals):
        text = ("FACTORS\n  a: x y\n  b: u v\nINITIAL\n  x u : 1/sqrt(2)\n"
                "  y v : 1/sqrt(2)\n  x v :  1/sqrt(2)\nPOSTSELECT\n  x u : 1/sqrt(2)\n"
                "  y u : -1/2\n  y v : -1/2\n")
        spec = dsl.parse(text)
        assert evals == {" 1/sqrt(2)": 1, "  1/sqrt(2)": 1, " -1/2": 1}
        assert [e.amplitude for e in spec.postselect.entries][1:] == [-0.5, -0.5]
        dsl.parse(text)
        assert evals == {" 1/sqrt(2)": 2, "  1/sqrt(2)": 2, " -1/2": 2}

    def test_generated_file(self, evals, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import gen

        text = gen.scn_text(0, "mid", 0)
        dsl.parse(text)
        section, tails = None, []
        for line in text.splitlines():
            if line[:1].strip():  # a header or comment at column 1
                section = line.split()[0]
            elif section in ("INITIAL", "POSTSELECT") and line.strip():
                tails.append(line.partition(":")[2])
        assert len(tails) == 4 + 256 > len(set(tails))
        assert evals == collections.Counter(set(tails))

    def test_failing_text_diagnosed_at_each_line(self, evals):
        text = "FACTORS\n  a: x y\nINITIAL\n  x : 1/0\n    y : 1/0\n"
        with pytest.raises(dsl.ScenarioSyntaxError) as err:
            dsl.parse(text)
        assert [(d.line, d.column, d.message) for d in err.value.diagnostics] == [
            (4, 8, "division by zero"), (5, 10, "division by zero")]
        assert evals == {" 1/0": 2}


def _grammar_pair(text):
    """text read by _Expr.parse_pair alone, with no plain-amplitude shortcut."""
    ex = TokenExpr(text, 0)
    value = ex.parse_pair()
    ex.finish()
    return value


def _bits(z):
    return struct.pack("<dd", z.real, z.imag)


_PLAIN_ATOMS = ("0", "-0", "+0", "-0.0", "1e400", "-1e400", "1e-400", ".5", "5.", "\u0663",
                "2E-3")
_BLANKS = ("", " ", "\t", "\xa0", "\u3000")


def _plain_forms(seed, count):
    """Seeded plain amplitudes: an atom, an a,b pair or an (a,b) pair, with a
    blank of _BLANKS, or none, in every slot, between a sign and its digits too."""
    rng = random.Random(seed)

    def blank():
        return rng.choice(_BLANKS)

    def atom():
        a = rng.choice(_PLAIN_ATOMS)
        if a[0] in "+-":
            a = a[0] + blank() + a[1:]
        return blank() + a + blank()

    for _ in range(count):
        shape = rng.randrange(3)
        if shape == 0:
            yield atom()
        elif shape == 1:
            yield f"{atom()},{atom()}"
        else:
            yield f"{blank()}({atom()},{atom()}){blank()}"


def _quotient_forms(seed, count):
    """Seeded quotients: a signed atom over an unsigned atom or over
    sqrt(unsigned atom), with a blank of _BLANKS, or none, in every slot."""
    rng = random.Random(seed)

    def blank():
        return rng.choice(_BLANKS)

    for _ in range(count):
        num = rng.choice(_PLAIN_ATOMS)
        if num[0] in "+-":
            num = num[0] + blank() + num[1:]
        den = rng.choice(_PLAIN_ATOMS).lstrip("+-")
        if rng.randrange(2):
            den = f"sqrt{blank()}({blank()}{den}{blank()})"
        yield f"{blank()}{num}{blank()}/{blank()}{den}{blank()}"


def _scn_corpus_texts(monkeypatch):
    """Every amplitude text and every custom_unitary literal of gen.scn_corpus
    seeds 0-3 and of the six fixtures."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gen

    files = [fixture_text(sid) for sid in FIXTURE_IDS]
    files += [text for seed in range(4) for corpus in gen.scn_corpus(seed).values()
              for text in corpus]
    amplitudes, matrices = set(), set()
    for text in files:
        section = None
        for line in text.splitlines():
            content = line.partition("#")[0]
            if not content.strip():
                continue
            if content[:1].strip():  # a header at column 1
                section = content.split()[0]
            elif section in ("INITIAL", "POSTSELECT"):
                amplitudes.add(content.partition(":")[2])
            elif section == "GATES" and "custom_unitary" in content:
                matrices.add(content.partition(":")[2])
    return amplitudes, matrices


class TestPlainAmplitudes:
    """A plain amplitude skips the grammar but keeps its bits."""

    def test_generated_texts_bit_for_bit(self, monkeypatch):
        texts, _ = _scn_corpus_texts(monkeypatch)
        assert any("sqrt" in text for text in texts) and any("/" in text for text in texts)
        for text in texts:
            value = _plain(text)
            assert value is not None, text  # 1/sqrt(k) and k/m too
            assert _bits(value) == _bits(_grammar_pair(text)), text

    def test_signed_zeros_overflow_unicode_and_blanks(self):
        for text in _plain_forms(25, 4000):
            value = _plain(text)
            assert value is not None, text
            assert _bits(value) == _bits(_grammar_pair(text)), text
        # the sign rule: an unsigned number or pair is read as written
        assert _bits(_plain("1e400")) == _bits(complex(math.inf, 0.0))
        assert _bits(_plain("(1,1e400)")) == _bits(complex(1.0, math.inf))
        assert _bits(_plain("-0,-0")) == _bits(complex(-0.0, -0.0))

    def test_seeded_quotients(self):
        plain = 0
        edges = [" -0/2", "1e400/2", "1/1e-400", "\u0663/sqrt(\u0663)"]
        for text in [*_quotient_forms(28, 4000), *edges]:
            value, diags = _plain(text), []
            got = token_eval(TokenExpr.parse_pair, text, 4, 6, diags)
            if got is None:  # the grammar's diagnostic: only a zero divisor here
                assert value is None and [d.message for d in diags] == ["division by zero"], text
                continue
            plain += 1
            assert value is not None, text
            assert _bits(value) == _bits(got) == _bits(_grammar_pair(text)), text
        assert 1500 < plain < 4004  # 5 of the 11 atoms read as zero
        assert repr(_plain("1e400/2")) == "(inf+nanj)"  # complex division, as in the grammar
        assert _bits(_plain("-0/2")) == _bits(_grammar_pair("-0/2"))

    @pytest.mark.parametrize("text,value", [
        ("(1)", "(1+0j)"),
        ("(1e400)", "(inf+0j)"),
        ("+1e400", "(inf+0j)"),
        ("-1e400", "(-inf+nanj)"),  # -1.0 * (inf+0j) as a complex product
        ("(-0,-1)", "(-0-1j)"),
        ("(0.5,-0)", "(0.5-0j)"),
        ("(1,1e400)", "(1+infj)"),
    ])
    def test_edge_texts_keep_the_grammars_bits(self, text, value):
        assert repr(_plain(text)) == value
        assert _bits(_plain(text)) == _bits(_grammar_pair(text))

    @pytest.mark.parametrize("text,value,diagnostic", [
        ("((1))", 1 + 0j, None),
        ("-(1,2)", -1 - 2j, None),
        ("--1", 1 + 0j, None),
        ("1,2,3", None, (4, 10, "unexpected trailing input")),
        ("(1,2", None, (4, 11, "expected ')'")),
        ("1/0", None, (4, 8, "division by zero")),
        ("1/sqrt(0)", None, (4, 8, "division by zero")),
        ("1/sqrt(-1)", complex(0.0, -1.0), None),
        ("1/-2", complex(-0.5, -0.0), None),
        ("1_0", None, (4, 8, "unexpected trailing input")),
        ("1/2 3", None, (4, 11, "unexpected trailing input")),
        ("1/sqrt(2))", None, (4, 16, "unexpected trailing input")),
        ("1/2*2", 1 + 0j, None),
    ])
    def test_other_texts_go_to_the_grammar(self, text, value, diagnostic):
        assert _plain(text) is None
        diags = []
        got = token_eval(TokenExpr.parse_pair, text, 4, 6, diags)  # as on line 4 below
        if value is not None:
            assert diags == [] and _bits(got) == _bits(value) == _bits(_grammar_pair(text))
            return
        assert got is None and [(d.line, d.column, d.message) for d in diags] == [diagnostic]
        with pytest.raises(dsl.ScenarioSyntaxError) as err:
            dsl.parse(f"FACTORS\n  a: x\nINITIAL\n  x : {text}\n")
        assert err.value.diagnostics == diags


def _grammar_matrix(text):
    """text read by _Expr.parse_matrix alone."""
    ex = TokenExpr(text, 0)
    rows = ex.parse_matrix()
    ex.finish()
    return rows


class TestPlainMatrices:
    """A custom_unitary literal whose entries are all plain skips the grammar."""

    def test_generated_literals_bit_for_bit(self, monkeypatch):
        _, matrices = _scn_corpus_texts(monkeypatch)
        assert len(matrices) > 100
        for text in matrices:
            rows = _plain_matrix(text)
            assert rows is not None, text
            assert [list(map(_bits, r)) for r in rows] == [
                list(map(_bits, r)) for r in _grammar_matrix(text)], text

    @pytest.mark.parametrize("text", [
        "[1,0;0,1]", " [ (1,0), (0,0) ; (0,0), (1,0) ] ",
        "[1/sqrt(2), 1/sqrt(2); 1/sqrt(2), -1/sqrt(2)]",
        "[\u30001\t,\xa00;0,1]", "[(-0,-1)]", "[1,0;0]",  # not square: custom_unitary says so
    ])
    def test_plain_literals_keep_the_grammars_bits(self, text):
        rows = _plain_matrix(text)
        assert rows is not None
        assert [list(map(_bits, r)) for r in rows] == [
            list(map(_bits, r)) for r in _grammar_matrix(text)]

    @pytest.mark.parametrize("text", [
        "[1,0;0,i]", "[]", "[1,0;]", "[1/0,0;0,1]", "[(1,2,3)]", "[1,(0;0),1]",
        "[1,0;0,1]]", "[[1,0;0,1]", "[1,0;0,1];", "[-(1,0)]", "1,0;0,1",
    ])
    def test_other_literals_go_to_the_grammar(self, text):
        assert _plain_matrix(text) is None


class TestParsedEntries:
    """A parsed AmplitudeEntry is a (labels, amplitude) pair, indistinguishable
    from a constructed one."""

    def test_parsed_entry_matches_constructed(self, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import gen

        spec = dsl.parse(gen.scn_text(0, "mid", 0))
        entries = spec.initial + spec.postselect.entries
        assert len(entries) == 4 + 256
        assert dsl.AmplitudeEntry._fields == ("labels", "amplitude")
        for e in entries:
            built = dsl.AmplitudeEntry(e.labels, e.amplitude)
            assert type(e) is dsl.AmplitudeEntry
            assert e == built and hash(e) == hash(built) and repr(e) == repr(built)
            again = pickle.loads(pickle.dumps(e))
            assert type(again) is dsl.AmplitudeEntry
            assert again == e and repr(again) == repr(e)
            with pytest.raises(AttributeError):
                e.amplitude = 0j


# Bound, in MiB, on the tracemalloc peak of one parse of gen.scn_text(0,
# "heavy", 0) after a warm-up parse. The reader that split each amplitude line
# twice peaked at 1.043 MiB on Python 3.11.7. A reader that holds a section's
# words at once, or entries with a dict of their own, goes past it.
HEAVY_PARSE_PEAK_MIB = 1.05


def test_heavy_parse_peak(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gen

    text = gen.scn_text(0, "heavy", 0)
    dsl.parse(text)
    gc.collect()
    tracemalloc.start()
    try:
        dsl.parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2 ** 20 <= HEAVY_PARSE_PEAK_MIB


# a -0.0 real part from -i and in a coefficient, and a -0.0 imaginary part
_SIGNED_ZEROS = _scn(
    "GATES", "  t1 custom_unitary a : [ 1, 0; 0, -i ]",
    "  t2 custom_unitary a b : [ (0.5,-0), 0.5, 0.5, 0.5; 0.5, -0.5, 0.5, -0.5;"
    " 0.5, 0.5, -0.5, -0.5; 0.5, -0.5, -0.5, 0.5 ]",
    "OBSERVABLES", "  O = (-0.0,-1.0)*proj(a=x)")


class TestRenderFixedPoint:
    """render(parse(render(spec))) == render(spec): a rendered value reads back
    with its bits."""

    @pytest.mark.parametrize("source", (*FIXTURE_IDS, "scn_corpus-0", "scn_corpus-1",
                                        "scn_corpus-2", "signed_zeros"))
    def test_render_is_a_fixed_point(self, source, monkeypatch):
        if source in FIXTURE_IDS:
            texts = [fixture_text(source)]
        elif source == "signed_zeros":
            texts = [_SIGNED_ZEROS]
        else:
            monkeypatch.syspath_prepend(str(PERFBENCH))
            import gen

            texts = [t for corpus in gen.scn_corpus(int(source[-1])).values() for t in corpus]
        for text in texts:
            once = dsl.render(dsl.parse(text))
            assert dsl.render(dsl.parse(once)) == once

    def test_signed_zeros_are_rendered(self):
        once = dsl.render(dsl.parse(_SIGNED_ZEROS))
        assert once.count("(-0.0,-1.0)") == 2 and "(0.5,-0.0)" in once


class TestSharedLabels:
    """Entry labels are the FACTORS line's own strings."""

    @pytest.mark.parametrize("source", (*FIXTURE_IDS, "scn_scaling-heavy-0"))
    def test_entries_hold_factor_strings(self, source, monkeypatch):
        if source in FIXTURE_IDS:
            text = fixture_text(source)
        else:
            monkeypatch.syspath_prepend(str(PERFBENCH))
            import gen

            text = gen.scn_text(0, "heavy", 0)
        spec = dsl.parse(text)
        entries = spec.initial + (spec.postselect.entries if spec.postselect else ())
        assert entries
        for e in entries:
            for label, factor in zip(e.labels, spec.factors, strict=True):
                assert label is factor.labels[factor.labels.index(label)]

    def test_unknown_label_keeps_the_written_word(self):
        text = "FACTORS\n  a: x y\n  b: u v\nINITIAL\n  x u : 1\n  u  zz : 1\n"
        with pytest.raises(dsl.ScenarioValidationError) as err:
            dsl.parse(text)
        assert [(d.line, d.column, d.message) for d in err.value.diagnostics] == [
            (6, 3, "unknown label 'u' for factor 'a'"),
            (6, 6, "unknown label 'zz' for factor 'b'")]


class TestFixtures:
    @pytest.mark.parametrize("scenario_id", FIXTURE_IDS)
    def test_fixture_matches_scenario(self, scenario_id):
        spec = dsl.load_file(dsl.builtin_scenario_path(scenario_id))
        got = dsl.evaluate(spec, scenario_id=scenario_id)
        runner = sc.SCENARIOS[scenario_id].runner
        ref = runner(trials=16, rng_seed=1) if scenario_id == "four_mirror" else runner()
        for key, value in got.probabilities.items():
            assert key in ref.probabilities
            assert abs(ref.probabilities[key] - value) <= 1e-10
        for key, value in got.weak_values.items():
            assert key in ref.weak_values
            assert abs(ref.weak_values[key] - value) <= 1e-10
        for key, state in got.states_by_epoch.items():
            assert key in ref.states_by_epoch
            ref_state = ref.states_by_epoch[key]
            assert ref_state.space == state.space
            np.testing.assert_allclose(ref_state.amplitudes, state.amplitudes,
                                       atol=1e-10)
        assert got.probabilities or got.weak_values

    @pytest.mark.parametrize("scenario_id", FIXTURE_IDS)
    def test_fixture_round_trips(self, scenario_id):
        spec = dsl.parse(fixture_text(scenario_id))
        assert dsl.parse(dsl.render(spec)) == spec

    @pytest.mark.parametrize("scenario_id", FIXTURE_IDS)
    def test_canonical_render_matches_golden(self, scenario_id):
        spec = dsl.parse(fixture_text(scenario_id))
        golden = (GOLDEN_DIR / f"{scenario_id}.scn").read_bytes()
        assert dsl.render(spec).encode() == golden

    def test_render_uses_lf_only(self):
        spec = dsl.parse(fixture_text("hardy"))
        text = dsl.render(spec)
        assert "\r" not in text
        assert text.endswith("\n")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = dsl.builtin_scenario_path("hardy")
        marked = tmp_path / "hardy.scn"
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert repr(dsl.load_file(marked)) == repr(dsl.load_file(path))
        marked.write_bytes(b"\xef\xbb\xbfab\x80")
        with pytest.raises(dsl.ScenarioSyntaxError) as err:
            dsl.load_file(marked)
        assert err.value.diagnostics[0].message.endswith("at byte 5")

    def test_no_utf8_file_diagnosed(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_bytes(b"\xff\xfeFACTORS")
        with pytest.raises(dsl.ScenarioSyntaxError):
            dsl.load_file(bad)


# ---------------------------------------------------------------------------
# property-based round trip on generated specs

from tsvsim.dsl.parse import _RESERVED_TOKENS  # noqa: E402

_token = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_'",
                 min_size=1, max_size=8).filter(
    lambda s: s not in _RESERVED_TOKENS)
_amplitude = st.complex_numbers(min_magnitude=1e-3, max_magnitude=10,
                                allow_nan=False, allow_infinity=False)
_angle = st.floats(-math.pi, math.pi)


@st.composite
def _unitary_2x2(draw):
    """e^{ia} [[cos t, -e^{il} sin t], [e^{ip} sin t, e^{i(p+l)} cos t]]."""
    a, t, p, lam = (draw(_angle) for _ in range(4))
    c, s, g = math.cos(t), math.sin(t), cmath.exp(1j * a)
    return ((g * c, -g * cmath.exp(1j * lam) * s),
            (g * cmath.exp(1j * p) * s, g * cmath.exp(1j * (p + lam)) * c))


@st.composite
def scenario_specs(draw):
    n_factors = draw(st.integers(1, 3))
    names = draw(st.lists(_token, min_size=n_factors, max_size=n_factors,
                          unique=True))
    factors = []
    for name in names:
        n_labels = draw(st.integers(2, 3))
        labels = draw(st.lists(_token, min_size=n_labels, max_size=n_labels,
                               unique=True))
        factors.append(dsl.FactorDecl(name, tuple(labels)))
    basis = [tuple(draw(st.sampled_from(f.labels)) for f in factors)
             for _ in range(draw(st.integers(1, 3)))]
    basis = list(dict.fromkeys(basis))
    amps = [draw(_amplitude) for _ in basis]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    initial = tuple(dsl.AmplitudeEntry(labels, a / norm)
                    for labels, a in zip(basis, amps))

    gates = []
    fac = factors[0]
    if draw(st.booleans()):
        l1, l2 = fac.labels[0], fac.labels[1]
        gates.append(dsl.GateDecl("t1", "beamsplitter", (fac.name,),
                                  (l1, l2, l1, l2)))
    if draw(st.booleans()):
        gates.append(dsl.GateDecl("t2", "projector_select", (fac.name,),
                                  (tuple(fac.labels[:2]),
                                   draw(st.sampled_from([None, "keep"])))))
    qubits = [f for f in factors if len(f.labels) == 2]
    if qubits and draw(st.booleans()):
        gates.append(dsl.GateDecl("t3", "custom_unitary",
                                  (draw(st.sampled_from(qubits)).name,),
                                  draw(_unitary_2x2())))
    if draw(st.booleans()):
        targets = draw(st.permutations(factors))[:draw(st.integers(1, n_factors))]
        src, dst = [], []
        for f in targets:
            carried = draw(st.booleans())
            src.append("*" if carried else draw(st.sampled_from(f.labels)))
            dst.append("*" if carried else draw(st.sampled_from(f.labels)))
        gates.append(dsl.GateDecl("t4", "swap_map", tuple(f.name for f in targets),
                                  (tuple(src), tuple(dst))))
    postselect = None
    if draw(st.booleans()):
        postselect = dsl.PostselectDecl(
            draw(st.sampled_from(["postselect", "final_click"])),
            tuple(dsl.AmplitudeEntry(labels, a / norm)
                  for labels, a in zip(basis, amps)))
    observables = ()
    if draw(st.booleans()):
        constraint = ((fac.name, draw(st.sampled_from(fac.labels))),)
        coeff = complex(draw(st.integers(-3, 3)) or 1)
        terms = [(coeff, constraint), (1 + 0j, None)]
        if n_factors >= 2:
            pair = draw(st.permutations(factors))[:2]
            terms.append((draw(_amplitude), tuple(
                (f.name, draw(st.sampled_from(f.labels))) for f in pair)))
        observables = (dsl.ObservableDecl("obs1", tuple(terms)),)
    return dsl.ScenarioSpec(factors=tuple(factors), initial=initial,
                            gates=tuple(gates), postselect=postselect,
                            observables=observables)


@given(scenario_specs())
@settings(max_examples=120, deadline=None)
def test_generated_specs_round_trip(spec):
    text = dsl.render(spec)
    assert dsl.parse(text) == spec


# reserved words, and words holding a delimiter other than ':', '#' or a blank
_BAD_NAMES = ("as", "id", "proj", "*", "x(", "a,b", "q=1")


def _label_column(line: str, k: int) -> int:
    """Column of the k-th word after the ':' of a rendered line."""
    colon = line.index(":")
    return colon + 3 + sum(len(w) + 1 for w in line[colon + 2:].split(" ")[:k])


def _bad_gate_label(g, bad):
    """g with one written label replaced by bad, and that label's index after
    the ':' and factor; None for a gate where bad would be syntax, not a label."""
    if g.kind == "beamsplitter":
        return dataclasses.replace(g, params=(bad, *g.params[1:])), 0, g.targets[0]
    if g.kind == "projector_select" and bad != "as":  # 'as' names the record
        labels, name = g.params
        return dataclasses.replace(g, params=((bad, *labels[1:]), name)), 0, g.targets[0]
    src, dst = g.params if g.kind == "swap_map" else ((), ())
    fixed = [k for k, s in enumerate(src) if s != "*"]
    if fixed and bad != "*":  # '*' is a swap_map label
        k = fixed[0]
        src = (*src[:k], bad, *src[k + 1:])
        return dataclasses.replace(g, params=(src, dst)), k, g.targets[k]
    return None


@given(scenario_specs(), st.sampled_from(_BAD_NAMES))
@settings(max_examples=80, deadline=None)
def test_a_bad_word_used_as_a_label_is_unknown(spec, bad):
    # the first INITIAL entry's first label, and a label of the first gate that has one
    first, n = spec.initial[0], len(spec.factors)
    initial = (first._replace(labels=(bad, *first.labels[1:])), *spec.initial[1:])
    expected = {(n + 4, 3, f"unknown label {bad!r} for factor {spec.factors[0].name!r}")}
    gates, replaced = list(spec.gates), None
    for at, g in enumerate(gates):
        if (replaced := _bad_gate_label(g, bad)) is not None:
            gates[at], k, factor = replaced
            break
    text = dsl.render(dataclasses.replace(spec, initial=initial, gates=tuple(gates)))
    if replaced is not None:
        lines = text.splitlines()
        line = lines.index("GATES") + 2 + at
        expected.add((line, _label_column(lines[line - 1], k),
                      f"unknown label {bad!r} for factor {factor!r}"))
    with pytest.raises(dsl.ScenarioValidationError) as err:
        dsl.parse(text)
    assert {(d.line, d.column, d.message) for d in err.value.diagnostics} == expected


@given(scenario_specs(), st.sampled_from(_BAD_NAMES))
@settings(max_examples=40, deadline=None)
def test_a_bad_word_declared_as_a_label_is_a_syntax_error(spec, bad):
    f = spec.factors[0]
    factors = (dataclasses.replace(f, labels=(bad, *f.labels[1:])), *spec.factors[1:])
    with pytest.raises(dsl.ScenarioSyntaxError) as err:
        dsl.parse(dsl.render(dataclasses.replace(spec, factors=factors)))
    assert [(d.line, d.column, d.message) for d in err.value.diagnostics] == [
        (2, len(f.name) + 5, f"invalid label token {bad!r}")]


@given(st.text(max_size=300))
@settings(max_examples=400, deadline=None)
def test_parser_never_crashes(text):
    try:
        dsl.parse(text)
    except dsl.ScenarioFileError as e:
        assert e.diagnostics
        assert all(d.line >= 1 and d.column >= 1 for d in e.diagnostics)


# ---------------------------------------------------------------------------
# the token-driven _Expr against the character-cursor _Expr it replaced

# The character-cursor parser and its _eval, kept verbatim as the reference
# but for the finite-coefficient check and the sign rule (a sign multiplies
# only where an odd run of '-' is written) both gained later: every rule must
# give the same value (compared by repr) or the same Diagnostic.

_NUM_RE = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_FACTOR_RE = re.compile(r"[^=,)]*")
_LABEL_RE = re.compile(r"[^,)]*")


class _ExprError(Exception):
    def __init__(self, column: int, message: str):
        self.column = column
        self.message = message
        super().__init__(message)


class _Expr:
    """Recursive-descent parser for every .scn expression: amplitudes,
    custom_unitary matrix literals and observables.

    Grammar (each rule is a parse_* method; _eval runs one over a whole text):
        pair       := expr [',' expr]
        expr       := term (('+'|'-') term)*
        term       := factor (('*'|'/') factor)*
        factor     := ('+'|'-')* atom
        atom       := NUMBER | 'i' | 'sqrt' '(' pair ')' | '(' pair ')'
        matrix     := '[' row (';' row)* ']'        row   := expr (',' expr)*
        observable := oterm (('+'|'-') oterm)*      oterm := ('+'|'-')* [coeff '*'] primary
        coeff      := quot [',' quot]               quot  := atom ('/' atom)*
        primary    := 'id' | 'proj' '(' factor '=' label (',' factor '=' label)* ')'

    A coeff has no top-level '*', '+' or '-': `(2*3)*proj(...)` needs its
    parentheses. In a primary, factor and label are the text between the
    delimiters, stripped; parse_primary records each with its column in
    `projs`, which parse_observable returns beside the terms so that the
    caller can check them against FACTORS. A blank is any whitespace
    character (str.isspace), as between words.
    """

    def __init__(self, text: str, offset: int):
        self.text = text
        self.offset = offset  # column of text[0] in the original line
        self.pos = 0
        self.projs: list[list[tuple[str, int, str, int]]] = []  # parse_primary's names

    def _skip_ws(self) -> None:
        while self.text[self.pos:self.pos + 1].isspace():
            self.pos += 1

    def _col(self) -> int:
        return self.offset + self.pos + 1

    def _fail(self, message: str):
        raise _ExprError(self._col(), message)

    def peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _at(self, chars: str) -> bool:
        ch = self.peek()
        return ch != "" and ch in chars

    def _word(self) -> str:
        self._skip_ws()
        m = _WORD_RE.match(self.text, self.pos)
        return m.group(0) if m else ""

    def eat(self, ch: str) -> None:
        if self.peek() != ch:
            self._fail(f"expected {ch!r}")
        self.pos += 1

    def parse_pair(self, expr=None) -> complex:
        """pair, or coeff when expr is parse_quot."""
        expr = expr or self.parse_expr
        value = expr()
        if self.peek() == ",":
            self.pos += 1
            col = self._col()
            imag = expr()
            if abs(value.imag) > 0 or abs(imag.imag) > 0:
                raise _ExprError(col, "re,im parts of a pair must be real")
            value = complex(value.real, imag.real)
        return value

    def parse_expr(self) -> complex:
        value = self.parse_term()
        while self._at("+-"):
            op = self.text[self.pos]
            self.pos += 1
            rhs = self.parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self, ops: str = "*/", signed: bool = True) -> complex:
        value = self.parse_factor(signed)
        while self._at(ops):
            op = self.text[self.pos]
            col = self._col()
            self.pos += 1
            rhs = self.parse_factor(signed)
            if op == "/":
                if rhs == 0:
                    raise _ExprError(col, "division by zero")
                value /= rhs
            else:
                value *= rhs
        return value

    def parse_quot(self) -> complex:
        return self.parse_term("/", signed=False)

    def parse_factor(self, signed: bool = True) -> complex:
        minus = False
        while signed and self._at("+-"):
            minus ^= self.text[self.pos] == "-"
            self.pos += 1
        value = self.parse_atom()
        return -1.0 * value if minus else value

    def parse_atom(self) -> complex:
        if self.peek() == "(":
            self.pos += 1
            value = self.parse_pair()
            self.eat(")")
            return value
        m = _NUM_RE.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return complex(float(m.group(0)))
        word = self._word()
        if word == "i":
            self.pos += len(word)
            return 1j
        if word == "sqrt":
            self.pos += len(word)
            self.eat("(")
            inner = self.parse_pair()
            self.eat(")")
            return cmath.sqrt(inner)
        self._fail("expected a number, 'i', 'sqrt(...)' or '(...)'")

    def parse_matrix(self) -> tuple:
        if self.peek() != "[":
            self._fail("expected a matrix literal [a, b; c, d]")
        self.pos += 1
        rows, row = [], []
        while True:
            row.append(self.parse_expr())
            if not self._at(",;]"):
                self._fail("expected ',', ';' or ']'")
            sep = self.text[self.pos]
            self.pos += 1
            if sep != ",":
                rows.append(tuple(row))
                row = []
            if sep == "]":
                return tuple(rows)

    def parse_observable(self) -> tuple:
        terms = []
        while True:
            minus = False
            while self._at("+-"):
                minus ^= self.text[self.pos] == "-"
                self.pos += 1
            coeff = complex(1.0)
            if self._word() in ("", "i", "sqrt") and self.peek():  # no name next: a coeff
                col = self._col()
                coeff = self.parse_pair(self.parse_quot)
                if not cmath.isfinite(coeff):  # added with the same rule in parse.py
                    raise _ExprError(col, "coefficient is not finite")
                self.eat("*")
            terms.append((-1.0 * coeff if minus else coeff, self.parse_primary()))
            if not self._at("+-"):
                return tuple(terms), self.projs

    def parse_primary(self) -> tuple[tuple[str, str], ...] | None:
        word = self._word()
        if word not in ("id", "proj"):
            self._fail("expected proj(...) or id")
        self.pos += len(word)
        if word == "id":
            return None
        self.eat("(")
        constraints, names = [], []
        while True:
            factor, factor_col = self._name(_FACTOR_RE)
            self.eat("=")
            label, label_col = self._name(_LABEL_RE)
            constraints.append((factor, label))
            names.append((factor, factor_col, label, label_col))
            if self.peek() != ",":
                break
            self.pos += 1
        self.eat(")")
        self.projs.append(names)
        return tuple(constraints)

    def _name(self, pattern: re.Pattern) -> tuple[str, int]:
        """The text pattern matches up to a delimiter, stripped and non-empty,
        with its column."""
        m = pattern.match(self.text, self.pos)
        raw = m.group(0)
        name = raw.strip()
        if not name:
            self._fail("empty factor or label in proj(...)")
        column = self._col() + len(raw) - len(raw.lstrip())
        self.pos = m.end()
        return name, column

    def finish(self) -> None:
        self._skip_ws()
        if self.pos != len(self.text):
            self._fail("unexpected trailing input")


def _eval(rule, text: str, line: int, offset: int, diags: list[Diagnostic]):
    """Run one _Expr rule (an unbound parse_* method) over the whole of text.

    Returns its value, or None after appending a positioned diagnostic.
    """
    try:
        ex = _Expr(text, offset)
        value = rule(ex)
        ex.finish()
        return value
    except _ExprError as e:
        diags.append(Diagnostic(line, e.column, e.message))
        return None
    except RecursionError:
        diags.append(Diagnostic(line, offset + 1, "expression nested too deeply"))
        return None


_RULES = ("parse_pair", "parse_matrix", "parse_observable")


def _assert_same_as_reference(text, offset=0):
    for rule in _RULES:
        got, want = [], []
        value = token_eval(getattr(TokenExpr, rule), text, 1, offset, got)
        reference = _eval(getattr(_Expr, rule), text, 1, offset, want)
        assert (repr(value), got) == (repr(reference), want), (rule, text)


class TestTokenExprMatchesReference:
    @pytest.mark.parametrize("scenario_id", FIXTURE_IDS)
    def test_fixture_expression_tails(self, scenario_id):
        for line in fixture_text(scenario_id).splitlines():
            content = line.partition("#")[0]
            for sep in ":=":
                head, found, tail = content.partition(sep)
                if found:
                    _assert_same_as_reference(tail, len(head) + 1)

    @pytest.mark.parametrize("text,column,message", [
        ("1,   (0,1)", 3, "re,im parts of a pair must be real"),  # just past the ','
        ("1 +", 4, "expected a number, 'i', 'sqrt(...)' or '(...)'"),  # one past the text
        ("1/ 0", 2, "division by zero"),
        (" 1e400*proj(a=x)", 2, "coefficient is not finite"),
        ("proj(  a b =x)", 8, None),
        ("proj(a=\t )", 8, "empty factor or label in proj(...)"),  # just past the '='
        ("proj( a = x , b= y)* 2", 20, "unexpected trailing input"),
        ("(" * 2000, 1, "expression nested too deeply"),
    ])
    def test_columns(self, text, column, message):
        _assert_same_as_reference(text)
        diags = []
        rule = TokenExpr.parse_observable if "proj" in text else TokenExpr.parse_pair
        value = token_eval(rule, text, 1, 0, diags)
        if message is None:  # a proj name's column is its first non-blank character
            assert value[1] == [[("a b", column, "x", 13)]]
        else:
            assert diags == [Diagnostic(1, column, message)]

    def test_texts_of_fuzz_pieces(self):
        rng = random.Random(8)
        for _ in range(3000):
            words = [rng.choice(FUZZ_PIECES) if rng.random() < 0.6
                     else "".join(rng.choice(string.printable + "\u0663\u3000é")
                                  for _ in range(rng.randrange(1, 4)))
                     for _ in range(rng.randrange(0, 12))]
            _assert_same_as_reference(rng.choice(["", " ", "  "]).join(words),
                                      rng.randrange(0, 8))

    @given(st.lists(st.sampled_from(
        [*"0123456789", "\u0663", *".eEi", "sqrt", "proj", "id", *"+-*/(),;[]=",
         *"axZ_", " ", "\t", "\u3000"]), max_size=24).map("".join), st.integers(0, 9))
    @settings(max_examples=1000, deadline=None)
    @example("1e310", 0)  # an unsigned overflow: inf+0j under the sign rule
    def test_random_expressions(self, text, offset):
        _assert_same_as_reference(text, offset)
