"""Parser, validator, and canonical serializer for the .scn scenario format.

The format is line oriented with five sections:

    FACTORS       name: label label ...
    INITIAL       label-per-factor ... : amplitude
    GATES         epoch kind targets : parameters
    POSTSELECT    like INITIAL; header may carry "as NAME"
    OBSERVABLES   NAME = sum of [coeff *] proj(factor=label, ...) or id

Sections may come in any order. parse() reads the file in one pass with a
_Reader: it reads FACTORS lines as its header scan meets them and keeps every
other line, in file order, to read against the complete factor table. Each
name is checked where it is read, and every diagnostic about a word points at
that word's column. Syntax diagnostics raise ScenarioSyntaxError; only when
there are none do semantic ones (unknown names, duplicates, epoch order,
matrix size and unitarity) raise ScenarioValidationError.

One recursive-descent parser, _Expr, reads every expression: amplitudes,
custom_unitary matrix literals and observables. It lexes each expression once
with one master regex, and its rules consume the tokens; its docstring holds
the grammar. Amplitudes accept sugar such as 1/sqrt(3), i, -0.5, 2/3, and an
explicit re,im pair; a parenthesized (re,im) works anywhere a scalar does.
Only a run of '+'/'-' with an odd number of '-' changes a value (_signed).
`#` starts a comment, and a blank is any whitespace character. Parsing is
total: malformed input produces diagnostics with line and column positions,
never a crash. Each distinct amplitude text is evaluated once per parse; a
plain one (a signed number or a re,im pair of them, in parentheses or not)
is read by one regex and _signed, so with the grammar's bits, and any other
text by _Expr. Entry labels are the FACTORS line's own strings; every
unknown label is reported as written. The parser normalizes INITIAL and
POSTSELECT amplitude lists and records a warning when the written norm is
off by more than 1e-9.

render() is the canonical serializer: LF line endings, fixed section order,
repr-exact re,im amplitudes. parse(render(spec)) == spec, and render is a
fixed point: render(parse(render(spec))) == render(spec).
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass, field
from itertools import accumulate
from math import inf, isfinite, prod
from operator import attrgetter
from sys import float_info
from typing import Sequence

from ..hilbert import is_unitary
from ..scenarios import EPOCH_ORDER

NORM_WARN_TOL = 1e-9
UNITARY_TOL = 1e-8

SECTIONS = ("FACTORS", "INITIAL", "GATES", "POSTSELECT", "OBSERVABLES")
GATE_KINDS = ("beamsplitter", "swap_map", "projector_select", "custom_unitary")
_RESERVED_TOKENS = {"->", "as", "*", "proj", "id", *SECTIONS, *GATE_KINDS}
_DELIMITER = re.compile(r"[ \t#:,()\[\]=;*]")  # never part of a name


@dataclass(frozen=True)
class Diagnostic:
    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}, col {self.column}: {self.message}"


class ScenarioFileError(Exception):
    """Carries one or more positioned diagnostics for a .scn file."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


class ScenarioSyntaxError(ScenarioFileError):
    pass


class ScenarioValidationError(ScenarioFileError):
    pass


# ---------------------------------------------------------------------------
# spec dataclasses (line fields are positions only, excluded from equality)


@dataclass(frozen=True)
class FactorDecl:
    name: str
    labels: tuple[str, ...]
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class AmplitudeEntry:
    labels: tuple[str, ...]
    amplitude: complex
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class GateDecl:
    epoch: str
    kind: str
    targets: tuple[str, ...]
    # kind-specific payload:
    #   beamsplitter      (in1, in2, out1, out2)
    #   swap_map          (src tuple, dst tuple), "*" = carried-through wildcard
    #   projector_select  (labels tuple, record name or None)
    #   custom_unitary    row-major tuple of row tuples of complex
    params: tuple
    line: int = field(compare=False, default=0)


def selection_record(epoch: str, target: str, labels: Sequence[str], name: str | None) -> str:
    """The probability key of a projector_select: its 'as' name, else
    {epoch}_{target}_{labels joined by '_'}."""
    return name or f"{epoch}_{target}_{'_'.join(labels)}"


@dataclass(frozen=True)
class PostselectDecl:
    name: str
    entries: tuple[AmplitudeEntry, ...]
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class ObservableDecl:
    name: str
    # terms: (coefficient, constraints) with constraints a tuple of
    # (factor, label) pairs, or None for the identity
    terms: tuple[tuple[complex, tuple[tuple[str, str], ...] | None], ...]
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class ScenarioSpec:
    factors: tuple[FactorDecl, ...]
    initial: tuple[AmplitudeEntry, ...]
    gates: tuple[GateDecl, ...] = ()
    postselect: PostselectDecl | None = None
    observables: tuple[ObservableDecl, ...] = ()
    warnings: tuple[Diagnostic, ...] = field(compare=False, default=())


# ---------------------------------------------------------------------------
# expression parser


# _Expr's lexer (its docstring has the tokens). No re.ASCII: \s is exactly
# str.isspace, and \d is every digit that float() reads.
_TOKEN_RE = re.compile(r"(\s*)(?:((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
                       r"|([A-Za-z_][A-Za-z_0-9]*)|(\S)|\Z)")
# A plain amplitude: a signed NUMBER or a re,im pair of them, either one in
# parentheses or not, with blanks anywhere; _plain reads it as the grammar would.
# NUMBER is the lexer's, spelled so that a failed match backtracks little.
_SIGNED = r"(?:([+-])\s*)?((?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)\s*"
_PLAIN_RE = re.compile(rf"\s*(\(\s*)?{_SIGNED}(?:,\s*{_SIGNED})?(?(1)\)\s*)")


class _ExprError(Exception):
    def __init__(self, column: int, message: str):
        self.column = column
        self.message = message
        super().__init__(message)


class _Expr:
    """Recursive-descent parser for every .scn expression: amplitudes,
    custom_unitary matrix literals and observables.

    One _TOKEN_RE.findall() lexes the text into (blank, num, word, op)
    tokens: the blank (any str.isspace run) before the token, then its text
    in the slot of its kind, NUMBER, [A-Za-z_][A-Za-z_0-9]* or any other
    single character; the end token has all three empty. The rules consume
    tokens by index. Positions, needed only for a diagnostic or a proj(...)
    name, are summed from the token lengths on first use.

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
    parentheses. In a primary, factor and label are the text spanned by the
    tokens up to the next delimiter, so `proj(a b=x)` names factor 'a b';
    parse_primary records each with its column in `projs`, which
    parse_observable returns beside the terms so that the caller can check
    them against FACTORS.
    """

    def __init__(self, text: str, offset: int):
        self.text = text
        self.base = offset + 1  # column of text[0] in the original line
        self.toks = _TOKEN_RE.findall(text)  # (blank, num, word, op)
        self.i = 0  # index of the next token
        self.ends: list[int] | None = None  # _past's table
        self.projs: list[list[tuple[str, int, str, int]]] = []  # parse_primary's names

    def _past(self, k: int) -> int:
        """Index in text just past the first k tokens."""
        if self.ends is None:
            self.ends = list(accumulate(map(len, map("".join, self.toks)), initial=0))
        return self.ends[k]

    def _start(self, k: int) -> int:
        """Index in text of token k, past its blank."""
        return self._past(k) + len(self.toks[k][0])

    def _fail(self, message: str, k: int | None = None):
        """Raise at the column of token k, by default the next one."""
        raise _ExprError(self.base + self._start(self.i if k is None else k), message)

    def eat(self, op: str) -> None:
        if self.toks[self.i][3] != op:
            self._fail(f"expected {op!r}")
        self.i += 1

    def parse_pair(self, expr=None) -> complex:
        """pair, or coeff when expr is parse_quot."""
        expr = expr or self.parse_expr
        value = expr()
        if self.toks[self.i][3] == ",":
            self.i += 1
            after_comma = self.i
            imag = expr()
            if abs(value.imag) > 0 or abs(imag.imag) > 0:
                raise _ExprError(self.base + self._past(after_comma),
                                 "re,im parts of a pair must be real")
            value = complex(value.real, imag.real)
        return value

    def parse_expr(self) -> complex:
        value = self.parse_term()
        while (op := self.toks[self.i][3]) in ("+", "-"):
            self.i += 1
            rhs = self.parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self, ops: tuple = ("*", "/"), signed: bool = True) -> complex:
        value = self.parse_factor(signed)
        while (op := self.toks[self.i][3]) in ops:
            k = self.i
            self.i += 1
            rhs = self.parse_factor(signed)
            if op == "/":
                if rhs == 0:
                    self._fail("division by zero", k)
                value /= rhs
            else:
                value *= rhs
        return value

    def parse_quot(self) -> complex:
        return self.parse_term(("/",), signed=False)

    def _minus(self) -> bool:
        """Consume a run of '+'/'-'; whether it holds an odd number of '-'."""
        minus = False
        while (op := self.toks[self.i][3]) in ("+", "-"):
            minus ^= op == "-"
            self.i += 1
        return minus

    def parse_factor(self, signed: bool = True) -> complex:
        return _signed(signed and self._minus(), self.parse_atom())  # signs, then the atom

    def parse_atom(self) -> complex:
        _, num, word, op = self.toks[self.i]
        if num:
            self.i += 1
            return complex(float(num))
        if word == "i":
            self.i += 1
            return 1j
        if op == "(" or word == "sqrt":
            self.i += 1
            if word:
                self.eat("(")
            value = self.parse_pair()
            self.eat(")")
            return cmath.sqrt(value) if word else value
        self._fail("expected a number, 'i', 'sqrt(...)' or '(...)'")

    def parse_matrix(self) -> tuple:
        if self.toks[self.i][3] != "[":
            self._fail("expected a matrix literal [a, b; c, d]")
        self.i += 1
        rows, row = [], []
        while True:
            row.append(self.parse_expr())
            sep = self.toks[self.i][3]
            if sep not in (",", ";", "]"):
                self._fail("expected ',', ';' or ']'")
            self.i += 1
            if sep != ",":
                rows.append(tuple(row))
                row = []
            if sep == "]":
                return tuple(rows)

    def parse_observable(self) -> tuple:
        terms = []
        while True:
            minus = self._minus()
            coeff = complex(1.0)
            _, num, word, op = self.toks[self.i]
            if num or op or word in ("i", "sqrt"):  # no name next: a coeff
                k = self.i
                coeff = self.parse_pair(self.parse_quot)
                if not cmath.isfinite(coeff):  # render could not write it back
                    self._fail("coefficient is not finite", k)
                self.eat("*")
            terms.append((_signed(minus, coeff), self.parse_primary()))
            if self.toks[self.i][3] not in ("+", "-"):
                return tuple(terms), self.projs

    def parse_primary(self) -> tuple[tuple[str, str], ...] | None:
        word = self.toks[self.i][2]
        if word not in ("id", "proj"):
            self._fail("expected proj(...) or id")
        self.i += 1
        if word == "id":
            return None
        self.eat("(")
        constraints, names = [], []
        while True:
            factor, factor_col = self._name(("=", ",", ")"))
            self.eat("=")
            label, label_col = self._name((",", ")"))
            constraints.append((factor, label))
            names.append((factor, factor_col, label, label_col))
            if self.toks[self.i][3] != ",":
                break
            self.i += 1
        self.eat(")")
        self.projs.append(names)
        return tuple(constraints)

    def _name(self, stops: tuple) -> tuple[str, int]:
        """The text from the next token up to the first op in stops or the
        end, blanks around it dropped, non-empty; with its column."""
        toks, k = self.toks, self.i
        while toks[k][3] not in stops and any(toks[k][1:]):  # up to a stop or the end
            k += 1
        if k == self.i:
            raise _ExprError(self.base + self._past(k), "empty factor or label in proj(...)")
        start = self._start(self.i)
        self.i = k
        return self.text[start:self._past(k)], self.base + start

    def finish(self) -> None:
        if any(self.toks[self.i][1:]):  # not the end token
            self._fail("unexpected trailing input")


def _signed(minus: bool, value: complex) -> complex:
    """The sign rule: an odd run of '-' gives -1.0 * value, a complex product."""
    return -1.0 * value if minus else value


def _plain(text: str) -> complex | None:
    """_Expr.parse_pair's value of a plain amplitude text, reached by the
    grammar's own operations, so with its bits; None for any other text."""
    # '/' is never plain: the test spares the regex the sugar 1/2, 1/sqrt(2)
    m = None if "/" in text else _PLAIN_RE.fullmatch(text)
    if m is None:
        return None
    _, sign, num, im_sign, im_num = m.groups()
    value = _signed(sign == "-", complex(float(num)))  # parse_factor
    if im_num is not None:  # parse_pair
        value = complex(value.real, _signed(im_sign == "-", complex(float(im_num))).real)
    return value


def _eval(rule, text: str, line: int, offset: int, diags: list[Diagnostic]):
    """Run one _Expr rule (an unbound parse_* method) over the whole of text;
    a plain amplitude is read by _plain, without lexing.

    Returns its value, or None after appending a positioned diagnostic.
    """
    if rule is _Expr.parse_pair and (value := _plain(text)) is not None:
        return value
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


# ---------------------------------------------------------------------------
# the one-pass reader


def _column(text: str, offset: int, index: int) -> int:
    """Column of the index-th word of text, where text[0] sits at offset."""
    rest = text.split(None, index)[index] if index else text.lstrip()
    return offset + len(text) - len(rest) + 1


def _repeat(words) -> int | None:
    """Index of the first word that repeats an earlier one, or None."""
    seen = set()
    for k, word in enumerate(words):
        if word in seen:
            return k
        seen.add(word)
    return None


def parse(text: str) -> ScenarioSpec:
    """Parse .scn text into a validated ScenarioSpec.

    Raises ScenarioSyntaxError or ScenarioValidationError carrying positioned
    diagnostics; never crashes on malformed input.
    """
    r = _Reader()
    r.read(text)
    if r.syntax:
        raise ScenarioSyntaxError(r.syntax)
    return r.spec()


class _Reader:
    """One parse: the factor table, what has been read, and the diagnostics.

    read() reads every FACTORS line first, so every other line checks its
    names against the complete table where it is read. Each method reads one
    kind of line, or of gate, at self.line. Syntax diagnostics go to `syntax`;
    unknown names, duplicates, epoch order, matrix size and unitarity go to
    `semantic`. Each points at the column of the offending word.
    """

    line = 0
    postselect_name = "postselect"

    def __init__(self):
        self.syntax: list[Diagnostic] = []
        self.semantic: list[Diagnostic] = []
        self.sections: dict[str, int] = {}  # header -> its line
        self.factors: list[FactorDecl] = []
        # {label: label} of each factor, in order, on its FACTORS line's strings,
        # so that every entry shares them
        self.label_maps: list[dict[str, str]] = []
        self.table: dict[str, dict[str, str]] = {}  # factors declared once, labels distinct
        # section -> labels -> written amplitude, and -> line (a repeat keeps
        # the first place in order and takes the later line)
        self.amplitudes: dict[str, dict[tuple[str, ...], complex]] = {}
        self.lines: dict[str, dict[tuple[str, ...], int]] = {}
        self.values: dict[str, complex] = {}  # amplitude text -> value, successes only
        self.gates: list[GateDecl] = []
        self.epochs: set[str] = set()  # of the gates read so far
        self.latest = 0  # EPOCH_ORDER index of the latest canonical epoch among them
        self.observables: dict[str, ObservableDecl] = {}
        # (line, column, name) of each record name
        self.records: list[tuple[int, int, str]] = []

    def read(self, text: str) -> None:
        """Read FACTORS lines as the header scan meets them, then every other
        line in file order; syntax diagnostics end up in line order."""
        section, deferred = None, []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            content = raw.partition("#")[0]
            words = content.split()
            if not words:
                continue
            self.line = lineno
            if words[0] in SECTIONS:
                section, rest = words[0], words[1:]
                if section in self.sections:
                    self.error(_column(content, 0, 0), f"section {section} already given "
                               f"on line {self.sections[section]}")
                    section = None
                    continue
                self.sections[section] = lineno
                if section == "POSTSELECT":
                    self.postselect(content, rest)
                elif rest:
                    self.error(_column(content, 0, 1), f"unexpected text after section {section}")
            elif section is None:
                self.syntax.append(Diagnostic(lineno, len(content) - len(content.lstrip()) + 1,
                                              "content before any section header"))
            elif section == "FACTORS":
                self.factor(content)
            else:
                deferred.append((section, lineno, content))
        for section, lineno, content in deferred:
            self.line = lineno
            if section == "GATES":
                self.gate(content)
            elif section == "OBSERVABLES":
                self.observable(content)
            else:
                self.amplitude(content, section)
        self.values.clear()  # no later step reads an amplitude text
        if deferred and self.syntax:
            self.syntax.sort(key=attrgetter("line", "column"))
        # sorted: the POSTSELECT header was read before the deferred lines
        first_use: dict[str, int] = {}
        for line, column, name in sorted(self.records):
            if name in first_use:
                self.semantic.append(Diagnostic(line, column, f"record name {name!r} "
                                                f"already used on line {first_use[name]}"))
            first_use.setdefault(name, line)

    def error(self, column: int, message: str) -> None:
        self.syntax.append(Diagnostic(self.line, column, message))

    def invalid(self, column: int, message: str) -> None:
        self.semantic.append(Diagnostic(self.line, column, message))

    def names_ok(self, text: str, offset: int, words: list[str], what: str,
                 first: int = 0) -> bool:
        """Whether no word is reserved or holds a delimiter; else one error per
        bad word. words are words of text (text[0] at offset), in order, from
        its first-th word on; a word skipped over is never a bad one."""
        if _RESERVED_TOKENS.isdisjoint(words) and not _DELIMITER.search("".join(words)):
            return True
        every, k = text.split(), first
        for word in words:
            if word in _RESERVED_TOKENS or _DELIMITER.search(word):
                k = every.index(word, k) + 1
                self.error(_column(text, offset, k - 1), f"invalid {what} token {word!r}")
        return False

    def labels_known(self, text, offset, words, factors, maps, first=0) -> bool:
        """Whether each word is '*' or in maps[k], the labels of factor factors[k];
        else one diagnostic per other word. words[k] is text's (first + k)-th."""
        known = True
        for k, (word, factor, labels) in enumerate(zip(words, factors, maps), first):
            if word != "*" and word not in labels:
                self.invalid(_column(text, offset, k),
                             f"unknown label {word!r} for factor {factor!r}")
                known = False
        return known

    def postselect(self, content: str, rest: list[str]) -> None:
        """The POSTSELECT header: its record is named like a selection's."""
        if rest:
            if rest[0] != "as" or len(rest) != 2:
                return self.error(_column(content, 0, 1), "POSTSELECT takes at most 'as NAME'")
            if not self.names_ok(content, 0, rest[1:], "name", first=2):
                return
            self.postselect_name = rest[1]
        self.records.append((self.line, _column(content, 0, len(rest)), self.postselect_name))

    def factor(self, content: str) -> None:
        head, colon, tail = content.partition(":")
        if not colon:
            return self.error(_column(content, 0, 0), "expected 'name: label label ...'")
        names, labels = head.split(), tail.split()
        offset = len(head) + 1
        if len(names) != 1:
            return self.error(_column(head, 0, 1) if names else offset,
                              "exactly one factor name before ':'")
        if not labels:
            return self.error(offset + 1, "factor needs at least one label")
        if not (self.names_ok(head, 0, names, "factor name")
                and self.names_ok(tail, offset, labels, "label")):
            return
        name, twice, label_map = names[0], _repeat(labels), dict(zip(labels, labels))
        if name in self.table:
            self.invalid(_column(head, 0, 0), f"duplicate factor {name!r}")
        elif twice is not None:
            self.invalid(_column(tail, offset, twice), f"duplicate labels in factor {name!r}")
        else:
            self.table[name] = label_map
        self.factors.append(FactorDecl(name, tuple(labels), line=self.line))
        self.label_maps.append(label_map)

    def amplitude(self, content: str, section: str) -> None:
        head, colon, tail = content.partition(":")
        if not colon:
            return self.error(_column(content, 0, 0), "expected 'labels... : amplitude'")
        words, need = head.split(), len(self.label_maps)
        if not words:
            return self.error(len(head) + 1, "expected basis labels before ':'")
        # a known label passed names_ok on its FACTORS line, whose string it takes
        # (a list first: a tuple built from an iterator fills the tuple free list)
        labels = tuple(list(map(dict.get, self.label_maps, words)))
        known = len(words) == need and None not in labels
        if not known:
            labels = tuple(words)
            if not self.names_ok(head, 0, words, "label"):
                return
        amp = self.values.get(tail)
        if amp is None:
            amp = _eval(_Expr.parse_pair, tail, self.line, len(head) + 1, self.syntax)
            if amp is None:
                return
            self.values[tail] = amp
        if len(labels) != need:
            self.invalid(_column(head, 0, need) if len(labels) > need else len(head) + 1,
                         f"{section} line gives {len(labels)} labels, need one per factor ({need})")
        elif not known:
            self.labels_known(head, 0, words, [f.name for f in self.factors], self.label_maps)
        amplitudes = self.amplitudes.setdefault(section, {})
        if labels in amplitudes:
            self.invalid(_column(head, 0, 0), f"duplicate {section} entry for {' '.join(labels)}")
        amplitudes[labels] = amp
        self.lines.setdefault(section, {})[labels] = self.line

    def gate(self, content: str) -> None:
        head, colon, tail = content.partition(":")
        if not colon:
            return self.error(_column(content, 0, 0), "expected 'epoch kind targets : params'")
        parts = head.split()
        if len(parts) < 3:
            return self.error(len(head) + 1, "expected 'epoch kind target-factor(s)' before ':'")
        epoch, kind, targets = parts[0], parts[1], parts[2:]
        read = _GATE_READERS.get(kind)
        if read is None:
            return self.error(_column(head, 0, 1), f"unknown gate kind {kind!r}; "
                              f"expected one of {', '.join(GATE_KINDS)}")
        if not (self.names_ok(head, 0, [epoch], "epoch")
                and self.names_ok(head, 0, targets, "factor name", first=2)):
            return
        twice, unknown = _repeat(targets), [k for k, t in enumerate(targets) if t not in self.table]
        if twice is not None:
            self.invalid(_column(head, 0, 2 + twice), "gate targets must be distinct factors")
        elif unknown:
            self.invalid(_column(head, 0, 2 + unknown[0]),
                         f"unknown factor {targets[unknown[0]]!r}")
        known = None if twice is not None or unknown else [self.table[t] for t in targets]
        params = read(self, head, tail, len(head) + 1, targets, known)
        if params is None:
            return
        if epoch == "t0":
            self.invalid(_column(head, 0, 0), "epoch 't0' is reserved for the initial state")
        if epoch in self.epochs and epoch != self.gates[-1].epoch:
            self.invalid(_column(head, 0, 0),
                         f"epoch {epoch!r} revisited; epochs must be contiguous")
        elif epoch in EPOCH_ORDER[1:] and epoch not in self.epochs:
            rank = EPOCH_ORDER.index(epoch)
            if rank < self.latest:
                self.invalid(_column(head, 0, 0), f"epoch {epoch!r} after "
                             f"{EPOCH_ORDER[self.latest]!r}; "
                             f"{', '.join(EPOCH_ORDER[1:])} must come in that order")
            self.latest = max(self.latest, rank)
        self.epochs.add(epoch)
        self.gates.append(GateDecl(epoch, kind, tuple(targets), params, line=self.line))

    # One method per gate kind: (head, tail, column offset of tail, targets,
    # their labels or None) -> params, or None after a syntax error.

    def beamsplitter(self, head, tail, offset, targets, known):
        toks = tail.split()
        if len(targets) != 1:
            return self.error(_column(head, 0, 3), "beamsplitter takes exactly one target factor")
        if len(toks) != 5 or toks[2] != "->":
            return self.error(offset + 1, "expected 'in1 in2 -> out1 out2'")
        if not (self.names_ok(tail, offset, toks[:2], "label")
                and self.names_ok(tail, offset, toks[3:], "label", first=3)):
            return None
        # a list, not a generator, so that both pairs report their unknown labels
        if known and all([self.labels_known(tail, offset, toks[k:k + 2], targets * 2,
                                            known * 2, k) for k in (0, 3)]):
            ins, outs = {toks[0], toks[1]}, {toks[3], toks[4]}
            if len(ins) != 2 or len(outs) != 2:
                self.invalid(_column(tail, offset, 1 if len(ins) != 2 else 4),
                             "beamsplitter mode pairs must be distinct")
            elif toks[:2] != toks[3:] and ins & outs:
                self.invalid(_column(tail, offset, 3), "mode pairs must be identical or disjoint")
        return (toks[0], toks[1], toks[3], toks[4])

    def swap_map(self, head, tail, offset, targets, known):
        toks = tail.split()
        if "->" not in toks:
            return self.error(offset + 1, "expected 'src... -> dst...'")
        arrow = toks.index("->")
        src, dst = toks[:arrow], toks[arrow + 1:]
        if "->" in dst:
            return self.error(_column(tail, offset, arrow + 1 + dst.index("->")),
                              "only one '->' allowed")
        n = len(targets)
        if len(src) != n or len(dst) != n:
            return self.error(offset + 1,
                              f"need {n} labels on each side of '->', one per target factor")
        if not self.names_ok(tail, offset, [t for t in src + dst if t != "*"], "swap_map label"):
            return None
        for k, (s, d) in enumerate(zip(src, dst)):
            if (s == "*") != (d == "*"):
                return self.error(_column(tail, offset, k),
                                  "wildcard '*' positions must match on both sides")
        if known:
            for first, side in ((0, src), (n + 1, dst)):
                self.labels_known(tail, offset, side, targets, known, first)
        return (tuple(src), tuple(dst))

    def projector_select(self, head, tail, offset, targets, known):
        toks, name = tail.split(), None
        if len(targets) != 1:
            return self.error(_column(head, 0, 3),
                              "projector_select takes exactly one target factor")
        if "as" in toks:
            at = toks.index("as")
            if at != len(toks) - 2:
                return self.error(_column(tail, offset, at), "'as NAME' must come last")
            name, toks = toks[-1], toks[:at]
            if not self.names_ok(tail, offset, [name], "name", first=at + 1):
                return None
        if not toks:
            return self.error(offset + 1, "projector_select needs at least one label")
        if not self.names_ok(tail, offset, toks, "label"):
            return None
        twice = _repeat(toks)
        if twice is not None:
            return self.error(_column(tail, offset, twice), "duplicate labels in selection")
        if known:
            self.labels_known(tail, offset, toks, targets * len(toks), known * len(toks))
        # a duplicate is reported at the name, or at the first label if unnamed
        self.records.append((self.line, _column(tail, offset, len(toks) + 1 if name else 0),
                             selection_record(head.split()[0], targets[0], toks, name)))
        return (tuple(toks), name)

    def custom_unitary(self, head, tail, offset, targets, known):
        rows = _eval(_Expr.parse_matrix, tail, self.line, offset, self.syntax)
        if rows is None:
            return None
        bracket = _column(tail, offset, 0)
        if any(len(r) != len(rows) for r in rows):
            return self.error(bracket, "matrix must be square")
        if known:
            dim = prod(len(labels) for labels in known)
            if len(rows) != dim:
                self.invalid(bracket,
                             f"matrix is {len(rows)}x{len(rows)} but targets span dim {dim}")
            elif not is_unitary(rows, UNITARY_TOL):
                self.invalid(bracket, f"matrix is not unitary to {UNITARY_TOL:g}")
        return rows

    def observable(self, content: str) -> None:
        head, eq, expr = content.partition("=")
        if not eq:
            return self.error(_column(content, 0, 0), "expected 'NAME = expression'")
        name = head.strip()
        column = len(head) - len(head.lstrip()) + 1
        if not name or name in _RESERVED_TOKENS or _DELIMITER.search(name):
            return self.error(column, f"invalid observable name {name!r}")
        parsed = _eval(_Expr.parse_observable, expr, self.line, len(head) + 1, self.syntax)
        if parsed is None:
            return
        terms, projs = parsed
        for proj in projs:
            twice = _repeat(factor for factor, _, _, _ in proj)
            if twice is not None:
                self.invalid(proj[twice][1], "repeated factor inside one proj(...)")
            for factor, factor_col, label, label_col in proj:
                if factor not in self.table:
                    self.invalid(factor_col, f"unknown factor {factor!r}")
                elif label not in self.table[factor]:
                    self.invalid(label_col, f"unknown label {label!r} for factor {factor!r}")
        if name in self.observables:
            self.invalid(column, f"duplicate observable {name!r}")
        self.observables.setdefault(name, ObservableDecl(name, terms, line=self.line))

    def spec(self) -> ScenarioSpec:
        """The validated, normalized spec of a text free of syntax errors."""
        if not self.factors:
            raise ScenarioValidationError(
                [Diagnostic(self.sections.get("FACTORS", 1), 1, "no factors")])
        warnings: list[Diagnostic] = []
        initial, postselect = self._normalized("INITIAL", warnings), None
        if "POSTSELECT" in self.sections:
            postselect = PostselectDecl(self.postselect_name,
                                        self._normalized("POSTSELECT", warnings),
                                        line=self.sections["POSTSELECT"])
        if self.semantic:
            raise ScenarioValidationError(sorted(self.semantic, key=attrgetter("line", "column")))
        return ScenarioSpec(tuple(self.factors), initial, tuple(self.gates), postselect,
                            tuple(self.observables.values()), tuple(warnings))

    def _normalized(self, section: str, warnings: list[Diagnostic]
                    ) -> tuple[AmplitudeEntry, ...]:
        """The section's entries scaled to norm 1, with a warning if that changed them."""
        amplitudes = self.amplitudes.get(section, {})
        lines = self.lines.get(section, {})
        values = amplitudes.values()
        try:
            squares = sum(abs(a) ** 2 for a in values)
        except OverflowError:  # a square past the float range
            squares = inf
        norm = squares ** 0.5
        # a subnormal or zero sum of nonzero squares keeps few bits: scale first
        if squares < float_info.min and any(values):
            big = max(map(abs, values))
            norm = big * sum((abs(a) / big) ** 2 for a in values) ** 0.5
        # section diagnostics sit on the line of the entry that comes first
        line = next(iter(lines.values()), 0)
        if not amplitudes:
            self.semantic.append(Diagnostic(self.sections.get(section, 1), 1,
                                            f"{section} section is missing or empty"))
        elif norm == 0.0:
            self.semantic.append(Diagnostic(
                line, 1, f"{section} state has zero norm and cannot be normalized"))
        elif not isfinite(norm):
            self.semantic.append(Diagnostic(
                line, 1, f"{section} state norm is not finite and cannot be normalized"))
        elif abs(norm - 1.0) > NORM_WARN_TOL:
            warnings.append(Diagnostic(
                line, 1, f"{section} amplitudes had norm {norm:.12g}; normalized to 1"))
            values = [a / norm for a in values]
        return tuple([AmplitudeEntry(labels, a, line=n)
                      for labels, a, n in zip(amplitudes, values, lines.values())])


# looked up here, not with getattr(), whose type cache keeps each word it is given
_GATE_READERS = {kind: getattr(_Reader, kind) for kind in GATE_KINDS}


# ---------------------------------------------------------------------------
# canonical serializer


def _fmt_complex(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


def _fmt_paren(z: complex) -> str:
    return f"({z.real!r},{z.imag!r})"


def render(spec: ScenarioSpec) -> str:
    """Canonical text form: LF endings, fixed section order, repr amplitudes.

    parse(render(spec)) == spec for every valid spec.
    """
    lines: list[str] = ["FACTORS"]
    for f in spec.factors:
        lines.append(f"  {f.name}: {' '.join(f.labels)}")
    lines.append("")
    lines.append("INITIAL")
    for e in spec.initial:
        lines.append(f"  {' '.join(e.labels)} : {_fmt_complex(e.amplitude)}")
    if spec.gates:
        lines.append("")
        lines.append("GATES")
        for g in spec.gates:
            lines.append(f"  {_render_gate(g)}")
    if spec.postselect is not None:
        lines.append("")
        head = "POSTSELECT"
        if spec.postselect.name != "postselect":
            head += f" as {spec.postselect.name}"
        lines.append(head)
        for e in spec.postselect.entries:
            lines.append(f"  {' '.join(e.labels)} : {_fmt_complex(e.amplitude)}")
    if spec.observables:
        lines.append("")
        lines.append("OBSERVABLES")
        for obs in spec.observables:
            lines.append(f"  {obs.name} = {_render_observable(obs)}")
    return "\n".join(lines) + "\n"


def _render_gate(g: GateDecl) -> str:
    head = f"{g.epoch} {g.kind} {' '.join(g.targets)}"
    if g.kind == "beamsplitter":
        i1, i2, o1, o2 = g.params
        return f"{head} : {i1} {i2} -> {o1} {o2}"
    if g.kind == "swap_map":
        src, dst = g.params
        return f"{head} : {' '.join(src)} -> {' '.join(dst)}"
    if g.kind == "projector_select":
        labels, name = g.params
        suffix = f" as {name}" if name else ""
        return f"{head} : {' '.join(labels)}{suffix}"
    rows = "; ".join(", ".join(_fmt_paren(z) for z in row) for row in g.params)
    return f"{head} : [ {rows} ]"


def _render_observable(obs: ObservableDecl) -> str:
    parts = []
    for coeff, constraints in obs.terms:
        if constraints is None:
            primary = "id"
        else:
            primary = "proj(" + ", ".join(f"{f}={l}" for f, l in constraints) + ")"
        parts.append(f"{_fmt_paren(coeff)}*{primary}")
    return " + ".join(parts)
