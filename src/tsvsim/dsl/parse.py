"""Parser, validator, and canonical serializer for the .scn scenario format.

The format is line oriented with five sections:

    FACTORS       name: label label ...
    INITIAL       label-per-factor ... : amplitude
    GATES         epoch kind targets : parameters
    POSTSELECT    like INITIAL; header may carry "as NAME"
    OBSERVABLES   NAME = sum of [coeff *] proj(factor=label, ...) or id

One recursive-descent parser, _Expr, reads every expression: amplitudes,
custom_unitary matrix literals and observables; its docstring holds the
grammar. Amplitudes accept sugar such as 1/sqrt(3), i, -0.5, 2/3, and an
explicit re,im pair; a parenthesized (re,im) works anywhere a scalar does.
`#` starts a comment. Parsing is total: malformed input produces diagnostics
with line and column positions, never a crash. The parser normalizes INITIAL and
POSTSELECT amplitude lists and records a warning when the written norm is off
by more than 1e-9.

render() is the canonical serializer: LF line endings, fixed section order,
repr-exact re,im amplitudes. parse(render(spec)) reproduces spec exactly.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass, field

import numpy as np

NORM_WARN_TOL = 1e-9
UNITARY_TOL = 1e-8

SECTIONS = ("FACTORS", "INITIAL", "GATES", "POSTSELECT", "OBSERVABLES")
GATE_KINDS = ("beamsplitter", "swap_map", "projector_select", "custom_unitary")
_RESERVED_TOKENS = {"->", "as", "*", "proj", "id", *SECTIONS, *GATE_KINDS}
_FORBIDDEN_CHARS = set(" \t#:,()[]=;*")


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
    delimiters, stripped; validation checks them against FACTORS. Blanks are
    spaces and tabs, except that any Unicode whitespace may surround a matrix
    entry or the brackets, and separate 'proj' from '('.
    """

    def __init__(self, text: str, offset: int):
        self.text = text
        self.offset = offset  # column of text[0] in the original line
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def _skip_space(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
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
        sign = 1.0
        while signed and self._at("+-"):
            if self.text[self.pos] == "-":
                sign = -sign
            self.pos += 1
        return sign * self.parse_atom()

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
        self._skip_space()
        if self.peek() != "[":
            self._fail("expected a matrix literal [a, b; c, d]")
        self.pos += 1
        rows, row = [], []
        while True:
            self._skip_space()
            row.append(self.parse_expr())
            self._skip_space()
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
            sign = 1.0
            while self._at("+-"):
                if self.text[self.pos] == "-":
                    sign = -sign
                self.pos += 1
            coeff = complex(1.0)
            if self._word() in ("", "i", "sqrt") and self.peek():  # no name next: a coeff
                coeff = self.parse_pair(self.parse_quot)
                self.eat("*")
            terms.append((sign * coeff, self.parse_primary()))
            if not self._at("+-"):
                return tuple(terms)

    def parse_primary(self) -> tuple[tuple[str, str], ...] | None:
        word = self._word()
        if word not in ("id", "proj"):
            self._fail("expected proj(...) or id")
        self.pos += len(word)
        if word == "id":
            return None
        self._skip_space()
        self.eat("(")
        constraints = []
        while True:
            factor = self._name(_FACTOR_RE)
            self.eat("=")
            constraints.append((factor, self._name(_LABEL_RE)))
            if self.peek() != ",":
                break
            self.pos += 1
        self.eat(")")
        return tuple(constraints)

    def _name(self, pattern: re.Pattern) -> str:
        """The text pattern matches up to a delimiter, stripped and non-empty."""
        m = pattern.match(self.text, self.pos)
        name = m.group(0).strip()
        if not name:
            self._fail("empty factor or label in proj(...)")
        self.pos = m.end()
        return name

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


# ---------------------------------------------------------------------------
# line scanning helpers


def _strip_comment(raw: str) -> str:
    cut = raw.find("#")
    return raw if cut < 0 else raw[:cut]


def _split_on_colon(text: str) -> tuple[str, str, int] | None:
    """(head, tail, colon column 0-based) for the first top-level colon."""
    cut = text.find(":")
    if cut < 0:
        return None
    return text[:cut], text[cut + 1:], cut


def _token_ok(tok: str) -> bool:
    return bool(tok) and not (set(tok) & _FORBIDDEN_CHARS) and tok not in _RESERVED_TOKENS


def _check_tokens(tokens: list[str], what: str, line: int,
                  diags: list[Diagnostic]) -> bool:
    ok = True
    for tok in tokens:
        if not _token_ok(tok):
            diags.append(Diagnostic(line, 1, f"invalid {what} token {tok!r}"))
            ok = False
    return ok


# ---------------------------------------------------------------------------
# main parser


def parse(text: str) -> ScenarioSpec:
    """Parse .scn text into a validated ScenarioSpec.

    Raises ScenarioSyntaxError or ScenarioValidationError carrying positioned
    diagnostics; never crashes on malformed input.
    """
    syntax: list[Diagnostic] = []
    warnings: list[Diagnostic] = []
    sections_seen: dict[str, int] = {}
    section: str | None = None

    factors: list[FactorDecl] = []
    initial: list[AmplitudeEntry] = []
    gates: list[GateDecl] = []
    postselect_entries: list[AmplitudeEntry] = []
    postselect_name: str | None = None
    postselect_line = 0
    observables: list[ObservableDecl] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = _strip_comment(raw).rstrip()
        if not content.strip():
            continue
        head = content.split()
        if head and head[0] in SECTIONS:
            name = head[0]
            if name in sections_seen:
                syntax.append(Diagnostic(
                    lineno, 1, f"section {name} already given on line {sections_seen[name]}"))
                section = None
                continue
            sections_seen[name] = lineno
            section = name
            rest = head[1:]
            if name == "POSTSELECT":
                postselect_line = lineno
                if rest[:1] == ["as"] and len(rest) == 2:
                    postselect_name = rest[1]
                elif rest:
                    syntax.append(Diagnostic(lineno, 1,
                                             "POSTSELECT takes at most 'as NAME'"))
            elif rest:
                syntax.append(Diagnostic(lineno, 1,
                                         f"unexpected text after section {name}"))
            continue
        if section is None:
            syntax.append(Diagnostic(lineno, 1,
                                     "content before any section header"))
            continue
        if section == "FACTORS":
            _parse_factor_line(content, lineno, factors, syntax)
        elif section in ("INITIAL", "POSTSELECT"):
            target = initial if section == "INITIAL" else postselect_entries
            _parse_amplitude_line(content, lineno, target, syntax)
        elif section == "GATES":
            _parse_gate_line(content, lineno, gates, syntax)
        elif section == "OBSERVABLES":
            _parse_observable_line(content, lineno, observables, syntax)

    if syntax:
        raise ScenarioSyntaxError(syntax)

    postselect = None
    if "POSTSELECT" in sections_seen:
        postselect = PostselectDecl(
            name=postselect_name or "postselect",
            entries=tuple(postselect_entries),
            line=postselect_line,
        )
    spec = ScenarioSpec(
        factors=tuple(factors),
        initial=tuple(initial),
        gates=tuple(gates),
        postselect=postselect,
        observables=tuple(observables),
    )
    return _validate(spec, warnings)


def _parse_factor_line(content: str, lineno: int, factors: list[FactorDecl],
                       diags: list[Diagnostic]) -> None:
    split = _split_on_colon(content)
    if split is None:
        diags.append(Diagnostic(lineno, 1, "expected 'name: label label ...'"))
        return
    head, tail, _ = split
    names = head.split()
    labels = tail.split()
    if len(names) != 1:
        diags.append(Diagnostic(lineno, 1, "exactly one factor name before ':'"))
        return
    if not labels:
        diags.append(Diagnostic(lineno, len(head) + 2, "factor needs at least one label"))
        return
    if not _check_tokens(names, "factor name", lineno, diags):
        return
    if not _check_tokens(labels, "label", lineno, diags):
        return
    factors.append(FactorDecl(names[0], tuple(labels), line=lineno))


def _parse_amplitude_line(content: str, lineno: int, target: list[AmplitudeEntry],
                          diags: list[Diagnostic]) -> None:
    split = _split_on_colon(content)
    if split is None:
        diags.append(Diagnostic(lineno, 1, "expected 'labels... : amplitude'"))
        return
    head, tail, colon = split
    labels = head.split()
    if not labels:
        diags.append(Diagnostic(lineno, 1, "expected basis labels before ':'"))
        return
    if not _check_tokens(labels, "label", lineno, diags):
        return
    amp = _eval(_Expr.parse_pair, tail, lineno, colon + 1, diags)
    if amp is None:
        return
    target.append(AmplitudeEntry(tuple(labels), amp, line=lineno))


def _parse_gate_line(content: str, lineno: int, gates: list[GateDecl],
                     diags: list[Diagnostic]) -> None:
    split = _split_on_colon(content)
    if split is None:
        diags.append(Diagnostic(lineno, 1, "expected 'epoch kind targets : params'"))
        return
    head, tail, colon = split
    parts = head.split()
    if len(parts) < 3:
        diags.append(Diagnostic(lineno, 1,
                                "expected 'epoch kind target-factor(s)' before ':'"))
        return
    epoch, kind, targets = parts[0], parts[1], parts[2:]
    if kind not in GATE_KINDS:
        diags.append(Diagnostic(
            lineno, 1, f"unknown gate kind {kind!r}; expected one of {', '.join(GATE_KINDS)}"))
        return
    if not _check_tokens([epoch], "epoch", lineno, diags):
        return
    if not _check_tokens(targets, "factor name", lineno, diags):
        return

    if kind == "beamsplitter":
        toks = tail.split()
        if len(targets) != 1:
            diags.append(Diagnostic(lineno, 1, "beamsplitter takes exactly one target factor"))
            return
        if len(toks) != 5 or toks[2] != "->":
            diags.append(Diagnostic(lineno, colon + 2,
                                    "expected 'in1 in2 -> out1 out2'"))
            return
        labels = [toks[0], toks[1], toks[3], toks[4]]
        if not _check_tokens(labels, "label", lineno, diags):
            return
        gates.append(GateDecl(epoch, kind, tuple(targets), tuple(labels), line=lineno))
    elif kind == "swap_map":
        toks = tail.split()
        if "->" not in toks:
            diags.append(Diagnostic(lineno, colon + 2, "expected 'src... -> dst...'"))
            return
        arrow = toks.index("->")
        src, dst = toks[:arrow], toks[arrow + 1:]
        if "->" in dst:
            diags.append(Diagnostic(lineno, colon + 2, "only one '->' allowed"))
            return
        if len(src) != len(targets) or len(dst) != len(targets):
            diags.append(Diagnostic(
                lineno, colon + 2,
                f"need {len(targets)} labels on each side of '->', one per target factor"))
            return
        labels = [tok for tok in src + dst if tok != "*"]
        if not _check_tokens(labels, "swap_map label", lineno, diags):
            return
        for s, d in zip(src, dst):
            if (s == "*") != (d == "*"):
                diags.append(Diagnostic(lineno, colon + 2,
                                        "wildcard '*' positions must match on both sides"))
                return
        gates.append(GateDecl(epoch, kind, tuple(targets),
                              (tuple(src), tuple(dst)), line=lineno))
    elif kind == "projector_select":
        toks = tail.split()
        if len(targets) != 1:
            diags.append(Diagnostic(lineno, 1,
                                    "projector_select takes exactly one target factor"))
            return
        name = None
        if "as" in toks:
            at = toks.index("as")
            if at != len(toks) - 2:
                diags.append(Diagnostic(lineno, colon + 2, "'as NAME' must come last"))
                return
            name = toks[-1]
            toks = toks[:at]
            if not _check_tokens([name], "name", lineno, diags):
                return
        if not toks:
            diags.append(Diagnostic(lineno, colon + 2,
                                    "projector_select needs at least one label"))
            return
        if not _check_tokens(toks, "label", lineno, diags):
            return
        if len(set(toks)) != len(toks):
            diags.append(Diagnostic(lineno, colon + 2, "duplicate labels in selection"))
            return
        gates.append(GateDecl(epoch, kind, tuple(targets),
                              (tuple(toks), name), line=lineno))
    else:  # custom_unitary
        matrix = _parse_matrix(tail, lineno, colon + 1, diags)
        if matrix is None:
            return
        gates.append(GateDecl(epoch, kind, tuple(targets), matrix, line=lineno))


def _parse_matrix(text: str, lineno: int, offset: int,
                  diags: list[Diagnostic]) -> tuple | None:
    rows = _eval(_Expr.parse_matrix, text, lineno, offset, diags)
    if rows is not None and any(len(r) != len(rows) for r in rows):
        bracket = offset + len(text) - len(text.lstrip()) + 1
        diags.append(Diagnostic(lineno, bracket, "matrix must be square"))
        return None
    return rows


def _parse_observable_line(content: str, lineno: int, observables: list[ObservableDecl],
                           diags: list[Diagnostic]) -> None:
    if "=" not in content:
        diags.append(Diagnostic(lineno, 1, "expected 'NAME = expression'"))
        return
    head, expr = content.split("=", 1)
    name = head.strip()
    if not _token_ok(name):
        diags.append(Diagnostic(lineno, 1, f"invalid observable name {name!r}"))
        return
    terms = _eval(_Expr.parse_observable, expr, lineno, len(head) + 1, diags)
    if terms is None:
        return
    observables.append(ObservableDecl(name, terms, line=lineno))


# ---------------------------------------------------------------------------
# validation


def _validate(spec: ScenarioSpec, warnings: list[Diagnostic]) -> ScenarioSpec:
    diags: list[Diagnostic] = []
    if not spec.factors:
        raise ScenarioValidationError([Diagnostic(1, 1, "no factors")])
    table: dict[str, tuple[str, ...]] = {}
    for f in spec.factors:
        if f.name in table:
            diags.append(Diagnostic(f.line, 1, f"duplicate factor {f.name!r}"))
        elif len(set(f.labels)) != len(f.labels):
            diags.append(Diagnostic(f.line, 1, f"duplicate labels in factor {f.name!r}"))
        else:
            table[f.name] = f.labels

    def check_entry(entry: AmplitudeEntry, where: str) -> None:
        if len(entry.labels) != len(spec.factors):
            diags.append(Diagnostic(
                entry.line, 1,
                f"{where} line gives {len(entry.labels)} labels, need one per factor "
                f"({len(spec.factors)})"))
            return
        for f, lab in zip(spec.factors, entry.labels):
            if f.name in table and lab not in table[f.name]:
                diags.append(Diagnostic(entry.line, 1,
                                        f"unknown label {lab!r} for factor {f.name!r}"))

    if not spec.initial:
        diags.append(Diagnostic(1, 1, "INITIAL section is missing or empty"))
    seen_tuples: set[tuple[str, ...]] = set()
    for entry in spec.initial:
        check_entry(entry, "INITIAL")
        if entry.labels in seen_tuples:
            diags.append(Diagnostic(entry.line, 1,
                                    f"duplicate INITIAL entry for {' '.join(entry.labels)}"))
        seen_tuples.add(entry.labels)
    if spec.postselect is not None:
        if not spec.postselect.entries:
            diags.append(Diagnostic(spec.postselect.line, 1, "POSTSELECT section is empty"))
        seen_tuples = set()
        for entry in spec.postselect.entries:
            check_entry(entry, "POSTSELECT")
            if entry.labels in seen_tuples:
                diags.append(Diagnostic(entry.line, 1, "duplicate POSTSELECT entry"))
            seen_tuples.add(entry.labels)

    _validate_gates(spec, table, diags)

    names_seen: set[str] = set()
    for obs in spec.observables:
        if obs.name in names_seen:
            diags.append(Diagnostic(obs.line, 1, f"duplicate observable {obs.name!r}"))
        names_seen.add(obs.name)
        for _, constraints in obs.terms:
            if constraints is None:
                continue
            facs = [f for f, _ in constraints]
            if len(set(facs)) != len(facs):
                diags.append(Diagnostic(obs.line, 1,
                                        "repeated factor inside one proj(...)"))
            for fac, lab in constraints:
                if fac not in table:
                    diags.append(Diagnostic(obs.line, 1, f"unknown factor {fac!r}"))
                elif lab not in table[fac]:
                    diags.append(Diagnostic(obs.line, 1,
                                            f"unknown label {lab!r} for factor {fac!r}"))

    if diags:
        raise ScenarioValidationError(diags)

    initial, w1 = _normalize(spec.initial, "INITIAL")
    warnings.extend(w1)
    postselect = spec.postselect
    if postselect is not None:
        entries, w2 = _normalize(postselect.entries, "POSTSELECT")
        warnings.extend(w2)
        postselect = PostselectDecl(postselect.name, entries, line=postselect.line)
    return ScenarioSpec(
        factors=spec.factors,
        initial=initial,
        gates=spec.gates,
        postselect=postselect,
        observables=spec.observables,
        warnings=tuple(warnings),
    )


def _validate_gates(spec: ScenarioSpec, table: dict[str, tuple[str, ...]],
                    diags: list[Diagnostic]) -> None:
    finished_epochs: list[str] = []
    current: str | None = None
    for g in spec.gates:
        if g.epoch == "t0":
            diags.append(Diagnostic(g.line, 1,
                                    "epoch 't0' is reserved for the initial state"))
        if g.epoch != current:
            if g.epoch in finished_epochs:
                diags.append(Diagnostic(g.line, 1,
                                        f"epoch {g.epoch!r} revisited; epochs must be contiguous"))
            if current is not None:
                finished_epochs.append(current)
            current = g.epoch
        if len(set(g.targets)) != len(g.targets):
            diags.append(Diagnostic(g.line, 1, "gate targets must be distinct factors"))
            continue
        missing = [t for t in g.targets if t not in table]
        if missing:
            diags.append(Diagnostic(g.line, 1, f"unknown factor {missing[0]!r}"))
            continue
        if g.kind == "beamsplitter":
            labels = table[g.targets[0]]
            in_pair, out_pair = g.params[:2], g.params[2:]
            bad = [lab for lab in g.params if lab not in labels]
            if bad:
                diags.append(Diagnostic(g.line, 1,
                                        f"unknown label {bad[0]!r} for factor {g.targets[0]!r}"))
                continue
            if len(set(in_pair)) != 2 or len(set(out_pair)) != 2:
                diags.append(Diagnostic(g.line, 1, "beamsplitter mode pairs must be distinct"))
                continue
            if set(in_pair) != set(out_pair) and set(in_pair) & set(out_pair):
                diags.append(Diagnostic(g.line, 1,
                                        "mode pairs must be identical or disjoint"))
        elif g.kind == "swap_map":
            src, dst = g.params
            for side in (src, dst):
                for t, lab in zip(g.targets, side):
                    if lab != "*" and lab not in table[t]:
                        diags.append(Diagnostic(g.line, 1,
                                                f"unknown label {lab!r} for factor {t!r}"))
        elif g.kind == "projector_select":
            labels, _ = g.params
            for lab in labels:
                if lab not in table[g.targets[0]]:
                    diags.append(Diagnostic(g.line, 1,
                                            f"unknown label {lab!r} for factor {g.targets[0]!r}"))
        else:  # custom_unitary
            dim = 1
            for t in g.targets:
                dim *= len(table[t])
            if len(g.params) != dim:
                diags.append(Diagnostic(
                    g.line, 1,
                    f"matrix is {len(g.params)}x{len(g.params)} but targets span dim {dim}"))
                continue
            if not _matrix_is_unitary(g.params):
                diags.append(Diagnostic(g.line, 1,
                                        f"matrix is not unitary to {UNITARY_TOL:g}"))


def _matrix_is_unitary(rows: tuple) -> bool:
    mat = np.array(rows, dtype=complex)
    return bool(np.max(np.abs(mat @ mat.conj().T - np.eye(len(rows)))) <= UNITARY_TOL)


def _normalize(entries: tuple[AmplitudeEntry, ...], where: str
               ) -> tuple[tuple[AmplitudeEntry, ...], list[Diagnostic]]:
    norm_sq = sum(abs(e.amplitude) ** 2 for e in entries)
    warnings: list[Diagnostic] = []
    if norm_sq == 0.0:
        line = entries[0].line if entries else 1
        raise ScenarioValidationError(
            [Diagnostic(line, 1, f"{where} state has zero norm and cannot be normalized")])
    norm = norm_sq ** 0.5
    if abs(norm - 1.0) > NORM_WARN_TOL:
        line = entries[0].line if entries else 1
        warnings.append(Diagnostic(
            line, 1, f"{where} amplitudes had norm {norm:.12g}; normalized to 1"))
        entries = tuple(
            AmplitudeEntry(e.labels, e.amplitude / norm, line=e.line) for e in entries)
    return entries, warnings


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
