"""Per-axiom verdicts with concrete witnesses on every failure, and the
value semantics that every structure class shares."""

from __future__ import annotations


class Record:
    """Equality, repr and copy with changes, for a class whose instance
    attributes are exactly its constructor's arguments, by name and in
    order.  A name that starts with "_" is left out of the repr."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in vars(self).items() if k[0] != "_")
        return f"{type(self).__name__}({args})"

    def replace(self, **changes):
        """A new instance with the given arguments changed, checked as at
        construction."""
        return type(self)(**{**vars(self), **changes})


class CheckEntry(Record):
    def __init__(self, axiom: str, passed: bool, witness: tuple | None = None):
        if not passed and witness is None:
            raise ValueError(f"failing axiom {axiom!r} needs a witness")
        self.axiom = axiom
        self.passed = passed
        # witness = (index tuple, evaluated left side, evaluated right side)
        self.witness = witness


class CheckReport(Record):
    def __init__(self, entries: list | None = None):
        self.entries = [] if entries is None else entries

    def add(self, axiom: str, passed: bool, witness=None):
        self.entries.append(CheckEntry(axiom, bool(passed), witness))
        return self

    def require(self, error, message: str):
        """Unless the report passes, raise error(message.format(the first
        failing axiom), report=self)."""
        if not self.ok:
            raise error(message.format(self.failures()[0].axiom), report=self)

    @property
    def ok(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self):
        return [e for e in self.entries if not e.passed]

    def axiom_ids(self):
        return [e.axiom for e in self.entries]

    def entry(self, axiom: str) -> CheckEntry:
        for e in self.entries:
            if e.axiom == axiom:
                return e
        raise KeyError(axiom)

    def format(self, verbose=False, witness_limit=None) -> str:
        """Render as one PASS/FAIL line per axiom, scalars through str.

        verbose includes passing axioms; witness_limit caps the number of
        detailed failures.
        """
        lines = []
        shown = 0
        for e in self.entries:
            if e.passed:
                if verbose:
                    lines.append(f"PASS {e.axiom}")
                continue
            if witness_limit is not None and shown >= witness_limit:
                lines.append(f"FAIL {e.axiom}")
                continue
            idx, lhs, rhs = e.witness
            lines.append(
                f"FAIL {e.axiom} @ {idx}: lhs={_fmt_val(lhs)} rhs={_fmt_val(rhs)}"
            )
            shown += 1
        summary = "ALL PASS" if self.ok else f"{len(self.failures())} FAILED"
        lines.append(f"{summary} ({len(self.entries)} axioms checked)")
        return "\n".join(lines)

    def __str__(self):
        return self.format(verbose=False)


def _fmt_val(v):
    if isinstance(v, (list, tuple)):
        return "(" + ", ".join(_fmt_val(x) for x in v) + ")"
    return str(v)
