"""The REP6xx drift detector against the *real* protocol sources.

The fixture-tree cases in ``test_lint_rules.py`` prove each rule fires
in isolation; these tests prove the acceptance-level property — seeding
a one-constant drift into copies of the actual shipped sources is caught
and localized, and the unmutated sources stay clean.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.lint import run_lint
from repro.lint.equivalence import (
    Bin,
    Const,
    Sym,
    Var,
    Where,
    diff,
    normalize,
    render,
)

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

_PROTOCOL_FILES = ("base.py", "aimd.py", "mimd.py", "robust_aimd.py")


def _real_tree(tmp_path: Path, with_meanfield: bool = False) -> Path:
    """Copy the real protocol (and optionally mean-field kernel) sources
    into a miniature ``repro/`` tree."""
    root = tmp_path / "tree"
    protocols = root / "repro" / "protocols"
    protocols.mkdir(parents=True)
    for name in _PROTOCOL_FILES:
        shutil.copy(SRC / "protocols" / name, protocols / name)
    if with_meanfield:
        meanfield = root / "repro" / "meanfield"
        meanfield.mkdir(parents=True)
        shutil.copy(SRC / "meanfield" / "kernel.py", meanfield / "kernel.py")
    return root


def test_real_protocols_are_drift_free(tmp_path):
    root = _real_tree(tmp_path, with_meanfield=True)
    assert run_lint([root]).findings == []


def test_seeded_constant_drift_in_batched_next_is_caught(tmp_path):
    root = _real_tree(tmp_path)
    target = root / "repro" / "protocols" / "aimd.py"
    source = target.read_text()
    mutated = source.replace(
        "loss_rate > 0.0, windows", "loss_rate > 0.001, windows"
    )
    assert mutated != source, "seed site moved; update the test"
    target.write_text(mutated)

    findings = [f for f in run_lint([root]).findings if f.code == "REP601"]
    assert findings, "seeded drift was not detected"
    drift = " | ".join(f.message for f in findings)
    # Names both implementations and the diverging subexpression.
    assert "batched_next" in drift
    assert "next_window" in drift
    assert "0.001" in drift and "0.0" in drift
    assert any(f.path == str(target) for f in findings)


def test_seeded_arm_drift_is_localized_to_the_arm(tmp_path):
    # Drift an *arm* (growth uses b instead of a): the diff names the
    # minimal subexpression, not the whole where().
    root = _real_tree(tmp_path)
    target = root / "repro" / "protocols" / "aimd.py"
    source = target.read_text()
    mutated = source.replace('windows + params["a"]', 'windows + params["b"]')
    assert mutated != source
    target.write_text(mutated)
    findings = [f for f in run_lint([root]).findings if f.code == "REP601"]
    assert findings
    assert any("'b'" in f.message or " b " in f.message or "(a + w)" in f.message
               for f in findings)


def test_seeded_trigger_drift_is_caught(tmp_path):
    root = _real_tree(tmp_path)
    target = root / "repro" / "protocols" / "robust_aimd.py"
    source = target.read_text()
    mutated = source.replace('("ge", "epsilon")', '("gt", "epsilon")')
    assert mutated != source
    target.write_text(mutated)
    findings = [f for f in run_lint([root]).findings if f.code == "REP601"]
    assert findings
    assert "meanfield_trigger" in findings[0].message


# ----------------------------------------------------------------------
# The symbolic core
# ----------------------------------------------------------------------
def test_normalize_sorts_commutative_operands_only():
    a = Bin("*", Var("w"), Var("b"))
    b = Bin("*", Var("b"), Var("w"))
    assert normalize(a) == normalize(b)
    # Subtraction is not commutative: operand order is preserved.
    c = Bin("-", Var("w"), Var("b"))
    d = Bin("-", Var("b"), Var("w"))
    assert normalize(c) != normalize(d)
    # No reassociation: (w + a) + b stays distinct from w + (a + b),
    # because float addition is not associative.
    left = Bin("+", Bin("+", Var("w"), Var("a")), Var("b"))
    right = Bin("+", Var("w"), Bin("+", Var("a"), Var("b")))
    assert normalize(left) != normalize(right)


def test_diff_localizes_single_divergence():
    mk = lambda c: Where(  # noqa: E731
        Bin("+", Var("w"), Const(c)), Var("w"), Const(0.0)
    )
    pair = diff(mk(1.0), mk(2.0))
    assert pair == (Const(1.0), Const(2.0))
    # Two divergences: the smallest common ancestor is reported.
    both_a = Bin("+", Const(1.0), Const(2.0))
    both_b = Bin("+", Const(3.0), Const(4.0))
    pair = diff(both_a, both_b)
    assert pair == (both_a, both_b)
    assert diff(mk(1.0), mk(1.0)) is None


def test_render_is_deterministic_and_total():
    sym: Sym = Where(
        Bin("+", Var("w"), Const(0.5)),
        Bin("*", Var("w"), Var("b")),
        Const(1.0),
    )
    assert render(sym) == "where((w + 0.5), (w * b), 1.0)"


def test_inextractable_protocols_are_skipped_not_flagged(tmp_path):
    # Stateful scalar + no advertised coverage: extraction fails quietly.
    root = tmp_path / "tree"
    (root / "repro" / "protocols").mkdir(parents=True)
    (root / "repro" / "protocols" / "stateful.py").write_text(
        "from repro.protocols.base import Protocol\n\n"
        "class Cubicish(Protocol):\n"
        "    def next_window(self, obs):\n"
        "        self.t = getattr(self, 't', 0) + 1\n"
        "        return obs.window + self.t\n"
    )
    assert run_lint([root]).findings == []


def test_profile_fast_skips_the_drift_rules(tmp_path):
    root = _real_tree(tmp_path)
    target = root / "repro" / "protocols" / "aimd.py"
    target.write_text(
        target.read_text().replace(
            "loss_rate > 0.0, windows", "loss_rate > 0.001, windows"
        )
    )
    assert run_lint([root], profile="fast").findings == []
    assert any(
        f.code == "REP601" for f in run_lint([root], profile="full").findings
    )
