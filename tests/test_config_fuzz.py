"""Config documents end to end: ``ScenarioConfig.from_dict`` and ``run``.

The fuzz draws documents for the custom, fig1 and oscillators scenarios
whose lattice, pump and top-level fields are each valid, dropped, mistyped
or out of range, with unknown keys added.  ``run`` must return a result or
raise a ``ValueError``, a ``KeyError`` or an ``nhlab`` error whose message
comes from one of the rules below: never a numpy broadcast error, a
``TypeError`` or a warning-and-carry-on.
"""

import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nhlab.scenarios import ScenarioConfig, run

# the messages a refused document may give, one pattern per rule
RULES = (
    r"is not a real number$", r"is not finite$", r"is not an integer$",
    r"must be positive, got ", r"must be (>= -?\d+|in -?\d+\.\.\d+), got -?\d+$",
    r"is not a JSON object$", r"is not a list of sites$",
    r"^unknown (lattice|pump|config|output) fields: ", r"^missing (lattice|pump) fields: ",
    r"unknown tolerance keys: ", r"^unknown scenario ", r"^format must be csv or json",
    r"^onsite must be one of ", r"^scaling must be one of ", r"^coupling t must be nonzero$",
    r"^explicit scaling needs a list of n values$", r"^pumped_sites must be nonempty$",
    r"^output path .* is not a string$",
    r"^fig1 needs a harmonic lattice with omega2 > 0$",
    r"^custom scenario requires a lattice spec$",
    r"^scaling has negative entries at sites \[",
    r"^eigenpair residual \S+ exceeds \S+ \* \|\|M\|\| = ",   # eig_full's certificate
)


def lattice_fields(n):
    """field -> (a valid value strategy, mistyped and out-of-range values)."""
    return {
        "n": (st.just(n), ["9", 9.0, True, None, 0, -3]),
        "t": (st.sampled_from([1.0, -0.7, 2]), ["1", True, [1.0], 0.0, float("nan")]),
        "onsite": (st.sampled_from(["harmonic", "zero"]), [1, None, "cubic"]),
        "omega2": (st.sampled_from([1e-3, 0.05, 0]), ["x", float("inf"), -1.0]),
        "scaling": (st.sampled_from(["identity", "geometric", "random", "explicit"]),
                    [3, "log"]),
        "s": (st.floats(0.5, 2.0), ["1.5", 0.0, -1.0, float("inf")]),
        "seed": (st.integers(0, 2**64 - 1), [1.5, "3", -1, 2**64]),
        "values": (st.lists(st.floats(-1.0, 2.0), min_size=n, max_size=n),
                   ["abc", [1, "2"] * n, 5, [1.0] * (n + 1)]),
        "zeroed_sites": (st.lists(st.integers(1, n), max_size=2),
                         [4, ["1"], [1.5], [0], [n + 1]]),
    }


PUMP_FIELDS = {
    "kappa0": (st.floats(0.01, 1.0), ["0.02", 0.0, -1.0, float("nan")]),
    "pumped_sites": (st.just([1]), [1, ["1"], [], [0], [99]]),
}
TOP_FIELDS = {
    "seed": (st.integers(0, 10**6), ["1", 1.5, True, -5]),
    "trials": (st.integers(1, 3), [0, "2"]),
    "anchor": (st.just(2.38), ["2.38", float("nan")]),
    "n": (st.integers(1, 12), [0, 2.0]),
}


@st.composite
def documents(draw):
    """A valid custom, fig1 or oscillators document with n <= 12, then up to
    two faults, each a dropped, bad or unknown field of one section."""
    fields = {None: TOP_FIELDS, "lattice": lattice_fields(draw(st.integers(1, 12))),
              "pump": PUMP_FIELDS}
    doc = {"scenario": draw(st.sampled_from(["custom", "fig1", "oscillators"]))}
    doc.update({k: draw(v) for k, (v, _) in TOP_FIELDS.items() if draw(st.booleans())})
    for section in ("lattice", "pump"):
        if section == "lattice" or draw(st.booleans()):
            doc[section] = {k: draw(v) for k, (v, _) in fields[section].items()}
    for _ in range(draw(st.integers(0, 2))):
        section = draw(st.sampled_from([None, *(k for k in ("lattice", "pump") if k in doc)]))
        target = doc if section is None else doc[section]
        name = draw(st.sampled_from(sorted(fields[section])))
        fault = draw(st.sampled_from(["drop", "bad", "unknown"]))
        if fault == "drop":
            target.pop(name, None)
        elif fault == "bad":
            target[name] = draw(st.sampled_from(fields[section][name][1]))
        else:
            target["colour"] = "blue"
    if draw(st.integers(0, 9)) == 9:
        doc["tolerances"] = {"reality_rl": 1e-8}
    if draw(st.integers(0, 4)) == 4:
        doc["output"] = {"format": draw(st.sampled_from(["json", "xml"]))}
    if draw(st.integers(0, 9)) == 9:
        doc.setdefault("output", {})["path"] = draw(st.sampled_from([5, None, ["out"]]))
    return doc


@pytest.mark.filterwarnings("error")
@settings(max_examples=120, deadline=None, derandomize=True)
@given(doc=documents())
@example(doc={"scenario": "fig1", "lattice": {"n": 3, "onsite": "harmonic", "omega2": 1e-3,
                                              "scaling": "random"}})
@example(doc={"scenario": "oscillators", "seed": -5})
def test_config_documents_run_or_are_refused_by_a_rule(doc):
    with tempfile.TemporaryDirectory() as out:
        try:
            run(ScenarioConfig.from_dict({**doc, "output": {"path": out,
                                                            **doc.get("output", {})}}))
        except (ValueError, KeyError, RuntimeError) as exc:
            assert type(exc) in (ValueError, KeyError) or type(exc).__module__.startswith(
                "nhlab."), repr(exc)
            assert any(re.search(rule, str(exc).strip('"')) for rule in RULES), repr(exc)


# ---------------------------------------------------------------------------
# the paper's pseudo-Hermitian claim, end to end

def test_custom_indefinite_scaling_gives_a_closed_conjugate_pair():
    """A Hermitian but indefinite A (a_21 = -1 on a unit n = 41 chain) makes
    H = H0 A pseudo-Hermitian: its spectrum is closed under conjugation, with
    one complex pair, and custom takes its conjugation-closure branch."""
    values = [1.0] * 41
    values[20] = -1.0
    with tempfile.TemporaryDirectory() as out:
        result = run(ScenarioConfig.from_dict({
            "scenario": "custom", "output": {"path": out},
            "lattice": {"n": 41, "scaling": "explicit", "values": values}}))
    assert result.passed
    assert [a.name for a in result.assertions] == ["custom.eigenpair_residuals",
                                                   "custom.conjugation_closure"]
    cert = result.report["certificate"]
    assert [tuple(p) for p in cert["conjugate_pairs"] if p[0] != p[1]] == [(19, 20)]
    assert cert["max_imag"] == pytest.approx(1.1547005, abs=1e-6)
    assert not cert["is_real"]
    assert max(cert["pair_residuals"]) <= 1e-14       # 5.5e-16 measured
    w = np.array(result.report["eigensystem"]["eigenvalues"])
    assert np.count_nonzero(np.abs(w[:, 1]) > 1e-8) == 2
