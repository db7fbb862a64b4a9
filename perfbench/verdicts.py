"""Known-answer checks for operation payloads.

``check(op, status, payload, answers)`` returns one of

- ``"ok"``: the payload carries the known answer;
- ``"known-failure"``: the operation is listed as failing at the seed commit
  and returned exactly that structured error;
- ``"wrong"``: anything else.

An operation that fails at the seed commit and later succeeds is checked
against its hand-derived answer, never against the recorded error payload.
"""

from __future__ import annotations

import hashlib
import json

ANSWERS_FILE = "perfbench/answers.json"


def op_key(argv) -> str:
    return " ".join(argv)


def payload_digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_answers(path=ANSWERS_FILE):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check(op, status, payload, answers) -> str:
    expect = op["expect"]
    known = expect.get("known_error")
    if known and status == known["status"] \
            and payload.get("error", {}).get("code") == known["code"]:
        return "known-failure"
    if status != 0:
        return "wrong"
    return "ok" if _CHECKS[expect["kind"]](op, payload, answers) else "wrong"


def _klein(op, payload, answers):
    e = op["expect"]
    return (payload["semi_invariant"] is True
            and payload["group"] == e["group"]
            and payload["degree"] == e["degree"]
            and len(payload["scalars"]) == e["generators"])


def _stabilizer(op, payload, answers):
    groups = op["expect"]["groups"]
    return (payload["maximal_groups"] == groups
            and [c["group"] for c in payload["certificates"]] == groups
            and all(c["scalars"] for c in payload["certificates"]))


def _calibrate(op, payload, answers):
    return payload["succeeded"] is True \
        and payload["scalars"] == op["expect"]["scalars"]


def _rigidify(op, payload, answers):
    """The spec read back (names, weights, relation or none), and its
    rigidification: every weight divided by their gcd, the gerbe index."""
    e = op["expect"]
    g = e["gerbe_index"]
    ring, rigid = payload["ring"], payload["rigidification"]
    return (payload["gerbe_index"] == g
            and [x["name"] for x in ring["generators"]] == e["generators"]
            and [x["weight"] for x in ring["generators"]] == e["weights"]
            and (ring["relation"] is not None) == e["relation"]
            and [x["name"] for x in rigid["generators"]] == e["generators"]
            and [x["weight"] for x in rigid["generators"]] == [w // g for w in e["weights"]])


def _chart(op, payload, answers):
    e = op["expect"]
    return (payload["modulus"] == e["modulus"]
            and [[r["name"], r["degree"]] for r in payload["residual_grading"]]
            == e["residual"])


def _ground_forms(op, payload, answers):
    e = op["expect"]
    return ([f["degree"] for f in payload["forms"]] == e["degrees"]
            and [f["nu"] for f in payload["forms"]] == e["nu"])


def _digest(op, payload, answers):
    """The hand-derived table entries, then the recorded payload digest.

    A known-failing operation that starts to succeed has no recorded
    digest to match; it is held to its table entries alone.
    """
    e = op["expect"]
    if "gerbe_index" in e and payload.get("gerbe_index") != e["gerbe_index"]:
        return False
    if "coarse_weights" in e and payload["coarse_weights"] != e["coarse_weights"]:
        return False
    if "divisor_degree" in e \
            and payload["root"]["degree_on_canonical_stack"] != e["divisor_degree"]:
        return False
    if "modulus" in e and payload["modulus"] != e["modulus"]:
        return False
    if "all_sound" in e and payload["counts"]["refuted"] != 0:
        return False
    if "known_error" in e:
        return True
    return payload_digest(payload) == answers[op_key(op["argv"])]


_CHECKS = {"klein": _klein, "stabilizer": _stabilizer, "calibrate": _calibrate,
           "rigidify": _rigidify, "chart": _chart, "ground-forms": _ground_forms,
           "digest": _digest}
