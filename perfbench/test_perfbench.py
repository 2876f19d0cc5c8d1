"""Self-tests of the benchmark; they need no jetspace.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import json
import unittest

import reference
import run
import tracing
import workloads


def _cli_outcome(payload: dict) -> dict:
    return {"rc": 0, "stdout": json.dumps(payload), "stderr": ""}


def _request(check: dict) -> dict:
    return {"id": "r", "kind": "cli", "argv": [], "check": check}


class RequestLists(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for w in workloads.WORKLOADS:
            first = json.dumps(workloads.generate(w, 7), sort_keys=True)
            again = json.dumps(workloads.generate(w, 7), sort_keys=True)
            self.assertEqual(first, again, w)
            other = json.dumps(workloads.generate(w, 8), sort_keys=True)
            self.assertNotEqual(first, other, w)

    def test_ids_unique_and_checks_known(self):
        for w in workloads.WORKLOADS:
            for seed in range(40):
                reqs = workloads.requests(workloads.generate(w, seed))
                ids = [r["id"] for r in reqs]
                self.assertEqual(len(ids), len(set(ids)))
                for r in reqs:
                    self.assertIn(r["check"]["type"], reference._CHECKS)

    def test_anchors_always_present(self):
        for seed in range(10):
            ops = workloads.requests(workloads.generate("opspace", seed))
            argvs = [" ".join(r["argv"]) for r in ops]
            self.assertIn("dim-do --n 2 --a 0 --b 0 --N 5", argvs)
            self.assertIn("dim-do --n 3 --a 0 --b 0 --N 3", argvs)
            alg = workloads.requests(workloads.generate("algebra", seed))
            self.assertIn("jet --cyclic 3,-1,2,5 --N 12",
                          [" ".join(r["argv"]) for r in alg])

    def test_cyclic_moduli_squarefree(self):
        for choices, _, _ in workloads.CYCLIC_SLOTS:
            for p in choices:
                u, v = list(p), [i * c for i, c in enumerate(p)][1:]
                while v:
                    u, v = v, reference.poly_rem(u, v)
                self.assertEqual(len(u), 1, p)

    def test_known_defect_twists_kept(self):
        """Every growth pass sweeps b - a <= -(n + 1) on P^2 and P^3."""
        for seed in range(10):
            calls = workloads.requests(workloads.generate("growth", seed))
            bad = {c["args"][0] for c in calls if c["fn"] == "verify_growth"
                   and c["args"][0] >= 2 and c["args"][2] - c["args"][1] <= -(c["args"][0] + 1)}
            self.assertEqual(bad, {2, 3})


class Reference(unittest.TestCase):
    def test_closed_form_matches_recorded_dims(self):
        for (n, d), dims in reference.RECORDED_DIMS.items():
            self.assertEqual([reference.do_dim(n, d, k) for k in range(len(dims))],
                             list(dims), (n, d))

    def test_closed_form_small_cases(self):
        # README: DO^1(O, O) on the line has dimension 4; DO^5 on the plane 441
        self.assertEqual(reference.do_dim(1, 0, 1), 4)
        self.assertEqual(reference.do_dim(2, 0, 5), 441)
        self.assertEqual(reference.do_dim(3, 0, 3), 400)

    def test_rejects_corrupted_dim(self):
        req = _request({"type": "dim-do", "n": 2, "a": 0, "b": 0, "N": 5})
        good = {"dim": 441, "candidates": 812}
        self.assertIsNone(reference.check(req, _cli_outcome(good)))
        bad = dict(good, dim=440)
        self.assertIn("dim 440", reference.check(req, _cli_outcome(bad)))

    def test_rejects_corrupted_invariant(self):
        req = _request({"type": "jet-cyclic", "p": [0, 0, 1], "N": 1})
        good = {"free_rank": 0, "torsion": True, "length": 4, "invariants": ["t", "t^3"]}
        self.assertIsNone(reference.check(req, _cli_outcome(good)))
        bad = dict(good, invariants=["t", "1/2 + t^3"])
        self.assertIsNotNone(reference.check(req, _cli_outcome(bad)))
        short = dict(good, length=3)
        self.assertIsNotNone(reference.check(req, _cli_outcome(short)))

    def test_rejects_wrong_witness(self):
        wave = [[[[1, [0, 0], [2, 0]], [-1, [0, 0], [0, 2]]]]]
        req = _request({"type": "elliptic", "mode": "real", "ops": wave, "N": 2})
        good = {"verdict": "false", "witness": ["1", "1"], "sign_points": None}
        self.assertIsNone(reference.check(req, _cli_outcome(good)))
        bad = dict(good, witness=["1", "2"])
        self.assertIn("det(witness)", reference.check(req, _cli_outcome(bad)))
        flat = dict(good, witness=None, sign_points=[["1", "0"], ["1", "2"]])
        self.assertIn("sign", reference.check(req, _cli_outcome(flat)))

    def test_rejects_wrong_algebraic_witness(self):
        lap = [[[[1, [0, 0], [2, 0]], [1, [0, 0], [0, 2]]]]]
        req = _request({"type": "elliptic", "mode": "algebraic", "ops": lap, "N": 2})
        good = {"elliptic": False, "witness": ["t", "1"], "witness_defining_poly": [1, 0, 1]}
        self.assertIsNone(reference.check(req, _cli_outcome(good)))
        bad = dict(good, witness_defining_poly=[2, 0, 1])
        self.assertIsNotNone(reference.check(req, _cli_outcome(bad)))

    def test_known_defect_is_named(self):
        req = {"id": "c", "check": {"type": "growth", "n": 2, "a": 0, "b": -3}}
        self.assertEqual(reference.known_defect(req, "wrong answer: verdict false"),
                         "growth-negative-twist-verdict")
        self.assertIsNone(reference.known_defect(req, "timeout: over 30 s"))
        fine = {"id": "c", "check": {"type": "growth", "n": 2, "a": 0, "b": -2}}
        self.assertIsNone(reference.known_defect(fine, "wrong answer: verdict false"))


class Tracing(unittest.TestCase):
    def test_self_time_of_a_span_tree(self):
        # root [0, 10] has children [1, 4] and [5, 9]; [5, 9] has child [6, 8]
        spans = [
            ["root", 0.0, 10.0, None, "r"],
            ["a", 1.0, 4.0, 0, "r"],
            ["b", 5.0, 9.0, 0, "r"],
            ["c", 6.0, 8.0, 2, "r"],
        ]
        self.assertEqual(tracing.self_times(spans), [3.0, 3.0, 2.0, 2.0])

    def test_summarize_adds_over_processes(self):
        dump = {"spans": [["linalg.rank", 0.0, 2.0, None, "r"],
                          ["projective.action_matrix", 2.0, 3.0, None, "r"]],
                "counts": {"linalg.rank.rows": 10, "linalg.rank.rank": 4,
                           "projective.do_dimension.hits": 3,
                           "projective.do_dimension.misses": 1}}
        out = tracing.summarize([dump, dump])
        self.assertEqual(out["linalg.rank.self_s"], 4.0)
        self.assertEqual(out["linalg.rank.calls"], 2)
        self.assertEqual(out["linalg.rank.useful_ratio"], 0.4)
        self.assertEqual(out["projective.do_dimension.hit_ratio"], 0.75)
        self.assertEqual(out["projective.action_matrix.self_s"], 2.0)


class Figures(unittest.TestCase):
    def test_tail_leaves_ten_above(self):
        xs = [float(i) for i in range(40)]
        value, pct = run.tail(xs, 20)
        self.assertEqual(value, 29.0)
        self.assertEqual(pct, 75.0)
        self.assertEqual(sum(x > value for x in xs), 10)

    def test_tail_does_not_move_with_the_pass_count(self):
        one_pass = [float(i) for i in range(20)]
        for passes in (2, 3, 4, 7):
            value, pct = run.tail(one_pass * passes, 20)
            self.assertEqual((value, pct), (14.0, 75.0))
            self.assertGreaterEqual(sum(x > value for x in one_pass * passes), 10)

if __name__ == "__main__":
    unittest.main()
