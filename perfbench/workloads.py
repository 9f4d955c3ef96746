"""The benchmark's four workloads and their correctness checks.

Each workload turns a seed into a list of items (its inputs), runs one item
through the public API of `dyadlab` (`run`, the timed part), reduces the
output to a JSON record (`record`) and checks the record (`check`) against
theorem-level bounds, the frozen calibration maxima, and, for seed 0 at full
size, the reference records committed under `reference/`.  Tolerances are
the repository's own: 1e-9 relative for exact finite sums and the dense
oracle, 1e-6 relative for power-iteration norms.

Seed 0 reproduces the pinned suite indices and seeds; seed s > 0 takes the
disjoint index or seed range that starts at s times the range width.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field

REL_EXACT = 1e-9     # exact sums and the dense-SVD oracle (criteria 4, 5)
REL_POWER = 1e-6     # power-iteration norms (criterion 3)
ABS_FLOOR = 1e-12    # the repository's tolerance for quantities that are zero in exact arithmetic


@dataclass
class Item:
    key: str
    args: dict = field(default_factory=dict)


def rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) or abs(a - b) <= ABS_FLOOR


def _calibration() -> dict:
    from dyadlab.calibration import load_calibration
    return load_calibration()["constants"]


class Workload:
    """Base class.  A run makes at least `min_passes` passes, and a traced
    run exactly that many; `scaled` says whether its times are scaled by the
    reference kernel; `tiny` shrinks the inputs for the smoke tests."""

    name = ""
    min_passes = 2
    scaled = True        # times scaled to the reference machine speed (speed.py)

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        self.items = self.make_items()

    @property
    def has_reference(self) -> bool:
        """References exist only for seed 0 at full size."""
        return self.seed == 0 and not self.tiny

    def make_items(self) -> list[Item]:
        raise NotImplementedError

    def items_for_pass(self, p: int) -> list[Item]:
        """Items of pass p; every pass repeats the same items unless a
        workload draws fresh inputs per pass."""
        return self.items

    def run(self, item: Item):
        raise NotImplementedError

    def record(self, item: Item, output) -> dict:
        raise NotImplementedError

    def check(self, item: Item, rec: dict, ref: dict | None) -> list[str]:
        raise NotImplementedError

    def check_repeat(self, item: Item, output) -> list[str]:
        """Checks that compare an output with the same item's earlier passes."""
        return []

    def close(self):
        pass


def _close_fields(rec, ref, keys, rel) -> list[str]:
    return [f"{k} {rec[k]!r} != reference {ref[k]!r} (rel {rel:g})"
            for k in keys if not rel_close(rec[k], ref[k], rel)]


# ---------------------------------------------------------------------------
# two_weight: dense-SVD testing-condition suite prefix
# ---------------------------------------------------------------------------

class TwoWeight(Workload):
    """Pinned testing-condition suite: `two_weight_instance(i)` then
    `testing_constants(..., norm_method="dense-svd")` at d=1, N=10.  A pass is
    24 consecutive indices, two periods of the suite's (tau, pair type,
    target) pattern, so every seed runs the same mix."""

    name = "two_weight"
    scaled = False       # two BLAS threads: the one-core kernel does not follow it
    width = 24

    def make_items(self):
        count = 4 if self.tiny else self.width
        base = self.seed * self.width
        return [Item(f"i={i}", {"i": i}) for i in range(base, base + count)]

    @property
    def depth(self):
        return 6 if self.tiny else 10

    def run(self, item):
        from dyadlab import experiments as exp
        from dyadlab.estimates import testing_constants

        T, sigma, mu = exp.two_weight_instance(item.args["i"], depth=self.depth)
        return testing_constants(T, sigma, mu, norm_method="dense-svd")

    def record(self, item, rep):
        return {
            "c_wb": rep.c_wb, "c_t1": rep.c_t1, "c_tstar1": rep.c_tstar1,
            "full_norm": rep.full_norm,
            "ratio": rep.full_norm / rep.testing_sum,
            "slack": rep.full_norm - max(rep.c_wb, rep.c_t1, rep.c_tstar1),
        }

    def check(self, item, rec, ref):
        from dyadlab import experiments as exp

        bad = []
        if ref is not None:
            bad += _close_fields(rec, ref, ("c_wb", "c_t1", "c_tstar1", "full_norm"),
                                 REL_EXACT)
        if not rec["slack"] >= -1e-9:
            bad.append(f"necessity: full_norm - max constant = {rec['slack']!r} < -1e-9")
        pinned = (item.args["i"] < exp.TWO_WEIGHT_COUNT
                  and self.depth == exp.TWO_WEIGHT_DEPTH)
        if pinned:
            cap = _calibration()["testing_ratio_max"] * (1 + 1e-9)
            if not rec["ratio"] <= cap:
                bad.append(f"ratio {rec['ratio']!r} above calibrated {cap!r}")
        return bad


# ---------------------------------------------------------------------------
# sweep_n16: matrix-free sweep rows
# ---------------------------------------------------------------------------

class SweepN16(Workload):
    """`run_sweep` rows at d=1, N=16 with power iteration, testing constants
    and corona.  Shifts: hilbert and random (tau=2, seed 0); weights: power
    a=0.5, 0.9 and cascades (n=2, seed c+1), (n=4, seed c+7) with
    c = 1000s + 100p for pass p, so pass 0 of seed 0 is the pinned row set.
    One item is one row: `run_sweep` on a one-weight config.

    The power-iteration count, and with it a row's cost, depends on the
    input: cascade rows need 100 to 700 applications depending on the
    cascade seed, so each pass draws fresh cascades and a run averages over
    them.  The random shift stays at its pinned seed because its count
    varies by orders of magnitude with the shift seed (one seed in twenty
    needed 11,230 applications against a median near 150, another did not
    converge in 10,000)."""

    name = "sweep_n16"
    min_passes = 4       # four cascade draws per run, and 32 latency samples
    scaled = False       # two BLAS threads: the one-core kernel does not follow it

    def make_items(self):
        return self.items_for_pass(0)

    def items_for_pass(self, p):
        n = 8 if self.tiny else 16
        c = 1000 * self.seed + 100 * p
        weights = [
            {"family": "power", "a": 0.5},
            {"family": "power", "a": 0.9},
            {"family": "cascade", "n": 2, "seed": c + 1},
            {"family": "cascade", "n": 4, "seed": c + 7},
        ]
        items = []
        for kind in ("hilbert", "random"):
            for spec in weights:
                label = ",".join(f"{k}={v}" for k, v in spec.items())
                items.append(Item(f"{kind}|{label}", {
                    "experiment_id": "perfbench-sweep",
                    "grid": {"d": 1, "N": n},
                    "shift": {"kind": kind, "tau": 2, "seed": 0},
                    "weights": [spec],
                    "norm_method": "power-iteration",
                    "with_testing": True,
                    "with_corona": True,
                }))
        return items

    def run(self, item):
        from dyadlab import experiments as exp

        (row,) = exp.run_sweep(exp.ExperimentConfig.from_dict(item.args))
        return row

    def record(self, item, row):
        d = row.to_dict()
        del d["runtime_ms"]
        return d

    def check(self, item, rec, ref):
        bad = []
        if ref is not None:
            bad += _close_fields(rec, ref, ("norm",), REL_POWER)
            bad += _close_fields(rec, ref, ("a2",), 1e-12)
            if rec["stopping_count"] != ref["stopping_count"]:
                bad.append(f"stopping_count {rec['stopping_count']} != "
                           f"reference {ref['stopping_count']}")
        worst = max(rec["c_wb"], rec["c_t1"], rec["c_tstar1"])
        if not worst <= rec["norm"] + 1e-9:
            bad.append(f"necessity: constant {worst!r} > norm {rec['norm']!r} + 1e-9")
        if not rec["carleson_max"] <= 1 + 1e-10:
            bad.append(f"carleson_max {rec['carleson_max']!r} > 1 + 1e-10")
        return bad


# ---------------------------------------------------------------------------
# corona_cascade: calibration stages 3-5 per cascade index
# ---------------------------------------------------------------------------

class CoronaCascade(Workload):
    """Calibration stages 3-5 for cascade index i at d=1, N=12, through the
    same public calls: corona, packing and Carleson (stage 3); essence cases
    and H functionals (stage 4); Q_n classes, bold H, restricted corona and
    the A/B split (stage 5).  A pass is 24 consecutive indices, three periods
    of the suite's target exponent i % 8.

    An index's cost depends on its cascade draw (the same 24-index pass took
    2.4 to 2.9 s by seed on one machine), so every pass takes fresh indices
    and a run averages over them: pass p of seed s starts at index
    24 (64 s + p mod 64).  Pass 0 of seed 0 is the pinned prefix 0..23."""

    name = "corona_cascade"
    width = 24
    span = 64            # passes of one seed before its indices repeat

    def make_items(self):
        return self.items_for_pass(0)

    def items_for_pass(self, p):
        count = 4 if self.tiny else self.width
        base = (self.seed * self.span + p % self.span) * self.width
        return [Item(f"i={i}", {"i": i}) for i in range(base, base + count)]

    @property
    def depth(self):
        return 8 if self.tiny else 12

    def run(self, item):
        from dyadlab import experiments as exp
        from dyadlab.corona import carleson_check, packing_check, qn_partition
        from dyadlab.estimates import bold_h, corona_ab_split, h_functional

        i, depth = item.args["i"], self.depth
        # stage 3
        w = exp.cascade_weight(i, depth)
        corona = exp.corona_for(w)
        pk = packing_check(corona)
        cr = carleson_check(corona)
        # stage 4
        w4, T4, cases = exp.essence_cases(i, depth)
        h_values = [h_functional(L, fiber, T4, w4).values
                    for _n, _q0, _corona, L, fiber in cases]
        # stage 5
        w5 = exp.cascade_weight(i, depth)
        T = exp.essence_shift(i, depth)
        qn = qn_partition(w5, levels=T.levels)
        per_class = []
        for n in qn.n_values():
            cls = qn.classes[n]
            rep = bold_h(cls, T, w5)
            q0 = cls.cubes()[0]
            sub = exp.build_corona(w5, cls.restrict_under(q0), q0, stopping_levels=T.levels)
            ab = corona_ab_split(q0, n, sub, T, w5)
            per_class.append((n, q0, rep, ab))
        return w, corona, pk, cr, len(cases), h_values, w5, per_class

    def record(self, item, out):
        w, corona, pk, cr, case_count, h_values, w5, per_class = out
        bound = (16.0 / 9.0) * w.a2_characteristic()
        arrays = corona.carleson_arrays()
        excess = max(float((arrays[j] - bound * w.sums[j]).max())
                     for j in range(w.grid.N + 1))
        a2 = w5.a2_characteristic()
        bold = ab_a = ab_b = 0.0
        for n, q0, rep, ab in per_class:
            bold = max(bold, rep.value / (2.0 ** (n / 2.0) * math.sqrt(a2)))
            scale = (2.0 ** n) * a2 * w5.mass(q0)
            ab_a = max(ab_a, ab.a_part / scale)
            ab_b = max(ab_b, ab.b_part / scale)
        return {
            "child_union_ratio": pk.child_union_ratio,
            "overlap_ratio": pk.overlap_ratio,
            "carleson_worst": cr.worst_ratio,
            "carleson_excess": excess,
            "stopping_count": corona.stopping.count(),
            "case_count": case_count,
            "h_sq_sum": float(sum(float((h * h).sum()) for h in h_values)),
            "bold_h_ratio": bold,
            "ab_a_ratio": ab_a,
            "ab_b_ratio": ab_b,
        }

    def check(self, item, rec, ref):
        from dyadlab import experiments as exp

        bad = []
        if not rec["child_union_ratio"] <= 0.25 + 1e-10:
            bad.append(f"packing {rec['child_union_ratio']!r} > 0.25 + 1e-10")
        if not rec["carleson_excess"] <= 1e-10:
            bad.append(f"Carleson excess {rec['carleson_excess']!r} > 1e-10")
        i = item.args["i"]
        if self.depth == exp.CASCADE_DEPTH:
            cal = _calibration()
            # the index ranges each calibration stage covered
            for key, cap_value, covered in (
                ("overlap_ratio", cal["overlap_ratio_max"], i < exp.CASCADE_COUNT),
                ("bold_h_ratio", cal["bold_h_ratio_max"], i < 30),
                ("ab_a_ratio", cal["ab_split"]["a_ratio_max"], i < 50),
                ("ab_b_ratio", cal["ab_split"]["b_ratio_max"], i < 50),
            ):
                cap = cap_value * (1 + 1e-9)
                if covered and not rec[key] <= cap:
                    bad.append(f"{key} {rec[key]!r} above calibrated {cap!r}")
        if ref is not None:
            for k, v in ref.items():
                if isinstance(v, int):
                    if rec[k] != v:
                        bad.append(f"{k} {rec[k]} != reference {v}")
                elif not rel_close(rec[k], v, REL_EXACT):
                    bad.append(f"{k} {rec[k]!r} != reference {v!r} (rel 1e-9)")
        return bad


# ---------------------------------------------------------------------------
# cli_mixed: every CLI command at d=1 and d=2
# ---------------------------------------------------------------------------

# fields fed by power iteration in the commands that run it
POWER_KEYS = frozenset({"norm", "full_norm", "models"})


class CliMixed(Workload):
    """`dyadlab.cli.main` in-process, one item per command: char, corona, cz,
    norm, test-conditions, lemmas and sweep, each at d=1 (N=8) and d=2 (N=6;
    lemmas and sweep at N=5).  The d=2 norm item saves a cascade weight with
    `serialize.save_weight` and reads it back through `--weight-file`; the
    sweeps write CSV, JSON and gnuplot files into a temporary directory
    inside the checkout.

    Norms run by power iteration, whose cost depends on the weight drawn
    (the d=2 sweep takes 120 to 400 ms by cascade seed), so a run averages
    over many draws: draw k takes command seeds 1000s+100k+c.  Passes 0 and 1
    both run draw 0, and the second must reproduce the first byte for byte
    (criterion 10); pass p >= 2 runs draw p-1.  Draw 0 of seed 0 is the
    pinned command set.  Random-shift seeds stay pinned, for the reason
    given in SweepN16.  The sizes keep a pass near one second, and a run
    makes at least twenty passes: the tail (ten samples beyond it) then falls
    among the costliest command's samples instead of at their fastest.  lemmas at d=2, N=6 alone takes 2.5 s, and a small dense SVD
    took 30 ms or 700 ms from run to run on a 2-vCPU machine, so the CLI
    norms here run by power iteration."""

    name = "cli_mixed"
    min_passes = 20      # nineteen draws, and twice ten samples of the costliest command

    def __init__(self, seed, tiny=False):
        base = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
        os.makedirs(base, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="cli-", dir=base)
        self.draws: dict[int, list[Item]] = {}
        self.first_bytes: dict[str, bytes] = {}
        super().__init__(seed, tiny)

    def make_items(self):
        return self.items_for_pass(0)

    def items_for_pass(self, p):
        k = max(0, p - 1)
        if k not in self.draws:
            self.draws[k] = self._draw(k)
        return self.draws[k]

    def _draw(self, k):
        s = 1000 * self.seed + 100 * k
        n1, n2 = (5, 4) if self.tiny else (8, 6)
        tmp = os.path.join(self.tmp, f"draw{k}")
        os.makedirs(tmp)
        weight_file = os.path.join(tmp, "w2.json")
        items = []

        def cli(key, argv, outputs=(), power=False, **extra):
            items.append(Item(f"{key}@{k}", {"argv": argv, "outputs": list(outputs),
                                              "power": power, **extra}))

        for d, n in ((1, n1), (2, n2)):
            dd = ["--d", str(d)]
            cli(f"char.d{d}", ["char", *dd, "--N", str(n), "--family", "cascade",
                               "--n", "3", "--seed", str(5 + s)])
            cli(f"corona.d{d}", ["corona", *dd, "--N", str(n), "--family", "cascade",
                                 "--n", "3", "--seed", str(11 + s)])
            cli(f"cz.d{d}", ["cz", *dd, "--N", str(n), "--lam", "2.0",
                             "--seed", str(7 + s)])
            if d == 1:
                cli("norm.d1", ["norm", "--N", str(n), "--shift", "hilbert",
                                "--family", "cascade", "--n", "3", "--seed", str(13 + s)],
                    power=True)
                cli("test-conditions.d1", ["test-conditions", "--N", str(n),
                                           "--family", "cascade", "--n", "2",
                                           "--seed", str(17 + s), "--shift", "hilbert",
                                           "--method", "power-iteration"], power=True)
            else:
                cli("norm.d2.file", ["norm", "--d", "2", "--N", str(n), "--shift", "random",
                                     "--tau", "1", "--seed", "0", "--weight-file", weight_file],
                    power=True, save_weight={"n": 2, "seed": 19 + s, "d": 2, "N": n,
                                             "base": weight_file[:-len(".json")]})
                # reads the weight file the norm item above writes
                cli("test-conditions.d2", ["test-conditions", "--d", "2", "--N", str(n),
                                           "--weight-file", weight_file,
                                           "--seed", "0", "--shift", "random",
                                           "--tau", "1", "--method", "power-iteration"],
                    power=True)
            # the two costliest commands run one level coarser at d=2
            small = n if d == 1 else n - 1
            cli(f"lemmas.d{d}", ["lemmas", *dd, "--N", str(small),
                                 "--family", "cascade", "--n", "2", "--seed", str(23 + s)])
            cfg_path = os.path.join(tmp, f"sweep-d{d}.json")
            out_dir = os.path.join(tmp, f"sweep-d{d}")
            fmt = "csv" if d == 1 else "json"
            with open(cfg_path, "w", encoding="utf-8") as fh:
                json.dump({
                    "experiment_id": f"perfbench-cli-d{d}",
                    "grid": {"d": d, "N": small},
                    "shift": {"kind": "hilbert" if d == 1 else "random",
                              "tau": 1 if d == 2 else 2, "seed": 0},
                    "weights": [{"family": "power", "a": 0.5} if d == 1
                                else {"family": "constant", "value": 2.0},
                                {"family": "cascade", "n": 2, "seed": 29 + s}],
                    "norm_method": "power-iteration",
                    "with_testing": True,
                    "with_corona": True,
                    "format": fmt,
                }, fh)
            outputs = (["summary.json", "sweep.csv", "sweep.gnuplot"] if fmt == "csv"
                       else ["summary.json", "sweep.json"])
            cli(f"sweep.d{d}", ["sweep", "--config", cfg_path, "--out", out_dir],
                [os.path.join(out_dir, name) for name in outputs], power=True)
        return items

    def run(self, item):
        from dyadlab import cli

        spec = item.args.get("save_weight")
        if spec:
            from dyadlab.grid import build_grid
            from dyadlab.serialize import save_weight
            from dyadlab.weights import random_a2_weight

            grid = build_grid(spec["d"], spec["N"])
            save_weight(random_a2_weight(spec["n"], spec["seed"], grid), spec["base"])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(item.args["argv"]))
        files = {}
        for path in item.args["outputs"]:
            with open(path, "rb") as fh:
                files[os.path.basename(path)] = fh.read()
        return code, out.getvalue().encode("utf-8"), err.getvalue(), files

    def output_bytes(self, output) -> bytes:
        code, stdout, _, files = output
        return b"\0".join([str(code).encode(), stdout,
                           *(files[k] for k in sorted(files))])

    def record(self, item, output):
        code, stdout, stderr, files = output
        text = stdout.decode("utf-8").replace(self.tmp, "<tmp>")
        rec = {"exit": code, "stdout": json.loads(text) if text.strip() else None,
               "stderr": stderr.replace(self.tmp, "<tmp>"), "files": {}}
        for name, raw in files.items():
            body = raw.decode("utf-8").replace(self.tmp, "<tmp>")
            if name.endswith(".json"):
                rec["files"][name] = json.loads(body)
            elif name.endswith(".csv"):
                rec["files"][name] = _parse_csv(body)
            else:
                rec["files"][name] = body.splitlines()
        return rec

    def check(self, item, rec, ref):
        bad = []
        if rec["exit"] != 0:
            bad.append(f"exit code {rec['exit']}: {rec['stderr'].strip()[:200]}")
        if ref is not None:
            keys = POWER_KEYS if item.args["power"] else frozenset()
            bad += structural_diff(rec["stdout"], ref["stdout"], "stdout", keys)
            bad += structural_diff(rec["files"], ref["files"], "files", keys)
        return bad

    def check_repeat(self, item, output) -> list[str]:
        """Criterion 10: both passes of draw 0 give the same bytes."""
        raw = self.output_bytes(output)
        first = self.first_bytes.setdefault(item.key, raw)
        return [] if raw == first else ["output bytes differ from the first pass"]

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


def _parse_csv(body: str) -> dict:
    """`# ...` comment lines, the header, and one {column: value} per row."""
    lines = body.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    rows = [ln.split(",") for ln in lines if not ln.startswith("#")]
    header = rows[0] if rows else []
    return {"comments": comments, "header": header,
            "rows": [{h: _parse_cell(c) for h, c in zip(header, r)} for r in rows[1:]]}


def _parse_cell(cell: str):
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


def structural_diff(got, want, path: str, power_keys=frozenset(),
                    power: bool = False) -> list[str]:
    """Differences between parsed outputs: non-floats exact, floats within the
    power-iteration gate below a field named in `power_keys` and within the
    exact-sum gate elsewhere."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(want)}"]
        out = []
        for k in sorted(want):
            out += structural_diff(got[k], want[k], f"{path}.{k}", power_keys,
                                   power or k in power_keys)
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        out = []
        for k, (g, w) in enumerate(zip(got, want)):
            out += structural_diff(g, w, f"{path}[{k}]", power_keys, power)
        return out
    if isinstance(want, float) and isinstance(got, float):
        rel = REL_POWER if power else REL_EXACT
        return [] if rel_close(got, want, rel) else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want and type(got) is type(want) else [f"{path}: {got!r} != {want!r}"]


WORKLOADS = {cls.name: cls for cls in (TwoWeight, SweepN16, CoronaCascade, CliMixed)}
