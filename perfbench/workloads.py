"""The three perfbench workloads: their command lines, outputs and checks.

Each workload is a fixed sequence of `gauss-tomo` command lines built from
the benchmark seed.  The worker runs them in-process through
`gauss_tomo.cli.main`; the program sees only the generated argv.

This module is imported by the worker before it starts its set-up clock,
so it uses the standard library only: importing numpy or gauss_tomo here
would hide their import time from `setup_s`.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

# Per-size parameters.  "full" is what the benchmark measures; "smoke" is
# the tiny size the benchmark's own smoke test runs.
SIZES = {
    "full": {
        "mc_commands": 4,
        "mc_reps": 125,
        "map_commands": 4,
        "map_grid": (12, 12),
        "hom_angles": 100,
        "hom_per_angle": 2000,
        "het_pairs": 200_000,
    },
    "smoke": {
        "mc_commands": 2,
        "mc_reps": 60,
        "map_commands": 2,
        "map_grid": (6, 4),
        "hom_angles": 50,
        "hom_per_angle": 2000,
        "het_pairs": 50_000,
    },
}

# Every command runs in one process; process pools are not measured,
# because two shared cores give no steady scaling figures.
WORKERS = 1

# mc_cells: the criterion 6-8 cell grid at a weakly squeezed state.
MC_SIZES = (1500, 15000)
MC_ANGLES = (5, 10, 15)
MC_REFERENCE = 1_500_000
# |gamma - gamma_analytic| <= MC_GAMMA_Z * stderr for every cell.  Over 12
# seeds at 250 reps the z-scores had sd 1.06 and max |z| 2.7.
MC_GAMMA_Z = 4.5
# Criterion 7's law: D means fall by 10x +- 3 across the 10x step in N.
# Homodyne D is pooled over the three angle counts and D over the
# commands; at 4 x 125 reps that puts the +-3 band beyond 4 standard
# deviations of the ratio for both schemes.
MC_LAW = (7.0, 13.0)

# analytic_map: detection model and the independent-formula tolerance.
MAP_ETA = 0.85
MAP_G_ELEC = (0.01, 0.0, 0.01)
MAP_ANGLES = 10
MAP_OFFSET_POINTS = 64
MAP_REL_TOL = 1e-9
MAP_EXTRA_CELLS = 3

# dataset_io: presets (mu, lambda) and recovery tolerances.  Over 40
# seeds at the full size the homodyne (mu, lambda) relative errors had
# sd 0.8 % and 0.9 %, the heterodyne mu 0.23 % and lambda - 1 0.13 %.
HOM_STATE = ("strong-sqz", 6.44, 11.61)
HET_STATE = ("thermal-dim", 15.0, 1.0)
HOM_REL_TOL = 0.05
HET_MU_REL_TOL = 0.02
HET_LAM_ABS_TOL = 0.02


def _sha256(*paths, extra: bytes = b"") -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    h.update(extra)
    return h.hexdigest()


def _load(path):
    with open(path) as f:
        return json.load(f)


class McCells:
    """`gauss-tomo benchmark` over the 2 x 3 (N, m) grid, estimated reference.

    The body is mc_commands benchmark commands with distinct seeds, so the
    run has many command timings; the statistical checks pool them.
    """

    name = "mc_cells"

    def commands(self, seed: int, size: dict, workdir: Path) -> list:
        n = size["mc_commands"]
        return [
            [
                "benchmark", "--state", "weak-sqz", "--eta", "0.85",
                "--samples", ",".join(map(str, MC_SIZES)),
                "--angles", ",".join(map(str, MC_ANGLES)),
                "--reps", str(size["mc_reps"]),
                "--reference-size", str(MC_REFERENCE),
                "--workers", str(WORKERS), "--seed", str(seed * n + c),
                "--out", str(workdir / f"mc{c}"),
            ]
            for c in range(n)
        ]

    def _units_per_command(self, size: dict) -> int:
        # per rep and N: one homodyne unit per angle count plus one heterodyne unit
        return size["mc_reps"] * len(MC_SIZES) * (len(MC_ANGLES) + 1)

    def items(self, size: dict) -> int:
        return size["mc_commands"] * self._units_per_command(size)

    def attempts(self, size: dict) -> int:
        return self.items(size)

    def collect(self, workdir: Path, records: list) -> dict:
        reports = []
        for c, record in enumerate(records):
            if record["exit"] != 0:
                reports.append(None)
                continue
            report = _load(workdir / f"mc{c}.json")
            reports.append({k: report[k] for k in ("results", "gamma", "gamma_analytic")})
        done = [c for c, r in enumerate(reports) if r is not None]
        return {
            "sha256": _sha256(*(workdir / f"mc{c}.{ext}" for c in done for ext in ("json", "csv"))),
            "reports": reports,
        }

    def failures(self, collected: dict, records: list, size: dict) -> int:
        return sum(
            self._units_per_command(size)
            if report is None
            else sum(int(row["failures"]) for row in report["results"])
            for report in collected["reports"]
        )

    def check(self, collected: dict, seed: int, size: dict) -> list:
        problems = []
        reports = collected["reports"]
        for c, report in enumerate(reports):
            for row in report["gamma"]:
                g, se = row["gamma"], row["gamma_stderr"]
                g_an = report["gamma_analytic"][str(row["m"])]
                where = f"command {c} cell N={row['N']} m={row['m']}"
                if g is None or se is None or g_an is None:
                    problems.append(f"{where}: gamma is missing")
                elif abs(g - g_an) > MC_GAMMA_Z * se:
                    problems.append(
                        f"{where}: gamma {g:.4f} is {abs(g - g_an) / se:.2f} stderr "
                        f"from analytic {g_an:.4f} (limit {MC_GAMMA_Z})"
                    )
        missing = [
            f"command {c} {r['scheme']} N={r['N']} m={r['m']}: no D mean (every unit failed)"
            for c, report in enumerate(reports)
            for r in report["results"]
            if r["dhs_mean"] is None
        ]
        if missing:
            return problems + missing
        # D means pooled over the commands (equal reps each)
        d = {}
        for report in reports:
            for r in report["results"]:
                key = (r["scheme"], r["N"], r["m"])
                d[key] = d.get(key, 0.0) + r["dhs_mean"] / len(reports)
        small, large = MC_SIZES
        ratios = {
            "hom": sum(d[("hom", small, m)] for m in MC_ANGLES)
            / sum(d[("hom", large, m)] for m in MC_ANGLES),
            "het": d[("het", small, None)] / d[("het", large, None)],
        }
        for scheme, ratio in ratios.items():
            if not MC_LAW[0] <= ratio <= MC_LAW[1]:
                problems.append(
                    f"{scheme} D mean falls {ratio:.2f}x across N {small}->{large}; "
                    f"criterion 7 needs {MC_LAW[0]}..{MC_LAW[1]}"
                )
        return problems


def _map_ranges(seed: int) -> tuple:
    # The seed moves the grid; the lambda range always starts at 1 so that
    # the isotropic row is on it.
    rng = random.Random(seed)
    mu = (round(rng.uniform(0.5, 1.0), 6), round(rng.uniform(3.0, 5.0), 6))
    lam = (1.0, round(rng.uniform(6.0, 10.0), 6))
    return mu, lam


def fisher_gamma(mu: float, lam: float) -> float:
    """Asymptotic gamma of an orientation-0 state, in plain Python.

    An independent evaluation of the Fisher-information formula the
    package documents: the homodyne error is the (1, 2, 1)-weighted trace
    of the inverse Fisher information of (g11, g12, g22), averaged over
    MAP_OFFSET_POINTS midpoint offsets of the MAP_ANGLES-angle protocol;
    the heterodyne error is 2 (Tr S^2 - det S) / n.  The event count
    cancels in the ratio.
    """
    g11_e, g12_e, g22_e = MAP_G_ELEC
    hom_add = (1.0 - MAP_ETA) / MAP_ETA
    het_add = (2.0 - MAP_ETA) / MAP_ETA
    lo, hi = mu / lam, mu * lam
    a, b, c = lo + hom_add + g11_e, g12_e, hi + hom_add + g22_e
    m = MAP_ANGLES
    step = 2.0 * math.pi / m
    hom = 0.0
    for k in range(MAP_OFFSET_POINTS):
        offset = (k + 0.5) * step / MAP_OFFSET_POINTS
        f = [[0.0] * 3 for _ in range(3)]
        for j in range(m):
            th = offset + j * step
            cs, sn = math.cos(th), math.sin(th)
            var = a * cs * cs + 2.0 * b * cs * sn + c * sn * sn
            w = 1.0 / (2.0 * var * var)  # per event; n_theta cancels
            u = (cs * cs, 2.0 * cs * sn, sn * sn)
            for p in range(3):
                for q in range(3):
                    f[p][q] += w * u[p] * u[q]
        det = (
            f[0][0] * (f[1][1] * f[2][2] - f[1][2] * f[2][1])
            - f[0][1] * (f[1][0] * f[2][2] - f[1][2] * f[2][0])
            + f[0][2] * (f[1][0] * f[2][1] - f[1][1] * f[2][0])
        )
        inv00 = (f[1][1] * f[2][2] - f[1][2] * f[2][1]) / det
        inv11 = (f[0][0] * f[2][2] - f[0][2] * f[2][0]) / det
        inv22 = (f[0][0] * f[1][1] - f[0][1] * f[1][0]) / det
        hom += inv00 + 2.0 * inv11 + inv22
    hom /= MAP_OFFSET_POINTS
    s11, s12, s22 = lo + het_add + g11_e, g12_e, hi + het_add + g22_e
    het = 2.0 * ((s11 + s22) ** 2 - (s11 * s22 - s12 * s12))
    # both errors per event (n = 1): E_hom carries m/n, E_het 1/n
    return het / (hom * m)


class AnalyticMap:
    """`gauss-tomo gamma-map --analytic` over seeded (mu, lambda) grids.

    The body is map_commands maps, each over its own seeded ranges.
    """

    name = "analytic_map"

    def commands(self, seed: int, size: dict, workdir: Path) -> list:
        n = size["map_commands"]
        rows, cols = size["map_grid"]
        cmds = []
        for c in range(n):
            (mu_lo, mu_hi), (lam_lo, lam_hi) = _map_ranges(seed * n + c)
            cmds.append(
                [
                    "gamma-map", "--analytic", "--eta", str(MAP_ETA),
                    "--g-elec", ",".join(map(str, MAP_G_ELEC)),
                    "--angles", str(MAP_ANGLES), "--grid", f"{rows}x{cols}",
                    "--mu-range", f"{mu_lo}:{mu_hi}",
                    "--lambda-range", f"{lam_lo}:{lam_hi}",
                    "--workers", str(WORKERS), "--seed", str(seed * n + c),
                    "--out", str(workdir / f"map{c}"),
                ]
            )
        return cmds

    def _cells_per_command(self, size: dict) -> int:
        rows, cols = size["map_grid"]
        return rows * cols

    def items(self, size: dict) -> int:
        return size["map_commands"] * self._cells_per_command(size)

    def attempts(self, size: dict) -> int:
        return self.items(size)

    def collect(self, workdir: Path, records: list) -> dict:
        maps = [
            _load(workdir / f"map{c}.json")["cells"] if record["exit"] == 0 else None
            for c, record in enumerate(records)
        ]
        done = [c for c, cells in enumerate(maps) if cells is not None]
        return {
            "sha256": _sha256(*(workdir / f"map{c}.{ext}" for c in done for ext in ("json", "csv"))),
            "maps": maps,
        }

    def failures(self, collected: dict, records: list, size: dict) -> int:
        return sum(
            self._cells_per_command(size)
            if cells is None
            else sum(1 for cell in cells if cell["gamma"] is None)
            for cells in collected["maps"]
        )

    def check(self, collected: dict, seed: int, size: dict) -> list:
        problems = []
        rng = random.Random(seed)
        for c, cells in enumerate(collected["maps"]):
            bad = [f"map {c} cell mu={x['mu']} lambda={x['lambda']}: gamma is NaN"
                   for x in cells if x["gamma"] is None]
            if len(cells) != self._cells_per_command(size):
                bad.append(f"map {c} has {len(cells)} cells, expected {self._cells_per_command(size)}")
            problems += bad
            if bad:
                continue
            picked = [i for i, x in enumerate(cells) if x["lambda"] == 1.0]
            if not picked:
                problems.append(f"map {c} has no lambda = 1 cells")
            picked += [0, len(cells) - 1] + rng.sample(range(len(cells)), MAP_EXTRA_CELLS)
            picked = sorted(set(picked))
            if len(picked) < 5:
                problems.append(f"map {c}: only {len(picked)} cells checked against the formula")
            for i in picked:
                x = cells[i]
                expect = fisher_gamma(x["mu"], x["lambda"])
                rel = abs(x["gamma"] - expect) / abs(expect)
                if not rel <= MAP_REL_TOL:
                    problems.append(
                        f"map {c} cell mu={x['mu']} lambda={x['lambda']}: gamma {x['gamma']!r} "
                        f"vs formula {expect!r} (relative error {rel:.3g} > {MAP_REL_TOL})"
                    )
        return problems


_DATASETS = ("hom.csv", "hom.bin", "het.csv", "het.bin")


class DatasetIO:
    """simulate / estimate / gaussianity / verify on CSV and binary files."""

    name = "dataset_io"

    def commands(self, seed: int, size: dict, workdir: Path) -> list:
        cmds = []
        for name in _DATASETS:
            scheme, fmt = name.split(".")
            argv = ["simulate", "--scheme", scheme, "--seed", str(seed), "--format", fmt]
            if scheme == "hom":
                argv += [
                    "--state", HOM_STATE[0],
                    "--angles", str(size["hom_angles"]),
                    "--samples", str(size["hom_per_angle"]),
                ]
            else:
                argv += ["--state", HET_STATE[0], "--samples", str(size["het_pairs"])]
            cmds.append(argv + ["--out", str(workdir / name)])
        for name in _DATASETS:
            cmds.append(["estimate", str(workdir / name), "--out", str(workdir / f"est-{name}.json")])
        for name in ("hom.bin", "het.bin"):
            cmds.append(
                ["gaussianity", str(workdir / name), "--out", str(workdir / f"gauss-{name}.json")]
            )
        cmds.append(["verify"] + [str(workdir / name) for name in _DATASETS])
        return cmds

    def items(self, size: dict) -> int:
        # events written by simulate plus events read by estimate (all four
        # files), gaussianity (binary files) and verify (all four files)
        per_record = size["hom_angles"] * size["hom_per_angle"] + size["het_pairs"]
        return 2 * per_record + 2 * per_record + per_record + 2 * per_record

    def attempts(self, size: dict) -> int:
        return len(_DATASETS) * 2 + 2 + 1

    def collect(self, workdir: Path, records: list) -> dict:
        out = {"verify": records[-1]["stdout"].splitlines(), "estimates": {}, "gaussianity": {}}
        for name in _DATASETS:
            path = workdir / f"est-{name}.json"
            if path.exists():
                body = _load(path)
                body.pop("config")  # names the input file
                body.pop("config_sha256")
                out["estimates"][name] = body
        for name in ("hom.bin", "het.bin"):
            path = workdir / f"gauss-{name}.json"
            if path.exists():
                reports = _load(path)["reports"]
                out["gaussianity"][name] = {
                    "series": len(reports),
                    "errors": sum(1 for r in reports if "error" in r),
                }
        if all(r["exit"] == 0 for r in records):
            # dataset bytes plus the estimates (their reports name the
            # per-iteration input path, so the files themselves differ)
            out["sha256"] = _sha256(
                *(workdir / name for name in _DATASETS),
                extra=json.dumps(out["estimates"], sort_keys=True).encode(),
            )
        return out

    def failures(self, collected: dict, records: list, size: dict) -> int:
        return sum(1 for r in records if r["exit"] != 0)

    def check(self, collected: dict, seed: int, size: dict) -> list:
        problems = []
        lines = collected["verify"]
        if len(lines) != len(_DATASETS) or not all(line.endswith(" ok") for line in lines):
            problems.append(f"verify did not pass every file: {lines}")
        est = collected["estimates"]
        if len(est) != len(_DATASETS):
            problems.append(f"estimates missing: have {sorted(est)}")
            return problems
        for scheme in ("hom", "het"):
            if est[f"{scheme}.csv"] != est[f"{scheme}.bin"]:
                problems.append(f"{scheme} estimates from CSV and binary differ")
        _, mu, lam = HOM_STATE
        hom = est["hom.csv"]
        for key, truth in (("mu", mu), ("lambda", lam)):
            if not abs(hom[key] / truth - 1.0) <= HOM_REL_TOL:
                problems.append(
                    f"homodyne {key} {hom[key]!r} not within {HOM_REL_TOL:.0%} of {truth}"
                )
        _, mu, lam = HET_STATE
        het = est["het.csv"]
        if not abs(het["mu"] / mu - 1.0) <= HET_MU_REL_TOL:
            problems.append(f"heterodyne mu {het['mu']!r} not within {HET_MU_REL_TOL:.0%} of {mu}")
        if not abs(het["lambda"] - lam) <= HET_LAM_ABS_TOL:
            problems.append(f"heterodyne lambda {het['lambda']!r} not within {HET_LAM_ABS_TOL} of {lam}")
        expect = {"hom.bin": size["hom_angles"], "het.bin": 2}
        for name, series in expect.items():
            got = collected["gaussianity"].get(name)
            if got != {"series": series, "errors": 0}:
                problems.append(f"gaussianity on {name}: {got}, expected {series} series, no errors")
        return problems


WORKLOADS = {w.name: w for w in (McCells(), AnalyticMap(), DatasetIO())}
