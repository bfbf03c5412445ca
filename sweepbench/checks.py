"""Correctness checks for every row a benchmark sweep delivers.

No golden tables: each row is checked against quantities computed here.

* All values finite (a non-finite row counts as refused, not wrong).
* The ``crb`` column equals the closed-form mode sum
  sum_k (eps_k/T)^2 n_k (1 - n_k) on the antiperiodic grid, and the tscan
  ``mean_jz_per_sqrt_sites`` column equals the mode sum
  -sum_k cos(2 theta_k) tanh(eps_k / 2T) (sum of probe weights) / N^1.5.
* Every readout SNR lies in [0, CRB * (1 + SNR_CEILING_TOL)].
* Small sweeps (N <= 10) match the dense ``oracle`` diagonalization,
  including exact temperature derivatives of the readout signals.
"""
from __future__ import annotations

import math

import numpy as np

# the slack the package's own validate battery and acceptance criterion 7
# allow a finite-difference readout SNR over the Cramer-Rao ceiling
SNR_CEILING_TOL = 1e-3
CRB_RTOL = 1e-9
MEAN_RTOL = 1e-9
ORACLE_RTOL = 1e-8
ORACLE_SNR_RTOL = 1e-6

# The one defect of the program that the workloads are known to hit.  On the
# XX line (gamma = 0) above the saturation field, Var(J_z) is exponentially
# small at low T and the kernel route returns it with no correct digits
# (ROADMAP: "cancellation-free J_z statistics").  At T=0.05 this makes the
# CLI refuse gamma=0, h/J>=1.9 (exit 3) and deliver meanjz SNRs above the
# Cramer-Rao ceiling just below that field.  Such rows still count as
# failed; they only do not make the run incorrect.  Any other failing row
# does.
KNOWN_DEFECT = {"gamma": 0.0, "min_field": 1.0, "max_temp": 0.1,
                "check": "snr_meanjz outside [0, CRB(1+tol)]"}


def in_known_defect(gamma, field, temp) -> np.ndarray:
    d = KNOWN_DEFECT
    return (np.asarray(gamma) == d["gamma"]) & (np.asarray(field) > d["min_field"]) & (
        np.asarray(temp) <= d["max_temp"])


def _modes(gamma: np.ndarray, field: np.ndarray, n: int):
    """Energies eps_k and cos(2 theta_k) per row (rows x modes)."""
    k = np.pi * (2.0 * np.arange(-(n // 2), n // 2) + 1.0) / n
    a = np.cos(k)[None, :] - field[:, None]
    b = gamma[:, None] * np.sin(k)[None, :]
    r = np.hypot(a, b)
    cos2 = np.divide(a, r, out=np.ones_like(r), where=r > 0)
    return 2.0 * r, cos2


def closed_form(gamma, field, temp, n: int, probe_weight_sum: float):
    """(snr_crb, mean_jz / sqrt(N), scale of the mean's terms) per row."""
    eps, cos2 = _modes(np.asarray(gamma), np.asarray(field), n)
    x = eps / np.asarray(temp)[:, None]
    e = np.exp(-x)
    crb = np.sum(x * x * e / (1.0 + e) ** 2, axis=1)  # n(1-n) = e^-x / (1+e^-x)^2
    terms = cos2 * np.tanh(0.5 * x)
    scale = probe_weight_sum / (n * math.sqrt(n))
    return crb, -scale * terms.sum(axis=1), scale * np.abs(terms).sum(axis=1)


def _parse(lines: list[str], wanted: list[str]):
    """Header map and per-row values of the wanted columns (NaN if unparsable)."""
    if not lines:
        return None, []
    header = lines[0].split(",")
    if any(c not in header for c in wanted):
        return None, []
    pos = [header.index(c) for c in wanted]
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        vals = []
        for p in pos:
            try:
                vals.append(float(cells[p]))
            except (IndexError, ValueError):
                vals.append(math.nan)
        rows.append(vals)
    return header, rows


def _key(g: float, f: float, t: float) -> tuple:
    return (round(g, 12), round(f, 12), float(f"{t:.12e}"))


def check_sweep(sweep, result: dict) -> dict:
    """Count delivered-and-correct rows of one sweep; list every bad row.

    Returns attempted, ok (rows delivered and passing every check), refused
    (rows written with non-finite values), bad (descriptions of rows that
    are wrong or unexpected), known (wrong rows of KNOWN_DEFECT) and the
    output line numbers of the ok rows.
    """
    tscan = sweep.command == "tscan"
    obs = sweep.obs.split(",")
    per = "" if tscan else "_per_site"
    snr_cols = [f"snr_{o}{per}" for o in obs]
    wanted = ["gamma", "field_ratio", "temperature"] + snr_cols
    if tscan:
        wanted += ["var_jx_shot_ratio", "mean_jz_per_sqrt_sites"]
    points = sweep.points
    out = {"attempted": len(points), "ok": 0, "refused": 0, "bad": [], "known": [],
           "ok_lines": []}
    header, rows = _parse(result["lines"], wanted)
    if header is None:
        if result["lines"]:
            out["bad"].append(f"unexpected header {result['lines'][0]!r}")
        return out
    expected = {_key(*p) for p in points}
    seen = set()
    finite_rows, finite_idx = [], []
    for i, vals in enumerate(rows):
        key = _key(*vals[:3])
        if key not in expected or key in seen:
            out["bad"].append(f"row {i + 1}: unexpected or repeated point {vals[:3]}")
            continue
        seen.add(key)
        if all(math.isfinite(v) for v in vals):
            finite_rows.append(vals)
            finite_idx.append(i + 1)
        else:
            out["refused"] += 1
    if not finite_rows:
        return out
    v = np.array(finite_rows)
    n = sweep.sites
    weight_sum = n if sweep.modulation == "uniform" else n // 2
    crb, mean, mean_scale = closed_form(v[:, 0], v[:, 1], v[:, 2], n, weight_sum)
    crb_col = v[:, 3] if tscan else v[:, 3] * n  # per-site columns carry 1/N
    snrs = v[:, 3:3 + len(obs)] * (1 if tscan else n)
    fails = {"crb differs from the closed-form mode sum":
             np.abs(crb_col - crb) > CRB_RTOL * crb + 1e-300}
    if tscan:
        fails["mean_jz differs from the closed-form mode sum"] = (
            np.abs(v[:, -1] - mean) > MEAN_RTOL * mean_scale + 1e-300)
        fails["var_jx_shot_ratio not positive"] = ~(v[:, -2] > 0)
    for j, name in enumerate(obs):
        if name != "crb":
            fails[f"snr_{name} outside [0, CRB(1+tol)]"] = (
                (snrs[:, j] < 0) | (snrs[:, j] > crb_col * (1 + SNR_CEILING_TOL)))
    names = list(fails)
    table = np.column_stack([fails[k] for k in names])
    known = in_known_defect(v[:, 0], v[:, 1], v[:, 2])
    for row, line_no, failing, is_known in zip(finite_rows, finite_idx, table, known):
        why = [names[j] for j in np.flatnonzero(failing)]
        where = f"{sweep.command} N={n} {sweep.modulation} point {row[:3]}"
        if not why:
            out["ok"] += 1
            out["ok_lines"].append(line_no)
        elif is_known and why == [KNOWN_DEFECT["check"]]:
            out["known"].append(f"{where}: {why[0]}")
        else:
            out["bad"].append(f"{where}: {'; '.join(why)}")
    return out


# ---- dense reference -------------------------------------------------------

def _dense_tables(system, n: int, modulation: str) -> dict:
    """Per-eigenstate diagonals of J_x^2, J_x^4, J_z and J_z^2 of one dense system."""
    from xythermo import oracle

    vecs = system.eigenvectors
    m = vecs.T @ oracle.collective_x(n) @ vecs
    m2 = m @ m
    weights = np.ones(n) if modulation == "uniform" else (np.arange(n) % 2 == 0).astype(float)
    bits = (np.arange(2**n)[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1
    z = (1.0 - 2.0 * bits) @ weights  # modulated J_z of each basis state
    amp = (vecs**2).T
    return {"e": system.eigenvalues, "jx2": np.diag(m2), "jx4": np.sum(m2 * m2, axis=1),
            "jz": amp @ z, "jz2": amp @ z**2}


def _dense_row(tables: dict, temp: float) -> dict:
    """Exact moments and readout SNRs at temperature T, derivatives included."""
    e = tables["e"]
    p = np.exp(-(e - e[0]) / temp)
    p /= p.sum()
    e_mean = float(p @ e)
    dp = p * (e - e_mean) / temp**2  # d p_i / dT, exact
    var_jx = float(p @ tables["jx2"])
    mean_jz = float(p @ tables["jz"])
    var_jz = float(p @ tables["jz2"]) - mean_jz**2
    return {
        "crb": float(p @ (e - e_mean) ** 2) / temp**2,
        "var_jx": var_jx,
        "mean_jz": mean_jz,
        "varjx": float(dp @ tables["jx2"]) ** 2 * temp**2 / (float(p @ tables["jx4"]) - var_jx**2),
        "meanjz": float(dp @ tables["jz"]) ** 2 * temp**2 / var_jz,
    }


def check_against_oracle(sweep, result: dict) -> list[str]:
    """Compare every row of a small sweep with the dense oracle; list mismatches."""
    from xythermo import oracle
    from xythermo.spectrum import ChainSpec

    n, tscan = sweep.sites, sweep.command == "tscan"
    obs = sweep.obs.split(",")
    per = "" if tscan else "_per_site"
    wanted = ["gamma", "field_ratio", "temperature"] + [f"snr_{o}{per}" for o in obs]
    if tscan:
        wanted += ["var_jx_shot_ratio", "mean_jz_per_sqrt_sites"]
    header, rows = _parse(result["lines"], wanted)
    if result["code"] != 0 or header is None or len(rows) != len(sweep.points):
        return [f"oracle sweep {sweep.argv} exited {result['code']} with "
                f"{max(len(result['lines']) - 1, 0)} of {len(sweep.points)} rows"]
    problems = []
    tables = {}
    for vals in rows:
        g, f, t = vals[:3]
        if (g, f) not in tables:
            system = oracle.build(ChainSpec(g, f, n), oracle.MATCHED)
            tables[(g, f)] = _dense_tables(system, n, sweep.modulation)
        ref = _dense_row(tables[(g, f)], t)
        scale = 1.0 if tscan else 1.0 / n
        got = {o: vals[3 + j] / scale for j, o in enumerate(obs)}
        if tscan:
            got["var_jx"] = vals[-2] * n * 0.5
            got["mean_jz"] = vals[-1] * math.sqrt(n)
        for name, value in got.items():
            tol = ORACLE_SNR_RTOL if name in ("varjx", "meanjz") else ORACLE_RTOL
            want = ref[name]
            if not abs(value - want) <= tol * abs(want) + 1e-12:
                problems.append(f"oracle N={n} (gamma={g}, h/J={f}, T={t}) {name}: "
                                f"got {value!r}, dense {want!r}")
    return problems
