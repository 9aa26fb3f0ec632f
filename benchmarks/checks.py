"""Output checks for one benchmark pass.

Every check returns a list of ``Failure``; a failure names the state (or
record) id and the check.  ``scope="item"`` failures count that one id as
failed; ``scope="pass"`` failures (census sums, witnesses, file layout,
digests) count every item of the pass as failed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from entqfi import experiment
from entqfi.fisher import max_mean_qfi
from entqfi.ordering import DISCORDANT_CELLS, MEASURE_NAMES, classify_pair
from entqfi.rotations import euler_unitary
from entqfi.states import (
    apply_local_unitary,
    partial_trace,
    partial_transpose,
    von_neumann_entropy,
)

QFI_TOL = 1e-9
SEPARABLE_QFI_BOUND = 1.0 + 1e-6
# The project's REE accuracy: its acceptance oracles and the ordering eps
# for REE both allow 5e-3 bits.
REE_TOL_BITS = 5e-3
REE_VALUE_TOL = 1e-9
PPT_TOL = 1e-10
LN2 = math.log(2.0)
# Float columns print with 12 significant digits, so a parsed value is
# within half a unit of the 12th digit of the in-memory one.
CSV_REL_TOL = 1e-11


@dataclass(frozen=True)
class Failure:
    id: int | None
    check: str
    detail: str
    scope: str = "item"

    def __str__(self):
        where = "pass" if self.id is None else f"id={self.id}"
        return f"{where} check={self.check}: {self.detail}"


def digest_files(directory: Path) -> str:
    """sha256 over the names and bytes of every file in the directory."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.iterdir() if p.is_file()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def digest_lines(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def mutual_information(rho: np.ndarray) -> float:
    """I(A:B) = S(A) + S(B) - S(AB) in bits."""
    return (
        von_neumann_entropy(partial_trace(rho, keep="a"))
        + von_neumann_entropy(partial_trace(rho, keep="b"))
        - von_neumann_entropy(rho)
    )


_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_SIG_A = np.array([np.kron(p, np.eye(2)) for p in _PAULI])
_SIG_B = np.array([np.kron(np.eye(2), p) for p in _PAULI])
_SIG_AB = np.array([[np.kron(p, q) for q in _PAULI] for p in _PAULI])


def _sphere_grid(n: int) -> np.ndarray:
    """n nearly uniform unit vectors (Fibonacci lattice)."""
    k = np.arange(n) + 0.5
    z = 1.0 - 2.0 * k / n
    phi = math.pi * (1.0 + math.sqrt(5.0)) * k
    r = np.sqrt(1.0 - z * z)
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


_SPHERE = _sphere_grid(4000)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.maximum(np.linalg.norm(v, axis=-1, keepdims=True), 1e-300)


def max_product_expectation(d: np.ndarray) -> float:
    """max tr(Pi D) over product pure states Pi = |a><a| ⊗ |b><b|.

    With Bloch vectors a, b: tr(Pi D) = (tr D + a·r_a + b·r_b + a·T·b)/4.
    For a fixed b the best a lies along r_a + T b, so b is scanned over a
    sphere grid and the best few are polished by alternating exact
    maximization, which can only raise the value.
    """
    tr_d = float(np.trace(d).real)
    r_a = np.einsum("kij,ji->k", _SIG_A, d).real
    r_b = np.einsum("kij,ji->k", _SIG_B, d).real
    t = np.einsum("klij,ji->kl", _SIG_AB, d).real
    scores = np.linalg.norm(r_a + _SPHERE @ t.T, axis=1) + _SPHERE @ r_b
    b = _SPHERE[np.argsort(scores)[-16:]]
    for _ in range(40):
        a = _unit(r_a + b @ t.T)
        b = _unit(r_b + a @ t)
    polished = a @ r_a + b @ r_b + np.einsum("mk,kl,ml->m", a, t, b)
    return 0.25 * (tr_d + max(float(scores.max()), float(polished.max())))


def ree_certificate(rho: np.ndarray, sigma: np.ndarray) -> tuple[float, float]:
    """(S(rho||sigma), a lower bound on REE(rho)), both in bits.

    S(rho||.) is convex with gradient -D at a full-rank sigma, D the
    Frechet derivative of tr(rho ln sigma).  So every separable sigma*
    has S(rho||sigma*) >= S(rho||sigma) - (max_Pi tr(Pi D) - tr(sigma D)),
    the max over product pure states: the duality gap that measures.py
    describes, recomputed here from the returned closest state alone.
    """
    s, v = np.linalg.eigh(0.5 * (sigma + sigma.conj().T))
    if s[0] <= 0.0:
        return math.inf, -math.inf
    p = np.linalg.eigvalsh(rho)
    p = p[p > 1e-15]
    rt = v.conj().T @ rho @ v
    log_s = np.log(s)
    divergence = float(p @ np.log(p)) - float(rt.diagonal().real @ log_s)
    diff = s[:, None] - s[None, :]
    close = np.abs(diff) <= 1e-8 * np.maximum(s[:, None], s[None, :])
    phi = np.where(
        close,
        2.0 / (s[:, None] + s[None, :]),
        (log_s[:, None] - log_s[None, :]) / np.where(close, 1.0, diff),
    )
    d = v @ (rt * phi) @ v.conj().T
    d = 0.5 * (d + d.conj().T)
    gap = max_product_expectation(d) - float(np.trace(sigma @ d).real)
    return divergence / LN2, (divergence - gap) / LN2


def check_ree_certified(sid, rho, ree_value, closest) -> list[Failure]:
    """The reported REE is S(rho||closest) for a PPT closest state, and
    within REE_TOL_BITS of the certified lower bound."""
    out = []
    lowest = float(np.linalg.eigvalsh(partial_transpose(closest))[0])
    if lowest < -PPT_TOL:
        out.append(Failure(sid, "closest state PPT", f"lowest PT eigenvalue {lowest!r}"))
    upper, lower = ree_certificate(rho, closest)
    if not abs(ree_value - min(1.0, max(0.0, upper))) <= REE_VALUE_TOL:
        out.append(Failure(sid, "REE=S(rho||closest)", f"REE={ree_value!r} S={upper!r}"))
    if not ree_value - lower <= REE_TOL_BITS:
        out.append(Failure(sid, "REE certified", f"REE={ree_value!r} lower bound={lower!r}"))
    return out


def check_measures(sid, rho, conc, neg, ree_value, separable, closest=None) -> list[Failure]:
    """Per-state measure checks; with the REE solver's closest state given,
    the REE value is also certified (check_ree_certified)."""
    out = []
    if not 0.0 <= neg <= conc <= 1.0:
        out.append(Failure(sid, "0<=N<=C<=1", f"N={neg!r} C={conc!r}"))
    if separable != (neg == 0.0 and ree_value == 0.0):
        out.append(
            Failure(sid, "separable<=>N=REE=0", f"separable={separable} N={neg!r} REE={ree_value!r}")
        )
    info = mutual_information(rho)
    if ree_value > info:
        out.append(Failure(sid, "REE<=I(A:B)", f"REE={ree_value!r} I={info!r}"))
    if closest is not None and not separable:
        out += check_ree_certified(sid, rho, ree_value, closest)
    return out


def _rotated_qfi(rho, angles) -> float:
    rotated = apply_local_unitary(rho, euler_unitary(*angles[:3]), euler_unitary(*angles[3:]))
    return max_mean_qfi(rotated).mean_qfi


def check_record(record, rho, closest=None) -> list[Failure]:
    """Per-state checks of one pipeline record against its regenerated state."""
    sid = record.id
    out = check_measures(
        sid, rho, record.concurrence, record.negativity, record.ree, record.separable, closest
    )
    if not record.qfi_min <= record.qfi_raw <= record.qfi_max:
        out.append(
            Failure(sid, "qfi_min<=qfi_raw<=qfi_max",
                    f"{record.qfi_min!r} {record.qfi_raw!r} {record.qfi_max!r}")
        )
    raw = max_mean_qfi(rho).mean_qfi
    if abs(raw - record.qfi_raw) > QFI_TOL:
        out.append(Failure(sid, "qfi_raw=max_mean_qfi", f"{record.qfi_raw!r} vs {raw!r}"))
    for name, angles, value in (
        ("max_angles", record.max_angles, record.qfi_max),
        ("min_angles", record.min_angles, record.qfi_min),
    ):
        again = _rotated_qfi(rho, angles)
        if abs(again - value) > QFI_TOL:
            out.append(Failure(sid, f"{name} reproduce", f"{value!r} vs {again!r}"))
    if record.separable and record.qfi_max > SEPARABLE_QFI_BOUND:
        out.append(Failure(sid, "separable=>qfi_max<=1", f"qfi_max={record.qfi_max!r}"))
    return out


def check_ordering(records, censuses, witnesses, eps) -> list[Failure]:
    """Census tables sum to n(n-1)/2; witnesses sit in discordant cells
    and agree with classify_pair."""
    out = []
    pairs = len(records) * (len(records) - 1) // 2
    for measure in MEASURE_NAMES:
        total = sum(censuses[measure].values())
        if total != pairs:
            out.append(Failure(None, f"census {measure} sum", f"{total} != {pairs}", "pass"))
    by_id = {record.id: record for record in records}
    for measure in MEASURE_NAMES:
        for w in witnesses[measure]:
            cell = classify_pair(by_id[w.id_1], by_id[w.id_2], measure, eps)
            if w.ordering not in DISCORDANT_CELLS or cell != w.ordering:
                out.append(
                    Failure(None, f"witness {measure}",
                            f"ids {w.id_1},{w.id_2} cell {w.ordering} vs {cell}", "pass")
                )
    return out


def _read_rows(path: Path, header: str):
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path.name}: bad header")
    return [line.split(",") for line in lines[1:]]


def check_files(directory: Path, records) -> list[Failure]:
    """The emitted files hold every record, in order, with its values."""
    out = []
    n = len(records)
    try:
        rows = _read_rows(directory / "states.csv", experiment.STATE_CSV_HEADER)
        plots = {
            m: _read_rows(directory / f"fig1_{m}.csv", experiment.PLOT_CSV_HEADER)
            for m in MEASURE_NAMES
        }
        report = (directory / "census.txt").read_text(encoding="utf-8").splitlines()
    except (OSError, ValueError) as exc:
        return [Failure(None, "files readable", str(exc), "pass")]
    ordered = sorted(records, key=lambda r: r.id)
    if len(rows) != n:
        out.append(Failure(None, "states.csv rows", f"{len(rows)} != {n}", "pass"))
    fields = ("concurrence", "negativity", "ree", "qfi_raw", "qfi_max", "qfi_min")
    columns = (2, 3, 4, 6, 7, 8)
    for record, row in zip(ordered, rows):
        parsed = [float(row[c]) for c in columns]
        expected = [getattr(record, f) for f in fields]
        if int(row[0]) != record.id or not np.allclose(parsed, expected, rtol=CSV_REL_TOL, atol=0.0):
            out.append(Failure(record.id, "states.csv round trip", ",".join(row[:9])))
    for measure, plot in plots.items():
        keys = [float(row[0]) for row in plot]
        if len(plot) != n or any(a > b for a, b in zip(keys, keys[1:])):
            out.append(Failure(None, f"fig1_{measure}.csv", "row count or order", "pass"))
    entangled = sum(1 for r in records if not r.separable)
    for line in (f"pairs_total={n * (n - 1) // 2}", f"entangled_count={entangled}"):
        if line not in report:
            out.append(Failure(None, "census.txt", f"missing {line!r}", "pass"))
    return out
