"""Command-line surface: band tables, construction runs, audits, verification.

Outputs are CSV (tables), JSON (structured reports) and hand-rolled SVG
(diagrams), all written atomically (temp file + rename) into the --out
directory.  Exit codes: 0 success, 1 criterion/stage failure, 2 input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile

import numpy as np

from .acceptance import run_criteria
from .coeffs import PeriodicSeq, complex_from_json
from .construct import GapOpeningError, StageReport, ac_iterate, cantor_iterate
from .floquet import (TWO_PI, AllGapsClosedError, BandDiagnosticError, BandStructure,
                      Discriminant, band_structure, discriminant)
from .gordon import CoefficientWindow, check_gordon
from .odometer import SamplingFn, to_periodic
from .specmeasure import EdgeProximityError, _source_vector, density
from .transfer import estimate_lipschitz, gamma

#: the default source vector of density and construct --mode ac: delta_0
_DEFAULT_U = '{"0": 1.0}'


class InputError(Exception):
    """Malformed input file or invalid parameter (exit code 2)."""


# ---------------------------------------------------------------------------
# i/o helpers


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_input(path: str):
    """Load a PeriodicSeq or SamplingFn from a JSON file (detected by keys)."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read input file: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"input is not valid JSON: {exc}")
    if not isinstance(obj, dict):
        raise InputError("input JSON must be an object with 'values' or 'table', "
                         f"not {type(obj).__name__}")
    try:
        if "table" in obj:
            obj.setdefault("level", (len(obj["table"]) - 1).bit_length())
            return SamplingFn.from_json(obj)
        if "values" in obj:
            obj.setdefault("period", len(obj["values"]))
            return PeriodicSeq.from_json(obj)
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"invalid sequence data: {exc}")
    raise InputError("input JSON must contain either 'values' (periodic sequence) "
                     "or 'table' (sampling function)")


def _as_periodic(obj) -> PeriodicSeq:
    return to_periodic(obj) if isinstance(obj, SamplingFn) else obj


def _as_sampling(obj) -> SamplingFn:
    if isinstance(obj, SamplingFn):
        return obj
    raise InputError("this command needs a sampling function input "
                     "(JSON with 'level' and 'table')")


def _parse_u(spec: str) -> dict[int, complex]:
    """Parse --u: inline JSON mapping or @file; values are numbers or [re, im].

    The mapping is checked as the library checks any source vector.
    """
    if spec.startswith("@"):
        try:
            with open(spec[1:]) as fh:
                obj = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read --u file: {exc}")
    else:
        try:
            obj = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise InputError(f"--u is not valid JSON: {exc}")
    try:
        return _source_vector({int(k): complex_from_json(v) for k, v in obj.items()})
    except (ValueError, TypeError, AttributeError) as exc:
        raise InputError(f"invalid --u mapping: {exc}")


def _grid(args) -> int:
    """--grid, which must be positive."""
    if args.grid < 1:
        raise InputError("--grid must be at least 1")
    return args.grid


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# svg helpers (deterministic, no external dependencies)


def _svg_header(w: int, h: int) -> str:
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
            f'viewBox="0 0 {w} {h}">\n<rect width="{w}" height="{h}" fill="white"/>\n')


def _arc_path(cx: float, cy: float, r: float, a0: float, a1: float) -> str:
    """SVG path for the circle arc from angle a0 to a1 (counterclockwise)."""
    x0, y0 = cx + r * math.cos(a0), cy - r * math.sin(a0)
    x1, y1 = cx + r * math.cos(a1), cy - r * math.sin(a1)
    large = 1 if (a1 - a0) % TWO_PI > math.pi else 0
    return (f"M {x0:.3f} {y0:.3f} A {r:.3f} {r:.3f} 0 {large} 0 {x1:.3f} {y1:.3f}")


def _band_ring_svg(structures: list[BandStructure]) -> str:
    """Concentric rings, one per band structure (outermost first)."""
    size = 420
    cx = cy = size / 2
    parts = [_svg_header(size, size)]
    n = len(structures)
    for i, bs in enumerate(structures):
        r = 180 - i * (130 / max(1, n))
        parts.append(f'<circle cx="{cx}" cy="{cy}" r="{r:.3f}" fill="none" '
                     f'stroke="#dddddd" stroke-width="1"/>\n')
        for b in bs.bands:
            parts.append(f'<path d="{_arc_path(cx, cy, r, b.theta_lo, b.theta_hi)}" '
                         f'fill="none" stroke="#1f4e8c" stroke-width="7" '
                         f'stroke-linecap="butt"/>\n')
    parts.append("</svg>\n")
    return "".join(parts)


def _polyline_svg(xs, ys, width=640, height=320) -> str:
    pad = 36
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    finite = np.isfinite(ys)
    ymax = float(ys[finite].max()) if finite.any() else 1.0
    ymin = min(0.0, float(ys[finite].min()) if finite.any() else 0.0)
    span = max(ymax - ymin, 1e-12)
    parts = [_svg_header(width, height)]
    parts.append(f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
                 f'y2="{height - pad}" stroke="black" stroke-width="1"/>\n')
    pts = []
    for x, y in zip(xs, ys):
        if not np.isfinite(y):
            continue
        px = pad + (x / TWO_PI) * (width - 2 * pad)
        py = height - pad - ((y - ymin) / span) * (height - 2 * pad)
        pts.append(f"{px:.2f},{py:.2f}")
    parts.append(f'<polyline fill="none" stroke="#1f4e8c" stroke-width="1.5" '
                 f'points="{" ".join(pts)}"/>\n')
    parts.append("</svg>\n")
    return "".join(parts)


# ---------------------------------------------------------------------------
# commands


def _ensure_out(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_discriminant_csv(out: str, disc: Discriminant, grid: int) -> None:
    rows = ["theta,delta"]
    for th in np.linspace(0, TWO_PI, grid, endpoint=False):
        rows.append(f"{_fmt(th)},{_fmt(disc.eval_real(th))}")
    _atomic_write(os.path.join(out, "discriminant.csv"), "\n".join(rows) + "\n")


def cmd_bands(args) -> int:
    seq = _as_periodic(_load_input(args.input))
    grid = _grid(args)
    bs = band_structure(seq)
    out = _ensure_out(args)
    rows = ["band_index,theta_lo,theta_hi,mass,monotonicity"]
    for i, b in enumerate(bs.bands):
        rows.append(f"{i},{_fmt(b.theta_lo % TWO_PI)},{_fmt(b.theta_hi % TWO_PI)},"
                    f"{_fmt(b.mass)},{'increasing' if b.increasing else 'decreasing'}")
    _atomic_write(os.path.join(out, "bands.csv"), "\n".join(rows) + "\n")
    rows = ["gap_index,theta_lo,theta_hi,chord"]
    for i, g in enumerate(g for g in bs.gaps if not g.closed):
        rows.append(f"{i},{_fmt(g.theta_lo % TWO_PI)},{_fmt(g.theta_hi % TWO_PI)},"
                    f"{_fmt(g.chord)}")
    _atomic_write(os.path.join(out, "gaps.csv"), "\n".join(rows) + "\n")
    _write_discriminant_csv(out, bs.disc, grid)
    _atomic_write(os.path.join(out, "bands.svg"), _band_ring_svg([bs]))
    if args.json:
        report = {
            "period": bs.q,
            "bands": [[b.theta_lo % TWO_PI, b.theta_hi % TWO_PI, b.mass] for b in bs.bands],
            "open_gaps": bs.open_gap_count(),
            "band_measure": bs.total_band_measure(),
        }
        _atomic_write(os.path.join(out, "bands.json"), json.dumps(report, indent=2) + "\n")
    print(f"wrote bands.csv, gaps.csv, discriminant.csv, bands.svg to {out}")
    return 0


def cmd_discriminant(args) -> int:
    seq = _as_periodic(_load_input(args.input))
    grid = _grid(args)
    disc = discriminant(seq)
    out = _ensure_out(args)
    _write_discriminant_csv(out, disc, grid)
    if args.json:
        report = {
            "period": disc.q,
            "laurent_coeffs": [[c.real, c.imag] for c in disc.laurent_coeffs],
            "rho_product": seq.rho_product(),
        }
        _atomic_write(os.path.join(out, "discriminant.json"),
                      json.dumps(report, indent=2) + "\n")
    print(f"wrote discriminant.csv to {out}")
    return 0


def cmd_density(args) -> int:
    seq = _as_periodic(_load_input(args.input))
    u = _parse_u(args.u)
    d = density(seq, u, n=_grid(args))
    out = _ensure_out(args)
    # sorted by the angle as printed: a band across 2 pi holds nodes past it
    thetas, vals = d.grid[:, 0] % TWO_PI, d.grid[:, 1]
    order = np.lexsort((vals, thetas))
    thetas, vals = thetas[order], vals[order]
    rows = ["theta,g"]
    for th, val in zip(thetas, vals):
        rows.append(f"{_fmt(th)},{_fmt(val)}")
    _atomic_write(os.path.join(out, "density.csv"), "\n".join(rows) + "\n")
    _atomic_write(os.path.join(out, "density.svg"), _polyline_svg(thetas, vals))
    report = d.to_json()
    report["u"] = {str(k): [v.real, v.imag] for k, v in u.items()}
    _atomic_write(os.path.join(out, "density.json"), json.dumps(report, indent=2) + "\n")
    print(f"wrote density.csv, density.svg, density.json to {out} "
          f"(mass {d.total_mass:.6f})")
    return 0


def cmd_gordon_check(args) -> int:
    obj = _load_input(args.input)
    seq = _as_periodic(obj)
    depth = args.stages
    if depth < 1:
        raise InputError("--stages must be at least 1 for gordon-check")
    schedule = [(k, k * seq.period) for k in range(1, depth + 1)]
    q_max = schedule[-1][1]
    window = CoefficientWindow.from_periodic(seq, -2 * q_max + 1, 2 * q_max + 1)
    cert = check_gordon(window, schedule)
    out = _ensure_out(args)
    _atomic_write(os.path.join(out, "gordon.json"), json.dumps(cert.to_json(), indent=2) + "\n")
    for c in cert.checks:
        print(f"k={c.k} q_k={c.q_k} lhs={c.lhs:.3e} rhs={c.rhs:.3e} "
              f"{'pass' if c.passed else 'FAIL'}")
    return 0 if cert.passed else 1


def cmd_construct(args) -> int:
    f = _as_sampling(_load_input(args.input))
    eps, K, mode = args.eps, args.stages, args.mode
    if not 0 < eps < math.inf:
        raise InputError("--eps must be finite and positive")
    if K < 0:
        raise InputError("--stages must be nonnegative")
    out = _ensure_out(args)
    try:
        if mode == "cantor":
            reports, final = cantor_iterate(f, eps, K, seed=args.seed)
        else:
            reports, final = ac_iterate(f, eps, K, _parse_u(args.u), args.t, seed=args.seed)
    except GapOpeningError as exc:
        trail = [r.to_json() for r in exc.trail]
        _atomic_write(os.path.join(out, "trail.json"),
                      json.dumps({"error": str(exc), "stages": trail}, indent=2) + "\n")
        print(f"construction failed: {exc}", file=sys.stderr)
        return 1
    trail = {"mode": mode, "eps": eps, "K": K, "seed": args.seed,
             "stages": [r.to_json() for r in reports],
             "final": final.to_json()}
    _atomic_write(os.path.join(out, "trail.json"), json.dumps(trail, indent=2) + "\n")
    # one column per StageReport field, as in trail.json; None is an empty cell
    rows = [",".join(fld.name for fld in dataclasses.fields(StageReport))]
    for r in reports:
        rows.append(",".join("" if v is None else _fmt(v) for v in r.to_json().values()))
    _atomic_write(os.path.join(out, "stages.csv"), "\n".join(rows) + "\n")
    # nested-band overlay: replaying the run for every stage spectrum is
    # wasteful, so draw the input (outer ring) and the final stage (inner ring)
    structures = [band_structure(to_periodic(g), compute_masses=False) for g in (f, final)]
    _atomic_write(os.path.join(out, "nested_bands.svg"), _band_ring_svg(structures))
    print(f"wrote trail.json, stages.csv, nested_bands.svg to {out}")
    return 0


def cmd_gamma(args) -> int:
    k, q, r = args.k, args.q, args.r
    if not (0 < r < 1):
        raise InputError("--r must lie in (0, 1)")
    if k < 1 or q < 1:
        raise InputError("--k and --q must be positive")
    L = estimate_lipschitz(r)
    val = gamma(k, q, r)
    obj = {"k": k, "q": q, "r": r, "lipschitz": L, "gamma": val}
    if args.json:
        print(json.dumps(obj, indent=2))
    else:
        print(f"gamma({k}, {q}, {r}) = {val:.6e}  (Lipschitz modulus {L:.4f})")
    if args.out:
        out = _ensure_out(args)
        _atomic_write(os.path.join(out, "gamma.json"), json.dumps(obj, indent=2) + "\n")
    return 0


def cmd_verify(args) -> int:
    results = run_criteria(args.filter)
    if not results:
        raise InputError(f"no criteria match filter {args.filter!r}")
    if args.json:
        print(json.dumps([r.to_json() for r in results], indent=2))
    else:
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            print(f"{mark} {r.name:24} measured={r.measured:.3e} "
                  f"tolerance={r.tolerance:.3e}" + (f"  {r.detail}" if r.detail else ""))
    if args.out:
        out = _ensure_out(args)
        _atomic_write(os.path.join(out, "verify.json"),
                      json.dumps([r.to_json() for r in results], indent=2) + "\n")
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cmvspectra",
                                description="Spectral computations for CMV operators "
                                            "with periodic and limit-periodic "
                                            "Verblunsky coefficients")
    sub = p.add_subparsers(dest="command", required=True)

    shared = {
        "--json": dict(action="store_true", help="also emit JSON output"),
        "--seed": dict(type=int, default=0, help="random seed (default 0)"),
        "--grid": dict(type=int, help="grid size for sampled outputs (default %(default)s)"),
    }

    def common(sp, *flags, needs_input=True):
        """--input (if needed), --out, and the shared flags this command reads."""
        if needs_input:
            sp.add_argument("--input", required=True, help="input sequence JSON file")
        sp.add_argument("--out", help="output directory")
        for flag in flags:
            sp.add_argument(flag, **shared[flag])

    sp = sub.add_parser("bands", help="band/gap tables, discriminant CSV, SVG diagram")
    common(sp, "--json", "--grid")
    sp.set_defaults(fn=cmd_bands, grid=720)

    sp = sub.add_parser("discriminant", help="sampled discriminant CSV")
    common(sp, "--json", "--grid")
    sp.set_defaults(fn=cmd_discriminant, grid=720)

    sp = sub.add_parser("density", help="spectral density of a finite-support vector")
    common(sp, "--grid")
    sp.add_argument("--u", default=_DEFAULT_U,
                    help="source vector, JSON mapping n -> value or [re, im]; "
                         "or @file.json (default: %(default)s)")
    sp.set_defaults(fn=cmd_density, grid=64)

    sp = sub.add_parser("gordon-check", help="audit the almost-repetition criterion")
    common(sp)
    sp.add_argument("--stages", type=int, default=3, help="certificate depth K (default 3)")
    sp.set_defaults(fn=cmd_gordon_check)

    sp = sub.add_parser("construct", help="run the cantor or ac construction")
    common(sp, "--seed")
    sp.add_argument("--mode", choices=["cantor", "ac"], default="cantor",
                    help="iteration type (default cantor)")
    sp.add_argument("--eps", type=float, default=0.5,
                    help="construction budget parameter (default 0.5)")
    sp.add_argument("--stages", type=int, default=2, help="number of stages K (default 2)")
    sp.add_argument("--t", type=float, default=1.5,
                    help="L^t exponent for ac mode, in (1, 2) (default 1.5)")
    sp.add_argument("--u", default=_DEFAULT_U,
                    help="source vector for ac mode (see density --u)")
    sp.set_defaults(fn=cmd_construct)

    sp = sub.add_parser("gamma", help="perturbation modulus gamma(k, q, r)")
    common(sp, "--json", needs_input=False)
    sp.add_argument("--k", type=int, default=1, help="scale index k (default 1)")
    sp.add_argument("--q", type=int, default=2, help="window length q (default 2)")
    sp.add_argument("--r", type=float, default=0.5,
                    help="coefficient radius bound (default 0.5)")
    sp.set_defaults(fn=cmd_gamma)

    sp = sub.add_parser("verify", help="run the acceptance suite")
    common(sp, "--json", needs_input=False)
    sp.add_argument("--filter", help="only run criteria whose name contains this")
    sp.set_defaults(fn=cmd_verify)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, ValueError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (BandDiagnosticError, AllGapsClosedError, EdgeProximityError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
