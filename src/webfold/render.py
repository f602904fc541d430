"""SVG renderings: semicircle diagrams, resolved webs, 2-web arc diagrams.

Diagrams are drawn from their exact rational coordinates; webs reuse the
layout stored by the resolution when present and fall back to a barycentric
embedding otherwise.  Output is plain SVG text, byte-stable across runs.
"""

from __future__ import annotations

import html
import math

from .matchings import Matching2
from .mdiagram import MDiagram, crossings
from .planarweb import BOUNDARY, INTERSECTION, PlanarWeb

SCALE = 40.0
MARGIN = 30.0

_STYLE = (
    '<defs><marker id="tip" markerWidth="7" markerHeight="7" refX="6" refY="3" '
    'orient="auto"><path d="M0,0 L6,3 L0,6 z" fill="context-stroke"/>'
    "</marker></defs>"
)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _document(width: float, height: float, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    )
    return "\n".join([head, _STYLE, *body, "</svg>"]) + "\n"


def _semicircle(x1: float, y: float, x2: float, stroke: str, dashed: bool) -> str:
    r = abs(x2 - x1) / 2
    # drawing left to right above the baseline is clockwise in svg coordinates
    sweep = 1 if x1 < x2 else 0
    dash = ' stroke-dasharray="6 4"' if dashed else ""
    return (
        f'<path d="M {_fmt(x1)} {_fmt(y)} A {_fmt(r)} {_fmt(r)} 0 0 {sweep} '
        f'{_fmt(x2)} {_fmt(y)}" fill="none" stroke="{stroke}" '
        f'stroke-width="1.5" marker-end="url(#tip)"{dash}/>'
    )


def svg_of_mdiagram(m: MDiagram) -> str:
    xs = [float(x) for x in m.xs]
    lo, hi = min(xs), max(xs)
    max_r = 0.5
    for p, q in m.ends:
        max_r = max(max_r, abs(float(m.xs[q - 1] - m.xs[p - 1])) / 2)
    base = MARGIN + max_r * SCALE

    def px(x: float) -> float:
        return MARGIN + (x - lo) * SCALE

    body = [
        f'<line x1="{_fmt(px(lo))}" y1="{_fmt(base)}" x2="{_fmt(px(hi))}" '
        f'y2="{_fmt(base)}" stroke="#999" stroke-width="1"/>'
    ]
    for i, (p, q) in enumerate(m.ends):
        stroke = "#1f6fb2" if m.second >> i & 1 else "#000000"
        body.append(_semicircle(px(xs[p - 1]), base, px(xs[q - 1]), stroke, m.crossed >> i & 1))
    for i, _, x in crossings(m):
        p, q = m.ends[i]
        x1, x2 = xs[p - 1], xs[q - 1]
        center, r = (x1 + x2) / 2, abs(x2 - x1) / 2
        x = float(x)
        y = math.sqrt(max(r * r - (x - center) ** 2, 0.0))
        body.append(
            f'<circle cx="{_fmt(px(x))}" cy="{_fmt(base - y * SCALE)}" r="3.5" '
            'fill="none" stroke="#c0392b" stroke-width="1.5"/>'
        )
    for label, x in zip(m.labels, map(px, xs)):
        body.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(base)}" r="2.5" fill="#000"/>')
        body.append(
            f'<text x="{_fmt(x)}" y="{_fmt(base + 16)}" font-size="11" '
            'text-anchor="middle" font-family="sans-serif">'
            f"{html.escape(label, quote=False)}</text>"
        )
    return _document(px(hi) + MARGIN, base + MARGIN, body)


def _barycentric_layout(
    w: PlanarWeb, edges: list[tuple[int, int, str]]
) -> dict[int, tuple[float, float]]:
    """Boundary pinned on a circle, internal vertices relaxed to neighbor
    means; edges are w's (tail, head, tag) triples."""
    n = w.n_boundary
    pos: dict[int, tuple[float, float]] = {}
    for k in range(1, n + 1):
        angle = math.pi / 2 + 2 * math.pi * (k - 1) / n
        pos[k] = (math.cos(angle), -math.sin(angle))
    neighbors: dict[int, list[int]] = {v: [] for v in w.rotation}
    for tail, head, tag in edges:
        if tag != BOUNDARY:
            neighbors[tail].append(head)
            neighbors[head].append(tail)
    # labels outside 1..N, whatever their sign, name internal vertices
    movable = [v for v in sorted(w.rotation) if not 1 <= v <= n]
    for i, v in enumerate(movable):
        pos[v] = (1e-3 * (i + 1), 1e-3 * (i + 1))
    # a vertex with no web edge has nothing to average and keeps its seed
    movable = [v for v in movable if neighbors[v]]
    for _ in range(200):
        for v in movable:
            around = neighbors[v]
            pos[v] = (
                sum(pos[u][0] for u in around) / len(around),
                sum(pos[u][1] for u in around) / len(around),
            )
    return pos


def svg_of_web(w: PlanarWeb) -> str:
    edges = list(zip(w.origins[0::2], w.origins[1::2], w.tags))
    if w.layout:
        pos = {v: (float(x), float(y)) for v, (x, y) in w.layout.items()}
    else:
        pos = _barycentric_layout(w, edges)
    xs = [p[0] for p in pos.values()]
    ys = [p[1] for p in pos.values()]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)

    def px(p: tuple[float, float]) -> tuple[float, float]:
        return (
            MARGIN + (p[0] - lo_x) * SCALE,
            MARGIN + (hi_y - p[1]) * SCALE,
        )

    body = []
    for tail, head, tag in sorted(edges, key=lambda e: e[2] != BOUNDARY):
        (x1, y1), (x2, y2) = px(pos[tail]), px(pos[head])
        if tag == BOUNDARY:
            style = 'stroke="#cccccc" stroke-width="1"'
        elif tag == INTERSECTION:
            style = 'stroke="#c0392b" stroke-width="2" stroke-dasharray="4 3"'
        else:
            style = 'stroke="#000000" stroke-width="1.5"'
        body.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" {style}/>'
        )
    out_degree = {v: 0 for v in w.rotation}
    for tail, _, tag in edges:
        if tag != BOUNDARY:
            out_degree[tail] += 1
    for v in sorted(w.rotation):
        x, y = px(pos[v])
        if 1 <= v <= w.n_boundary:
            body.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2.5" fill="#000"/>')
            body.append(
                f'<text x="{_fmt(x)}" y="{_fmt(y + 15)}" font-size="10" '
                f'text-anchor="middle" font-family="sans-serif">{v}</text>'
            )
        elif out_degree[v] == 0:
            body.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="#000"/>')
        else:
            body.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="#fff" '
                'stroke="#000" stroke-width="1.5"/>'
            )
    width = MARGIN + (hi_x - lo_x) * SCALE + MARGIN
    height = MARGIN + (hi_y - lo_y) * SCALE + MARGIN + 10
    return _document(width, height, body)


def svg_of_matching2(m: Matching2) -> str:
    base = MARGIN + max(m.n_pairs, 1) * SCALE / 2
    body = []
    for a, b in m.arcs:
        x1, x2 = MARGIN + a * SCALE, MARGIN + b * SCALE
        body.append(_semicircle(x1, base, x2, "#000000", False))
    for k in range(1, 2 * m.n_pairs + 1):
        x = MARGIN + k * SCALE
        body.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(base)}" r="2.5" fill="#000"/>')
        body.append(
            f'<text x="{_fmt(x)}" y="{_fmt(base + 16)}" font-size="11" '
            f'text-anchor="middle" font-family="sans-serif">{k}</text>'
        )
    return _document(MARGIN + 2 * m.n_pairs * SCALE + MARGIN, base + MARGIN, body)


def svg_of_json(data: dict) -> str:
    """Dispatch on the JSON shape: diagram, web, or 2-row matching."""
    if "boundary" in data and "arcs" in data:
        return svg_of_mdiagram(MDiagram.from_dict(data))
    if "edges" in data and "rotation" in data:
        return svg_of_web(PlanarWeb.from_dict(data))
    if "arcs" in data and "n" in data:
        return svg_of_matching2(Matching2.from_dict(data))
    raise ValueError("unrecognized input; expected a diagram, web, or matching")
