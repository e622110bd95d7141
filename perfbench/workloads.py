"""Seeded layout generator for the benchmark workloads.

Writes the pattern-forge layout text format directly with stdlib `random`,
so the benchmark's inputs do not change when the program's own synthetic
generator does. Every workload places one instance per window; windows sit
on a square grid far enough apart that no content reaches a neighbour. An
instance's content is offset from its window centre by up to JITTER nm per
axis and its marker spans 2 * JITTER per side, so the exact alignment of any
two instances of a template is a legal center.

The seed draws each instance's offset and which grid slot its window takes.
The templates come from a stream fixed per workload: when they were drawn
from the seed too, the final cluster count of cos_nearT, and with it the
work of a run, moved by up to 12 % from seed to seed, more than the host's
noise left after speed scaling (see run.py). With fixed templates every seed
asks for the same work on different coordinates.

cos_extract and edge_graph stamp template k with 3 + k shapes (rectangles,
L and T shapes in distinct cells), so templates differ in shape count.

cos_nearT stamps ten templates of six rectangles plus two bars that cross
the window edge. Within a template one long rectangle edge is moved out by
0..80 nm, spread evenly over the instances, so the cosine against T = 0.975
splits each template into bands that the iterations must sort out. Two
instances per template are special: one has the opposite edge moved by
80 nm and matches nothing, so it is deferred until the last round; one sits
3 * JITTER off its window centre, so it has no edge in the zero-shift graph,
is deferred and later joins a cluster through the probe stage.

Coordinates are integers in nm. Shapes are emitted as explicit rectilinear
rings; the parser normalises orientation and start vertex.
"""

import math
import random
from dataclasses import dataclass

RADIUS = 512
JITTER = 6


@dataclass(frozen=True)
class Workload:
    name: str
    constraint: str       # COSINE | EDGEMOVE
    threshold: str        # written verbatim into the header
    templates: int
    instances: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cos_extract", "COSINE", "0.9", 20, 20),
        Workload("edge_graph", "EDGEMOVE", "10", 5, 80),
        Workload("cos_nearT", "COSINE", "0.975", 10, 40),
    )
}


def _rect(x0, y0, x1, y1):
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]


def _cell_shape(rng, x0, y0, x1, y1):
    """A rectangle, L or T inside the box, at least 32 nm on each side."""
    w = rng.randint(32, x1 - x0)
    h = rng.randint(32, y1 - y0)
    bx0 = rng.randint(x0, x1 - w)
    by0 = rng.randint(y0, y1 - h)
    bx1, by1 = bx0 + w, by0 + h
    roll = rng.random()
    if roll < 0.45 or by1 + 16 > y1 or w < 48:
        return _rect(bx0, by0, bx1, by1)
    top = rng.randint(by1 + 16, y1)
    if roll < 0.75:  # L: arm flush with the left side of the base
        ax1 = bx0 + rng.randint(16, w - 16)
        return [(bx0, by0), (bx1, by0), (bx1, by1), (ax1, by1), (ax1, top), (bx0, top)]
    if w < 64:
        return _rect(bx0, by0, bx1, by1)
    ax0 = bx0 + rng.randint(16, w - 48)  # T: arm strictly inside the base
    ax1 = rng.randint(ax0 + 16, bx1 - 16)
    return [(bx0, by0), (bx1, by0), (bx1, by1), (ax1, by1), (ax1, top),
            (ax0, top), (ax0, by1), (bx0, by1)]


def _cell_template(rng, count, half):
    """`count` shapes in distinct cells of a square grid over [-half, half]^2.

    16 nm cell insets keep distinct shapes at least 32 nm apart.
    """
    cells = math.isqrt(count - 1) + 1
    cell = (2 * half) // cells
    out = []
    for ci in sorted(rng.sample(range(cells * cells), count)):
        cx0 = -half + (ci % cells) * cell
        cy0 = -half + (ci // cells) * cell
        out.append(_cell_shape(rng, cx0 + 16, cy0 + 16, cx0 + cell - 16, cy0 + cell - 16))
    return out


def _near_t_template(rng, area, half=420):
    """Six rectangles in distinct cells of a 3x3 grid over [-half, half]^2,
    then two bars that cross the window edge, one through the east edge and
    one through the north edge.

    The rectangles' total area is within 1% of `area`. The first rectangle
    has a full-height vertical edge, the one the workload perturbs. 44 nm
    cell margins keep rectangles more than 80 nm apart, so a perturbed edge
    never touches another shape, and the bars start beyond any of them.
    """
    cell = (2 * half) // 3
    side = cell - 88  # largest rectangle side that fits a cell
    while True:
        dims = [(rng.randint(64, side), side)]
        dims += [(rng.randint(64, side), rng.randint(64, side)) for _ in range(5)]
        if abs(sum(w * h for w, h in dims) - area) <= area // 100:
            break
    shapes = []
    for ci, (w, h) in zip(sorted(rng.sample(range(9), 6)), dims):
        x0 = -half + (ci % 3) * cell + 44
        y0 = -half + (ci // 3) * cell + 44
        rx = rng.randint(x0, x0 + side - w)
        ry = rng.randint(y0, y0 + side - h)
        shapes.append(_rect(rx, ry, rx + w, ry + h))
    ey = rng.randint(-half // 2, half // 2)
    nx = rng.randint(-half // 2, half // 2)
    shapes.append(_rect(half + 48, ey, RADIUS + 160, ey + rng.randint(24, 48)))
    shapes.append(_rect(nx, half + 48, nx + rng.randint(24, 48), RADIUS + 160))
    return shapes


def _perturb(rect_ring, amount, side):
    """Move one edge of a rectangle ring outward by `amount` nm; side 0 is
    the east edge, 2 the west edge."""
    (x0, y0), _, (x1, y1), _ = rect_ring
    if side == 0:
        x1 += amount
    else:
        x0 -= amount
    return _rect(x0, y0, x1, y1)


def generate(name: str, seed: int) -> tuple[str, dict]:
    """Layout text for workload `name` with inputs drawn from `seed`, plus
    its shape facts (N, P)."""
    w = WORKLOADS[name]
    library = random.Random(f"{name}:templates")
    near_t = name == "cos_nearT"
    if near_t:
        # total areas 6% apart: each template shares the prescreen's 10%
        # area band with its neighbours only
        templates = [_near_t_template(library, int(70_000 * 1.06**k)) for k in range(w.templates)]
        sides = [library.choice((0, 2)) for _ in templates]
    else:
        half = RADIUS - 4 * JITTER - 16
        templates = [_cell_template(library, 3 + k, half) for k in range(w.templates)]

    rng = random.Random(f"{name}:{seed}")
    total = w.templates * w.instances
    cols = math.isqrt(total - 1) + 1
    slots = list(range(total))
    rng.shuffle(slots)
    pitch = 4 * RADIUS + 64
    lines = [f"HEADER RADIUS {RADIUS} CONSTRAINT {w.constraint} THRESHOLD {w.threshold}"]
    markers = []
    pid = 0
    g = 0
    for k, shapes in enumerate(templates):
        for m in range(w.instances):
            ax, ay = (slots[g] % cols) * pitch, (slots[g] // cols) * pitch
            ox, oy = rng.randint(-JITTER, JITTER), rng.randint(-JITTER, JITTER)
            reach = 2 * JITTER
            rings = shapes
            if near_t:
                rings = list(shapes)
                if m == w.instances // 2:  # matches nothing
                    rings[0] = _perturb(shapes[0], 80, 2 - sides[k])
                else:
                    rings[0] = _perturb(shapes[0], (80 * m) // (w.instances - 1), sides[k])
                if m == w.instances // 4:  # lone at zero shift
                    ox = oy = 3 * JITTER
                    reach = 5 * JITTER
            for ring in rings:
                coords = " ".join(f"{x + ax + ox} {y + ay + oy}" for x, y in ring)
                lines.append(f"POLY {pid} {coords}")
                pid += 1
            markers.append(f"MARKER {g} {ax - reach} {ay - reach} {ax + reach} {ay + reach}")
            g += 1
    lines.extend(markers)
    return "\n".join(lines) + "\n", {"N": total, "P": pid}
