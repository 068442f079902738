"""Deterministic page rasterizer + pure-stdlib PNG writer.

The reference's browser test mode renders one screenshot per drill
round (``page.render(ipath+'/debug-page'+drill_count+'.png')``,
lib/phantomjs/phantomjs-bridge.js:204-211).  This engine has no live
browser, so the faithful analog is a DETERMINISTIC wireframe render of
the round's DOM: a box-model walk of the page tree (our own parser,
functions/dom.py) laid out top-to-bottom, block elements as bordered
grey boxes whose fill intensity encodes tag class and text density.
Two properties the debug workflow needs actually hold: the same page
always renders the same bytes (goldens diff cleanly), and *different*
click rounds render visibly different images (the jsnav content swap
changes the box layout).

The PNG encoder is ~40 lines of stdlib (zlib + struct + binascii crc32)
— 8-bit grayscale, filter 0 scanlines — so no image library enters the
container.
"""

from __future__ import annotations

import binascii
import struct
import zlib

# layout constants (pixels): a small fixed canvas keeps goldens tiny
WIDTH = 192
ROW_H = 6          # one block element row
PAD = 2            # canvas margin + inter-box gap
INDENT = 6         # per-DOM-depth horizontal indent

# tags that render as their own block row (a wireframe's "boxes");
# everything else contributes its text to the nearest block ancestor
_BLOCK_TAGS = {
    "div", "p", "h1", "h2", "h3", "h4", "h5", "h6", "ul", "ol", "li",
    "table", "tr", "form", "section", "article", "header", "footer",
    "nav", "aside", "blockquote", "pre", "title", "button",
}
_SKIP_TAGS = {"script", "style", "head", "meta", "link"}


def _tag_shade(name: str) -> int:
    """Stable per-tag base intensity (64..159) — a crude 'style sheet'
    so headings, paragraphs and list items are tellable apart."""
    return 64 + (binascii.crc32(name.encode()) % 96)


def render_wireframe(html: bytes | str, width: int = WIDTH,
                     max_rows: int = 64) -> list[bytearray]:
    """DOM wireframe raster of an html document → list of scanlines
    (bytearrays, 8-bit grayscale).  Deterministic: layout depends only
    on the parsed elements (order, depth, tag, text length)."""
    from .dom import parse_html

    if isinstance(html, bytes):
        try:
            text = html.decode("utf-8")
        except UnicodeDecodeError:
            text = html.decode("latin-1")
    else:
        text = html
    root = parse_html(text)

    boxes: list[tuple[int, int, int]] = []  # (depth, shade, fill_px)

    def walk(node, depth: int) -> None:
        for child in node.children:
            name = child.name
            if name in _SKIP_TAGS:
                continue
            if name in _BLOCK_TAGS:
                if len(boxes) >= max_rows:
                    return
                txt_len = len(child.text().strip())
                inner = max(8, width - 2 * PAD - depth * INDENT)
                # text density → filled fraction of the box
                fill = min(inner, 4 + txt_len // 3)
                boxes.append((min(depth, 8), _tag_shade(name), fill))
            walk(child, depth + (1 if name in _BLOCK_TAGS else 0))

    walk(root, 0)
    if not boxes:
        boxes.append((0, _tag_shade("p"), 8))

    height = PAD * 2 + len(boxes) * ROW_H
    rows = [bytearray([255]) * width for _ in range(height)]
    y = PAD
    for depth, shade, fill in boxes:
        x0 = PAD + depth * INDENT
        x1 = width - PAD
        for dy in range(ROW_H - 1):  # 1px gap between boxes
            line = rows[y + dy]
            edge = dy == 0 or dy == ROW_H - 2
            for x in range(x0, x1):
                if edge or x == x0 or x == x1 - 1:
                    line[x] = 32                      # border
                elif x < x0 + 1 + fill:
                    line[x] = shade                   # text fill
                else:
                    line[x] = 232                     # empty interior
        y += ROW_H
    return rows


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (struct.pack(">I", len(payload)) + tag + payload
            + struct.pack(">I", binascii.crc32(tag + payload) & 0xFFFFFFFF))


def write_png(path: str, rows: list[bytearray]) -> None:
    """Minimal 8-bit grayscale PNG (filter 0 per scanline), stdlib-only."""
    height = len(rows)
    width = len(rows[0]) if rows else 0
    ihdr = struct.pack(">IIBBBBB", width, height, 8, 0, 0, 0, 0)
    raw = b"".join(b"\x00" + bytes(r) for r in rows)
    with open(path, "wb") as f:
        f.write(b"\x89PNG\r\n\x1a\n")
        f.write(_chunk(b"IHDR", ihdr))
        f.write(_chunk(b"IDAT", zlib.compress(raw, 9)))
        f.write(_chunk(b"IEND", b""))


def render_page_png(path: str, html: bytes | str) -> None:
    """One-call analog of ``page.render(...png)`` for the debug sink."""
    write_png(path, render_wireframe(html))
