"""Terminal renderings of the paper's figures."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.figures.ascii": ("bar_chart", "line_chart", "radar_table"),
})
