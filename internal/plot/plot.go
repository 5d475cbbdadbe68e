// Package plot renders simple ASCII scatter and line charts for terminal
// output, so the paper's figures can be *seen*, not just tabulated: the
// Fig. 7 access-pattern panels and Fig. 8's eviction overlay render
// directly from fault traces in cmd/uvmreport.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// Canvas is a character grid with data-space scaling.
type Canvas struct {
	w, h         int
	cells        [][]rune
	xmin, xmax   float64
	ymin, ymax   float64
	scaleLocked  bool
	titleStr     string
	xLabel, yLab string
}

// NewCanvas returns a w×h plotting surface (plot area, excluding axes).
func NewCanvas(w, h int) *Canvas {
	if w < 8 {
		w = 8
	}
	if h < 4 {
		h = 4
	}
	c := &Canvas{w: w, h: h}
	c.cells = make([][]rune, h)
	for i := range c.cells {
		c.cells[i] = make([]rune, w)
		for j := range c.cells[i] {
			c.cells[i][j] = ' '
		}
	}
	return c
}

// Title sets the chart title.
func (c *Canvas) Title(s string) *Canvas { c.titleStr = s; return c }

// Labels sets the axis labels.
func (c *Canvas) Labels(x, y string) *Canvas { c.xLabel, c.yLab = x, y; return c }

// SetScale fixes the data-space bounds; otherwise the first Scatter call
// auto-scales to its data.
func (c *Canvas) SetScale(xmin, xmax, ymin, ymax float64) *Canvas {
	c.xmin, c.xmax, c.ymin, c.ymax = xmin, xmax, ymin, ymax
	if c.xmax <= c.xmin {
		c.xmax = c.xmin + 1
	}
	if c.ymax <= c.ymin {
		c.ymax = c.ymin + 1
	}
	c.scaleLocked = true
	return c
}

func (c *Canvas) autoScale(xs, ys []float64) {
	if c.scaleLocked || len(xs) == 0 {
		return
	}
	c.xmin, c.xmax = math.Inf(1), math.Inf(-1)
	c.ymin, c.ymax = math.Inf(1), math.Inf(-1)
	for i := range xs {
		c.xmin = math.Min(c.xmin, xs[i])
		c.xmax = math.Max(c.xmax, xs[i])
		c.ymin = math.Min(c.ymin, ys[i])
		c.ymax = math.Max(c.ymax, ys[i])
	}
	if c.xmax <= c.xmin {
		c.xmax = c.xmin + 1
	}
	if c.ymax <= c.ymin {
		c.ymax = c.ymin + 1
	}
	c.scaleLocked = true
}

// cell maps a data point to grid coordinates.
func (c *Canvas) cell(x, y float64) (col, row int, ok bool) {
	if x < c.xmin || x > c.xmax || y < c.ymin || y > c.ymax {
		return 0, 0, false
	}
	col = int((x - c.xmin) / (c.xmax - c.xmin) * float64(c.w-1))
	row = c.h - 1 - int((y-c.ymin)/(c.ymax-c.ymin)*float64(c.h-1))
	return col, row, true
}

// Scatter plots points with the given mark. Later marks overwrite
// earlier ones, so draw dense series first and highlights last.
func (c *Canvas) Scatter(xs, ys []float64, mark rune) *Canvas {
	c.autoScale(xs, ys)
	for i := range xs {
		if col, row, ok := c.cell(xs[i], ys[i]); ok {
			c.cells[row][col] = mark
		}
	}
	return c
}

// Line plots a series connected by linear interpolation.
func (c *Canvas) Line(xs, ys []float64, mark rune) *Canvas {
	c.autoScale(xs, ys)
	for i := 1; i < len(xs); i++ {
		c.segment(xs[i-1], ys[i-1], xs[i], ys[i], mark)
	}
	if len(xs) == 1 {
		c.Scatter(xs, ys, mark)
	}
	return c
}

func (c *Canvas) segment(x0, y0, x1, y1 float64, mark rune) {
	steps := c.w * 2
	for s := 0; s <= steps; s++ {
		f := float64(s) / float64(steps)
		if col, row, ok := c.cell(x0+f*(x1-x0), y0+f*(y1-y0)); ok {
			c.cells[row][col] = mark
		}
	}
}

// String renders the chart with a box, axis bounds, and labels.
func (c *Canvas) String() string {
	var sb strings.Builder
	if c.titleStr != "" {
		sb.WriteString(c.titleStr + "\n")
	}
	yhi := trimNum(c.ymax)
	ylo := trimNum(c.ymin)
	pad := len(yhi)
	if len(ylo) > pad {
		pad = len(ylo)
	}
	if len(c.yLab) > pad {
		pad = len(c.yLab)
	}
	border := strings.Repeat("-", c.w)
	sb.WriteString(fmt.Sprintf("%*s +%s+\n", pad, yhi, border))
	for i, row := range c.cells {
		label := strings.Repeat(" ", pad)
		if i == c.h/2 && c.yLab != "" {
			label = fmt.Sprintf("%*s", pad, c.yLab)
		}
		sb.WriteString(fmt.Sprintf("%s |%s|\n", label, string(row)))
	}
	sb.WriteString(fmt.Sprintf("%*s +%s+\n", pad, ylo, border))
	xlo, xhi := trimNum(c.xmin), trimNum(c.xmax)
	gap := c.w - len(xlo) - len(xhi)
	if gap < 1 {
		gap = 1
	}
	sb.WriteString(fmt.Sprintf("%*s  %s%s%s", pad, "", xlo, strings.Repeat(" ", gap), xhi))
	if c.xLabel != "" {
		sb.WriteString("  " + c.xLabel)
	}
	sb.WriteByte('\n')
	return sb.String()
}

// trimNum formats a float compactly.
func trimNum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.3g", v)
}
