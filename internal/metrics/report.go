package metrics

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"unicode/utf8"
)

// Table renders aligned fixed-width text tables — the framework's
// textual output format, used by every experiment to print the
// paper-shaped rows.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header count are kept, short
// rows are padded when rendered.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddRowf appends a row formatting each value with %v, floats with %.4g.
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case float32:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Write renders the table to w.
func (t *Table) Write(w io.Writer) error {
	ncols := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > ncols {
			ncols = len(r)
		}
	}
	widths := make([]int, ncols)
	// Widths count runes, as %-*s pads by them: a "µs" cell is two
	// columns wide, not three.
	for i, h := range t.Headers {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			widths[i] = max(widths[i], utf8.RuneCountInString(c))
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	// line pads each cell to its column's width, but ends the line at
	// its last non-blank character.
	line := func(cells []string) {
		var l strings.Builder
		for i := 0; i < ncols; i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				l.WriteString("  ")
			}
			fmt.Fprintf(&l, "%-*s", widths[i], c)
		}
		b.WriteString(strings.TrimRight(l.String(), " "))
		b.WriteString("\n")
	}
	if len(t.Headers) > 0 {
		line(t.Headers)
		seps := make([]string, ncols)
		for i := range seps {
			seps[i] = strings.Repeat("-", widths[i])
		}
		line(seps)
	}
	for _, r := range t.Rows {
		line(r)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Write(&b)
	return b.String()
}

// WriteCSV renders the table as RFC-4180-ish CSV (values quoted only
// when they contain a comma, quote, or newline).
func (t *Table) WriteCSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		for i, c := range cells {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			if _, err := io.WriteString(w, c); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	if len(t.Headers) > 0 {
		if err := writeRow(t.Headers); err != nil {
			return err
		}
	}
	for _, r := range t.Rows {
		if err := writeRow(r); err != nil {
			return err
		}
	}
	return nil
}

// AsciiPlot renders one or more series as a monospace scatter/line
// chart, the framework's stand-in for the "visual output analyzer"
// axis of the taxonomy. Series are drawn with distinct glyphs.
func AsciiPlot(title string, width, height int, series ...*Series) string {
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	glyphs := []byte{'*', 'o', '+', 'x', '#', '@'}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	total := 0
	for _, s := range series {
		for i := range s.X {
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			minY = math.Min(minY, s.Y[i])
			maxY = math.Max(maxY, s.Y[i])
			total++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	if total == 0 {
		b.WriteString("(no data)\n")
		return b.String()
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		g := glyphs[si%len(glyphs)]
		for i := range s.X {
			cx := int((s.X[i] - minX) / (maxX - minX) * float64(width-1))
			cy := int((s.Y[i] - minY) / (maxY - minY) * float64(height-1))
			row := height - 1 - cy
			grid[row][cx] = g
		}
	}
	fmt.Fprintf(&b, "%10.4g +%s\n", maxY, strings.Repeat("-", width))
	for _, row := range grid {
		fmt.Fprintf(&b, "%10s |%s\n", "", bytes.TrimRight(row, " "))
	}
	fmt.Fprintf(&b, "%10.4g +%s\n", minY, strings.Repeat("-", width))
	fmt.Fprintf(&b, "%10s  %-10.4g%*s\n", "", minX, width-10, fmt.Sprintf("%.4g", maxX))
	for si, s := range series {
		fmt.Fprintf(&b, "%10s  %c = %s\n", "", glyphs[si%len(glyphs)], s.Name)
	}
	return b.String()
}
