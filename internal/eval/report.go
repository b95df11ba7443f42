package eval

import (
	"fmt"
	"strings"
)

// Report renders experiment results as GitHub-flavoured markdown;
// FormatRT builds the online RT report with it.
type Report struct {
	b strings.Builder
}

// NewReport starts a report with a title.
func NewReport(title string) *Report {
	r := &Report{}
	fmt.Fprintf(&r.b, "# %s\n", title)
	return r
}

// Section adds a second-level heading.
func (r *Report) Section(title string) *Report {
	fmt.Fprintf(&r.b, "\n## %s\n\n", title)
	return r
}

// Paragraph adds free text.
func (r *Report) Paragraph(text string) *Report {
	fmt.Fprintf(&r.b, "%s\n", text)
	return r
}

// Table renders a markdown table. Rows shorter than the header are padded.
func (r *Report) Table(header []string, rows [][]string) *Report {
	if len(header) == 0 {
		return r
	}
	fmt.Fprintf(&r.b, "| %s |\n", strings.Join(header, " | "))
	seps := make([]string, len(header))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(&r.b, "|%s|\n", strings.Join(seps, "|"))
	for _, row := range rows {
		cells := make([]string, len(header))
		for i := range cells {
			if i < len(row) {
				cells[i] = row[i]
			}
		}
		fmt.Fprintf(&r.b, "| %s |\n", strings.Join(cells, " | "))
	}
	return r
}

// String returns the rendered markdown.
func (r *Report) String() string { return r.b.String() }
