package eval

import (
	"strings"
	"testing"
)

func TestReportRendersMarkdown(t *testing.T) {
	r := NewReport("Table I").
		Section("Results").
		Paragraph("Measured on the synthetic population.").
		Table(
			[]string{"row", "acc", "f1", "paper acc", "paper f1"},
			[][]string{
				{"CL validation", "81.90 ± 3.40", "80.40 ± 3.60", "81.90", "80.41"},
				{"short row"},
			},
		)
	out := r.String()
	for _, want := range []string{
		"# Table I",
		"## Results",
		"| row | acc | f1 | paper acc | paper f1 |",
		"|---|---|---|---|---|",
		"| CL validation | 81.90 ± 3.40 | 80.40 ± 3.60 | 81.90 | 80.41 |",
		"| short row |  |  |  |  |", // padded
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestReportEmptyTable(t *testing.T) {
	r := NewReport("t")
	before := r.String()
	r.Table(nil, nil)
	if r.String() != before {
		t.Error("empty header should render nothing")
	}
}
