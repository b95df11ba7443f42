package main

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestRunPrintsWorkflow runs the quickstart end to end and checks that
// every stage reported its line.
func TestRunPrintsWorkflow(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"population: 18 known users",
		"cluster sizes: [",
		"cold-start assignment → cluster ",
		"fine-tuned with ",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
	m := regexp.MustCompile(`cold-start assignment → cluster (\d+) `).FindStringSubmatch(got)
	if m == nil {
		t.Fatalf("no assignment line:\n%s", got)
	}
	if k, _ := strconv.Atoi(m[1]); k < 0 || k >= 4 {
		t.Errorf("assigned cluster %d, want one of the 4 clusters", k)
	}
}
